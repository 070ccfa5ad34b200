//! # mcml-spice — a small analog circuit simulator
//!
//! Transistor-level simulation substrate for the PG-MCML reproduction. The
//! paper characterises its cells and measures the S-box current waveforms
//! with commercial SPICE-class tools (Synopsys Nanosim); this crate is the
//! open replacement: a modified-nodal-analysis (MNA) engine with
//!
//! * Newton–Raphson DC operating-point analysis with **gmin stepping** and
//!   **source stepping** continuation,
//! * transient analysis with **backward-Euler** companion models (the
//!   one integrator) and automatic step subdivision on non-convergence,
//! * dense LU factorisation, replayed over its structural non-zeros, for
//!   cell-sized systems and sparse (Gilbert–Peierls left-looking) LU
//!   above,
//! * elements: resistors, capacitors, independent V/I sources (DC and
//!   PWL), and the smooth MOSFET model from [`mcml_device`],
//! * branch-current probing (supply-current measurement comes for free from
//!   the MNA voltage-source branch unknowns).
//!
//! # Example: RC step response
//!
//! ```
//! use mcml_spice::{Circuit, SourceWave, TranOptions};
//!
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let out = c.node("out");
//! c.vsource("VIN", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
//! c.resistor("R", vin, out, 1.0e3);
//! c.capacitor("C", out, Circuit::GND, 1.0e-12);
//!
//! let res = c.transient(&TranOptions::new(10e-9, 10e-12)).unwrap();
//! let v_end = res.voltage(out).last_value();
//! assert!((v_end - 1.0).abs() < 0.01, "cap charges to the step level");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod circuit;
pub mod element;
pub mod error;
pub mod matrix;
pub mod source;
pub mod waveform;

pub use analysis::dc::OpPoint;
pub use analysis::tran::{TranOptions, TranResult, BYPASS_VTOL, LTE_ABSTOL, LTE_H_MAX, LTE_RELTOL};
pub use circuit::{Circuit, ElementId, NodeId};
pub use element::Element;
pub use error::SpiceError;
pub use source::SourceWave;
pub use waveform::Waveform;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SpiceError>;

/// Test-only hooks: not part of the supported API.
#[doc(hidden)]
pub mod testing {
    use crate::analysis::engine::{init_cap_states, CompanionCtx, Engine};
    use crate::circuit::Circuit;

    /// Dense `(row-major matrix, residual)` snapshot of one assembly path.
    pub type DenseSystem = (Vec<f64>, Vec<f64>);

    /// Dense `(row-major matrix, residual)` snapshots of one MNA assembly
    /// through the legacy full-restamp path and the stamp-plan fast path,
    /// in that order. `companion` is `(h, state)`: a backward-Euler step
    /// of size `h` with the capacitor voltages initialised from `state`.
    #[must_use]
    pub fn assemble_both_dense(
        ckt: &Circuit,
        x: &[f64],
        t: f64,
        companion: Option<(f64, &[f64])>,
        gmin: f64,
        src_scale: f64,
    ) -> (DenseSystem, DenseSystem) {
        let mut engine = Engine::new(ckt);
        match companion {
            Some((h, state)) => {
                let caps = init_cap_states(ckt, state);
                let ctx = CompanionCtx { h, caps: &caps };
                engine.assemble_both_dense(x, t, Some(&ctx), gmin, src_scale)
            }
            None => engine.assemble_both_dense(x, t, None, gmin, src_scale),
        }
    }
}
