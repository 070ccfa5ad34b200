//! # mcml-device — 90 nm MOSFET and technology models
//!
//! Device-physics substrate for the PG-MCML reproduction. The paper designs
//! its standard cells on a proprietary 90 nm CMOS process with low-Vt and
//! high-Vt device flavours; this crate provides an open, self-contained
//! replacement: a charge-sheet (EKV-style) MOSFET model that is smooth and
//! continuously differentiable across the subthreshold, triode and
//! saturation regions, plus parameter presets for the four device flavours
//! (`NMOS`/`PMOS` × `LVT`/`HVT`) at nominal and corner conditions.
//!
//! The model covers every first-order effect the paper's experiments rely
//! on:
//!
//! * a saturation-region NMOS used as the MCML **tail current source**,
//! * PMOS devices biased in the triode region as **active loads**,
//! * Vt-dependent **subthreshold leakage** (the quantity fine-grain power
//!   gating attacks),
//! * the **body effect**, through the slope factor (`gmb = (n − 1)·gm`;
//!   the discarded power-gating topology (c) relies on body biasing),
//! * channel-length modulation and simple temperature scaling.
//!
//! # Example
//!
//! ```
//! use mcml_device::{Mosfet, MosParams, Technology};
//!
//! let tech = Technology::cmos90();
//! // A 2 µm / 0.1 µm high-Vt NMOS as used for MCML tail current sources.
//! let m = Mosfet::nmos(MosParams::nmos_hvt_90(), 2.0e-6, 0.1e-6);
//! // Bias it like a current source: Vg = 0.55 V, Vd = 0.6 V, Vs = Vb = 0.
//! let op = m.eval(0.55, 0.6, 0.0, 0.0);
//! assert!(op.id > 0.0, "tail device must conduct");
//! assert!(op.gm > 0.0 && op.gds > 0.0);
//! assert!(tech.vdd > 1.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod model;
pub mod params;
pub mod tech;

pub use model::{MosEval, Mosfet, MosfetGeometry};
pub use params::{Corner, MosParams, MosPolarity, VtFlavor};
pub use tech::Technology;

/// Boltzmann constant over elementary charge (V/K); `k·T/q` at `T` kelvin is
/// `K_OVER_Q * t_kelvin`.
pub const K_OVER_Q: f64 = 8.617_333_262e-5;

/// Thermal voltage `kT/q` in volts at the given temperature in kelvin.
///
/// ```
/// let ut = mcml_device::thermal_voltage(300.0);
/// assert!((ut - 0.025852).abs() < 1e-5);
/// ```
#[must_use]
pub fn thermal_voltage(t_kelvin: f64) -> f64 {
    K_OVER_Q * t_kelvin
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_voltage_room_temperature() {
        assert!((thermal_voltage(300.15) - 0.025865).abs() < 5e-5);
    }

    #[test]
    fn thermal_voltage_scales_linearly() {
        assert!((thermal_voltage(600.0) / thermal_voltage(300.0) - 2.0).abs() < 1e-12);
    }
}
