//! # mcml-char — SPICE-driven standard-cell characterisation
//!
//! The role Synopsys' library characterisation flow plays for the paper:
//! every cell of every style is placed in a transistor-level testbench
//! (supplies, solved `Vn`/`Vp` biases, complementary input drivers,
//! fan-out loads built from real buffer cells) and measured:
//!
//! * **propagation delay** at FO1…FO4 (50 % single-ended / differential
//!   zero-crossing), combinational and clock-to-Q;
//! * **static power** awake and **leakage** asleep (the PG-MCML headline
//!   numbers), plus CMOS dynamic energy per output toggle;
//! * **wake-up time** of power-gated cells (the ≈1 ns sleep-signal
//!   insertion budget of §6);
//! * the **Fig. 3 bias sweep**: buffer delay and power/area–delay products
//!   as a function of the tail current, reproducing the 50 µA optimum.
//!
//! Results are collected into a serialisable [`TimingLibrary`] — the
//! crate's equivalent of a `.lib` — consumed by the technology mapper and
//! the gate-level power simulator.
//!
//! # Example
//!
//! ```no_run
//! use mcml_cells::{CellKind, CellParams, LogicStyle};
//! use mcml_char::characterize_cell;
//!
//! let t = characterize_cell(CellKind::Buffer, LogicStyle::PgMcml,
//!                           &CellParams::default()).unwrap();
//! assert!(t.delay_fo1_ps > 1.0 && t.delay_fo1_ps < 500.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod harness;
pub mod liberty;
pub mod library;
pub mod measure;
pub mod sweep;

pub use harness::Testbench;
pub use liberty::to_liberty;
pub use library::{
    build_library_par, characterize_cell, characterize_cell_uncached, CellTiming, TimingLibrary,
};
pub use measure::{measure_delay, measure_static_power, measure_wakeup, DelayMeasurement};
pub use sweep::{bias_sweep_par, corner_sweep_par, default_sweep_currents, BiasSweepPoint};

/// Crate-level result alias (errors bubble up from the simulator).
pub type Result<T> = std::result::Result<T, mcml_spice::SpiceError>;
