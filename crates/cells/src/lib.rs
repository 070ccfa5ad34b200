//! # mcml-cells — the PG-MCML standard cell library
//!
//! The paper's primary contribution: a 16-cell MOS current-mode-logic
//! standard cell library with per-cell fine-grain power gating, plus the
//! two baselines it is compared against (conventional MCML and static
//! CMOS). This crate generates **transistor-level netlists** for every
//! cell in every style, ready for simulation with [`mcml_spice`]:
//!
//! * [`kind::CellKind`] — the 16 cells of the paper's Table 2 (buffer,
//!   AND2–4, XOR2–4, MUX2/4, MAJ32, D-latch, DFF, DFFR, EDFF, full adder,
//!   differential-to-single-ended converter), each with one row of static
//!   facts ([`kind::CellSpec`]: name, ports, stages, width, CMOS size);
//! * [`style::LogicStyle`] — `Cmos`, `Mcml`, `PgMcml`, and
//!   [`style::SleepTopology`] — the four power-gating variants of the
//!   paper's Fig. 2 (the library uses topology (d));
//! * [`bdd`] — a small reduced-ordered-BDD package; MCML differential
//!   NMOS networks are the physical embedding of the function's BDD;
//! * [`bias`] — solves the `Vn`/`Vp` bias voltages for a target tail
//!   current and output swing directly from the device model;
//! * [`area`] — the layout-area model (cell height × width in layout
//!   pitches), calibrated against the paper's published cell areas;
//! * [`cmos`] — static CMOS equivalents used for the Table 2/3 baselines.
//!
//! # Example: build and bias a PG-MCML buffer
//!
//! ```
//! use mcml_cells::{CellKind, CellParams, LogicStyle};
//!
//! let cell = mcml_cells::build_cell(CellKind::Buffer, LogicStyle::PgMcml,
//!                                   &CellParams::default());
//! assert!(cell.ports.contains_key("sleep"), "PG cells expose a sleep pin");
//! assert!(cell.transistor_count() >= 6);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod area;
pub mod bdd;
pub mod bias;
pub mod cellnet;
pub mod cmos;
pub mod kind;
pub mod mcml;
pub mod params;
pub mod style;

pub use area::{cell_area_um2, mcml_to_cmos_ratio};
pub use bias::{solve_bias, try_solve_bias, BiasError, BiasPoint};
pub use cellnet::CellNetlist;
pub use kind::{CellKind, DriveStrength};
pub use mcml_device::{Corner, Technology};
pub use params::CellParams;
pub use style::{LogicStyle, SleepTopology};

/// Build the transistor-level netlist for `kind` in `style`.
///
/// For `LogicStyle::Cmos` this delegates to the static-CMOS generators;
/// for the MCML styles it instantiates the differential stage structure
/// with (PG-MCML) or without (MCML) the sleep transistor of the default
/// topology (d).
///
/// # Panics
///
/// Panics if an internal generator invariant is violated; all public
/// parameter combinations are supported.
#[must_use]
pub fn build_cell(kind: CellKind, style: LogicStyle, params: &CellParams) -> CellNetlist {
    match style {
        LogicStyle::Cmos => cmos::build_cmos_cell(kind, params),
        LogicStyle::Mcml => mcml::build_mcml_cell(kind, params, None),
        LogicStyle::PgMcml => mcml::build_mcml_cell(kind, params, Some(params.sleep_topology)),
    }
}
