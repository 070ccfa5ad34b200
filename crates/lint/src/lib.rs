//! # mcml-lint — static ERC and DPA-leakage rule checks
//!
//! A rule-registry static-analysis engine over both abstraction levels
//! of the flow:
//!
//! * **gate level** — structural ERC on the [`mcml_netlist`] IR
//!   (undriven / multiply-driven / dangling nets, combinational loops,
//!   inverted connections that escaped CMOS legalisation), the
//!   characterisation fan-out envelope, and sleep-domain coverage and
//!   wake-up latency;
//! * **dataflow** — a forward fixpoint engine ([`dataflow`]) over the
//!   gate graph: secret-taint propagation from
//!   [`mcml_netlist::PortClass::Secret`] ports (with exact kill on
//!   balanced recombination), static toggle/glitch bounds, and a
//!   per-net static leakage score built from the characterised
//!   per-cell energy asymmetry — feeding the `dataflow-*` rule pack
//!   (secret-on-CMOS, secret-gated clocks, unbalanced domain
//!   crossings, glitch-prone tainted nets) and the report's score
//!   table;
//! * **transistor level** — electrical checks on a
//!   [`mcml_spice::Circuit`] (floating MOS gate/bulk nodes, nodes with
//!   no DC path, voltage-source loops) and the PG-MCML cell-topology
//!   rules: differential pull-down symmetry (the core DPA-resistance
//!   invariant) and series-sleep presence/position (the paper's
//!   topology (d)).
//!
//! Every rule has a stable id and a fixed `warn` or `deny` severity; a
//! [`LintConfig`] sets the fan-out envelope and waives findings per rule
//! and location ([`Waiver`], justification required). Deny
//! findings fail [`LintReport::is_clean`], which the `pg-mcml` design
//! flow uses to refuse elaboration before any SPICE is run. Reports
//! render to a deterministic `mcml-lint/3` JSON schema (same
//! hand-rolled style as `mcml-obs`) including the waived findings and
//! a dataflow taint/score summary, and runs are observable through the
//! `lint.*` counters and the `lint` / `dataflow` span stages.
//!
//! ```
//! use mcml_lint::LintEngine;
//! use mcml_netlist::{map_network, BoolNetwork, TechmapOptions};
//!
//! let mut bn = BoolNetwork::new();
//! let (a, b) = (bn.input("a"), bn.input("b"));
//! let y = bn.xor(a, b);
//! bn.set_output("y", y);
//! let nl = map_network(&bn, mcml_cells::LogicStyle::PgMcml, &TechmapOptions::default());
//!
//! let report = LintEngine::with_default_rules().lint_netlist(&nl, None);
//! assert!(report.is_clean(), "{}", report.to_json());
//! ```
//!
//! See `docs/LINTING.md` for the full rule registry.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod dataflow;
pub mod diag;
pub mod engine;
pub mod report;
pub mod rules;

pub use config::{LintConfig, Waiver};
pub use dataflow::DataflowResults;
pub use diag::{Diagnostic, Location, Severity};
pub use engine::{LintContext, LintEngine, LintTarget, Rule};
pub use report::{combined_json, DataflowSummary, LintReport, NetScore, WaivedDiagnostic, SCHEMA};
