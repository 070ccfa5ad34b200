//! # mcml-perfbench — artefact-level benchmark of the PG-MCML flow
//!
//! Five seeded workloads regenerate paper artefacts through the public
//! layer APIs, check every output against committed goldens, and report
//! end-to-end metrics (untraced) or per-layer metrics (traced). The
//! binary's `--help` and `README.md` beside this file document the
//! command line, the metrics and why each workload exists.

#![forbid(unsafe_code)]

pub mod golden;
pub mod rng;
pub mod run;
pub mod trace;
pub mod workload;

pub use run::{Options, Report};
pub use workload::Workload;
