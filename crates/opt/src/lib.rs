//! # mcml-opt — derivative-free cell-sizing optimization
//!
//! The paper hand-picks its 50 µA tail current from the Fig. 3 (b)
//! area–delay sweep. This crate makes that choice *machine-derived*: a
//! derivative-free optimizer drives the in-house SPICE engine through
//! [`mcml_char`]'s cached characterisation, with [`mcml_lint`] standing
//! inside the loop as a feasibility oracle — a candidate sizing is only
//! accepted if the DPA-symmetry lints stay clean, which operationalises
//! the Tiri & Verbauwhede "secure design flow" idea of security
//! constraints living in the design iteration rather than a post-hoc
//! check.
//!
//! * [`Objective`] / [`Solver`] — the trait pair every solver and cost
//!   function meet; solvers work in normalized `[0, 1]ⁿ` coordinates.
//! * [`CmaEs`] — covariance-matrix-adaptation evolution strategy
//!   (rank-one + rank-µ update, cumulative step-size control).
//! * [`ParticleSwarm`] — global-best PSO with velocity clamping.
//! * [`SizingObjective`] — maps a search vector to [`mcml_cells::CellParams`],
//!   rejects infeasible candidates (validation, bias solvability, lint,
//!   swing band, Iss budget) with a deterministic penalty, and measures
//!   the survivors through the single-flight characterisation cache.
//!
//! Everything is deterministic: the RNG is seeded ([`Budget::seed`]),
//! population evaluation fans out over [`mcml_exec`] but merges in index
//! order, so serial and parallel runs produce bit-identical optima.
//!
//! # Example: re-derive the Fig. 3 (b) optimum
//!
//! ```no_run
//! use mcml_opt::{Budget, CmaEs, SizingObjective, Solver};
//!
//! let obj = SizingObjective::buffer_bias();
//! let out = CmaEs.minimize(&obj, &Budget::default());
//! let sizing = obj.decode(&out.best_x);
//! assert!((30e-6..=80e-6).contains(&sizing.params.iss));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(test)]
mod analytic;
pub mod cmaes;
pub mod pso;
pub mod sizing;
pub mod solver;

pub use cmaes::CmaEs;
pub use pso::ParticleSwarm;
pub use sizing::{CellSizing, SizingMetric, SizingObjective, INFEASIBLE_PENALTY};
pub use solver::{eval_population, Budget, Objective, OptOutcome, Solver};
