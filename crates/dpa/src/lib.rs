//! # mcml-dpa — power-analysis attack framework
//!
//! The evaluation instrument of the paper's Fig. 6: correlation power
//! analysis (Brier–Clavier–Olivier CPA) against recorded power traces,
//! using the Hamming weight of the S-box output as the leakage model —
//! *"we repeatedly attacked all the implementation using as power model
//! the Hamming weight of the S-box output"* — plus the TVLA Welch t-test
//! as a model-free leakage check.
//!
//! * [`trace`] — the trace matrix (one row per plaintext, columns are
//!   time samples);
//! * [`model`] — the leakage hypothesis (Hamming weight of an arbitrary
//!   intermediate);
//! * [`cpa`] — Pearson-correlation attack over all key guesses, with the
//!   correlation-vs-time curves Fig. 6 plots;
//! * [`stream`] — the online CPA accumulator for campaigns that stream
//!   traces in acquisition order instead of materialising the matrix;
//! * [`tvla`] — fixed-vs-random Welch t-test;
//! * [`metrics`] — key rank, distinguishability margin, and
//!   measurements-to-disclosure (MTD).
//!
//! A complete attack against a toy device that leaks the Hamming weight
//! of a 4-bit S-box output:
//!
//! ```
//! use mcml_dpa::{cpa_attack_par, key_rank, HammingWeight, TraceSet};
//! use mcml_exec::Parallelism;
//!
//! let sbox = |x: u8| x.wrapping_mul(7) & 0xF; // toy 4-bit S-box
//! let key = 0xB;
//! let mut traces = TraceSet::new(4);
//! for p in 0..16u8 {
//!     let hw = f64::from(sbox(p ^ key).count_ones());
//!     traces.push(p, &[0.5, hw * 1e-3, 0.1, hw * 2e-3]);
//! }
//! let result = cpa_attack_par(&traces, &HammingWeight::new(sbox, 4), Parallelism::Serial);
//! assert_eq!(key_rank(&result.peak, key as usize), 0); // key recovered
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cpa;
pub mod metrics;
pub mod model;
pub mod stream;
pub mod trace;
pub mod tvla;

pub use cpa::{cpa_attack_par, CpaResult};
pub use metrics::{distinguishability_margin, key_rank, measurements_to_disclosure};
pub use model::{HammingWeight, LeakageModel};
pub use stream::CpaAccumulator;
pub use trace::TraceSet;
pub use tvla::{welch_t_test_par, TvlaResult, TVLA_THRESHOLD};
