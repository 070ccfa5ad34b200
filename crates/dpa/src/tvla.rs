//! Test-vector leakage assessment (TVLA): Welch's t-test between a
//! fixed-input trace population and a random-input population.
//!
//! A model-free complement to CPA (an evaluation extension beyond the
//! paper): if any time sample separates the two populations with
//! |t| > 4.5, the device leaks *something* about the data — no key
//! hypothesis required. A DPA-resistant style must stay below threshold.

use mcml_exec::Parallelism;
use serde::{Deserialize, Serialize};

use crate::trace::TraceSet;

/// The conventional TVLA pass/fail threshold on |t|.
pub const TVLA_THRESHOLD: f64 = 4.5;

/// Result of a fixed-vs-random t-test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TvlaResult {
    /// Welch's t statistic per time sample.
    pub t: Vec<f64>,
    /// Largest |t| over time.
    pub max_abs_t: f64,
}

impl TvlaResult {
    /// Whether the assessment flags leakage at the standard threshold.
    #[must_use]
    pub fn leaks(&self) -> bool {
        self.max_abs_t > TVLA_THRESHOLD
    }
}

/// Per-sample mean and variance of a trace population.
///
/// The squared-deviation pass is blocked into fixed
/// [`mcml_exec::REDUCTION_CHUNK`]-trace chunks fanned across the worker
/// pool; partials fold in chunk order, so the result is bit-identical for
/// every thread count.
fn stats(ts: &TraceSet, par: Parallelism) -> (Vec<f64>, Vec<f64>) {
    let s = ts.n_samples();
    let n = ts.n_traces().max(1) as f64;
    let mean = ts.mean_trace();
    let chunks: Vec<std::ops::Range<usize>> =
        mcml_exec::chunk_ranges(ts.n_traces(), mcml_exec::REDUCTION_CHUNK).collect();
    mcml_obs::add(mcml_obs::Counter::WelchChunks, chunks.len() as u64);
    let partials = mcml_exec::parallel_map_items(par, &chunks, |r| {
        let mut partial = vec![0.0f64; s];
        for i in r.clone() {
            for (v, (&x, &m)) in partial.iter_mut().zip(ts.trace(i).iter().zip(&mean)) {
                *v += (x - m) * (x - m);
            }
        }
        partial
    });
    let mut var = vec![0.0f64; s];
    for partial in &partials {
        for (acc, p) in var.iter_mut().zip(partial) {
            *acc += p;
        }
    }
    for v in &mut var {
        *v /= (n - 1.0).max(1.0);
    }
    (mean, var)
}

/// Welch's t-test between two trace populations (same sample count), on
/// `par`'s worker pool; results are bit-identical to the serial path. A
/// zero pooled variance at a sample (constant traces in both populations,
/// the flat MCML case) gives `t = 0`, never `NaN`.
///
/// # Panics
///
/// Panics if the populations differ in sample count or either holds
/// fewer than two traces.
#[must_use]
pub fn welch_t_test_par(fixed: &TraceSet, random: &TraceSet, par: Parallelism) -> TvlaResult {
    assert_eq!(
        fixed.n_samples(),
        random.n_samples(),
        "populations must share the sample grid"
    );
    assert!(
        fixed.n_traces() >= 2 && random.n_traces() >= 2,
        "need at least two traces per population"
    );
    let _span = mcml_obs::span(mcml_obs::Stage::Tvla);
    let (m1, v1) = stats(fixed, par);
    let (m2, v2) = stats(random, par);
    let (n1, n2) = (fixed.n_traces() as f64, random.n_traces() as f64);
    let mut t = Vec::with_capacity(m1.len());
    let mut max_abs: f64 = 0.0;
    for j in 0..m1.len() {
        let denom = (v1[j] / n1 + v2[j] / n2).sqrt();
        let tj = if denom > 0.0 {
            (m1[j] - m2[j]) / denom
        } else {
            0.0
        };
        max_abs = max_abs.max(tj.abs());
        t.push(tj);
    }
    TvlaResult {
        t,
        max_abs_t: max_abs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(leak: f64, base: f64, n: usize, seed: u64) -> TraceSet {
        let mut ts = TraceSet::new(5);
        let mut state = seed | 1;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            let mut tr = [0.0f64; 5];
            for (j, x) in tr.iter_mut().enumerate() {
                *x = base + rnd() * 0.3;
                if j == 2 {
                    *x += leak;
                }
            }
            ts.push(i as u8, &tr);
        }
        ts
    }

    #[test]
    fn separated_populations_flagged() {
        let fixed = population(1.0, 0.0, 200, 3);
        let random = population(0.0, 0.0, 200, 7);
        let r = welch_t_test_par(&fixed, &random, Parallelism::from_env());
        assert!(r.leaks(), "max |t| = {}", r.max_abs_t);
        // The leak is at sample 2.
        let peak =
            r.t.iter()
                .enumerate()
                .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
                .unwrap()
                .0;
        assert_eq!(peak, 2);
    }

    #[test]
    fn identical_distributions_pass() {
        let fixed = population(0.0, 0.5, 200, 11);
        let random = population(0.0, 0.5, 200, 13);
        let r = welch_t_test_par(&fixed, &random, Parallelism::from_env());
        assert!(!r.leaks(), "max |t| = {}", r.max_abs_t);
    }

    #[test]
    fn constant_traces_give_zero_t() {
        let mut a = TraceSet::new(3);
        let mut b = TraceSet::new(3);
        for i in 0..10 {
            a.push(i, &[1.0, 1.0, 1.0]);
            b.push(i, &[1.0, 1.0, 1.0]);
        }
        let r = welch_t_test_par(&a, &b, Parallelism::from_env());
        assert_eq!(r.max_abs_t, 0.0);
        assert!(!r.leaks());
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let fixed = population(0.4, 0.1, 700, 17);
        let random = population(0.0, 0.1, 650, 23);
        let serial = welch_t_test_par(&fixed, &random, Parallelism::Serial);
        for threads in [2, 3, 8] {
            let par = welch_t_test_par(&fixed, &random, Parallelism::Threads(threads));
            for (a, b) in serial.t.iter().zip(par.t.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
            assert_eq!(serial.max_abs_t.to_bits(), par.max_abs_t.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "share the sample grid")]
    fn mismatched_grids_rejected() {
        let a = population(0.0, 0.0, 4, 1);
        let mut b = TraceSet::new(3);
        b.push(0, &[0.0; 3]);
        b.push(1, &[0.0; 3]);
        let _ = welch_t_test_par(&a, &b, Parallelism::from_env());
    }
}
