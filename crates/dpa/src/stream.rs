//! Streaming (online) CPA for trace campaigns that never materialise the
//! trace matrix.
//!
//! The classic [`cpa_attack_par`](crate::cpa_attack_par) entry point is
//! two-pass: it needs the whole [`TraceSet`](crate::TraceSet) in memory
//! to compute per-sample means first and centred cross-products second.
//! A 10⁵-trace fig. 6 campaign at 60 samples is still only ~48 MB, but
//! the point of the streaming campaign is that completed traces flow
//! straight into the attack statistics — so the accumulator keeps
//! **O(guesses × samples)** state regardless of how many traces pass
//! through, using raw-moment sums:
//!
//! ```text
//! r[g][j] = (n·Σhx − Σh·Σx) / √( (n·Σh² − (Σh)²) · (n·Σx² − (Σx)²) )
//! ```
//!
//! Determinism contract: a fold is a *sequence*, so two accumulators fed
//! the same traces **in the same order** produce bit-identical results —
//! the fig. 6 campaign folds its traces in index order, which is what
//! makes its verdicts bit-reproducible whatever the worker count.
//! Against the two-pass attack the raw-moment rounding differs in the
//! last few ulps, so campaigns compare *verdicts* (best guess, ranking)
//! exactly and correlations to a tolerance; the regression
//! tests in this module pin both properties. Zero-variance guards match
//! the two-pass code: a constant hypothesis column or a constant time
//! sample yields correlation `0.0` (counted in
//! `dpa.zero_variance_skipped`), never `NaN`.

use crate::cpa::CpaResult;
use crate::model::LeakageModel;

/// Online CPA accumulator: push traces one at a time, in acquisition
/// order, then [`finish`](CpaAccumulator::finish) into the same
/// [`CpaResult`] shape the two-pass attack produces.
///
/// Memory is `O(key_space × n_samples)` — independent of the number of
/// traces pushed.
///
/// ```
/// use mcml_dpa::{CpaAccumulator, HammingWeight, key_rank};
///
/// let sbox = |x: u8| x.wrapping_mul(7) & 0xF;
/// let key = 0xB;
/// let mut acc = CpaAccumulator::new(HammingWeight::new(sbox, 4), 2);
/// for p in 0..16u8 {
///     let hw = f64::from(sbox(p ^ key).count_ones());
///     acc.push(p, &[hw * 1e-3, 0.4]); // leak at sample 0
/// }
/// let result = acc.finish();
/// assert_eq!(key_rank(&result.peak, key as usize), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CpaAccumulator<M: LeakageModel> {
    model: M,
    n_samples: usize,
    guesses: usize,
    n: u64,
    /// Σx and Σx² per time sample.
    sum_t: Vec<f64>,
    sum_tt: Vec<f64>,
    /// Σh and Σh² per key guess.
    sum_h: Vec<f64>,
    sum_hh: Vec<f64>,
    /// Σh·x, flattened `[guess × sample]`.
    sum_ht: Vec<f64>,
    /// Per-trace hypothesis scratch (avoids reallocating per push).
    h: Vec<f64>,
}

impl<M: LeakageModel> CpaAccumulator<M> {
    /// A fresh accumulator for `n_samples`-sample traces under `model`.
    #[must_use]
    pub fn new(model: M, n_samples: usize) -> Self {
        let guesses = model.key_space();
        Self {
            model,
            n_samples,
            guesses,
            n: 0,
            sum_t: vec![0.0; n_samples],
            sum_tt: vec![0.0; n_samples],
            sum_h: vec![0.0; guesses],
            sum_hh: vec![0.0; guesses],
            sum_ht: vec![0.0; guesses * n_samples],
            h: vec![0.0; guesses],
        }
    }

    /// Number of traces folded in so far.
    #[must_use]
    pub fn n_traces(&self) -> u64 {
        self.n
    }

    /// Samples per trace this accumulator was built for.
    #[must_use]
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Fold one trace into the running sums.
    ///
    /// # Panics
    ///
    /// Panics when `samples` has the wrong length.
    pub fn push(&mut self, input: u8, samples: &[f64]) {
        assert_eq!(samples.len(), self.n_samples, "trace length mismatch");
        self.n += 1;
        for (j, &x) in samples.iter().enumerate() {
            self.sum_t[j] += x;
            self.sum_tt[j] += x * x;
        }
        for g in 0..self.guesses {
            self.h[g] = self.model.hypothesis(input, g as u8);
        }
        for (g, &hg) in self.h.iter().enumerate() {
            self.sum_h[g] += hg;
            self.sum_hh[g] += hg * hg;
            if hg != 0.0 {
                let row = &mut self.sum_ht[g * self.n_samples..(g + 1) * self.n_samples];
                for (acc, &x) in row.iter_mut().zip(samples) {
                    *acc += hg * x;
                }
            }
        }
    }

    /// Close the accumulation and compute the correlation curves.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two traces were pushed (nothing to
    /// correlate) — the same contract as the two-pass attack.
    #[must_use]
    pub fn finish(&self) -> CpaResult {
        assert!(self.n >= 2, "CPA needs at least two traces");
        let _span = mcml_obs::span(mcml_obs::Stage::Cpa);
        let n = self.n as f64;
        let s = self.n_samples;
        let var_t: Vec<f64> = (0..s)
            .map(|j| centered_ss(n, self.sum_tt[j], self.sum_t[j]))
            .collect();
        let mut corr = Vec::with_capacity(self.guesses);
        let mut zero_var: u64 = 0;
        for g in 0..self.guesses {
            let var_h = centered_ss(n, self.sum_hh[g], self.sum_h[g]);
            let mut row = vec![0.0f64; s];
            if var_h > 0.0 {
                for (j, r) in row.iter_mut().enumerate() {
                    let denom = (var_h * var_t[j]).sqrt();
                    if denom > 0.0 {
                        let cov = n * self.sum_ht[g * s + j] - self.sum_h[g] * self.sum_t[j];
                        *r = cov / denom;
                    } else {
                        zero_var += 1;
                    }
                }
            } else {
                zero_var += s as u64;
            }
            corr.push(row);
        }
        mcml_obs::add(mcml_obs::Counter::ZeroVarianceSkipped, zero_var);
        let peak: Vec<f64> = corr
            .iter()
            .map(|row| row.iter().fold(0.0f64, |m, x| m.max(x.abs())))
            .collect();
        CpaResult { corr, peak }
    }
}

/// Centred sum of squares `n·Σx² − (Σx)²` with a cancellation floor: for
/// a (near-)constant column the subtraction leaves only rounding noise of
/// the two large terms, which must read as *zero variance* — otherwise the
/// noise would divide a near-zero denominator into an O(1) garbage
/// correlation. Anything below 10⁻¹⁰ of the leading terms is noise.
fn centered_ss(n: f64, sum_sq: f64, sum: f64) -> f64 {
    let raw = n * sum_sq - sum * sum;
    let floor = (n * sum_sq).max(sum * sum) * 1e-10;
    if raw <= floor {
        0.0
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpa::cpa_attack_par;
    use crate::model::HammingWeight;
    use crate::trace::TraceSet;
    use mcml_exec::Parallelism;

    fn toy_sbox(x: u8) -> u8 {
        x.wrapping_mul(x) ^ x.rotate_left(3) ^ 0x5a
    }

    fn leaky_traces(key: u8, noise: f64, n: usize) -> TraceSet {
        let mut ts = TraceSet::new(10);
        let mut rng = 0x1357_9bdfu64;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            let p = (i * 73 % 256) as u8;
            let mut tr = vec![0.0f64; 10];
            for (j, t) in tr.iter_mut().enumerate() {
                *t = next() * noise;
                if j == 5 {
                    *t += f64::from(toy_sbox(p ^ key).count_ones());
                }
            }
            ts.push(p, &tr);
        }
        ts
    }

    fn stream_all(ts: &TraceSet) -> CpaResult {
        let mut acc = CpaAccumulator::new(HammingWeight::new(toy_sbox, 8), ts.n_samples());
        for i in 0..ts.n_traces() {
            acc.push(ts.input(i), ts.trace(i));
        }
        acc.finish()
    }

    #[test]
    fn streaming_matches_two_pass_verdicts_and_curves() {
        let ts = leaky_traces(0x3c, 0.5, 300);
        let classic = cpa_attack_par(&ts, &HammingWeight::new(toy_sbox, 8), Parallelism::Serial);
        let streamed = stream_all(&ts);
        assert_eq!(streamed.best_guess(), classic.best_guess());
        assert_eq!(streamed.ranking(), classic.ranking());
        for (a, b) in classic
            .corr
            .iter()
            .flatten()
            .zip(streamed.corr.iter().flatten())
        {
            assert!((a - b).abs() < 1e-9, "corr drifted: {a} vs {b}");
        }
    }

    #[test]
    fn same_trace_order_is_bit_identical() {
        let ts = leaky_traces(0x11, 0.8, 200);
        let a = stream_all(&ts);
        let b = stream_all(&ts);
        for (x, y) in a.corr.iter().flatten().zip(b.corr.iter().flatten()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn constant_traces_give_zero_not_nan() {
        let mut acc = CpaAccumulator::new(HammingWeight::new(toy_sbox, 8), 6);
        for i in 0..64u8 {
            acc.push(i.wrapping_mul(5), &[4.2e-5; 6]);
        }
        let r = acc.finish();
        assert!(r.corr.iter().flatten().all(|c| c.is_finite()));
        assert!(r.peak.iter().all(|&p| p == 0.0));
    }

    #[test]
    #[should_panic(expected = "at least two traces")]
    fn underfed_cpa_rejected() {
        let mut acc = CpaAccumulator::new(HammingWeight::new(toy_sbox, 8), 4);
        acc.push(0, &[0.0; 4]);
        let _ = acc.finish();
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_rejected() {
        let mut acc = CpaAccumulator::new(HammingWeight::new(toy_sbox, 8), 4);
        acc.push(0, &[0.0; 5]);
    }
}
