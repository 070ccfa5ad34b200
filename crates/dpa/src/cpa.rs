//! Correlation power analysis (Brier, Clavier, Olivier — CHES 2004).
//!
//! The Pearson accumulation is chunked (fixed [`mcml_exec::REDUCTION_CHUNK`]
//! trace blocks, folded in chunk order) and fanned across threads one key
//! guess per work item. Because chunk boundaries depend only on the trace
//! count and each guess's row is accumulated by exactly one worker with the
//! same code as the serial path, [`cpa_attack_par`] is bit-identical for
//! every thread count.

use mcml_exec::Parallelism;
use serde::{Deserialize, Serialize};

use crate::model::LeakageModel;
use crate::trace::TraceSet;

/// Result of a CPA attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpaResult {
    /// `corr[guess][sample]` — Pearson correlation of the hypothesis
    /// under each key guess with each time sample. These are the curves
    /// Fig. 6 plots (correct key in black, wrong guesses in grey).
    pub corr: Vec<Vec<f64>>,
    /// Per-guess peak |correlation| over time.
    pub peak: Vec<f64>,
}

impl CpaResult {
    /// The guess with the highest peak correlation.
    #[must_use]
    pub fn best_guess(&self) -> usize {
        self.peak
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
            .map_or(0, |(i, _)| i)
    }

    /// Guesses sorted by descending peak correlation.
    #[must_use]
    pub fn ranking(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.peak.len()).collect();
        order.sort_by(|&a, &b| self.peak[b].partial_cmp(&self.peak[a]).expect("finite"));
        order
    }
}

/// Run a CPA attack: correlate the model's hypothesis against every time
/// sample for every key guess, on `par`'s worker pool. Results are
/// identical for any thread count.
///
/// Key guesses are independent, so each guess's correlation row is one work
/// item; within a row the cross-product accumulation walks the trace matrix
/// in fixed [`mcml_exec::REDUCTION_CHUNK`]-trace blocks (rows contiguous in
/// memory, partial sums folded in chunk order). Zero-variance guards: a
/// constant hypothesis column (`ss_h == 0`) or a constant time sample
/// (`ss_t[j] == 0`, the flat-power MCML case) yields correlation `0.0`,
/// never `NaN`.
///
/// # Panics
///
/// Panics on an empty trace set (nothing to correlate).
#[must_use]
pub fn cpa_attack_par(
    traces: &TraceSet,
    model: &(impl LeakageModel + Sync),
    par: Parallelism,
) -> CpaResult {
    assert!(traces.n_traces() >= 2, "CPA needs at least two traces");
    let _span = mcml_obs::span(mcml_obs::Stage::Cpa);
    let n = traces.n_traces();
    let s = traces.n_samples();
    let guesses = model.key_space();

    // Per-sample means and squared deviations of the traces, chunk-folded
    // so the reduction order is fixed no matter who computes it.
    let mean_t = traces.mean_trace();
    let chunks: Vec<std::ops::Range<usize>> =
        mcml_exec::chunk_ranges(n, mcml_exec::REDUCTION_CHUNK).collect();
    let ss_t_partials = mcml_exec::parallel_map_items(par, &chunks, |r| {
        let mut partial = vec![0.0f64; s];
        for i in r.clone() {
            for (j, (&x, &m)) in traces.trace(i).iter().zip(mean_t.iter()).enumerate() {
                partial[j] += (x - m) * (x - m);
            }
        }
        partial
    });
    let mut ss_t = vec![0.0f64; s];
    for partial in &ss_t_partials {
        for (acc, p) in ss_t.iter_mut().zip(partial) {
            *acc += p;
        }
    }
    mcml_obs::add(mcml_obs::Counter::PearsonChunks, chunks.len() as u64);

    // One work item per key guess; rows come back in guess order.
    let rows: Vec<Vec<f64>> = mcml_exec::parallel_map(par, guesses, |g| {
        let guess = g as u8;
        let h: Vec<f64> = (0..n)
            .map(|i| model.hypothesis(traces.input(i), guess))
            .collect();
        let mean_h = h.iter().sum::<f64>() / n as f64;
        let ss_h: f64 = h.iter().map(|x| (x - mean_h) * (x - mean_h)).sum();

        let mut row = vec![0.0f64; s];
        // Batched per-row accounting: totals depend only on the data, so
        // they are identical for every thread count.
        let mut zero_var: u64 = 0;
        if ss_h > 0.0 {
            // Cross products, blocked by trace chunk: the hypothesis slice
            // and the chunk's rows stay cache-resident together.
            for r in &chunks {
                for i in r.clone() {
                    let dh = h[i] - mean_h;
                    if dh == 0.0 {
                        continue;
                    }
                    for (j, (&x, &m)) in traces.trace(i).iter().zip(mean_t.iter()).enumerate() {
                        row[j] += dh * (x - m);
                    }
                }
            }
            mcml_obs::add(mcml_obs::Counter::PearsonChunks, chunks.len() as u64);
            for j in 0..s {
                let denom = (ss_h * ss_t[j]).sqrt();
                if denom > 0.0 {
                    row[j] /= denom;
                } else {
                    row[j] = 0.0;
                    zero_var += 1;
                }
            }
        } else {
            // Constant hypothesis: the whole row is zero-variance.
            zero_var = s as u64;
        }
        mcml_obs::add(mcml_obs::Counter::ZeroVarianceSkipped, zero_var);
        row
    });

    let peak: Vec<f64> = rows
        .iter()
        .map(|row| row.iter().fold(0.0f64, |m, x| m.max(x.abs())))
        .collect();
    CpaResult { corr: rows, peak }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HammingWeight;

    /// Synthetic leaky device: power at sample 5 = HW(sbox(p ^ K)) +
    /// noise.
    fn leaky_traces(key: u8, noise: f64, n: usize, sbox: impl Fn(u8) -> u8) -> TraceSet {
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
                    *t += f64::from(sbox(p ^ key).count_ones());
                }
            }
            ts.push(p, &tr);
        }
        ts
    }

    fn toy_sbox(x: u8) -> u8 {
        // A nonlinear toy S-box.
        x.wrapping_mul(x) ^ x.rotate_left(3) ^ 0x5a
    }

    #[test]
    fn recovers_key_from_leaky_traces() {
        let ts = leaky_traces(0x3c, 0.5, 200, toy_sbox);
        let model = HammingWeight::new(toy_sbox, 8);
        let r = cpa_attack_par(&ts, &model, Parallelism::from_env());
        assert_eq!(r.best_guess(), 0x3c, "peaks: {:?}", &r.peak[0x3a..0x3e]);
        assert!(r.peak[0x3c] > 0.8, "correct-key corr {}", r.peak[0x3c]);
    }

    #[test]
    fn fails_on_constant_power() {
        // Flat traces (the MCML situation): no guess stands out.
        let mut ts = TraceSet::new(4);
        for i in 0..100 {
            ts.push((i * 31 % 256) as u8, &[1.0, 1.0, 1.0, 1.0]);
        }
        let model = HammingWeight::new(toy_sbox, 8);
        let r = cpa_attack_par(&ts, &model, Parallelism::from_env());
        assert!(r.peak.iter().all(|&p| p < 1e-9), "all correlations ~0");
    }

    #[test]
    fn fails_on_pure_noise() {
        let ts = leaky_traces(0x3c, 1.0, 60, |_| 0x42); // constant target
        let model = HammingWeight::new(toy_sbox, 8);
        let r = cpa_attack_par(&ts, &model, Parallelism::from_env());
        // The correct key has no special status.
        let rank = r.ranking().iter().position(|&g| g == 0x3c).unwrap();
        assert!(rank > 2, "key should not be top-ranked, rank {rank}");
    }

    #[test]
    fn correlation_peaks_at_leak_sample() {
        let ts = leaky_traces(0x11, 0.1, 150, toy_sbox);
        let model = HammingWeight::new(toy_sbox, 8);
        let r = cpa_attack_par(&ts, &model, Parallelism::from_env());
        let row = &r.corr[0x11];
        let best_sample = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        assert_eq!(best_sample, 5, "leak injected at sample 5");
    }

    #[test]
    fn ranking_is_a_permutation() {
        let ts = leaky_traces(0x77, 1.0, 50, toy_sbox);
        let model = HammingWeight::new(toy_sbox, 8);
        let r = cpa_attack_par(&ts, &model, Parallelism::from_env());
        let mut rk = r.ranking();
        rk.sort_unstable();
        assert_eq!(rk, (0..256).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least two traces")]
    fn empty_traces_rejected() {
        let ts = TraceSet::new(4);
        let model = HammingWeight::new(toy_sbox, 8);
        let _ = cpa_attack_par(&ts, &model, Parallelism::from_env());
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let ts = leaky_traces(0x5e, 0.7, 300, toy_sbox);
        let model = HammingWeight::new(toy_sbox, 8);
        let serial = cpa_attack_par(&ts, &model, Parallelism::Serial);
        for threads in [2, 4, 7] {
            let par = cpa_attack_par(&ts, &model, Parallelism::Threads(threads));
            assert_eq!(serial, par, "threads={threads}");
            for (a, b) in serial.corr.iter().flatten().zip(par.corr.iter().flatten()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn constant_mcml_trace_yields_zero_not_nan() {
        // The PG-MCML headline case: every trace is the same flat
        // constant-current waveform regardless of plaintext. Every sample
        // column has zero variance, so every Pearson denominator is zero;
        // the guard must return 0.0, not NaN, and the downstream metrics
        // must stay finite.
        let mut ts = TraceSet::new(8);
        for i in 0..64 {
            ts.push((i * 5 % 256) as u8, &[4.2e-5; 8]);
        }
        let model = HammingWeight::new(toy_sbox, 8);
        let r = cpa_attack_par(&ts, &model, Parallelism::from_env());
        assert!(
            r.corr.iter().flatten().all(|c| c.is_finite()),
            "no NaN/inf correlations"
        );
        assert!(r.peak.iter().all(|&p| p == 0.0), "flat traces: zero peaks");
        assert_eq!(r.ranking().len(), 256, "ranking still well-defined");
        let margin = crate::metrics::distinguishability_margin(&r.peak, 0x00);
        assert!(!margin.is_nan(), "margin finite/defined, got {margin}");
    }
}
