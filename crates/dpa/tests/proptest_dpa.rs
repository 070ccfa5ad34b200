//! Property-based tests of the attack framework: CPA must find planted
//! leaks and must not hallucinate keys from flat or unrelated traces.

use proptest::prelude::*;

use mcml_dpa::{cpa_attack_par, distinguishability_margin, key_rank, HammingWeight, TraceSet};
use mcml_exec::Parallelism;

/// A strongly nonlinear 8-bit mapping (Murmur-style avalanche).
fn avalanche(x: u8) -> u8 {
    let mut v = u32::from(x).wrapping_add(0x9e37);
    v = v.wrapping_mul(0x85eb_ca6b);
    v ^= v >> 13;
    v = v.wrapping_mul(0xc2b2_ae35);
    v ^= v >> 16;
    v as u8
}

fn leaky_traces(key: u8, noise: f64, n: usize, seed: u64, leak_gain: f64) -> TraceSet {
    let mut ts = TraceSet::new(8);
    let mut state = seed | 1;
    let mut rnd = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    for i in 0..n {
        let p = (i * 97 + 13).rem_euclid(256) as u8;
        let mut tr = [0.0f64; 8];
        for (j, t) in tr.iter_mut().enumerate() {
            *t = rnd() * noise;
            if j == 3 {
                *t += leak_gain * f64::from(avalanche(p ^ key).count_ones());
            }
        }
        ts.push(p, &tr);
    }
    ts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With a planted Hamming-weight leak, CPA ranks the true key first
    /// regardless of which key was planted.
    #[test]
    fn cpa_finds_any_planted_key(key in any::<u8>(), seed in any::<u64>()) {
        let ts = leaky_traces(key, 0.4, 220, seed, 1.0);
        let model = HammingWeight::new(avalanche, 8);
        let r = cpa_attack_par(&ts, &model, Parallelism::from_env());
        prop_assert_eq!(r.best_guess(), usize::from(key), "peaks near key: {:?}", r.peak[usize::from(key)]);
        prop_assert_eq!(key_rank(&r.peak, usize::from(key)), 0);
        prop_assert!(distinguishability_margin(&r.peak, usize::from(key)) > 1.0);
    }

    /// With zero leak gain (pure noise), the true key has no special
    /// status: its margin stays below the success threshold.
    #[test]
    fn cpa_does_not_hallucinate(key in any::<u8>(), seed in any::<u64>()) {
        let ts = leaky_traces(key, 1.0, 200, seed, 0.0);
        let model = HammingWeight::new(avalanche, 8);
        let r = cpa_attack_par(&ts, &model, Parallelism::from_env());
        prop_assert!(
            distinguishability_margin(&r.peak, usize::from(key)) < 1.5,
            "no leak, yet margin {}",
            distinguishability_margin(&r.peak, usize::from(key))
        );
    }

    /// More noise can only increase (or keep) the number of traces
    /// needed: the correct-key correlation shrinks monotonically with
    /// noise on the same data.
    #[test]
    fn noise_degrades_correlation(key in any::<u8>(), seed in any::<u64>()) {
        let model = HammingWeight::new(avalanche, 8);
        let quiet = cpa_attack_par(
            &leaky_traces(key, 0.1, 128, seed, 1.0),
            &model,
            Parallelism::from_env(),
        );
        let noisy = cpa_attack_par(
            &leaky_traces(key, 4.0, 128, seed, 1.0),
            &model,
            Parallelism::from_env(),
        );
        prop_assert!(
            noisy.peak[usize::from(key)] < quiet.peak[usize::from(key)] + 0.05,
            "noise must not sharpen the key peak: {} vs {}",
            noisy.peak[usize::from(key)],
            quiet.peak[usize::from(key)]
        );
    }

    /// Correlations are always in [-1, 1] and the ranking is a
    /// permutation of the key space.
    #[test]
    fn cpa_output_invariants(key in any::<u8>(), seed in any::<u64>(), noise in 0.0f64..3.0) {
        let ts = leaky_traces(key, noise, 64, seed, 0.7);
        let model = HammingWeight::new(avalanche, 8);
        let r = cpa_attack_par(&ts, &model, Parallelism::from_env());
        for row in &r.corr {
            for &c in row {
                prop_assert!((-1.0..=1.0).contains(&c), "corr {c}");
            }
        }
        let mut rk = r.ranking();
        rk.sort_unstable();
        prop_assert_eq!(rk, (0..256).collect::<Vec<_>>());
    }
}
