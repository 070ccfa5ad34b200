//! Attack-quality metrics: key rank, distinguishability margin, and
//! measurements-to-disclosure.

use mcml_exec::Parallelism;

use crate::cpa::cpa_attack_par;
use crate::model::LeakageModel;
use crate::trace::TraceSet;

/// Rank of the correct key in a peak vector (0 = attack succeeded
/// outright).
///
/// # Panics
///
/// Panics if `correct_key` is outside the guess space.
#[must_use]
pub fn key_rank(peaks: &[f64], correct_key: usize) -> usize {
    assert!(correct_key < peaks.len(), "key outside guess space");
    let correct = peaks[correct_key];
    peaks
        .iter()
        .enumerate()
        .filter(|&(g, &p)| g != correct_key && p > correct)
        .count()
}

/// Distinguishability margin: the correct key's peak divided by the best
/// wrong-key peak. > 1 means the attack singles out the key (the Fig. 6
/// criterion is exactly whether the black curve separates from the grey
/// band).
///
/// # Panics
///
/// Panics if `correct_key` is outside the guess space or there is only
/// one guess.
#[must_use]
pub fn distinguishability_margin(peaks: &[f64], correct_key: usize) -> f64 {
    assert!(correct_key < peaks.len(), "key outside guess space");
    let best_wrong = peaks
        .iter()
        .enumerate()
        .filter(|&(g, _)| g != correct_key)
        .map(|(_, &p)| p)
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(best_wrong.is_finite(), "need at least two guesses");
    if best_wrong <= 0.0 {
        if peaks[correct_key] > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    } else {
        peaks[correct_key] / best_wrong
    }
}

/// Measurements to disclosure: the smallest trace count (from the given
/// ladder) at which CPA ranks the correct key first **and** keeps it
/// first for every larger count in the ladder. `None` if the attack
/// never stabilises on the key. Each CPA runs on `par`'s worker pool.
#[must_use]
pub fn measurements_to_disclosure(
    traces: &TraceSet,
    model: &(impl LeakageModel + Sync),
    correct_key: usize,
    ladder: &[usize],
    par: Parallelism,
) -> Option<usize> {
    let mut successes: Vec<(usize, bool)> = Vec::new();
    for &n in ladder {
        if n < 2 || n > traces.n_traces() {
            continue;
        }
        let sub = traces.truncated(n);
        let r = cpa_attack_par(&sub, model, par);
        successes.push((n, r.best_guess() == correct_key));
    }
    // Find the first n from which every later entry succeeds.
    for (i, &(n, ok)) in successes.iter().enumerate() {
        if ok && successes[i..].iter().all(|&(_, s)| s) {
            return Some(n);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HammingWeight;

    #[test]
    fn rank_zero_when_best() {
        let peaks = vec![0.1, 0.9, 0.3];
        assert_eq!(key_rank(&peaks, 1), 0);
        assert_eq!(key_rank(&peaks, 2), 1);
        assert_eq!(key_rank(&peaks, 0), 2);
    }

    #[test]
    fn margin_above_one_when_distinguishable() {
        let peaks = vec![0.1, 0.8, 0.2];
        assert!(distinguishability_margin(&peaks, 1) > 3.9);
        assert!(distinguishability_margin(&peaks, 0) < 1.0);
    }

    #[test]
    fn margin_handles_zero_wrong_peaks() {
        let peaks = vec![0.5, 0.0, 0.0];
        assert!(distinguishability_margin(&peaks, 0).is_infinite());
        let flat = vec![0.0, 0.0];
        assert_eq!(distinguishability_margin(&flat, 0), 1.0);
    }

    fn toy_sbox(x: u8) -> u8 {
        x.wrapping_mul(113) ^ x.rotate_left(5)
    }

    fn leaky(key: u8, n: usize, noise: f64) -> TraceSet {
        let mut ts = TraceSet::new(3);
        let mut rng = 7u64;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            let p = (i * 97 % 256) as u8;
            let leak = f64::from(toy_sbox(p ^ key).count_ones());
            ts.push(p, &[next() * noise, leak + next() * noise, next() * noise]);
        }
        ts
    }

    #[test]
    fn mtd_decreases_with_less_noise() {
        let key = 0xa7;
        let ladder: Vec<usize> = vec![8, 16, 32, 64, 128, 256];
        let model = HammingWeight::new(toy_sbox, 8);
        let mtd = |noise| {
            measurements_to_disclosure(
                &leaky(key, 256, noise),
                &model,
                key as usize,
                &ladder,
                Parallelism::from_env(),
            )
        };
        let quiet = mtd(0.2);
        let noisy = mtd(3.0);
        let q = quiet.expect("quiet attack succeeds");
        // `None` is even better: never disclosed.
        if let Some(n) = noisy {
            assert!(n >= q, "noisy MTD {n} >= quiet MTD {q}");
        }
    }

    #[test]
    fn mtd_none_for_flat_traces() {
        let mut ts = TraceSet::new(2);
        for i in 0..64 {
            ts.push(i as u8, &[1.0, 1.0]);
        }
        let model = HammingWeight::new(toy_sbox, 8);
        assert_eq!(
            measurements_to_disclosure(
                &ts,
                &model,
                0x42,
                &[8, 16, 32, 64],
                Parallelism::from_env()
            ),
            None
        );
    }
}
