//! Time-series container with the measurement utilities the experiments
//! need: interpolation, integration, averaging, threshold crossings and
//! delay extraction.

use serde::{Deserialize, Serialize};

use crate::error::SpiceError;

/// A sampled waveform `v(t)` with strictly increasing time points.
///
/// Produced by transient analysis (node voltages and branch currents) and
/// by the cell-level current-template power simulator; consumed by the
/// characterisation and DPA crates.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Waveform {
    t: Vec<f64>,
    v: Vec<f64>,
}

impl Waveform {
    /// Create a waveform from parallel time/value vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length or time is not strictly
    /// increasing.
    #[must_use]
    pub fn new(t: Vec<f64>, v: Vec<f64>) -> Self {
        assert_eq!(t.len(), v.len(), "time/value length mismatch");
        assert!(
            t.windows(2).all(|w| w[0] < w[1]),
            "time points must be strictly increasing"
        );
        Self { t, v }
    }

    /// An empty waveform.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// Whether the waveform holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// Time points.
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.t
    }

    /// Sample values.
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.v
    }

    /// Append a sample; `t` must exceed the current last time point.
    ///
    /// # Panics
    ///
    /// Panics if `t` does not advance time.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.t.last() {
            assert!(t > last, "time must advance: {t} after {last}");
        }
        self.t.push(t);
        self.v.push(v);
    }

    /// Last sample value, or 0.0 for an empty waveform.
    #[must_use]
    pub fn last_value(&self) -> f64 {
        self.v.last().copied().unwrap_or(0.0)
    }

    /// Linear interpolation at time `t`; clamps to the end values outside
    /// the recorded span. A NaN time samples as NaN.
    #[must_use]
    pub fn sample(&self, t: f64) -> f64 {
        let (Some(&t_last), Some(&v_last)) = (self.t.last(), self.v.last()) else {
            return 0.0;
        };
        if t <= self.t[0] {
            return self.v[0];
        }
        if t >= t_last {
            return v_last;
        }
        // A NaN time fails both clamps; the search below needs an ordered one.
        if t.is_nan() {
            return f64::NAN;
        }
        let idx = match self
            .t
            .binary_search_by(|x| x.partial_cmp(&t).expect("finite"))
        {
            Ok(i) => return self.v[i],
            Err(i) => i,
        };
        let (t0, t1) = (self.t[idx - 1], self.t[idx]);
        let (v0, v1) = (self.v[idx - 1], self.v[idx]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Resample onto a uniform grid of `n` points spanning `[t0, t1]`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, either bound is not finite, or `t1 <= t0`. See
    /// [`Waveform::try_resample`] for a fallible variant that also
    /// rejects empty waveforms.
    #[must_use]
    pub fn resample(&self, t0: f64, t1: f64, n: usize) -> Self {
        assert!(n >= 2, "need at least two samples");
        assert!(
            t0.is_finite() && t1.is_finite(),
            "non-finite resample window"
        );
        assert!(t1 > t0, "empty resample window");
        let dt = (t1 - t0) / (n - 1) as f64;
        let t: Vec<f64> = (0..n).map(|i| t0 + dt * i as f64).collect();
        let v = t.iter().map(|&x| self.sample(x)).collect();
        Self { t, v }
    }

    /// Fallible [`Waveform::resample`]: a typed error instead of a panic
    /// on a degenerate request, and — unlike the panicking variant, which
    /// clamps an empty waveform to all-zero samples — an explicit
    /// [`SpiceError::EmptyWaveform`] when there is nothing to resample
    /// (e.g. a transient that produced no probe data mid-acquisition).
    ///
    /// # Errors
    ///
    /// [`SpiceError::EmptyWaveform`] when the waveform is empty;
    /// [`SpiceError::InvalidParameter`] when `n < 2`, either bound is
    /// not finite, or `t1 <= t0`.
    pub fn try_resample(&self, t0: f64, t1: f64, n: usize) -> Result<Self, SpiceError> {
        if self.is_empty() {
            return Err(SpiceError::EmptyWaveform {
                op: "resample",
                len: 0,
            });
        }
        if n < 2 || !(t0.is_finite() && t1.is_finite()) || t1 <= t0 {
            return Err(SpiceError::InvalidParameter {
                element: "waveform".to_owned(),
                reason: format!("resample window [{t0:e}, {t1:e}] with {n} points"),
            });
        }
        Ok(self.resample(t0, t1, n))
    }

    /// Fallible trapezoidal integral over `[a, b]`: a typed error where
    /// [`Waveform::integral_between`] silently returns `0.0` for a
    /// waveform with fewer than two samples.
    ///
    /// # Errors
    ///
    /// [`SpiceError::EmptyWaveform`] when fewer than two samples exist.
    pub fn try_integral_between(&self, a: f64, b: f64) -> Result<f64, SpiceError> {
        if self.t.len() < 2 {
            return Err(SpiceError::EmptyWaveform {
                op: "integral",
                len: self.t.len(),
            });
        }
        Ok(self.integral_between(a, b))
    }

    /// Fallible time-average over `[a, b]`; see
    /// [`Waveform::try_integral_between`].
    ///
    /// # Errors
    ///
    /// [`SpiceError::EmptyWaveform`] when fewer than two samples exist.
    pub fn try_mean_between(&self, a: f64, b: f64) -> Result<f64, SpiceError> {
        if self.t.len() < 2 {
            return Err(SpiceError::EmptyWaveform {
                op: "mean",
                len: self.t.len(),
            });
        }
        Ok(self.mean_between(a, b))
    }

    /// Trapezoidal integral over the full span.
    #[must_use]
    pub fn integral(&self) -> f64 {
        self.integral_between(
            self.t.first().copied().unwrap_or(0.0),
            self.t.last().copied().unwrap_or(0.0),
        )
    }

    /// Trapezoidal integral over `[a, b]` (clipped to the recorded span,
    /// with interpolated end segments).
    #[must_use]
    pub fn integral_between(&self, a: f64, b: f64) -> f64 {
        if self.t.len() < 2 || b <= a {
            return 0.0;
        }
        let a = a.max(self.t[0]);
        let b = b.min(self.t[self.t.len() - 1]);
        if b <= a {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut prev_t = a;
        let mut prev_v = self.sample(a);
        for i in 0..self.t.len() {
            let ti = self.t[i];
            if ti <= a {
                continue;
            }
            if ti >= b {
                break;
            }
            acc += 0.5 * (prev_v + self.v[i]) * (ti - prev_t);
            prev_t = ti;
            prev_v = self.v[i];
        }
        acc += 0.5 * (prev_v + self.sample(b)) * (b - prev_t);
        acc
    }

    /// Time-average value over `[a, b]`.
    #[must_use]
    pub fn mean_between(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        self.integral_between(a, b) / (b - a)
    }

    /// Time-average over the full span.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match (self.t.first(), self.t.last()) {
            (Some(&a), Some(&b)) if b > a => self.mean_between(a, b),
            _ => self.last_value(),
        }
    }

    /// Minimum sample value (`+inf` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.v.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum sample value (`-inf` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// All times at which the waveform crosses `level` in the requested
    /// direction (linearly interpolated).
    #[must_use]
    pub fn crossings(&self, level: f64, rising: bool) -> Vec<f64> {
        let mut out = Vec::new();
        for w in 0..self.t.len().saturating_sub(1) {
            let (v0, v1) = (self.v[w], self.v[w + 1]);
            let crosses = if rising {
                v0 < level && v1 >= level
            } else {
                v0 > level && v1 <= level
            };
            if crosses {
                let f = (level - v0) / (v1 - v0);
                out.push(self.t[w] + f * (self.t[w + 1] - self.t[w]));
            }
        }
        out
    }

    /// First crossing of `level` at or after time `after`, if any.
    #[must_use]
    pub fn first_crossing_after(&self, level: f64, rising: bool, after: f64) -> Option<f64> {
        self.crossings(level, rising)
            .into_iter()
            .find(|&t| t >= after)
    }

    /// Pointwise sum with another waveform, sampled on the union grid of
    /// both waveforms' time points.
    #[must_use]
    pub fn add(&self, other: &Waveform) -> Waveform {
        let mut grid: Vec<f64> = self.t.iter().chain(other.t.iter()).copied().collect();
        grid.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        grid.dedup();
        let v = grid
            .iter()
            .map(|&t| self.sample(t) + other.sample(t))
            .collect();
        Waveform { t: grid, v }
    }

    /// Scale all values by `k`.
    #[must_use]
    pub fn scaled(&self, k: f64) -> Waveform {
        Waveform {
            t: self.t.clone(),
            v: self.v.iter().map(|x| x * k).collect(),
        }
    }

    /// Iterate over `(t, v)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.t.iter().copied().zip(self.v.iter().copied())
    }
}

impl FromIterator<(f64, f64)> for Waveform {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut w = Waveform::empty();
        for (t, v) in iter {
            w.push(t, v);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> Waveform {
        Waveform::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 2.0])
    }

    #[test]
    fn sample_interpolates_and_clamps() {
        let w = ramp();
        assert_eq!(w.sample(0.5), 0.5);
        assert_eq!(w.sample(-1.0), 0.0);
        assert_eq!(w.sample(5.0), 2.0);
        assert_eq!(w.sample(1.0), 1.0);
    }

    #[test]
    fn integral_of_ramp() {
        let w = ramp();
        assert!((w.integral() - 2.0).abs() < 1e-12);
        assert!((w.integral_between(0.5, 1.5) - 1.0).abs() < 1e-12);
        assert!((w.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn integral_outside_span_clips() {
        let w = ramp();
        assert!((w.integral_between(-5.0, 10.0) - 2.0).abs() < 1e-12);
        assert_eq!(w.integral_between(3.0, 5.0), 0.0);
        assert_eq!(w.integral_between(1.0, 1.0), 0.0);
    }

    #[test]
    fn crossings_detect_both_edges() {
        let w = Waveform::new(vec![0.0, 1.0, 2.0, 3.0], vec![0.0, 1.0, 0.0, 1.0]);
        let rising = w.crossings(0.5, true);
        assert_eq!(rising.len(), 2);
        assert!((rising[0] - 0.5).abs() < 1e-12);
        assert!((rising[1] - 2.5).abs() < 1e-12);
        let falling = w.crossings(0.5, false);
        assert_eq!(falling.len(), 1);
        assert!((falling[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn add_merges_grids() {
        let a = Waveform::new(vec![0.0, 2.0], vec![1.0, 1.0]);
        let b = Waveform::new(vec![0.0, 1.0, 2.0], vec![0.0, 1.0, 0.0]);
        let s = a.add(&b);
        assert_eq!(s.len(), 3);
        assert_eq!(s.sample(1.0), 2.0);
    }

    #[test]
    fn nan_time_samples_as_nan() {
        assert!(ramp().sample(f64::NAN).is_nan());
    }

    #[test]
    fn resample_uniform() {
        let w = ramp();
        let r = w.resample(0.0, 2.0, 5);
        assert_eq!(r.len(), 5);
        assert_eq!(r.values()[2], 1.0);
    }

    #[test]
    fn from_iterator_collects() {
        let w: Waveform = (0..4).map(|i| (f64::from(i), f64::from(i * i))).collect();
        assert_eq!(w.len(), 4);
        assert_eq!(w.sample(3.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_time_rejected() {
        let _ = Waveform::new(vec![0.0, 0.0], vec![1.0, 2.0]);
    }

    #[test]
    fn empty_waveform_behaviour() {
        let w = Waveform::empty();
        assert!(w.is_empty());
        assert_eq!(w.sample(1.0), 0.0);
        assert_eq!(w.last_value(), 0.0);
        assert_eq!(w.integral(), 0.0);
    }

    #[test]
    fn try_apis_reject_degenerate_waveforms() {
        let empty = Waveform::empty();
        assert!(matches!(
            empty.try_resample(0.0, 1.0, 4),
            Err(SpiceError::EmptyWaveform { op: "resample", .. })
        ));
        let single = Waveform::new(vec![0.0], vec![1.0]);
        assert!(matches!(
            single.try_integral_between(0.0, 1.0),
            Err(SpiceError::EmptyWaveform {
                op: "integral",
                len: 1
            })
        ));
        assert!(matches!(
            single.try_mean_between(0.0, 1.0),
            Err(SpiceError::EmptyWaveform { op: "mean", .. })
        ));
        // Bad window on a healthy waveform: parameter error, not empty.
        assert!(matches!(
            ramp().try_resample(1.0, 0.0, 4),
            Err(SpiceError::InvalidParameter { .. })
        ));
        // Healthy request round-trips to the panicking API's result.
        let ok = ramp().try_resample(0.0, 2.0, 5).unwrap();
        assert_eq!(ok, ramp().resample(0.0, 2.0, 5));
    }

    #[test]
    fn try_resample_rejects_non_finite_windows() {
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        for (t0, t1) in [(nan, 1.0), (0.0, nan), (-inf, 1.0), (0.0, inf)] {
            assert!(
                matches!(
                    ramp().try_resample(t0, t1, 4),
                    Err(SpiceError::InvalidParameter { .. })
                ),
                "window [{t0}, {t1}]"
            );
        }
    }

    #[test]
    fn scaled_multiplies_values() {
        let w = ramp().scaled(2.0);
        assert_eq!(w.sample(1.0), 2.0);
    }
}
