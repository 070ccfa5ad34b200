//! Independent source waveform descriptions: DC and piece-wise linear.

use serde::{Deserialize, Serialize};

/// Waveform of an independent voltage or current source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum SourceWave {
    /// Constant value.
    Dc(
        /// Value in volts or amperes.
        f64,
    ),
    /// Piece-wise-linear: `(time, value)` breakpoints with strictly
    /// increasing times; the value is held constant outside the span.
    Pwl(
        /// Breakpoints.
        Vec<(f64, f64)>,
    ),
}

impl SourceWave {
    /// A constant source.
    #[must_use]
    pub fn dc(value: f64) -> Self {
        SourceWave::Dc(value)
    }

    /// A single step from `v1` to `v2` at time `at`, with a 1 ps edge.
    #[must_use]
    pub fn step(v1: f64, v2: f64, at: f64) -> Self {
        SourceWave::Pwl(vec![(0.0, v1), (at, v1), (at + 1e-12, v2)])
    }

    /// Evaluate the source at time `t` (seconds).
    #[must_use]
    pub fn value(&self, t: f64) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pwl(points) => {
                if points.is_empty() {
                    return 0.0;
                }
                if t <= points[0].0 {
                    return points[0].1;
                }
                let last = points.last().expect("non-empty");
                if t >= last.0 {
                    return last.1;
                }
                let idx = points.partition_point(|&(pt, _)| pt < t);
                let (t0, v0) = points[idx - 1];
                let (t1, v1) = points[idx];
                if t1 == t0 {
                    v1
                } else {
                    v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                }
            }
        }
    }

    /// Append the waveform's PWL knots in `(0, t_stop]` to `out`: the
    /// instants where its slope changes.
    ///
    /// The adaptive transient stepper never leaps past the first grid
    /// point at or after each one, so an edge can never fall unseen
    /// inside a long quiet-region leap. Times are appended unsorted and
    /// may duplicate across sources; the caller sorts the merged list.
    pub fn breakpoints(&self, t_stop: f64, out: &mut Vec<f64>) {
        if let SourceWave::Pwl(points) = self {
            let knots = points.iter().map(|&(t, _)| t);
            out.extend(knots.filter(|&t| t > 0.0 && t <= t_stop));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let s = SourceWave::dc(1.2);
        assert_eq!(s.value(0.0), 1.2);
        assert_eq!(s.value(1.0), 1.2);
    }

    #[test]
    fn step_transitions_once() {
        let s = SourceWave::step(0.0, 1.0, 1e-9);
        assert_eq!(s.value(0.0), 0.0);
        assert_eq!(s.value(0.9e-9), 0.0);
        assert_eq!(s.value(2e-9), 1.0);
    }

    #[test]
    fn pwl_interpolates_and_holds() {
        let s = SourceWave::Pwl(vec![(1.0, 0.0), (2.0, 2.0)]);
        assert_eq!(s.value(0.0), 0.0);
        assert_eq!(s.value(1.5), 1.0);
        assert_eq!(s.value(9.0), 2.0);
    }

    #[test]
    fn empty_pwl_is_zero() {
        assert_eq!(SourceWave::Pwl(vec![]).value(1.0), 0.0);
    }

    #[test]
    fn pwl_breakpoints_are_knots() {
        let s = SourceWave::step(0.0, 1.0, 1e-9);
        let mut bps = Vec::new();
        s.breakpoints(2e-9, &mut bps);
        // t=0 knot is excluded (not in (0, t_stop]).
        assert_eq!(bps, vec![1e-9, 1e-9 + 1e-12]);
    }

    #[test]
    fn dc_has_no_breakpoints() {
        let mut bps = Vec::new();
        SourceWave::dc(1.0).breakpoints(1.0, &mut bps);
        assert!(bps.is_empty());
    }
}
