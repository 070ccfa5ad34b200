//! Independent source waveform descriptions (DC, pulse, PWL, sine).

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
    /// SPICE-style periodic pulse.
    Pulse {
        /// Initial value.
        v1: f64,
        /// Pulsed value.
        v2: f64,
        /// Delay before the first edge (s).
        delay: f64,
        /// Rise time (s).
        rise: f64,
        /// Fall time (s).
        fall: f64,
        /// Pulse width at `v2` (s).
        width: f64,
        /// Period (s); 0 or infinite means single-shot.
        period: f64,
    },
    /// Piece-wise-linear: `(time, value)` breakpoints with strictly
    /// increasing times; the value is held constant outside the span.
    Pwl(
        /// Breakpoints.
        Vec<(f64, f64)>,
    ),
    /// Sinusoid `offset + ampl · sin(2π·freq·(t − delay))` for `t ≥ delay`.
    Sine {
        /// DC offset.
        offset: f64,
        /// Amplitude.
        ampl: f64,
        /// Frequency (Hz).
        freq: f64,
        /// Start delay (s).
        delay: f64,
    },
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

    /// A clock: 50 % duty pulse between `v_low` and `v_high` with the given
    /// period and edge time.
    #[must_use]
    pub fn clock(v_low: f64, v_high: f64, period: f64, edge: f64) -> Self {
        SourceWave::Pulse {
            v1: v_low,
            v2: v_high,
            delay: period / 2.0,
            rise: edge,
            fall: edge,
            width: period / 2.0 - edge,
            period,
        }
    }

    /// Evaluate the source at time `t` (seconds).
    #[must_use]
    pub fn value(&self, t: f64) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v1;
                }
                let tl = if *period > 0.0 && period.is_finite() {
                    (t - delay) % period
                } else {
                    t - delay
                };
                let rise = rise.max(1e-15);
                let fall = fall.max(1e-15);
                if tl < rise {
                    v1 + (v2 - v1) * tl / rise
                } else if tl < rise + width {
                    *v2
                } else if tl < rise + width + fall {
                    v2 + (v1 - v2) * (tl - rise - width) / fall
                } else {
                    *v1
                }
            }
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
            SourceWave::Sine {
                offset,
                ampl,
                freq,
                delay,
            } => {
                if t < *delay {
                    *offset
                } else {
                    offset + ampl * (2.0 * std::f64::consts::PI * freq * (t - delay)).sin()
                }
            }
        }
    }

    /// Append the waveform's discontinuity times in `(0, t_stop]` to `out`.
    ///
    /// Breakpoints are the instants where the waveform's slope changes
    /// (pulse edge corners, PWL knots, a sine's start-of-oscillation).
    /// The adaptive transient stepper never leaps past the first grid
    /// point at or after each one, so an edge can never fall unseen
    /// inside a long quiet-region leap. Times are appended unsorted and
    /// may duplicate across sources; the caller sorts the merged list.
    pub fn breakpoints(&self, t_stop: f64, out: &mut Vec<f64>) {
        let mut push = |t: f64| {
            if t > 0.0 && t <= t_stop {
                out.push(t);
            }
        };
        match self {
            SourceWave::Dc(_) => {}
            SourceWave::Pulse {
                delay,
                rise,
                fall,
                width,
                period,
                ..
            } => {
                let rise = rise.max(1e-15);
                let fall = fall.max(1e-15);
                let corners = [0.0, rise, rise + width, rise + width + fall];
                if *period > 0.0 && period.is_finite() {
                    let mut start = *delay;
                    while start <= t_stop {
                        for c in corners {
                            push(start + c);
                        }
                        start += period;
                    }
                } else {
                    for c in corners {
                        push(delay + c);
                    }
                }
            }
            SourceWave::Pwl(points) => {
                for &(t, _) in points {
                    push(t);
                }
            }
            SourceWave::Sine { delay, .. } => push(*delay),
        }
    }

    /// Upper bound on the step size that still resolves the waveform's
    /// curvature, or `None` for piecewise-linear sources (whose shape is
    /// captured exactly by their [`breakpoints`](Self::breakpoints)).
    ///
    /// Only the sinusoid constrains the step between breakpoints: a
    /// sixteenth of a period keeps the linear interpolation inside a leap
    /// within a fraction of a percent of the true curve.
    #[must_use]
    pub fn max_step_hint(&self) -> Option<f64> {
        match self {
            SourceWave::Sine { freq, .. } if *freq > 0.0 => Some(1.0 / (16.0 * freq)),
            _ => None,
        }
    }

    /// Largest value the source ever takes (used for scaling heuristics).
    #[must_use]
    pub fn amplitude(&self) -> f64 {
        match self {
            SourceWave::Dc(v) => v.abs(),
            SourceWave::Pulse { v1, v2, .. } => v1.abs().max(v2.abs()),
            SourceWave::Pwl(points) => points.iter().map(|&(_, v)| v.abs()).fold(0.0, f64::max),
            SourceWave::Sine { offset, ampl, .. } => offset.abs() + ampl.abs(),
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
    fn pulse_cycles() {
        let s = SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 0.8e-9,
            period: 2e-9,
        };
        assert_eq!(s.value(0.5e-9), 0.0);
        assert!((s.value(1.05e-9) - 0.5).abs() < 1e-9, "mid rise");
        assert_eq!(s.value(1.5e-9), 1.0);
        assert_eq!(s.value(2.5e-9), 0.0, "back low");
        assert_eq!(s.value(3.5e-9), 1.0, "next period high");
    }

    #[test]
    fn clock_has_half_duty() {
        let c = SourceWave::clock(0.0, 1.2, 2.5e-9, 50e-12);
        // 400 MHz clock: low for the first half period.
        assert_eq!(c.value(0.0), 0.0);
        assert_eq!(c.value(1.9e-9), 1.2);
        assert_eq!(c.value(2.6e-9), 0.0);
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
    fn sine_starts_after_delay() {
        let s = SourceWave::Sine {
            offset: 0.5,
            ampl: 0.5,
            freq: 1.0,
            delay: 1.0,
        };
        assert_eq!(s.value(0.0), 0.5);
        assert!((s.value(1.25) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pulse_breakpoints_repeat_per_period() {
        let s = SourceWave::Pulse {
            v1: 0.0,
            v2: 1.0,
            delay: 1e-9,
            rise: 0.1e-9,
            fall: 0.1e-9,
            width: 0.8e-9,
            period: 2e-9,
        };
        let mut bps = Vec::new();
        s.breakpoints(4e-9, &mut bps);
        // Two periods fit; the very last corner may fall on t_stop ± ulp.
        assert!(bps.len() >= 7, "got {} corners", bps.len());
        let near = |t: f64| bps.iter().any(|&b| (b - t).abs() < 1e-15);
        assert!(near(1e-9), "first edge start");
        assert!(near(3e-9), "second-period edge start");
        assert!(bps.iter().all(|&t| t > 0.0 && t <= 4e-9));
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
    fn dc_has_no_breakpoints_and_sine_hints_step() {
        let mut bps = Vec::new();
        SourceWave::dc(1.0).breakpoints(1.0, &mut bps);
        assert!(bps.is_empty());
        assert_eq!(SourceWave::dc(1.0).max_step_hint(), None);
        let sine = SourceWave::Sine {
            offset: 0.0,
            ampl: 1.0,
            freq: 1e9,
            delay: 0.0,
        };
        let hint = sine.max_step_hint().expect("sine hints");
        assert!((hint - 1.0 / 16e9).abs() < 1e-24);
    }

    #[test]
    fn amplitude_bounds() {
        assert_eq!(SourceWave::dc(-2.0).amplitude(), 2.0);
        assert_eq!(SourceWave::step(0.0, 1.2, 0.0).amplitude(), 1.2);
        let s = SourceWave::Sine {
            offset: 1.0,
            ampl: 0.5,
            freq: 1.0,
            delay: 0.0,
        };
        assert_eq!(s.amplitude(), 1.5);
    }
}
