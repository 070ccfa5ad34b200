//! Transient analysis with backward-Euler companion models.
//!
//! This module holds the options and the result; the time loop itself is
//! the march in `analysis::march`, which [`Circuit::transient`] runs over
//! one circuit as one monolithic Newton system. Backward Euler is the only
//! integrator: every capacitor becomes a conductance
//! `C/h` in parallel with a history current. Two stepping policies share
//! the caller's uniform `dt` grid:
//!
//! * **Fixed-step** (the default): march one grid cell at a time,
//!   subdividing a cell only when Newton fails. This is the reference
//!   path the goldens pin.
//! * **Grid-aligned adaptive** (opt-in via [`TranOptions::adaptive`]):
//!   leap several whole cells at once through quiet regions, judged by a
//!   local-truncation-error (LTE) estimate from the capacitor history,
//!   and fall back to the fixed-step cell wherever the estimate objects.
//!   Grid points inside a leap are filled by linear interpolation, so
//!   downstream consumers see the same interface either way.
//!
//! Either policy can add the quiescent-MOS bypass
//! ([`TranOptions::bypass`]). The tolerances of both fast paths are the
//! crate constants below, the values the fig. 6 transistor tier was
//! tuned to.

use crate::circuit::{Circuit, ElementId, NodeId};
use crate::error::SpiceError;
use crate::waveform::Waveform;
use crate::Result;

/// Relative LTE tolerance of [`TranOptions::adaptive`], against the
/// capacitor voltage magnitude. Tight enough, with [`LTE_H_MAX`], that
/// the fig. 6 golden supply-trace samples stay within their 1e-4
/// relative pin; loose enough that the quiet pre-edge window collapses
/// into a handful of steps.
pub const LTE_RELTOL: f64 = 1e-6;

/// Absolute LTE floor (V) of [`TranOptions::adaptive`], so tolerances
/// stay finite near 0 V. It sits clearly above the Newton voltage
/// tolerance (1 µV): at a 1 µV floor the divided differences see pure
/// solver noise in electrically static windows, the error ratio hovers
/// near 1, and the controller never opens the step up.
pub const LTE_ABSTOL: f64 = 5e-6;

/// Longest adaptive leap (s), the quiet-region ceiling of
/// [`TranOptions::adaptive`]; rounded down to whole grid cells, and at
/// least one cell, so a grid coarser than this never leaps.
pub const LTE_H_MAX: f64 = 100e-12;

/// Quiescent-MOS bypass tolerance (V) of [`TranOptions::bypass`]. Ten
/// times the Newton voltage tolerance (1 µV), so converged quiescent
/// nodes actually qualify. The current is extrapolated with the exact
/// cached derivatives, so the waveform perturbation is second order in
/// the tolerance: orders of magnitude below the fig. 6 golden trace's
/// 1e-4 relative pin.
pub const BYPASS_VTOL: f64 = 10e-6;

/// Options for [`Circuit::transient`]: the end time, the base step and
/// two switches, [`adaptive`](TranOptions::adaptive) and
/// [`bypass`](TranOptions::bypass).
///
/// The end time and the base step are fixed by [`TranOptions::new`] and
/// cannot be changed afterwards; [`Circuit::transient`] checks them:
///
/// ```compile_fail,E0616
/// use mcml_spice::TranOptions;
///
/// let mut opts = TranOptions::new(1e-9, 1e-12);
/// opts.t_stop = f64::INFINITY;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TranOptions {
    /// End time (s).
    pub(crate) t_stop: f64,
    /// Base time step (s); also the spacing of the recorded output grid.
    /// Fixed-step marches it one cell at a time (subdividing locally
    /// when Newton fails); the adaptive controller leaps whole multiples
    /// of it.
    pub(crate) dt: f64,
    /// Grid-aligned LTE-controlled stepping; off (the default) keeps the
    /// fixed-step reference behaviour.
    pub(crate) adaptive: bool,
    /// Quiescent-MOS bypass at [`BYPASS_VTOL`]; off by default.
    pub(crate) bypass: bool,
}

impl TranOptions {
    /// Options with the given end time and base step, both switches off.
    /// [`Circuit::transient`] checks the grid: it needs `0 < dt <= t_stop`
    /// and a countable number of cells.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Circuit, SourceWave, TranOptions};
    ///
    /// let mut c = Circuit::new();
    /// let vin = c.node("in");
    /// let out = c.node("out");
    /// c.vsource("V", vin, Circuit::GND, SourceWave::dc(1.0));
    /// c.resistor("R", vin, out, 1.0e3);
    /// c.capacitor("C", out, Circuit::GND, 1.0e-12);
    ///
    /// // March 10 ns in 10 ps steps: 1001 recorded points (incl. t=0).
    /// let res = c.transient(&TranOptions::new(10e-9, 10e-12)).unwrap();
    /// assert_eq!(res.times().len(), 1001);
    /// assert!((res.voltage(out).last_value() - 1.0).abs() < 1e-6);
    ///
    /// // A zero step is not a grid.
    /// assert!(c.transient(&TranOptions::new(10e-9, 0.0)).is_err());
    /// ```
    #[must_use]
    pub fn new(t_stop: f64, dt: f64) -> Self {
        Self {
            t_stop,
            dt,
            adaptive: false,
            bypass: false,
        }
    }

    /// Enable grid-aligned adaptive stepping (see [`Circuit::transient`]):
    /// every internal step is a whole number of `dt` grid cells, at most
    /// [`LTE_H_MAX`] long, and each step's LTE stays below
    /// `LTE_RELTOL·|v| + LTE_ABSTOL` on every capacitor. Wherever the
    /// controller drops back to single-cell steps the solution is
    /// exactly the fixed-step reference.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Circuit, SourceWave, TranOptions};
    ///
    /// let mut c = Circuit::new();
    /// let vin = c.node("in");
    /// let out = c.node("out");
    /// c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
    /// c.resistor("R", vin, out, 1.0e3);
    /// c.capacitor("C", out, Circuit::GND, 1.0e-12);
    ///
    /// let base = TranOptions::new(50e-9, 10e-12);
    /// let fixed = c.transient(&base).unwrap();
    /// let adaptive = c.transient(&base.adaptive()).unwrap();
    /// // Same recorded grid, far fewer solves through the settled tail.
    /// assert_eq!(fixed.times(), adaptive.times());
    /// assert!(adaptive.steps_taken() < fixed.steps_taken());
    /// ```
    #[must_use]
    pub fn adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Enable the quiescent-MOS bypass (SPICE3's `bypass` option): when
    /// every terminal voltage of a MOSFET is within [`BYPASS_VTOL`] of
    /// the point it was last evaluated at, the cached linearization is
    /// reused instead of calling the device model (see
    /// `spice.mos_bypassed` in `docs/OBSERVABILITY.md`).
    ///
    /// # Examples
    ///
    /// ```
    /// use mcml_spice::{Circuit, SourceWave, TranOptions};
    ///
    /// let mut c = Circuit::new();
    /// let vin = c.node("in");
    /// c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
    /// c.resistor("R", vin, Circuit::GND, 1.0e3);
    ///
    /// // The fig. 6 transistor tier's options: adaptive leaps plus the
    /// // bypass, recorded on a 10 ps grid.
    /// let opts = TranOptions::new(3.6e-9, 10e-12).adaptive().bypass();
    /// assert_eq!(c.transient(&opts).unwrap().len(), 361);
    /// ```
    #[must_use]
    pub fn bypass(mut self) -> Self {
        self.bypass = true;
        self
    }

    /// Why the grid cannot be marched, if it cannot: it needs
    /// `0 < dt <= t_stop` and a countable number of cells, so that
    /// `t_stop / dt` is finite and fits in a `usize` (`t_stop =
    /// f64::INFINITY` or `1e300` with a picosecond step would otherwise
    /// march forever).
    fn grid_fault(&self) -> Option<String> {
        let (t_stop, dt) = (self.t_stop, self.dt);
        if !(dt > 0.0 && t_stop >= dt) {
            return Some(format!(
                "need 0 < dt <= t_stop, got dt = {dt:e}, t_stop = {t_stop:e}"
            ));
        }
        let cells = t_stop / dt;
        if !(cells.is_finite() && cells < usize::MAX as f64) {
            return Some(format!(
                "need a finite t_stop / dt that fits in usize, got {cells:e}"
            ));
        }
        None
    }
}

/// Recorded transient simulation results.
#[derive(Debug, Clone)]
pub struct TranResult {
    pub(crate) times: Vec<f64>,
    pub(crate) states: Vec<Vec<f64>>,
    pub(crate) n_node_unk: usize,
    pub(crate) branch_of_elem: Vec<Option<usize>>,
    pub(crate) t_end: f64,
    pub(crate) steps_taken: usize,
}

impl TranResult {
    /// Recorded time points (s).
    #[must_use]
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of recorded points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The integrator's internal time when the march finished. Exactly
    /// equal (bitwise) to the last recorded time: the stepper snaps to
    /// each grid target instead of accumulating `t += h` rounding.
    #[must_use]
    pub fn end_time(&self) -> f64 {
        self.t_end
    }

    /// Accepted solves the march took: every committed grid cell, part
    /// of a subdivided cell, or multi-cell leap (rejected LTE trials and
    /// Newton-failure retries excluded). On the fixed path this is at
    /// least the grid step count; adaptive leaps bring it below — the
    /// quantity the LTE controller shrinks on quiet traces.
    #[must_use]
    pub fn steps_taken(&self) -> usize {
        self.steps_taken
    }

    /// Node-voltage waveform.
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> Waveform {
        if node.is_ground() {
            return self.times.iter().map(|&t| (t, 0.0)).collect();
        }
        let idx = node.index() - 1;
        self.times
            .iter()
            .zip(self.states.iter())
            .map(|(&t, s)| (t, s[idx]))
            .collect()
    }

    /// Branch-current waveform of a voltage source (A, from the positive
    /// terminal through the source); `None` for other elements.
    #[must_use]
    pub fn branch_current(&self, elem: ElementId) -> Option<Waveform> {
        let b = self.branch_of_elem.get(elem.index()).copied().flatten()?;
        let idx = self.n_node_unk + b;
        Some(
            self.times
                .iter()
                .zip(self.states.iter())
                .map(|(&t, s)| (t, s[idx]))
                .collect(),
        )
    }

    /// Current delivered into the circuit by a voltage source (A): the
    /// negated branch current. For the Vdd rail this is the supply-current
    /// waveform of the paper's Fig. 5.
    #[must_use]
    pub fn supply_current(&self, elem: ElementId) -> Option<Waveform> {
        self.branch_current(elem).map(|w| w.scaled(-1.0))
    }
}

impl Circuit {
    /// Run a transient analysis.
    ///
    /// The initial condition is the DC operating point with sources evaluated
    /// at `t = 0`. Every step integrates the capacitors by backward Euler
    /// (first order, L-stable). The march steps the caller's `dt` grid; when
    /// a step fails to converge it is halved, up to 8 times.
    ///
    /// With [`TranOptions::adaptive`] set, a macro step may leap several
    /// grid cells: after each converged step the per-capacitor LTE is
    /// estimated from the second divided difference of the capacitor
    /// history, `h²·|f[t_{n-1},t_n,t_{n+1}]|`, and a leap is rejected and
    /// halved when the worst ratio against `LTE_RELTOL·|v| + LTE_ABSTOL`
    /// exceeds 1. The leap doubles (up to [`LTE_H_MAX`]) while the ratio is
    /// small and drops to one cell when it exceeds 1. A leap never jumps
    /// past the first grid point at-or-after a source breakpoint (a PWL
    /// knot), where the history is reset. Grid points the march lands on
    /// record the solved state; points inside a leap are linearly
    /// interpolated.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] for element `"transient
    /// options"` before the DC when the grid cannot be marched (see
    /// [`TranOptions::new`]); [`SpiceError::NoConvergence`] when a step
    /// fails at the smallest subdivision; or the DC errors for the initial
    /// point.
    pub fn transient(&self, opts: &TranOptions) -> Result<TranResult> {
        if let Some(reason) = opts.grid_fault() {
            return Err(SpiceError::InvalidParameter {
                element: "transient options".to_owned(),
                reason,
            });
        }
        let _span = mcml_obs::span(mcml_obs::Stage::Transient);
        mcml_obs::incr(mcml_obs::Counter::Transients);
        crate::analysis::march::run(self, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;

    fn rc_circuit() -> (Circuit, NodeId, ElementId) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let v = c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
        c.resistor("R", vin, out, 1.0e3);
        c.capacitor("C", out, Circuit::GND, 1.0e-12);
        (c, out, v)
    }

    #[test]
    fn rc_step_time_constant() {
        let (c, out, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(8e-9, 5e-12)).unwrap();
        let w = res.voltage(out);
        // tau = 1 ns; at t = 1 ns after the step, v = 1 - 1/e ≈ 0.632.
        let v_tau = w.sample(2e-9);
        assert!((v_tau - 0.632).abs() < 0.02, "v(tau) = {v_tau}");
        assert!((w.last_value() - 1.0).abs() < 0.01);
    }

    #[test]
    fn capacitor_blocks_dc_supply_current_decays() {
        let (c, _, v) = rc_circuit();
        let res = c.transient(&TranOptions::new(10e-9, 10e-12)).unwrap();
        let i = res.supply_current(v).unwrap();
        // After many time constants the capacitor is charged; current ~ 0.
        assert!(i.last_value().abs() < 1e-6);
        // Peak current just after the step ≈ V/R = 1 mA.
        assert!(i.max() > 0.8e-3, "peak {}", i.max());
    }

    #[test]
    fn internal_time_matches_recorded_grid_exactly() {
        // Regression: repeated `t += h` accumulated rounding against the
        // exact recorded `t_target`; the stepper now snaps to the grid.
        // dt = 0.1 ns / 3 is not exactly representable, so without the
        // snap the final internal time is a few ulps off t_stop.
        let (c, _, _) = rc_circuit();
        let dt = 1e-10 / 3.0;
        let opts = TranOptions::new(4e-9, dt);
        let res = c.transient(&opts).unwrap();
        let last = *res.times().last().unwrap();
        assert_eq!(last, 4e-9, "grid ends exactly at t_stop");
        assert_eq!(
            res.end_time().to_bits(),
            last.to_bits(),
            "internal clock and recorded time agree bitwise"
        );
    }

    #[test]
    fn adaptive_resistive_only_circuit_is_exact() {
        // No capacitors: LTE is zero and the leap opens to LTE_H_MAX, yet
        // leaps end on the PWL knots, so the divider output — solved at
        // the leap ends, interpolated inside — is exact at every grid
        // point.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.vsource(
            "V",
            vin,
            Circuit::GND,
            SourceWave::Pwl(vec![(0.0, 0.0), (1e-9, 1.0), (2e-9, 0.5)]),
        );
        c.resistor("R1", vin, mid, 1e3);
        c.resistor("R2", mid, Circuit::GND, 1e3);
        let res = c
            .transient(&TranOptions::new(3e-9, 10e-12).adaptive())
            .unwrap();
        assert!(
            res.steps_taken() * 2 < res.len(),
            "leaps the linear segments"
        );
        let w = res.voltage(mid);
        for (t, v) in w.iter() {
            let src = if t <= 1e-9 {
                t / 1e-9
            } else if t <= 2e-9 {
                1.0 - 0.5 * (t - 1e-9) / 1e-9
            } else {
                0.5
            };
            assert!((v - src / 2.0).abs() < 1e-9, "t={t} v={v}");
        }
    }

    #[test]
    fn aligned_with_unit_ceiling_is_bitwise_fixed() {
        // A grid cell as long as LTE_H_MAX, or longer, forces k = 1
        // everywhere: the aligned controller must reproduce the
        // fixed-step reference bitwise, not just closely.
        let (c, out, _) = rc_circuit();
        for dt in [LTE_H_MAX, 3.0 * LTE_H_MAX] {
            let base = TranOptions::new(8e-9, dt);
            let fixed = c.transient(&base).unwrap();
            let aligned = c.transient(&base.adaptive()).unwrap();
            assert_eq!(fixed.times(), aligned.times());
            let (wf, wa) = (fixed.voltage(out), aligned.voltage(out));
            for ((t, a), (_, b)) in wf.iter().zip(wa.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "dt={dt}, t={t}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn aligned_leaps_quiet_regions_and_stays_close() {
        // Step at 1 ns, long settled tail: the aligned controller must
        // leap multi-cell steps through the quiet regions while keeping
        // the recorded trace within the LTE budget of the fixed one.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
        c.resistor("R", vin, out, 1.0e3);
        c.capacitor("C", out, Circuit::GND, 1.0e-12);
        let opts = TranOptions::new(50e-9, 10e-12);
        let fixed = c.transient(&opts).unwrap();
        let aligned = c.transient(&opts.adaptive()).unwrap();
        assert_eq!(fixed.times(), aligned.times());
        assert!(
            aligned.steps_taken() * 3 < fixed.steps_taken(),
            "aligned {} vs fixed {} internal steps",
            aligned.steps_taken(),
            fixed.steps_taken()
        );
        let (wf, wa) = (fixed.voltage(out), aligned.voltage(out));
        let worst = wf
            .iter()
            .zip(wa.iter())
            .map(|((_, a), (_, b))| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 1e-4, "worst deviation vs fixed reference {worst}");
    }

    #[test]
    fn ground_voltage_is_zero() {
        let (c, _, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(2e-9, 20e-12)).unwrap();
        assert_eq!(res.voltage(Circuit::GND).max(), 0.0);
    }

    #[test]
    fn endpoint_reached_when_t_stop_not_multiple_of_dt() {
        // t_stop / dt = 3.33…: the old `round` step count stopped at
        // 0.9 ns, silently dropping the last 0.1 ns of the window.
        let (c, out, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(1e-9, 0.3e-9)).unwrap();
        let times = res.times();
        assert_eq!(*times.last().unwrap(), 1e-9, "ends exactly at t_stop");
        assert!(times.windows(2).all(|w| w[1] > w[0]), "monotonic grid");
        // Every full-dt grid point is still present.
        for (i, expect) in [0.0, 0.3e-9, 0.6e-9, 0.9e-9, 1.0e-9].iter().enumerate() {
            assert!((times[i] - expect).abs() < 1e-18, "grid point {i}");
        }
        // Waveform sampling at t_stop uses a real solution, not an
        // extrapolation.
        assert!(res.voltage(out).sample(1e-9).is_finite());
    }

    #[test]
    fn endpoint_never_overshoots_t_stop() {
        // t_stop / dt = 1.67: `round` used to march to 1.2 ns, past the
        // requested end of the window.
        let (c, _, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(1e-9, 0.6e-9)).unwrap();
        let times = res.times();
        assert_eq!(*times.last().unwrap(), 1e-9);
        assert!(times.iter().all(|&t| t <= 1e-9));
    }

    #[test]
    fn integer_grid_unchanged_by_endpoint_clamp() {
        let (c, _, _) = rc_circuit();
        let res = c.transient(&TranOptions::new(2e-9, 0.5e-9)).unwrap();
        let expect = [0.0, 0.5e-9, 1.0e-9, 1.5e-9, 2e-9];
        assert_eq!(res.len(), expect.len());
        for (t, e) in res.times().iter().zip(expect) {
            assert!((t - e).abs() < 1e-20, "{t} vs {e}");
        }
        assert_eq!(*res.times().last().unwrap(), 2e-9);
    }

    /// The typed error a grid that cannot be marched returns.
    fn grid_error(t_stop: f64, dt: f64) -> String {
        let (c, _, _) = rc_circuit();
        match c.transient(&TranOptions::new(t_stop, dt).adaptive().bypass()) {
            Err(SpiceError::InvalidParameter { element, reason }) => {
                assert_eq!(element, "transient options");
                reason
            }
            other => panic!("t_stop={t_stop:e}, dt={dt:e}: {other:?}"),
        }
    }

    #[test]
    fn bad_options_are_typed_errors() {
        for (t_stop, dt) in [
            (1e-9, 0.0),
            (1e-9, -1e-12),
            (1e-12, 1e-9),
            (1e-9, f64::NAN),
            (f64::NAN, 1e-12),
        ] {
            assert!(grid_error(t_stop, dt).starts_with("need 0 < dt <= t_stop"));
        }
    }

    #[test]
    fn infinite_stop_time_is_a_typed_error() {
        let reason = grid_error(f64::INFINITY, 1e-12);
        assert!(reason.starts_with("need a finite t_stop / dt that fits in usize"));
    }

    #[test]
    fn uncountable_grid_is_a_typed_error() {
        let reason = grid_error(1e300, 1e-12);
        assert!(reason.starts_with("need a finite t_stop / dt that fits in usize"));
    }
}
