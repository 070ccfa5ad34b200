//! The transient march: the one time loop every transient runs.
//!
//! [`Circuit::transient`](crate::Circuit::transient) runs it over one
//! [`MonoLane`]: one damped-Newton [`Engine`] over the whole circuit,
//! with a trial solve that touches nothing committed, and a commit. The
//! march owns everything else:
//!
//! * **the grid**: the caller's uniform `dt` grid, whose last cell is
//!   clamped to `t_stop`;
//! * **the controller**: fixed-step is the grid-aligned controller with
//!   the leap pinned to one cell. With [`TranOptions::adaptive`] a macro
//!   step leaps `k` cells through quiet regions, judged by the LTE
//!   estimate of [`lte_ratio`]; an LTE reject or a Newton failure halves
//!   `k`;
//! * **the Newton-failure subdivision**: a one-cell step ([`cell`])
//!   halves `h` on failure, up to [`MAX_SUBDIV`] times;
//! * **recording**: a grid point the march landed on records the solved
//!   state; only points inside a multi-cell leap are interpolated.

use crate::analysis::dc::{branch_map, OpPoint};
use crate::analysis::engine::{
    init_cap_states, v_node, CapState, CompanionCtx, Engine, MAX_SUBDIV,
};
use crate::analysis::tran::{
    TranOptions, TranResult, BYPASS_VTOL, LTE_ABSTOL, LTE_H_MAX, LTE_RELTOL,
};
use crate::circuit::{Circuit, NodeId};
use crate::element::Element;
use crate::error::SpiceError;
use crate::Result;

/// The circuit's solver as the march drives it: one engine over the
/// whole circuit, its committed state and the trial state of the step
/// in flight.
struct MonoLane<'c> {
    engine: Engine<'c>,
    /// Quiescent-MOS bypass tolerance (V); `0.0` disables it.
    bypass_tol: f64,
    x: Vec<f64>,
    x_try: Vec<f64>,
    caps: Vec<Option<CapState>>,
}

impl<'c> MonoLane<'c> {
    fn new(engine: Engine<'c>, x0: &[f64], opts: &TranOptions) -> Self {
        let ckt = engine.ckt;
        Self {
            engine,
            bypass_tol: if opts.bypass { BYPASS_VTOL } else { 0.0 },
            x: x0.to_vec(),
            x_try: vec![0.0; x0.len()],
            caps: init_cap_states(ckt, x0),
        }
    }

    /// Solve the step of size `h` that ends at time `t`, starting from
    /// the committed state. Nothing committed changes, so a failed or
    /// rejected trial retries cleanly.
    fn try_step(&mut self, t: f64, h: f64) -> Result<()> {
        self.x_try.clone_from(&self.x);
        let ctx = CompanionCtx {
            h,
            caps: &self.caps,
        };
        let (gmin, tol) = (self.engine.ckt.gmin, self.bypass_tol);
        self.engine
            .solve_nr(&mut self.x_try, t, Some(&ctx), gmin, 1.0, tol, "tran")
    }

    /// The last trial's state (node voltages first).
    fn trial(&self) -> &[f64] {
        &self.x_try
    }

    /// Accept the last trial.
    fn commit(&mut self) {
        update_caps(self.engine.ckt, &mut self.caps, &self.x_try);
        std::mem::swap(&mut self.x, &mut self.x_try);
    }

    /// The committed state (node voltages first).
    fn state(&self) -> &[f64] {
        &self.x
    }
}

/// Advance capacitor companion states past an accepted step to `x`.
pub(crate) fn update_caps(ckt: &Circuit, caps: &mut [Option<CapState>], x: &[f64]) {
    for (idx, (_, e)) in ckt.elements().map(|(id, n, e)| (id.index(), (n, e))) {
        if let (Element::Capacitor { a, b, .. }, Some(state)) = (e, caps[idx].as_mut()) {
            state.prev_v = v_node(x, *a) - v_node(x, *b);
        }
    }
}

/// Solve the DC operating point, build the lane and march it.
pub(crate) fn run(ckt: &Circuit, opts: &TranOptions) -> Result<TranResult> {
    // The DC operating point is solved cold, deliberately *not*
    // accelerated: differential MCML cells have multiple locally stable
    // operating points whose supply currents are indistinguishable
    // (that is the style's whole point), so any shortcut that changes
    // the Newton path from zero — a warm start, skipping a continuation
    // rung, lagged-Jacobian iterations inside the ladder — can silently
    // settle internal nodes into a different basin and corrupt the
    // clock-edge transient.
    let op = ckt.dc_op()?;
    let lane = MonoLane::new(Engine::new(ckt), op.state(), opts);
    march(ckt, &op, lane, opts)
}

/// Grid cells covering `[0, t_stop]`. When `t_stop` is not a whole
/// multiple of `dt`, `round` would either drop the tail of the window
/// or overshoot it; `ceil` plus clamping the last grid point to
/// `t_stop` makes the last cell simply shorter.
fn grid_steps(opts: &TranOptions) -> usize {
    let ratio = opts.t_stop / opts.dt;
    if (ratio - ratio.round()).abs() < 1e-6 * ratio.max(1.0) {
        (ratio.round() as usize).max(1)
    } else {
        ratio.ceil() as usize
    }
}

/// March `lane` (the solver of `ckt`, starting from `op`) across the
/// grid and record its result.
fn march(
    ckt: &Circuit,
    op: &OpPoint,
    mut lane: MonoLane<'_>,
    opts: &TranOptions,
) -> Result<TranResult> {
    let n_steps = grid_steps(opts);
    let grid_t = |i: usize| {
        if i == n_steps {
            opts.t_stop
        } else {
            opts.dt * i as f64
        }
    };

    let mut ctl = opts
        .adaptive
        .then(|| Controller::new(ckt, opts, n_steps, lane.state()));
    let mut times = Vec::with_capacity(n_steps + 1);
    times.push(0.0);
    let mut states = Vec::with_capacity(n_steps + 1);
    states.push(op.state().to_vec());
    let mut steps_taken = 0usize;
    let mut ratio: Option<f64> = None;

    let mut t = 0.0;
    let mut pos = 0usize;
    while pos < n_steps {
        let mut k = ctl.as_mut().map_or(1, |c| c.propose(pos, n_steps));
        loop {
            let t_next = grid_t(pos + k);
            if k == 1 {
                steps_taken += cell(&mut lane, opts, t, t_next)?;
                if let Some(c) = &ctl {
                    ratio = c.ratio(lane.state(), t_next, opts.dt);
                }
                times.push(t_next);
                states.push(lane.state().to_vec());
                break;
            }

            // A multi-cell leap: it must converge and pass the LTE
            // test, or it re-runs at half the leap.
            let c = ctl.as_ref().expect("only the LTE controller leaps");
            let h = t_next - t;
            if lane.try_step(t_next, h).is_err() {
                // Once k reaches 1 the cell step owns any further
                // subdivision and the terminal error.
                mcml_obs::incr(mcml_obs::Counter::TranRetries);
                k /= 2;
                continue;
            }
            ratio = c.ratio(lane.trial(), t_next, h);
            if ratio.is_some_and(|r| r > 1.0) {
                mcml_obs::incr(mcml_obs::Counter::LteRejects);
                k /= 2;
                continue;
            }
            mcml_obs::incr(mcml_obs::Counter::TranSteps);
            steps_taken += 1;
            let from = lane.state().to_vec();
            lane.commit();
            let to = lane.state().to_vec();
            for i in pos + 1..pos + k {
                let tg = grid_t(i);
                let u = (tg - t) / (t_next - t);
                times.push(tg);
                states.push(from.iter().zip(&to).map(|(a, b)| a + (b - a) * u).collect());
            }
            times.push(t_next);
            states.push(to);
            break;
        }
        t = grid_t(pos + k);
        pos += k;
        if let Some(c) = ctl.as_mut() {
            c.advance(pos, k, t, ratio, lane.state());
        }
    }

    Ok(TranResult {
        times,
        states,
        n_node_unk: ckt.node_count() - 1,
        branch_of_elem: branch_map(ckt),
        t_end: t,
        steps_taken,
    })
}

/// March the lane across one grid cell from `t` to `t_next`, halving
/// the step on Newton failure up to [`MAX_SUBDIV`] times. Returns the
/// number of accepted solves.
fn cell(lane: &mut MonoLane<'_>, opts: &TranOptions, mut t: f64, t_next: f64) -> Result<usize> {
    let mut accepted = 0usize;
    while t < t_next - opts.dt * 1e-9 {
        let mut h = t_next - t;
        let mut level = 0u32;
        loop {
            match lane.try_step(t + h, h) {
                Ok(()) => {
                    mcml_obs::incr(mcml_obs::Counter::TranSteps);
                    lane.commit();
                    t += h;
                    accepted += 1;
                    break;
                }
                Err(e) => {
                    mcml_obs::incr(mcml_obs::Counter::TranRetries);
                    level += 1;
                    if level > MAX_SUBDIV {
                        return Err(retag_tran(e, t + h));
                    }
                    h /= 2.0;
                }
            }
        }
    }
    Ok(accepted)
}

/// Re-tag a Newton failure with the transient analysis name and time.
fn retag_tran(e: SpiceError, time: f64) -> SpiceError {
    match e {
        SpiceError::NoConvergence { iterations, .. } => SpiceError::NoConvergence {
            analysis: "tran",
            time,
            iterations,
        },
        other => other,
    }
}

/// The grid-aligned LTE controller: every macro step covers a whole
/// number `k` of grid cells, so a `k = 1` step is exactly the fixed
/// path's cell step. The leap grows while the LTE stays well inside
/// tolerance, collapses to one cell at edges, and never jumps past the
/// first grid point at-or-after a source breakpoint, so a discontinuity
/// can't fall unseen inside a leap.
struct Controller {
    /// Capacitor terminal pairs.
    pairs: Vec<(NodeId, NodeId)>,
    /// Divided-difference history.
    hist: CapHistory,
    /// First grid index at-or-after each source breakpoint.
    barriers: Vec<usize>,
    bar_idx: usize,
    k_max: usize,
    /// Proposal for the next leap.
    k_next: usize,
}

impl Controller {
    fn new(ckt: &Circuit, opts: &TranOptions, n_steps: usize, x0: &[f64]) -> Self {
        let mut bps: Vec<f64> = Vec::new();
        for (_, _, e) in ckt.elements() {
            if let Element::Vsource { wave, .. } | Element::Isource { wave, .. } = e {
                wave.breakpoints(opts.t_stop, &mut bps);
            }
        }
        bps.sort_by(f64::total_cmp);
        // The ceil is rounding-tolerant so a breakpoint sitting exactly
        // on the grid does not spill into the next cell through FP
        // noise.
        let mut barriers: Vec<usize> = bps
            .iter()
            .map(|&bp| {
                let q = bp / opts.dt;
                let idx = if (q - q.round()).abs() < 1e-9 * q.max(1.0) {
                    q.round()
                } else {
                    q.ceil()
                };
                (idx as usize).clamp(1, n_steps)
            })
            .collect();
        barriers.dedup();
        let pairs: Vec<(NodeId, NodeId)> = ckt
            .elements()
            .filter_map(|(_, _, e)| match e {
                Element::Capacitor { a, b, .. } => Some((*a, *b)),
                _ => None,
            })
            .collect();
        let mut hist = CapHistory::new(pairs.len());
        hist.push(0.0, &pairs, x0);
        Self {
            pairs,
            hist,
            barriers,
            bar_idx: 0,
            k_max: ((LTE_H_MAX / opts.dt).floor() as usize).max(1),
            k_next: 1,
        }
    }

    /// Cells the macro step starting at grid index `pos` covers.
    fn propose(&mut self, pos: usize, n_steps: usize) -> usize {
        while self.barriers.get(self.bar_idx).is_some_and(|&b| b <= pos) {
            self.bar_idx += 1;
        }
        let k = self.k_next.min(self.k_max).min(n_steps - pos).max(1);
        match self.barriers.get(self.bar_idx) {
            Some(&bar) => k.min(bar - pos),
            None => k,
        }
    }

    /// The LTE ratio for a candidate step of size `h` to
    /// `(t_new, x_new)`.
    fn ratio(&self, x_new: &[f64], t_new: f64, h: f64) -> Option<f64> {
        lte_ratio(&self.hist, &self.pairs, x_new, t_new, h)
    }

    /// Update the proposal after a `k`-cell macro step landed on grid
    /// index `pos` at time `t` in state `x`, with LTE `ratio`.
    fn advance(&mut self, pos: usize, k: usize, t: f64, ratio: Option<f64>, x: &[f64]) {
        mcml_obs::incr(mcml_obs::Counter::AdaptiveSteps);
        if self.barriers.get(self.bar_idx) == Some(&pos) {
            // Slope discontinuity behind us: divided differences across
            // the corner are meaningless, so restart.
            self.hist.clear();
            self.k_next = 1;
        } else {
            let grown = match ratio {
                Some(r) => {
                    // The backward-Euler LTE scales as h², so the leap
                    // may grow by r^(-1/2), less a 10 % margin.
                    let f = if r > 0.0 {
                        0.9 * r.powf(-0.5)
                    } else {
                        f64::INFINITY
                    };
                    if f >= 2.0 {
                        (k * 2).min(self.k_max)
                    } else if r > 1.0 {
                        1
                    } else {
                        k
                    }
                }
                None => k,
            };
            if grown > k {
                mcml_obs::incr(mcml_obs::Counter::HGrowths);
            }
            self.k_next = grown;
        }
        self.hist.push(t, &self.pairs, x);
    }
}

/// Up to two past `(t, capacitor voltages)` samples for the LTE
/// divided difference; the newest entry is at index `len - 1`.
struct CapHistory {
    t: [f64; 2],
    v: [Vec<f64>; 2],
    len: usize,
}

impl CapHistory {
    fn new(n_caps: usize) -> Self {
        Self {
            t: [0.0; 2],
            v: [vec![0.0; n_caps], vec![0.0; n_caps]],
            len: 0,
        }
    }

    fn clear(&mut self) {
        self.len = 0;
    }

    fn push(&mut self, t: f64, pairs: &[(NodeId, NodeId)], x: &[f64]) {
        if self.len == 2 {
            self.t.rotate_left(1);
            self.v.rotate_left(1);
            self.len = 1;
        }
        self.t[self.len] = t;
        let slot = &mut self.v[self.len];
        for (k, &(a, b)) in pairs.iter().enumerate() {
            slot[k] = v_node(x, a) - v_node(x, b);
        }
        self.len += 1;
    }
}

/// Worst per-capacitor `LTE / (LTE_RELTOL·|v| + LTE_ABSTOL)` ratio for a
/// candidate step to `(t_new, x_new)`, or `None` when the history is
/// still too short to form the divided difference (such steps are
/// accepted without growing the leap). The backward-Euler (order 1)
/// estimate is `h²·|f[t_{n-1},t_n,t_{n+1}]|`.
fn lte_ratio(
    hist: &CapHistory,
    pairs: &[(NodeId, NodeId)],
    x_new: &[f64],
    t_new: f64,
    h: f64,
) -> Option<f64> {
    if pairs.is_empty() {
        // No dynamic state: the solution is quasi-static between source
        // breakpoints, so any step size is exact.
        return Some(0.0);
    }
    if hist.len < 2 {
        return None;
    }
    let (t1, t2) = (hist.t[0], hist.t[1]);
    let mut r_max = 0.0f64;
    for (k, &(a, b)) in pairs.iter().enumerate() {
        let v_new = v_node(x_new, a) - v_node(x_new, b);
        let (v1, v2) = (hist.v[0][k], hist.v[1][k]);
        let dd1a = (v2 - v1) / (t2 - t1);
        let dd1b = (v_new - v2) / (t_new - t2);
        let dd2 = (dd1b - dd1a) / (t_new - t1);
        // LTE ≈ h²/2·|v″|, with v″ ≈ 2·f[t_{n-1},t_n,t_{n+1}].
        let err = h * h * dd2.abs();
        let tol = LTE_RELTOL * v_new.abs().max(v2.abs()) + LTE_ABSTOL;
        r_max = r_max.max(err / tol);
    }
    Some(r_max)
}
