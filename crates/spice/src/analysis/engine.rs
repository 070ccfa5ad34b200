//! Shared MNA assembly and damped Newton–Raphson iteration.
//!
//! The engine owns the per-circuit [`StampPlan`] plus every buffer the
//! Newton loop needs (Jacobian values, residual, update, LU factors), so
//! after the first iteration the inner loop runs allocation-free:
//! re-assembly refreshes a flat values buffer, both LU backends replay
//! their recorded elimination numerically, and solves land in
//! preallocated vectors.
//!
//! A system of at most [`DENSE_LIMIT`] unknowns (every cell testbench)
//! factors on the dense partial-pivoting LU, replayed over its
//! structural non-zeros ([`DenseLu`]). A larger one factors on the sparse
//! LU: in the plan's minimum-degree order ([`StampPlan::fill_order`]) for
//! a transient, in raw MNA order for the DC operating point (the engine
//! `dc_op` builds with [`Engine::new_natural_order`]). Every DC keeps the
//! factors its goldens were taken with because on a bistable netlist its
//! basin follows the LU rounding (SOLVER.md §2). The DC's sparse factors
//! store only the entries that a slot other than the plan's DC-dead
//! ones reaches; every value they keep is the full factors' bit for bit
//! (SOLVER.md §3).

use crate::analysis::plan::{MosBypassState, StampPlan};
use crate::circuit::{Circuit, NodeId};
use crate::element::Element;
use crate::error::SpiceError;
use crate::matrix::dense::DenseLu;
use crate::matrix::sparse::SparseLu;
use crate::matrix::{SystemMatrix, DENSE_LIMIT};
use crate::Result;

/// Per-capacitor companion-model state for transient analysis.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CapState {
    /// Capacitance (F), cached from the element.
    pub c: f64,
    /// Voltage across the capacitor at the previous accepted time point.
    pub prev_v: f64,
}

/// Companion-model context handed to assembly during transient steps.
/// Borrows the caller's capacitor states — building one per Newton solve
/// is free.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompanionCtx<'c> {
    /// Current step size (s).
    pub h: f64,
    /// Parallel to the circuit's element list; `Some` for capacitors.
    pub caps: &'c [Option<CapState>],
}

/// Newton iteration budget per solve (per DC continuation rung, per
/// transient step attempt).
pub(crate) const MAX_ITER: usize = 150;
/// Node-voltage convergence tolerance (V): the largest accepted update.
pub(crate) const VTOL: f64 = 1e-6;
/// KCL residual tolerance (A): the largest accepted node residual.
pub(crate) const ITOL: f64 = 1e-9;
/// Largest node-voltage Newton update (V); larger updates are damped to
/// it.
pub(crate) const VSTEP_LIMIT: f64 = 0.4;
/// Binary step subdivisions a transient grid cell may take when Newton
/// fails, before the march reports the failure.
pub(crate) const MAX_SUBDIV: u32 = 8;

/// Batched observability tallies for one Newton sequence, flushed once
/// per `solve_nr` exit so the inner loop stays instrumentation-free.
#[derive(Default)]
struct NrTally {
    iters: u64,
    symbolic_reuse: u64,
    numeric_refactor: u64,
    stamps_skipped: u64,
    mos_evals: u64,
    mos_bypassed: u64,
    lane_refactors: u64,
}

impl NrTally {
    fn flush(&self) {
        use mcml_obs::{add, Counter};
        add(Counter::NrIterations, self.iters);
        add(Counter::MatrixSolves, self.iters);
        add(Counter::SymbolicReuse, self.symbolic_reuse);
        add(Counter::NumericRefactor, self.numeric_refactor);
        add(Counter::LinearStampsSkipped, self.stamps_skipped);
        add(Counter::MosEvals, self.mos_evals);
        add(Counter::MosBypassed, self.mos_bypassed);
        add(Counter::LaneRefactors, self.lane_refactors);
    }
}

/// Everything the stamped Jacobian *values* can depend on besides the
/// MOS linearizations: the companion conductances (the step size) and
/// the gmin ground leak. Source waveforms only reach the residual, never
/// the matrix, so they are deliberately absent. Used by the exact reuse
/// check: when an assembly evaluated zero MOS devices (every device
/// served from its bypass cache) and this key matches the one recorded
/// at the last factorisation, the stamped values are bit-identical to
/// the factored ones and the refactorisation can be skipped outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JacKey {
    /// `h.to_bits()` of the companion context, `u64::MAX` for DC.
    h_bits: u64,
    gmin_bits: u64,
}

impl JacKey {
    fn new(companion: Option<&CompanionCtx<'_>>, gmin: f64) -> Self {
        Self {
            h_bits: companion.map_or(u64::MAX, |c| c.h.to_bits()),
            gmin_bits: gmin.to_bits(),
        }
    }

    fn is_transient(self) -> bool {
        self.h_bits != u64::MAX
    }
}

/// The Newton solver of one circuit, which it borrows.
pub(crate) struct Engine<'c> {
    pub ckt: &'c Circuit,
    pub n_node_unk: usize,
    pub n_unk: usize,
    plan: StampPlan,
    /// Jacobian values, parallel to the plan's pattern.
    vals: Vec<f64>,
    /// Residual `f(x)`.
    f: Vec<f64>,
    /// Right-hand side / Newton update (`−f`, overwritten by `dx`).
    dx: Vec<f64>,
    /// Scratch for the sparse backend's separate-rhs solve.
    rhs: Vec<f64>,
    /// Dense factors of a system of at most [`DENSE_LIMIT`] unknowns;
    /// `Some` once factored, replayed while the pivot sequence holds.
    dense: Option<DenseLu>,
    /// Sparse factors; `Some` once factored, reused numerically while the
    /// fixed pivot order stays healthy.
    lu: Option<SparseLu>,
    /// The DC operating point's engine (`dc_op` only): eliminate columns
    /// in raw MNA order instead of the plan's fill-reducing order, and
    /// keep only the factor entries that the plan's DC-live slots reach.
    natural_order: bool,
    /// Per-MOS cached linearizations for the quiescent-device bypass,
    /// parallel to the plan's MOS indices. Persists across Newton
    /// iterations *and* time steps — idle devices stay bypassed for the
    /// whole quiet window.
    mos_state: Vec<MosBypassState>,
    /// The [`JacKey`] the current factors were computed under; `None`
    /// when no factors exist. A Newton iteration whose assembly
    /// evaluated zero MOS devices under this key reuses the factors
    /// without a refactorisation: every iteration that evaluates a
    /// device refactors, so the bypass caches hold the linearizations
    /// that were factored and the stamped values are bit-identical to
    /// the factored ones.
    last_factored: Option<JacKey>,
    /// Test-only record of what the exact path saw.
    #[cfg(test)]
    audit: ExactAudit,
}

/// The values the current factors were computed from, and how often an
/// exact reuse stamped anything else (which would solve against a stale
/// Jacobian).
#[cfg(test)]
#[derive(Default)]
struct ExactAudit {
    factored: Vec<f64>,
    reuses: usize,
    mismatches: usize,
}

impl<'c> Engine<'c> {
    pub fn new(ckt: &'c Circuit) -> Self {
        let n_node_unk = ckt.node_count() - 1;
        let n_unk = n_node_unk + ckt.branch_count();
        let plan = StampPlan::build(ckt, n_node_unk, n_unk);
        let nnz = plan.pattern.nnz();
        let n_mos = plan.n_mos;
        Self {
            ckt,
            n_node_unk,
            n_unk,
            plan,
            vals: vec![0.0; nnz],
            f: vec![0.0; n_unk],
            dx: vec![0.0; n_unk],
            rhs: vec![0.0; n_unk],
            dense: None,
            lu: None,
            natural_order: false,
            mos_state: vec![MosBypassState::default(); n_mos],
            last_factored: None,
            #[cfg(test)]
            audit: ExactAudit::default(),
        }
    }

    /// An engine whose sparse factorisations keep the raw MNA column
    /// order — the DC operating point's, whose basin on bistable
    /// netlists follows the LU rounding (SOLVER.md §2). It assembles
    /// without capacitor companions only, so its sparse factors drop
    /// what only the plan's DC-dead slots reach.
    pub fn new_natural_order(ckt: &'c Circuit) -> Self {
        Self {
            natural_order: true,
            ..Self::new(ckt)
        }
    }

    #[inline]
    fn unk(node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    #[inline]
    fn v(x: &[f64], node: NodeId) -> f64 {
        match Self::unk(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }

    /// Reference assembly: build Jacobian `mat` and residual `f` (KCL:
    /// sum of currents leaving each node; KVL rows for voltage-source
    /// branches) at state `x`, time `t`, from scratch.
    ///
    /// The Newton loop no longer calls this — it uses the stamp plan —
    /// but it stays as the independent oracle the equivalence tests
    /// compare the plan against (`crate::testing`).
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_reference(
        &self,
        x: &[f64],
        t: f64,
        companion: Option<&CompanionCtx<'_>>,
        gmin: f64,
        src_scale: f64,
        mat: &mut SystemMatrix,
        f: &mut [f64],
    ) {
        mat.clear();
        f.iter_mut().for_each(|v| *v = 0.0);

        // gmin from every non-ground node to ground keeps the matrix
        // non-singular for floating subcircuits.
        for i in 0..self.n_node_unk {
            mat.add(i, i, gmin);
            f[i] += gmin * x[i];
        }

        for (idx, (_, elem)) in self.ckt.elements().map(|(id, n, e)| (id.index(), (n, e))) {
            match elem {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let i = g * (Self::v(x, *a) - Self::v(x, *b));
                    self.stamp_conductance(mat, f, *a, *b, g, i);
                }
                Element::Capacitor { a, b, .. } => {
                    let Some(ctx) = companion else { continue };
                    let Some(state) = ctx.caps[idx] else { continue };
                    let (geq, hist) = companion_terms(&state, ctx.h);
                    let v_now = Self::v(x, *a) - Self::v(x, *b);
                    let i = geq * v_now + hist;
                    self.stamp_conductance(mat, f, *a, *b, geq, i);
                }
                Element::Vsource {
                    p, n, wave, branch, ..
                } => {
                    let br = self.n_node_unk + branch;
                    let i_br = x[br];
                    // KCL contributions of the branch current.
                    if let Some(pi) = Self::unk(*p) {
                        f[pi] += i_br;
                        mat.add(pi, br, 1.0);
                    }
                    if let Some(ni) = Self::unk(*n) {
                        f[ni] -= i_br;
                        mat.add(ni, br, -1.0);
                    }
                    // KVL row: v_p − v_n = V(t)·scale.
                    let target = wave.value(t) * src_scale;
                    f[br] = Self::v(x, *p) - Self::v(x, *n) - target;
                    if let Some(pi) = Self::unk(*p) {
                        mat.add(br, pi, 1.0);
                    }
                    if let Some(ni) = Self::unk(*n) {
                        mat.add(br, ni, -1.0);
                    }
                }
                Element::Isource { p, n, wave } => {
                    let i = wave.value(t) * src_scale;
                    if let Some(pi) = Self::unk(*p) {
                        f[pi] += i;
                    }
                    if let Some(ni) = Self::unk(*n) {
                        f[ni] -= i;
                    }
                }
                Element::Mos { d, g, s, b, dev } => {
                    let e = dev.eval(
                        Self::v(x, *g),
                        Self::v(x, *d),
                        Self::v(x, *s),
                        Self::v(x, *b),
                    );
                    // Current enters the drain, leaves the source.
                    if let Some(di) = Self::unk(*d) {
                        f[di] += e.id;
                        if let Some(gi) = Self::unk(*g) {
                            mat.add(di, gi, e.gm);
                        }
                        mat.add(di, di, e.gds);
                        if let Some(si) = Self::unk(*s) {
                            mat.add(di, si, e.gms);
                        }
                        if let Some(bi) = Self::unk(*b) {
                            mat.add(di, bi, e.gmb);
                        }
                    }
                    if let Some(si) = Self::unk(*s) {
                        f[si] -= e.id;
                        if let Some(gi) = Self::unk(*g) {
                            mat.add(si, gi, -e.gm);
                        }
                        if let Some(di) = Self::unk(*d) {
                            mat.add(si, di, -e.gds);
                        }
                        mat.add(si, si, -e.gms);
                        if let Some(bi) = Self::unk(*b) {
                            mat.add(si, bi, -e.gmb);
                        }
                    }
                }
            }
        }
    }

    fn stamp_conductance(
        &self,
        mat: &mut SystemMatrix,
        f: &mut [f64],
        a: NodeId,
        b: NodeId,
        g: f64,
        i_ab: f64,
    ) {
        if let Some(ai) = Self::unk(a) {
            f[ai] += i_ab;
            mat.add(ai, ai, g);
            if let Some(bi) = Self::unk(b) {
                mat.add(ai, bi, -g);
            }
        }
        if let Some(bi) = Self::unk(b) {
            f[bi] -= i_ab;
            mat.add(bi, bi, g);
            if let Some(ai) = Self::unk(a) {
                mat.add(bi, ai, -g);
            }
        }
    }

    /// Factor (or numerically refactor) and solve `J·dx = −f` for the
    /// current `vals`/`f`, leaving the update in `self.dx`.
    ///
    /// `exact` means the current factors were computed from these very
    /// values (exact reuse), so the triangular solve runs without a
    /// refactorisation.
    ///
    /// A system of at most [`DENSE_LIMIT`] unknowns takes the dense LU,
    /// a larger one the sparse LU (module docs).
    fn solve_linear(&mut self, key: JacKey, exact: bool, tally: &mut NrTally) -> Result<()> {
        if exact {
            // The factors already match `vals` bit for bit; skip
            // straight to the solve.
            tally.symbolic_reuse += 1;
        } else {
            let _t = mcml_obs::span(mcml_obs::Stage::LuFactor);
            if key.is_transient() {
                tally.lane_refactors += 1;
            }
            // Invalidate first: a failed refactor can leave the factors
            // partially updated, and they must never match a later
            // reuse check.
            self.last_factored = None;
            let pattern = &self.plan.pattern;
            if self.n_unk <= DENSE_LIMIT {
                match &mut self.dense {
                    // Replay the recorded elimination; a moved pivot
                    // re-records it.
                    Some(lu) => {
                        tally.numeric_refactor += 1;
                        if lu.refactor(pattern, &self.vals)? {
                            tally.symbolic_reuse += 1;
                        }
                    }
                    None => self.dense = Some(DenseLu::factor_csc(pattern, &self.vals)?),
                }
            } else {
                match &mut self.lu {
                    // Numeric-only refactorisation on the cached symbolic
                    // structure; a degraded pivot falls back to a fresh
                    // pivot search in the same column order.
                    Some(lu) => {
                        tally.numeric_refactor += 1;
                        if lu.refactor(pattern, &self.vals).is_ok() {
                            tally.symbolic_reuse += 1;
                        } else {
                            lu.repivot(pattern, &self.vals)?;
                            if self.natural_order {
                                lu.retain_reached(pattern, self.plan.dc_dead());
                            }
                        }
                    }
                    None if self.natural_order => {
                        let mut lu = SparseLu::factor_csc(pattern, &self.vals)?;
                        lu.retain_reached(pattern, self.plan.dc_dead());
                        self.lu = Some(lu);
                    }
                    None => {
                        let order = self.plan.fill_order();
                        self.lu = Some(SparseLu::factor_ordered(pattern, &self.vals, order)?);
                    }
                }
            }
            self.last_factored = Some(key);
            #[cfg(test)]
            self.audit.factored.clone_from(&self.vals);
        }
        let _t = mcml_obs::span(mcml_obs::Stage::LuSolve);
        if let Some(lu) = &self.dense {
            for (d, fv) in self.dx.iter_mut().zip(&self.f) {
                *d = -fv;
            }
            lu.solve_in_place(&mut self.dx);
        } else {
            let lu = self.lu.as_ref().expect("factored above");
            for (r, fv) in self.rhs.iter_mut().zip(&self.f) {
                *r = -fv;
            }
            lu.solve_into(&self.rhs, &mut self.dx);
        }
        Ok(())
    }

    /// Damped Newton–Raphson from the warm start in `x`, with the
    /// quiescent-MOS bypass at `bypass_tol` (V; `0.0` disables it). See
    /// the `plan` module docs for the reuse rule and error bound.
    #[allow(clippy::too_many_arguments)]
    pub fn solve_nr(
        &mut self,
        x: &mut [f64],
        t: f64,
        companion: Option<&CompanionCtx<'_>>,
        gmin: f64,
        src_scale: f64,
        bypass_tol: f64,
        analysis: &'static str,
    ) -> Result<()> {
        debug_assert!(
            companion.is_none() || !self.natural_order,
            "the DC engine's factors assume no capacitor companion"
        );
        let mut tally = NrTally::default();
        let key = JacKey::new(companion, gmin);
        // The DC's pruned sparse factors are exact only for finite stamps
        // (SOLVER.md §3), so there a non-finite stamp fails before it
        // reaches them.
        let check_finite =
            self.natural_order && self.n_unk > DENSE_LIMIT && !self.plan.dc_dead().is_empty();
        for iter in 0..MAX_ITER {
            tally.iters += 1;
            let evals;
            {
                let _t = mcml_obs::span(mcml_obs::Stage::MnaAssemble);
                let mos = self.plan.assemble_into(
                    self.ckt,
                    x,
                    t,
                    companion,
                    gmin,
                    src_scale,
                    bypass_tol,
                    &mut self.mos_state,
                    &mut self.vals,
                    &mut self.f,
                );
                tally.mos_evals += mos.evals;
                tally.mos_bypassed += mos.bypassed;
                evals = mos.evals;
            }
            tally.stamps_skipped += self.plan.linear_stamps;
            if check_finite && !self.vals.iter().all(|v| v.is_finite()) {
                tally.flush();
                return Err(SpiceError::NoConvergence {
                    analysis,
                    time: t,
                    iterations: iter,
                });
            }
            // Exact reuse: an assembly with zero MOS evaluations under
            // the same (h, gmin) as the last factorisation reproduced
            // the factored values bit for bit (bypassed devices stamp
            // the cached conductances that factorisation saw; everything
            // else in the matrix is constant given the key), so the
            // factors can be reused without refactoring.
            let exact = evals == 0 && self.last_factored == Some(key);
            #[cfg(test)]
            if exact {
                self.audit.reuses += 1;
                let same = self.vals.iter().map(|v| v.to_bits());
                if !same.eq(self.audit.factored.iter().map(|v| v.to_bits())) {
                    self.audit.mismatches += 1;
                }
            }
            if let Err(e) = self.solve_linear(key, exact, &mut tally) {
                tally.flush();
                return Err(e);
            }

            // Damping: cap the largest node-voltage update.
            let max_dv = self.dx[..self.n_node_unk]
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            let damp = if max_dv > VSTEP_LIMIT {
                VSTEP_LIMIT / max_dv
            } else {
                1.0
            };
            for (xi, di) in x.iter_mut().zip(self.dx.iter()) {
                *xi += damp * di;
            }
            if !x.iter().all(|v| v.is_finite()) {
                tally.flush();
                return Err(SpiceError::NoConvergence {
                    analysis,
                    time: t,
                    iterations: iter,
                });
            }

            let max_f = self.f[..self.n_node_unk]
                .iter()
                .fold(0.0f64, |m, v| m.max(v.abs()));
            if damp == 1.0 && max_dv < VTOL && max_f < ITOL {
                tally.flush();
                return Ok(());
            }
        }
        tally.flush();
        Err(SpiceError::NoConvergence {
            analysis,
            time: t,
            iterations: MAX_ITER,
        })
    }
}

/// Backward-Euler companion conductance and history current for a
/// capacitor.
pub(crate) fn companion_terms(state: &CapState, h: f64) -> (f64, f64) {
    let geq = state.c / h;
    (geq, -geq * state.prev_v)
}

/// Initialise companion states (capacitor voltages) from a solved state.
pub(crate) fn init_cap_states(ckt: &Circuit, x: &[f64]) -> Vec<Option<CapState>> {
    ckt.elements()
        .map(|(_, _, e)| match e {
            Element::Capacitor { a, b, farads } => Some(CapState {
                c: *farads,
                prev_v: v_node(x, *a) - v_node(x, *b),
            }),
            _ => None,
        })
        .collect()
}

/// Dense `(row-major matrix, residual)` snapshot of one assembly path.
pub(crate) type DenseSystem = (Vec<f64>, Vec<f64>);

/// Voltage accessor used by the analyses when mapping states to
/// waveforms (node voltages sit at `index - 1`; ground is 0 V).
#[inline]
pub(crate) fn v_node(x: &[f64], node: NodeId) -> f64 {
    if node.is_ground() {
        0.0
    } else {
        x[node.index() - 1]
    }
}

impl Engine<'_> {
    /// Assemble both paths to dense `(matrix, residual)` pairs — the
    /// equivalence-test hook behind `crate::testing`.
    pub(crate) fn assemble_both_dense(
        &mut self,
        x: &[f64],
        t: f64,
        companion: Option<&CompanionCtx<'_>>,
        gmin: f64,
        src_scale: f64,
    ) -> (DenseSystem, DenseSystem) {
        let n = self.n_unk;

        let mut mat = SystemMatrix::new(n);
        let mut f_ref = vec![0.0; n];
        self.assemble_reference(x, t, companion, gmin, src_scale, &mut mat, &mut f_ref);
        mat.consolidate();
        let mut a_ref = vec![0.0; n * n];
        for (r, row) in mat.rows().iter().enumerate() {
            for &(c, v) in row {
                a_ref[r * n + c] += v;
            }
        }

        self.plan.assemble_into(
            self.ckt,
            x,
            t,
            companion,
            gmin,
            src_scale,
            0.0, // the equivalence oracle always evaluates for real
            &mut self.mos_state,
            &mut self.vals,
            &mut self.f,
        );
        let mut a_plan = vec![0.0; n * n];
        for c in 0..n {
            for (r, v) in self.plan.pattern.col(c, &self.vals) {
                a_plan[r * n + c] += v;
            }
        }

        ((a_ref, f_ref), (a_plan, self.f.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;

    /// A driven RC ladder of `n_nodes` nodes: `n_nodes + 1` unknowns.
    fn ladder(n_nodes: usize) -> Circuit {
        let mut c = Circuit::new();
        let nodes: Vec<NodeId> = (0..n_nodes).map(|i| c.node(&format!("n{i}"))).collect();
        c.vsource("V", nodes[0], Circuit::GND, SourceWave::dc(1.0));
        for (i, w) in nodes.windows(2).enumerate() {
            c.resistor(&format!("R{i}"), w[0], w[1], 1e3);
        }
        for (i, &node) in nodes.iter().enumerate() {
            c.capacitor(&format!("C{i}"), node, Circuit::GND, 1e-15);
        }
        c
    }

    /// One Newton solve from zero: a backward-Euler step when `tran`,
    /// a DC solve otherwise.
    fn solve_once(engine: &mut Engine<'_>, tran: bool) {
        let ckt = engine.ckt;
        let mut x = vec![0.0; engine.n_unk];
        let caps = init_cap_states(ckt, &x);
        let ctx = CompanionCtx {
            h: 1e-12,
            caps: &caps,
        };
        let companion = tran.then_some(&ctx);
        engine
            .solve_nr(&mut x, 0.0, companion, ckt.gmin, 1.0, 0.0, "test")
            .expect("ladder converges");
    }

    /// `stages` inverters in a chain, each with a load capacitor, driven
    /// by a PWL pulse: `stages + 4` unknowns.
    fn inverter_chain(stages: usize) -> Circuit {
        use mcml_device::{MosParams, Mosfet};
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
        let pulse = vec![(0.0, 0.0), (0.3e-9, 0.0), (0.32e-9, 1.2), (1.3e-9, 1.2)];
        c.vsource("VIN", vin, Circuit::GND, SourceWave::Pwl(pulse));
        let mut prev = vin;
        for k in 0..stages {
            let out = c.node(&format!("o{k}"));
            let pmos = Mosfet::pmos(MosParams::pmos_lvt_90(), 2.0e-6, 0.1e-6);
            let nmos = Mosfet::nmos(MosParams::nmos_lvt_90(), 1.0e-6, 0.1e-6);
            c.mosfet(&format!("MP{k}"), out, prev, vdd, vdd, pmos);
            c.mosfet(
                &format!("MN{k}"),
                out,
                prev,
                Circuit::GND,
                Circuit::GND,
                nmos,
            );
            c.capacitor(&format!("C{k}"), out, Circuit::GND, 10e-15);
            prev = out;
        }
        c
    }

    /// Exact reuse skips a refactorisation only when the stamped values
    /// are the factored ones bit for bit. Under the bypass, an
    /// all-bypassed assembly under the key of the last factorisation
    /// stamps cached linearizations, which must be the ones that
    /// factorisation saw; that holds because every iteration that
    /// evaluates a device refactors. Checked on both backends, below and
    /// above `DENSE_LIMIT` unknowns.
    #[test]
    fn exact_reuse_sees_factored_values_under_bypass() {
        for stages in [2, DENSE_LIMIT] {
            let ckt = inverter_chain(stages);
            let mut engine = Engine::new(&ckt);
            let mut x = ckt.dc_op().expect("dc op").state().to_vec();
            let mut caps = init_cap_states(&ckt, &x);
            let h = 10e-12;
            for step in 1..=200 {
                let ctx = CompanionCtx { h, caps: &caps };
                let t = h * f64::from(step);
                engine
                    .solve_nr(&mut x, t, Some(&ctx), ckt.gmin, 1.0, 10e-6, "tran")
                    .expect("step converges");
                crate::analysis::march::update_caps(&ckt, &mut caps, &x);
            }
            assert_eq!(engine.lu.is_some(), engine.n_unk > DENSE_LIMIT);
            assert!(
                engine.audit.reuses > 0,
                "{stages} stages: the exact path never ran"
            );
            assert_eq!(
                engine.audit.mismatches, 0,
                "{stages} stages: {} of {} exact reuses stamped values the factors never saw",
                engine.audit.mismatches, engine.audit.reuses
            );
        }
    }

    /// A DC whose sparse factors drop what only capacitor slots reach
    /// needs finite stamps: a non-finite one ends the DC in
    /// `NoConvergence` before it reaches the factors.
    #[test]
    fn non_finite_stamp_fails_the_pruned_dc() {
        let mut ckt = inverter_chain(DENSE_LIMIT);
        let nodes: Vec<NodeId> = std::iter::once("in".to_owned())
            .chain((0..DENSE_LIMIT).map(|k| format!("o{k}")))
            .map(|name| ckt.find_node(&name).expect("chain node"))
            .collect();
        for (k, w) in nodes.windows(2).enumerate() {
            ckt.capacitor(&format!("CGD{k}"), w[0], w[1], 2e-15);
        }
        let engine = Engine::new_natural_order(&ckt);
        assert!(engine.n_unk > DENSE_LIMIT);
        assert_eq!(engine.plan.dc_dead().len(), DENSE_LIMIT, "one per stage");
        ckt.dc_op().expect("finite stamps converge");

        let id = ckt.find_element("MN40").expect("stage 40");
        let Element::Mos { dev, .. } = ckt.element_mut(id) else {
            unreachable!("MN40 is a MOSFET")
        };
        dev.params.vt0 = f64::NAN;
        assert!(
            matches!(
                ckt.dc_op(),
                Err(SpiceError::NoConvergence { analysis: "dc", .. })
            ),
            "{:?}",
            ckt.dc_op()
        );
    }

    /// The backend dispatch rule: a system of at most `DENSE_LIMIT`
    /// unknowns factors on the dense LU, DC and transient alike; above it
    /// a transient factors sparse in the plan's fill order and a DC in
    /// natural order.
    #[test]
    fn transient_engine_factors_in_plan_order_dc_engine_in_natural_order() {
        let small = ladder(10);
        for tran in [true, false] {
            let mut engine = if tran {
                Engine::new(&small)
            } else {
                Engine::new_natural_order(&small)
            };
            assert!(engine.n_unk <= DENSE_LIMIT);
            solve_once(&mut engine, tran);
            assert!(engine.dense.is_some(), "tran {tran}: dense factors");
            assert!(engine.lu.is_none(), "tran {tran}: no sparse factors");
        }

        let big = ladder(DENSE_LIMIT + 1);
        let mut tran = Engine::new(&big);
        assert!(tran.n_unk > DENSE_LIMIT);
        solve_once(&mut tran, true);
        let order = tran.plan.fill_order();
        assert_eq!(tran.lu.as_ref().expect("factored").col_order(), &order[..]);
        assert!(
            order.iter().copied().ne(0..tran.n_unk),
            "ladder is reordered"
        );

        let mut dc = Engine::new_natural_order(&big);
        solve_once(&mut dc, false);
        let natural = dc.lu.as_ref().expect("factored").col_order();
        assert!(natural.iter().copied().eq(0..dc.n_unk));
    }
}
