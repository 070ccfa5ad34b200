//! Per-circuit stamp plan: the Newton loop's fast assembly path.
//!
//! The legacy assembly path (`engine::Engine::assemble_reference`)
//! rebuilds a [`SystemMatrix`](crate::matrix::SystemMatrix) from scratch
//! every Newton iteration — push every stamp, sort-and-merge duplicates,
//! convert to column-compressed form for the solver. All of that work is
//! identical across iterations except for the handful of values that
//! actually change (MOSFET conductances, capacitor companion stamps,
//! source right-hand sides).
//!
//! A [`StampPlan`] hoists the invariant part out of the loop. Built once
//! per `(circuit, analysis)`, it:
//!
//! * fixes the Jacobian sparsity pattern as a [`CscPattern`] (the union
//!   of every element's stamp sites plus the gmin diagonal), handing each
//!   stamp site a flat slot index into a values buffer;
//! * pre-accumulates the constant linear part — resistor conductances and
//!   the ±1 incidence entries of voltage-source rows — into `base_vals`,
//!   so re-assembly starts from a `memcpy` instead of re-deriving them;
//! * records, per element, exactly which slots and residual rows its
//!   per-iteration contribution touches ([`PlanElem`]).
//!
//! [`StampPlan::assemble_into`] then refreshes a values buffer and
//! residual in place with no allocation, no sorting and no format
//! conversion. The residual is computed as `f = A_lin·x` (one sparse
//! mat-vec over the linear + companion part) plus per-element
//! corrections; MOSFET Jacobian entries are deliberately stamped *after*
//! the mat-vec so the residual carries the device current `i_d`, not the
//! linearised `J·x`.
//!
//! # Quiescent-device bypass
//!
//! The remaining per-iteration cost is dominated by [`Mosfet::eval`]
//! calls, and on digital workloads most devices are electrically idle
//! most of the time (in the reduced-AES testbench a single byte toggles
//! per clock edge while the rest of the S-box sits at its operating
//! point). SPICE3's `bypass` option exploits this, and so does the plan:
//! every evaluated MOSFET caches the terminal voltages it was evaluated
//! at together with the full linearization ([`MosBypassState`]). When a
//! later assembly finds all four terminal voltages within the bypass
//! tolerance of that cached eval point, the model call is skipped — the
//! cached conductances are re-stamped and the device current is
//! *linearly extrapolated* from the cached point
//! (`i ≈ i_c + gm·Δvg + gds·Δvd + gms·Δvs + gmb·Δvb`). Because the
//! extrapolation uses the exact first derivatives, the approximation
//! error is second order in the tolerance (curvature · Δv²/2), not first
//! order — a 10 µV tolerance on a mS-grade device perturbs currents by
//! ~1e-13 A, far below the Newton `ITOL`. Voltages are compared against
//! the *cached eval point*, not the previous iteration, so slow drift
//! can never accumulate past the tolerance without triggering a real
//! evaluation. A tolerance of `0.0` disables the bypass entirely.
//!
//! [`Mosfet::eval`]: mcml_device::Mosfet::eval
//!
//! # Fill-reducing column order
//!
//! The plan also owns the sparse LU's column order
//! ([`StampPlan::fill_order`]): the minimum-degree order of the
//! pattern's A+Aᵀ graph. It is a function of the pattern alone, so it is
//! computed on first use and then shared by every factorisation on the
//! plan: a degraded-pivot re-factorisation reuses the order it already
//! has.
//! Dense-sized systems and the natural-order DC engine never ask for it.
//!
//! # DC-dead slots
//!
//! A DC assembly stamps no capacitor companion, so a slot that only
//! capacitor sites map to holds `+0.0` in every DC matrix. The plan
//! records those slots ([`StampPlan::dc_dead`]); the DC engine's sparse
//! factors drop every entry that only they reach (SOLVER.md §3). The
//! fig. 6 matrix has 570 of them among 2,084 slots: the gate-overlap
//! capacitors' (gate row, drain column) entries, which no MOS stamp
//! shares because a MOS stamps only its drain and source rows.

use std::sync::{Arc, OnceLock};

use crate::analysis::engine::{companion_terms, CompanionCtx};
use crate::circuit::{Circuit, NodeId};
use crate::element::Element;
use crate::matrix::order::min_degree_order;
use crate::matrix::CscPattern;

/// Sentinel slot for a stamp suppressed by a grounded terminal.
const SLOT_NONE: usize = usize::MAX;

/// Cached linearization of one MOSFET: the terminal voltages it was
/// evaluated at plus the resulting current and conductances. One entry
/// per MOS element, owned by the engine (the plan itself stays immutable
/// across iterations).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MosBypassState {
    /// True once the device has been evaluated at least once.
    valid: bool,
    /// Terminal voltages `[vg, vd, vs, vb]` at the cached eval.
    v: [f64; 4],
    /// Drain current at the cached eval (A).
    id: f64,
    /// Conductances `[gm, gds, gms, gmb]` at the cached eval (S).
    g: [f64; 4],
}

/// Per-assembly MOSFET work tally: model evaluations executed vs skipped
/// by the quiescent-device bypass.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MosStats {
    /// `Mosfet::eval` calls actually executed.
    pub evals: u64,
    /// Evaluations served from the cached linearization instead.
    pub bypassed: u64,
}

/// Conductance-stamp slots of a two-terminal element between `a` and `b`:
/// `[aa, ab, ba, bb]`, with [`SLOT_NONE`] where a terminal is ground.
type CondSlots = [usize; 4];

/// Per-element slice of the plan: which value slots and residual rows the
/// element touches during re-assembly. Elements whose stamps are entirely
/// constant (resistors) are [`PlanElem::Inert`] — their work happens in
/// the base-values copy.
enum PlanElem {
    /// Fully covered by `base_vals`; nothing to do per iteration.
    Inert,
    /// Capacitor: companion conductance `geq` into the conductance slots,
    /// history current into the residual rows.
    Cap {
        /// Residual row of terminal `a` (`None` when grounded).
        fa: Option<usize>,
        /// Residual row of terminal `b`.
        fb: Option<usize>,
        /// Conductance stamp slots.
        g: CondSlots,
    },
    /// Voltage source: incidence entries live in `base_vals`; only the
    /// KVL target `−V(t)·scale` changes per assembly.
    Vsource {
        /// KVL row (branch unknown index in the full system).
        row: usize,
    },
    /// Current source: pure right-hand-side contribution.
    Isource {
        /// Residual row of terminal `p`.
        fp: Option<usize>,
        /// Residual row of terminal `n`.
        fneg: Option<usize>,
    },
    /// MOSFET: device current into the drain/source residual rows,
    /// small-signal conductances into two stamp-row slot quadruples.
    Mos {
        /// Residual row of the drain.
        fd: Option<usize>,
        /// Residual row of the source.
        fs: Option<usize>,
        /// Drain-row slots for columns `[g, d, s, b]`.
        drow: CondSlots,
        /// Source-row slots for columns `[g, d, s, b]` (negated stamps).
        srow: CondSlots,
        /// Index into the engine-owned [`MosBypassState`] buffer.
        mos_idx: usize,
    },
}

/// The per-circuit fast assembly plan. See the module docs.
pub(crate) struct StampPlan {
    /// Fixed sparsity pattern shared with the LU backends.
    pub pattern: CscPattern,
    /// Constant linear part of the Jacobian (resistors, vsource rows).
    base_vals: Vec<f64>,
    /// Diagonal slots `(i, i)` for the node unknowns, for gmin.
    diag_slots: Vec<usize>,
    /// Parallel to the circuit's element list.
    elems: Vec<PlanElem>,
    /// How many legacy matrix stamps the base copy replaces per assembly
    /// (feeds the `spice.linear_stamps_skipped` counter).
    pub linear_stamps: u64,
    /// Number of MOS elements — the size of the bypass-state buffer the
    /// engine must provide.
    pub n_mos: usize,
    /// Minimum-degree column order of `pattern`, computed on first use
    /// (see the module docs).
    fill_order: OnceLock<Arc<[usize]>>,
    /// Slots that only capacitor companion sites map to, ascending
    /// (see the module docs); empty when every slot is live in a DC.
    dc_dead: Vec<usize>,
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
    match unk(node) {
        Some(i) => x[i],
        None => 0.0,
    }
}

/// Collects stamp sites during plan construction and resolves them to
/// slots once the full pattern is known.
struct SiteCollector {
    n: usize,
    sites: Vec<(usize, usize)>,
}

impl SiteCollector {
    /// Register a stamp site, returning its position (not yet a slot).
    fn site(&mut self, r: usize, c: usize) -> usize {
        debug_assert!(r < self.n && c < self.n);
        self.sites.push((r, c));
        self.sites.len() - 1
    }

    /// Register the (up to four) sites of a conductance between `a`/`b`.
    fn cond_sites(&mut self, a: Option<usize>, b: Option<usize>) -> CondSlots {
        let mut s = [SLOT_NONE; 4];
        if let Some(ai) = a {
            s[0] = self.site(ai, ai);
            if let Some(bi) = b {
                s[1] = self.site(ai, bi);
            }
        }
        if let Some(bi) = b {
            s[3] = self.site(bi, bi);
            if let Some(ai) = a {
                s[2] = self.site(bi, ai);
            }
        }
        s
    }
}

/// Map site positions to final slots, skipping [`SLOT_NONE`] sentinels.
fn resolve(slots: &[usize], s: CondSlots) -> CondSlots {
    s.map(|p| if p == SLOT_NONE { SLOT_NONE } else { slots[p] })
}

/// A [`PlanElem`] in the making: same shape, but holding site positions
/// that are only resolved to slots once the full pattern is known.
enum Pending {
    Inert,
    Cap {
        fa: Option<usize>,
        fb: Option<usize>,
        g: CondSlots,
    },
    Vsource {
        row: usize,
    },
    Isource {
        fp: Option<usize>,
        fneg: Option<usize>,
    },
    Mos {
        fd: Option<usize>,
        fs: Option<usize>,
        drow: CondSlots,
        srow: CondSlots,
        mos_idx: usize,
    },
}

impl StampPlan {
    /// Build the plan for a circuit with `n_node_unk` node unknowns and
    /// `n_unk` total unknowns.
    pub fn build(ckt: &Circuit, n_node_unk: usize, n_unk: usize) -> Self {
        let mut col = SiteCollector {
            n: n_unk,
            sites: Vec::new(),
        };

        // gmin sites on the node-unknown diagonal come first.
        let diag_pos: Vec<usize> = (0..n_node_unk).map(|i| col.site(i, i)).collect();

        // Pending constant contributions as (site position, value).
        let mut base: Vec<(usize, f64)> = Vec::new();
        let mut linear_stamps: u64 = 0;

        let mut pending: Vec<Pending> = Vec::new();
        let mut n_mos = 0usize;
        for (_, _, elem) in ckt.elements() {
            let p = match elem {
                Element::Resistor { a, b, ohms } => {
                    let g = 1.0 / ohms;
                    let s = col.cond_sites(unk(*a), unk(*b));
                    for (pos, val) in s.iter().zip([g, -g, -g, g]) {
                        if *pos != SLOT_NONE {
                            base.push((*pos, val));
                            linear_stamps += 1;
                        }
                    }
                    Pending::Inert
                }
                Element::Capacitor { a, b, .. } => {
                    let (ua, ub) = (unk(*a), unk(*b));
                    Pending::Cap {
                        fa: ua,
                        fb: ub,
                        g: col.cond_sites(ua, ub),
                    }
                }
                Element::Vsource { p, n, branch, .. } => {
                    let row = n_node_unk + branch;
                    // Incidence entries are constant ±1: into the base.
                    for (node, sign) in [(p, 1.0), (n, -1.0)] {
                        if let Some(i) = unk(*node) {
                            base.push((col.site(i, row), sign));
                            base.push((col.site(row, i), sign));
                            linear_stamps += 2;
                        }
                    }
                    Pending::Vsource { row }
                }
                Element::Isource { p, n, .. } => Pending::Isource {
                    fp: unk(*p),
                    fneg: unk(*n),
                },
                Element::Mos { d, g, s, b, .. } => {
                    let (ud, ug, us, ub) = (unk(*d), unk(*g), unk(*s), unk(*b));
                    let row_sites = |col: &mut SiteCollector, row: Option<usize>| {
                        let mut slots = [SLOT_NONE; 4];
                        if let Some(r) = row {
                            for (slot, c) in slots.iter_mut().zip([ug, ud, us, ub]) {
                                if let Some(ci) = c {
                                    *slot = col.site(r, ci);
                                }
                            }
                        }
                        slots
                    };
                    let drow = row_sites(&mut col, ud);
                    let srow = row_sites(&mut col, us);
                    let mos_idx = n_mos;
                    n_mos += 1;
                    Pending::Mos {
                        fd: ud,
                        fs: us,
                        drow,
                        srow,
                        mos_idx,
                    }
                }
                // `Element` is non-exhaustive; new kinds must grow a plan
                // arm before they can be simulated.
                #[allow(unreachable_patterns)]
                _ => unreachable!("element kind without a stamp plan"),
            };
            pending.push(p);
        }

        let (pattern, slots) = CscPattern::from_sites(n_unk, &col.sites);
        // A slot is DC-dead when every site mapped to it is a capacitor's.
        let mut cap_site = vec![false; col.sites.len()];
        for p in &pending {
            if let Pending::Cap { g, .. } = p {
                for &pos in g.iter().filter(|&&pos| pos != SLOT_NONE) {
                    cap_site[pos] = true;
                }
            }
        }
        let mut dc_live = vec![false; pattern.nnz()];
        for (&slot, cap) in slots.iter().zip(cap_site) {
            dc_live[slot] |= !cap;
        }
        let dc_dead = (0..pattern.nnz()).filter(|&s| !dc_live[s]).collect();
        let mut base_vals = vec![0.0f64; pattern.nnz()];
        for (pos, val) in base {
            base_vals[slots[pos]] += val;
        }
        let diag_slots: Vec<usize> = diag_pos.into_iter().map(|p| slots[p]).collect();
        let elems = pending
            .into_iter()
            .map(|p| match p {
                Pending::Inert => PlanElem::Inert,
                Pending::Cap { fa, fb, g } => PlanElem::Cap {
                    fa,
                    fb,
                    g: resolve(&slots, g),
                },
                Pending::Vsource { row } => PlanElem::Vsource { row },
                Pending::Isource { fp, fneg } => PlanElem::Isource { fp, fneg },
                Pending::Mos {
                    fd,
                    fs,
                    drow,
                    srow,
                    mos_idx,
                } => PlanElem::Mos {
                    fd,
                    fs,
                    drow: resolve(&slots, drow),
                    srow: resolve(&slots, srow),
                    mos_idx,
                },
            })
            .collect();

        Self {
            pattern,
            base_vals,
            diag_slots,
            elems,
            linear_stamps,
            n_mos,
            fill_order: OnceLock::new(),
            dc_dead,
        }
    }

    /// The slots that hold `+0.0` in every DC matrix because only
    /// capacitor companion sites map to them, ascending.
    pub fn dc_dead(&self) -> &[usize] {
        &self.dc_dead
    }

    /// The sparse LU's fill-reducing column order for this plan's
    /// pattern, computed once and shared from then on.
    pub fn fill_order(&self) -> Arc<[usize]> {
        Arc::clone(
            self.fill_order
                .get_or_init(|| min_degree_order(&self.pattern).into()),
        )
    }

    /// Refresh `vals` (Jacobian values, parallel to the pattern) and `f`
    /// (residual) in place for state `x` at time `t`. Allocation-free.
    ///
    /// KCL sign convention matches the legacy path: `f[row]` accumulates
    /// the currents *leaving* each node, and KVL rows hold
    /// `v_p − v_n − V(t)·scale`.
    ///
    /// `mos_state` is the engine-owned bypass cache, `self.n_mos` entries
    /// long; `bypass_tol > 0.0` enables the quiescent-device bypass (see
    /// the module docs). Returns the per-assembly MOS work tally.
    #[allow(clippy::too_many_arguments)]
    pub fn assemble_into(
        &self,
        ckt: &Circuit,
        x: &[f64],
        t: f64,
        companion: Option<&CompanionCtx<'_>>,
        gmin: f64,
        src_scale: f64,
        bypass_tol: f64,
        mos_state: &mut [MosBypassState],
        vals: &mut [f64],
        f: &mut [f64],
    ) -> MosStats {
        debug_assert_eq!(vals.len(), self.pattern.nnz());
        debug_assert_eq!(f.len(), self.pattern.dim());
        debug_assert_eq!(mos_state.len(), self.n_mos);
        let mut stats = MosStats::default();

        // 1. Constant linear part, then gmin on the node diagonal.
        vals.copy_from_slice(&self.base_vals);
        for &s in &self.diag_slots {
            vals[s] += gmin;
        }
        f.iter_mut().for_each(|fv| *fv = 0.0);

        // 2. Companion conductances (and history currents into f) must be
        // in place before the mat-vec so `A_lin·x` covers `geq·v`.
        if let Some(ctx) = companion {
            for (plan, state) in self.elems.iter().zip(ctx.caps) {
                let (PlanElem::Cap { fa, fb, g }, Some(cap)) = (plan, state) else {
                    continue;
                };
                let (geq, hist) = companion_terms(cap, ctx.h);
                for (slot, val) in g.iter().zip([geq, -geq, -geq, geq]) {
                    if *slot != SLOT_NONE {
                        vals[*slot] += val;
                    }
                }
                if let Some(ai) = fa {
                    f[*ai] += hist;
                }
                if let Some(bi) = fb {
                    f[*bi] -= hist;
                }
            }
        }

        // 3. Residual of the linear + companion part in one mat-vec:
        // covers resistor and companion currents, gmin leakage, vsource
        // incidence (branch currents into KCL rows, `v_p − v_n` into KVL
        // rows).
        self.pattern.spmv_add(vals, x, f);

        // 4. Source right-hand sides and nonlinear devices. MOSFET
        // Jacobian stamps happen *after* the mat-vec on purpose: the
        // residual must carry the device current, not `J·x`.
        for (plan, (_, _, elem)) in self.elems.iter().zip(ckt.elements()) {
            match (plan, elem) {
                (PlanElem::Vsource { row }, Element::Vsource { wave, .. }) => {
                    f[*row] -= wave.value(t) * src_scale;
                }
                (PlanElem::Isource { fp, fneg }, Element::Isource { wave, .. }) => {
                    let i = wave.value(t) * src_scale;
                    if let Some(pi) = fp {
                        f[*pi] += i;
                    }
                    if let Some(ni) = fneg {
                        f[*ni] -= i;
                    }
                }
                (
                    PlanElem::Mos {
                        fd,
                        fs,
                        drow,
                        srow,
                        mos_idx,
                    },
                    Element::Mos { d, g, s, b, dev },
                ) => {
                    let vt = [v(x, *g), v(x, *d), v(x, *s), v(x, *b)];
                    let st = &mut mos_state[*mos_idx];
                    let (id, conds) = if bypass_tol > 0.0
                        && st.valid
                        && vt
                            .iter()
                            .zip(&st.v)
                            .all(|(now, was)| (now - was).abs() <= bypass_tol)
                    {
                        // Quiescent: reuse the cached linearization; the
                        // current is extrapolated with the exact cached
                        // derivatives, so the error is O(Δv²).
                        stats.bypassed += 1;
                        let id = st.id
                            + st.g
                                .iter()
                                .zip(vt.iter().zip(&st.v))
                                .map(|(g, (now, was))| g * (now - was))
                                .sum::<f64>();
                        (id, st.g)
                    } else {
                        stats.evals += 1;
                        let e = dev.eval(vt[0], vt[1], vt[2], vt[3]);
                        *st = MosBypassState {
                            valid: true,
                            v: vt,
                            id: e.id,
                            g: [e.gm, e.gds, e.gms, e.gmb],
                        };
                        (e.id, st.g)
                    };
                    if let Some(di) = fd {
                        f[*di] += id;
                    }
                    if let Some(si) = fs {
                        f[*si] -= id;
                    }
                    for (slot, val) in drow.iter().zip(conds) {
                        if *slot != SLOT_NONE {
                            vals[*slot] += val;
                        }
                    }
                    for (slot, val) in srow.iter().zip(conds) {
                        if *slot != SLOT_NONE {
                            vals[*slot] -= val;
                        }
                    }
                }
                _ => {}
            }
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;

    #[test]
    fn fill_order_is_a_shared_permutation() {
        // A driven RC ladder: node unknowns plus one zero-diagonal
        // voltage-source branch row.
        let mut c = Circuit::new();
        let nodes: Vec<NodeId> = (0..12).map(|i| c.node(&format!("n{i}"))).collect();
        c.vsource("V", nodes[0], Circuit::GND, SourceWave::dc(1.0));
        for (i, w) in nodes.windows(2).enumerate() {
            c.resistor(&format!("R{i}"), w[0], w[1], 1e3);
        }
        for (i, &node) in nodes.iter().enumerate() {
            c.capacitor(&format!("C{i}"), node, Circuit::GND, 1e-15);
        }
        let n_node_unk = c.node_count() - 1;
        let n_unk = n_node_unk + c.branch_count();
        let plan = StampPlan::build(&c, n_node_unk, n_unk);
        let order = plan.fill_order();
        let mut sorted = order.to_vec();
        sorted.sort_unstable();
        assert!(
            sorted.into_iter().eq(0..n_unk),
            "not a permutation: {order:?}"
        );
        assert!(
            Arc::ptr_eq(&order, &plan.fill_order()),
            "computed once, then shared"
        );
    }
}
