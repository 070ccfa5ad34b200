//! Forward fixpoint dataflow over the gate-level netlist IR.
//!
//! A generic worklist solver ([`solve`]) propagates per-net lattice
//! states forward through the gate graph until nothing changes, exactly
//! the classic Kildall scheme specialised to a netlist: nets are the
//! program points, gates are the transfer functions, and sequential
//! cells are handled inside the transfer (a DFF forwards its `d` state
//! to `q`, which is what lets taint flow around register feedback
//! loops to a fixpoint).
//!
//! Three analyses run on the framework (see [`analyze`]):
//!
//! * [`taint::TaintAnalysis`] — secret-taint propagation from
//!   [`PortClass::Secret`](mcml_netlist::PortClass) ports, with exact
//!   per-gate kill on constant/balanced recombination;
//! * [`activity::ActivityAnalysis`] — static per-net toggle upper
//!   bounds and unit-delay arrival windows (the glitch model);
//! * [`score`] — the static leakage score combining taint, toggle
//!   bounds and the per-cell energy asymmetry characterised by
//!   `mcml-char`.
//!
//! Termination: every analysis state forms a finite-height lattice and
//! every transfer is monotone, so the worklist drains. The solver
//! additionally requires an acyclic combinational graph ([`analyze`]
//! returns `None` when `comb_topo_order` fails — such netlists are
//! already deny-flagged by the `comb-loop` rule and have no meaningful
//! arrival windows).

pub mod activity;
pub mod score;
pub mod taint;

use std::collections::VecDeque;

use mcml_char::TimingLibrary;
use mcml_netlist::{Gate, Netlist};

pub use activity::Activity;

/// One forward dataflow analysis: a per-net lattice state, boundary
/// states at the primary inputs, and a monotone per-gate transfer.
pub trait Analysis {
    /// Per-net lattice state. `PartialEq` detects fixpoint convergence,
    /// so equality must be exact (no tolerance).
    type State: Clone + PartialEq;

    /// Bottom element: the state of a net nothing has reached yet.
    fn bottom(&self) -> Self::State;

    /// Boundary state of a primary input port.
    fn input_state(&self, nl: &Netlist, port: &str) -> Self::State;

    /// Transfer function of one gate: the state of each output net
    /// given the current per-net states (indexed by `NetId`).
    ///
    /// Must be monotone in the state lattice and must return exactly
    /// `gate.outputs.len()` states.
    fn transfer(&self, nl: &Netlist, gate: &Gate, state: &[Self::State]) -> Vec<Self::State>;
}

/// Run `analysis` to fixpoint over `nl` with a forward worklist.
///
/// Gates are seeded in insertion order and re-queued whenever a fan-in
/// net changes, so the result is the unique least fixpoint and is
/// independent of iteration order.
pub fn solve<A: Analysis>(analysis: &A, nl: &Netlist) -> Vec<A::State> {
    let mut state = vec![analysis.bottom(); nl.net_count()];
    for (name, net) in nl.inputs() {
        state[net.index()] = analysis.input_state(nl, name);
    }
    // Net → consuming gate indices, for targeted re-queueing.
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); nl.net_count()];
    for (gi, g) in nl.gates().iter().enumerate() {
        for c in &g.inputs {
            let list = &mut consumers[c.net.index()];
            if list.last() != Some(&gi) {
                list.push(gi);
            }
        }
    }
    let mut queue: VecDeque<usize> = (0..nl.gate_count()).collect();
    let mut queued = vec![true; nl.gate_count()];
    while let Some(gi) = queue.pop_front() {
        queued[gi] = false;
        mcml_obs::incr(mcml_obs::Counter::DataflowGateEvals);
        let gate = &nl.gates()[gi];
        let outs = analysis.transfer(nl, gate, &state);
        debug_assert_eq!(outs.len(), gate.outputs.len(), "transfer arity");
        for (&net, out) in gate.outputs.iter().zip(outs) {
            if state[net.index()] == out {
                continue;
            }
            state[net.index()] = out;
            for &c in &consumers[net.index()] {
                if !queued[c] {
                    queued[c] = true;
                    queue.push_back(c);
                }
            }
        }
    }
    state
}

/// The combined result of every dataflow analysis over one netlist,
/// indexed by `NetId`.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowResults {
    /// Secret taint per net.
    pub taint: Vec<bool>,
    /// Toggle bound and arrival window per net.
    pub activity: Vec<Activity>,
    /// Static leakage score per net, in joules per evaluation.
    pub score_j: Vec<f64>,
}

impl DataflowResults {
    /// Number of tainted nets.
    #[must_use]
    pub fn tainted_count(&self) -> usize {
        self.taint.iter().filter(|&&t| t).count()
    }

    /// The score rank threshold of the top quartile: the smallest score
    /// still inside the top 25 % of all nets (ties included). Zero when
    /// every score is zero.
    #[must_use]
    pub fn top_quartile_score_j(&self) -> f64 {
        if self.score_j.is_empty() {
            return 0.0;
        }
        let mut sorted = self.score_j.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite scores"));
        let cut = (sorted.len().max(4) - 1) / 4;
        sorted[cut.min(sorted.len() - 1)]
    }
}

/// Run all three analyses over one netlist.
///
/// `lib` supplies characterised per-cell toggle energies for the
/// leakage score; without it the score falls back to an area-based
/// proxy (see [`score::driver_energy_j`]). Returns `None` when the
/// netlist has a combinational cycle (already a `comb-loop` deny;
/// arrival windows would be meaningless and the worklist unbounded).
#[must_use]
pub fn analyze(nl: &Netlist, lib: Option<&TimingLibrary>) -> Option<DataflowResults> {
    if nl.comb_topo_order().is_err() {
        return None;
    }
    let _span = mcml_obs::span(mcml_obs::Stage::Dataflow);
    mcml_obs::incr(mcml_obs::Counter::DataflowRuns);
    let taint = solve(&taint::TaintAnalysis, nl);
    let activity = solve(&activity::ActivityAnalysis, nl);
    let score_j = score::scores_j(nl, &taint, &activity, lib);
    mcml_obs::add(
        mcml_obs::Counter::DataflowTaintedNets,
        taint.iter().filter(|&&t| t).count() as u64,
    );
    Some(DataflowResults {
        taint,
        activity,
        score_j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcml_cells::{CellKind, LogicStyle};
    use mcml_netlist::{Conn, GateKind, PortClass};

    /// a → XOR(a, a) kills taint; XOR(a, b) keeps it.
    #[test]
    fn analyze_small_netlist_end_to_end() {
        let mut nl = Netlist::new("t", LogicStyle::PgMcml);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let dead = nl.add_net("dead");
        let live = nl.add_net("live");
        nl.add_gate(
            "u_dead",
            GateKind::Lib(CellKind::Xor2),
            vec![Conn::plain(a), Conn::plain(a)],
            vec![dead],
        );
        nl.add_gate(
            "u_live",
            GateKind::Lib(CellKind::Xor2),
            vec![Conn::plain(a), Conn::plain(b)],
            vec![live],
        );
        nl.set_output("q", Conn::plain(live));
        nl.set_port_class("a", PortClass::Secret);

        let r = analyze(&nl, None).expect("acyclic");
        assert!(r.taint[a.index()], "source stays tainted");
        assert!(!r.taint[dead.index()], "x ^ x recombination kills taint");
        assert!(r.taint[live.index()], "x ^ b keeps taint");
        assert_eq!(r.tainted_count(), 2);
        // MCML-family cells have zero energy asymmetry: score stays 0.
        assert!(r.score_j.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn analyze_refuses_comb_loops() {
        let mut nl = Netlist::new("loop", LogicStyle::Cmos);
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_gate("u1", GateKind::Inv, vec![Conn::plain(a)], vec![b]);
        nl.add_gate("u2", GateKind::Inv, vec![Conn::plain(b)], vec![a]);
        assert!(analyze(&nl, None).is_none());
    }

    #[test]
    fn taint_reaches_fixpoint_through_register_feedback() {
        // k → XOR ← q; XOR → d → DFF → q: taint must circulate through
        // the sequential loop and settle.
        let mut nl = Netlist::new("fb", LogicStyle::PgMcml);
        let clk = nl.add_input("clk");
        let k = nl.add_input("k");
        let q = nl.add_net("q");
        let d = nl.add_net("d");
        nl.add_gate(
            "u_x",
            GateKind::Lib(CellKind::Xor2),
            vec![Conn::plain(k), Conn::plain(q)],
            vec![d],
        );
        nl.add_gate(
            "u_ff",
            GateKind::Lib(CellKind::Dff),
            vec![Conn::plain(d), Conn::plain(clk)],
            vec![q],
        );
        nl.set_output("q", Conn::plain(q));
        nl.set_port_class("k", PortClass::Secret);
        nl.set_port_class("clk", PortClass::Clock);

        let r = analyze(&nl, None).expect("acyclic comb part");
        assert!(r.taint[d.index()] && r.taint[q.index()]);
        assert!(!r.taint[clk.index()]);
    }
}
