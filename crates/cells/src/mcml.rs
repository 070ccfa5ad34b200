//! Transistor-level generators for MCML and PG-MCML cells.
//!
//! Every cell is a composition of **current-mode stages**. A stage is:
//! two PMOS active loads (gate = `Vp`), a differential NMOS network that
//! physically embeds the BDD of the stage function (max two stacked pairs
//! at 1.2 V), and a tail current source (gate = `Vn`) — plus, for PG-MCML,
//! the power-gating devices of the chosen [`SleepTopology`]. Multi-input
//! cells cascade stages exactly as the paper's Table 2 delays suggest
//! (AND3 = two cascaded AND2 stages, MUX4 = a MUX2 tree, FA = XOR/MAJ
//! stage pairs, flip-flops = two latches).

use mcml_device::{MosParams, Mosfet};
use mcml_spice::{Circuit, NodeId};

use crate::bdd::{Bdd, BddRef};
use crate::cellnet::{CellNetlist, CellStats, DiffSignal};
use crate::kind::CellKind;
use crate::params::CellParams;
use crate::style::{LogicStyle, SleepTopology};

/// Primitive functions realisable as a single ≤2-level stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageFn {
    /// `q = a` (one level).
    Buf,
    /// `q = a ∧ b`.
    And2,
    /// `q = a ∨ b`.
    Or2,
    /// `q = a ⊕ b`.
    Xor2,
    /// `q = s ? d1 : d0`; vars ordered `[s, d0, d1]` with the select at
    /// the bottom of the stack (classical MCML mux).
    Mux2,
}

struct McmlBuilder<'p> {
    ckt: Circuit,
    params: &'p CellParams,
    topology: Option<SleepTopology>,
    kind: CellKind,
    vdd: NodeId,
    vn: NodeId,
    vp: NodeId,
    sleep: Option<NodeId>,
    sleep_b: Option<NodeId>,
    ports: std::collections::HashMap<String, NodeId>,
    stages: usize,
}

impl<'p> McmlBuilder<'p> {
    fn new(kind: CellKind, params: &'p CellParams, topology: Option<SleepTopology>) -> Self {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vn = ckt.node("vn");
        let vp = ckt.node("vp");
        let mut ports = std::collections::HashMap::new();
        ports.insert("vdd".to_owned(), vdd);
        ports.insert("vn".to_owned(), vn);
        ports.insert("vp".to_owned(), vp);
        let (sleep, sleep_b) = match topology {
            Some(SleepTopology::VnPulldown) => {
                let sb = ckt.node("sleep_b");
                ports.insert("sleep_b".to_owned(), sb);
                (None, Some(sb))
            }
            Some(SleepTopology::VnPulldownIsolated) => {
                let s = ckt.node("sleep");
                let sb = ckt.node("sleep_b");
                ports.insert("sleep".to_owned(), s);
                ports.insert("sleep_b".to_owned(), sb);
                (Some(s), Some(sb))
            }
            Some(SleepTopology::BodyBias) | Some(SleepTopology::SeriesSleep) => {
                let s = ckt.node("sleep");
                ports.insert("sleep".to_owned(), s);
                (Some(s), None)
            }
            None => (None, None),
        };
        Self {
            ckt,
            params,
            topology,
            kind,
            vdd,
            vn,
            vp,
            sleep,
            sleep_b,
            ports,
            stages: 0,
        }
    }

    fn nmos_params(&self) -> MosParams {
        MosParams::nmos_hvt_90().at_corner(self.params.corner)
    }

    fn pmos_params(&self) -> MosParams {
        MosParams::pmos_lvt_90().at_corner(self.params.corner)
    }

    fn add_mos(&mut self, name: &str, d: NodeId, g: NodeId, s: NodeId, b: NodeId, dev: Mosfet) {
        if self.params.with_parasitics {
            self.ckt
                .mosfet_with_caps(name, d, g, s, b, dev, &self.params.tech);
        } else {
            self.ckt.mosfet(name, d, g, s, b, dev);
        }
    }

    /// Differential input port pair.
    fn diff_input(&mut self, name: &str) -> DiffSignal {
        let p = self.ckt.node(&format!("{name}_p"));
        let n = self.ckt.node(&format!("{name}_n"));
        self.ports.insert(format!("{name}_p"), p);
        self.ports.insert(format!("{name}_n"), n);
        DiffSignal { p, n }
    }

    /// Differential output port pair (also usable as an internal net).
    fn diff_output(&mut self, name: &str) -> DiffSignal {
        self.diff_input(name)
    }

    /// Fresh internal differential net.
    fn fresh_diff(&mut self, prefix: &str) -> DiffSignal {
        let p = self.ckt.fresh_node(&format!("{prefix}_p"));
        let n = self.ckt.fresh_node(&format!("{prefix}_n"));
        DiffSignal { p, n }
    }

    /// Attach the two PMOS active loads of a stage.
    fn add_loads(&mut self, stage: &str, out: DiffSignal) {
        let m = self.params.drive_mult();
        let dev = Mosfet::pmos(self.pmos_params(), self.params.w_load * m, self.params.l);
        let (vdd, vp) = (self.vdd, self.vp);
        self.add_mos(&format!("{stage}_lp"), out.p, vp, vdd, vdd, dev.clone());
        self.add_mos(&format!("{stage}_ln"), out.n, vp, vdd, vdd, dev);
    }

    /// Attach the tail current source (and the power-gating devices of the
    /// active topology) below `bottom`, the root net of the NMOS network.
    fn add_bias_chain(&mut self, stage: &str, bottom: NodeId) {
        let m = self.params.drive_mult();
        let p = self.params;
        let gnd = Circuit::GND;
        let tail_dev = Mosfet::nmos(self.nmos_params(), p.w_tail * m, p.l_tail);
        match self.topology {
            None => {
                let (vn,) = (self.vn,);
                self.add_mos(&format!("{stage}_tail"), bottom, vn, gnd, gnd, tail_dev);
            }
            Some(SleepTopology::SeriesSleep) => {
                // (d): sleep transistor stacked *above* the current source;
                // its gate goes low in sleep while its source floats up,
                // giving the negative VGS that crushes leakage.
                let mid = self.ckt.fresh_node(&format!("{stage}_pg"));
                let sleep = self.sleep.expect("topology (d) has a sleep pin");
                let sleep_dev = Mosfet::nmos(self.nmos_params(), p.w_sleep * m, p.l);
                self.add_mos(&format!("{stage}_slp"), bottom, sleep, mid, gnd, sleep_dev);
                let vn = self.vn;
                self.add_mos(&format!("{stage}_tail"), mid, vn, gnd, gnd, tail_dev);
            }
            Some(SleepTopology::BodyBias) => {
                // (c): digital ON signal on the gate, analog Vn on the
                // bulk. Because the gate now swings to the full supply, the
                // device must be sized (much narrower) so that it delivers
                // Iss at Vgs = Vdd under a nominal forward body bias — the
                // body voltage then trims the current across corners.
                let sleep = self.sleep.expect("topology (c) has a sleep pin");
                let vn = self.vn;
                let unit = Mosfet::nmos(self.nmos_params(), 1.0e-6, p.l_tail);
                let i_unit = unit.eval(p.tech.vdd, 0.3, 0.0, 0.4).id;
                let w = (p.iss_effective() / i_unit * 1.0e-6).max(p.tech.w_min);
                let dev = Mosfet::nmos(self.nmos_params(), w, p.l_tail);
                self.add_mos(&format!("{stage}_tail"), bottom, sleep, gnd, vn, dev);
            }
            Some(SleepTopology::VnPulldown) => {
                // (a): the local tail-gate node is pulled to ground in
                // sleep; the global Vn feeds it through the distribution
                // resistance.
                let local = self.ckt.fresh_node(&format!("{stage}_vnl"));
                let vn = self.vn;
                self.ckt
                    .resistor(&format!("{stage}_rvn"), vn, local, 20.0e3);
                let sb = self.sleep_b.expect("topology (a) has a sleep_b pin");
                let pd = Mosfet::nmos(self.nmos_params(), 0.3e-6, p.l);
                self.add_mos(&format!("{stage}_pd"), local, sb, gnd, gnd, pd);
                self.add_mos(&format!("{stage}_tail"), bottom, local, gnd, gnd, tail_dev);
            }
            Some(SleepTopology::VnPulldownIsolated) => {
                // (b): like (a) plus a pass device isolating the bias line.
                let local = self.ckt.fresh_node(&format!("{stage}_vnl"));
                let sleep = self.sleep.expect("topology (b) has a sleep pin");
                let sb = self.sleep_b.expect("topology (b) has a sleep_b pin");
                let vn = self.vn;
                let pass = Mosfet::nmos(self.nmos_params(), 0.6e-6, p.l);
                self.add_mos(&format!("{stage}_pass"), vn, sleep, local, gnd, pass);
                let pd = Mosfet::nmos(self.nmos_params(), 0.3e-6, p.l);
                self.add_mos(&format!("{stage}_pd"), local, sb, gnd, gnd, pd);
                self.add_mos(&format!("{stage}_tail"), bottom, local, gnd, gnd, tail_dev);
            }
        }
    }

    /// Emit a full current-mode stage computing `func` of `vars` into
    /// `out`. `vars` are indexed by BDD variable: variable 0 sits at the
    /// bottom of the stack (the BDD root).
    fn stage(&mut self, func: StageFn, vars: &[DiffSignal], out: DiffSignal) {
        let idx = self.stages;
        self.stages += 1;
        let stage = format!("s{idx}");

        let mut bdd = Bdd::new();
        let root = match func {
            StageFn::Buf => bdd.var(0),
            StageFn::And2 => {
                let (a, b) = (bdd.var(0), bdd.var(1));
                bdd.and(a, b)
            }
            StageFn::Or2 => {
                let (a, b) = (bdd.var(0), bdd.var(1));
                bdd.or(a, b)
            }
            StageFn::Xor2 => {
                let (a, b) = (bdd.var(0), bdd.var(1));
                bdd.xor(a, b)
            }
            StageFn::Mux2 => {
                let (s, d0, d1) = (bdd.var(0), bdd.var(1), bdd.var(2));
                bdd.ite(s, d1, d0)
            }
        };
        self.add_loads(&stage, out);

        // Map each BDD node to the circuit net at its source side; the
        // root net is the top of the bias chain.
        let nodes = bdd.reachable(root);
        assert!(!nodes.is_empty(), "constant stage functions unsupported");
        let mut net_of: std::collections::HashMap<BddRef, NodeId> =
            std::collections::HashMap::new();
        let root_net = self.ckt.fresh_node(&format!("{stage}_root"));
        net_of.insert(root, root_net);
        for &r in &nodes {
            if r != root {
                let nn = self.ckt.fresh_node(&format!("{stage}_b{}", r.index()));
                net_of.insert(r, nn);
            }
        }
        // Distinct variable ranks: rank 0 = bottom (root, widest device).
        let mut used_vars: Vec<u8> = nodes.iter().map(|&r| bdd.node(r).var).collect();
        used_vars.sort_unstable();
        used_vars.dedup();
        let n_levels = used_vars.len();

        let target_net = |net_of: &std::collections::HashMap<BddRef, NodeId>, r: BddRef| {
            if r == BddRef::ONE {
                // Current steered here pulls the complement output low.
                out.n
            } else if r == BddRef::ZERO {
                out.p
            } else {
                net_of[&r]
            }
        };

        for &r in &nodes {
            let node = bdd.node(r);
            let rank = used_vars
                .iter()
                .position(|&v| v == node.var)
                .expect("var present");
            // Lower stack levels get wider devices to survive the reduced
            // gate headroom under the stacked pairs above them.
            let width = self.params.w_pair
                * self.params.drive_mult()
                * (1.0 + 0.5 * (n_levels - 1 - rank) as f64);
            let dev = Mosfet::nmos(self.nmos_params(), width, self.params.l);
            let src = net_of[&r];
            let sig = vars[node.var as usize];
            let hi_net = target_net(&net_of, node.hi);
            let lo_net = target_net(&net_of, node.lo);
            let gnd = Circuit::GND;
            self.add_mos(
                &format!("{stage}_m{}h", r.index()),
                hi_net,
                sig.p,
                src,
                gnd,
                dev.clone(),
            );
            self.add_mos(
                &format!("{stage}_m{}l", r.index()),
                lo_net,
                sig.n,
                src,
                gnd,
                dev,
            );
        }
        self.add_bias_chain(&stage, root_net);
    }

    /// Emit a level-sensitive current-mode latch stage: transparent while
    /// `clk` is high, holding (cross-coupled pair) while low.
    fn latch_stage(&mut self, d: DiffSignal, clk: DiffSignal, out: DiffSignal) {
        let idx = self.stages;
        self.stages += 1;
        let stage = format!("s{idx}");
        self.add_loads(&stage, out);

        let gnd = Circuit::GND;
        let w_top = self.params.w_pair * self.params.drive_mult();
        let w_bot = w_top * 1.5;
        let top = |b: &Self| Mosfet::nmos(b.nmos_params(), w_top, b.params.l);
        let bot = |b: &Self| Mosfet::nmos(b.nmos_params(), w_bot, b.params.l);

        let n_track = self.ckt.fresh_node(&format!("{stage}_trk"));
        let n_hold = self.ckt.fresh_node(&format!("{stage}_hld"));
        let root = self.ckt.fresh_node(&format!("{stage}_root"));

        // Track pair: d steers current to the complement output.
        let t = top(self);
        self.add_mos(&format!("{stage}_mtp"), out.n, d.p, n_track, gnd, t);
        let t = top(self);
        self.add_mos(&format!("{stage}_mtn"), out.p, d.n, n_track, gnd, t);
        // Hold pair: cross-coupled regeneration.
        let t = top(self);
        self.add_mos(&format!("{stage}_mhp"), out.n, out.p, n_hold, gnd, t);
        let t = top(self);
        self.add_mos(&format!("{stage}_mhn"), out.p, out.n, n_hold, gnd, t);
        // Clock pair at the bottom steers between track and hold.
        let b = bot(self);
        self.add_mos(&format!("{stage}_mcp"), n_track, clk.p, root, gnd, b);
        let b = bot(self);
        self.add_mos(&format!("{stage}_mcn"), n_hold, clk.n, root, gnd, b);

        self.add_bias_chain(&stage, root);
    }

    /// Differential-to-single-ended converter: current-mirror-loaded pair
    /// plus a CMOS output inverter, restoring a full-swing signal.
    fn d2s(&mut self, a: DiffSignal, q_name: &str) {
        let idx = self.stages;
        self.stages += 1;
        let stage = format!("s{idx}");
        let gnd = Circuit::GND;
        let vdd = self.vdd;
        let w = self.params.w_pair * self.params.drive_mult();

        let d1 = self.ckt.fresh_node(&format!("{stage}_d1"));
        let d2 = self.ckt.fresh_node(&format!("{stage}_d2"));
        let root = self.ckt.fresh_node(&format!("{stage}_root"));

        // Input pair: a = 1 must pull the pre-output d2 *low*, so the
        // a_p-driven device sits on the d2 side.
        let n = Mosfet::nmos(self.nmos_params(), w, self.params.l);
        self.add_mos(&format!("{stage}_mn1"), d1, a.n, root, gnd, n);
        let n = Mosfet::nmos(self.nmos_params(), w, self.params.l);
        self.add_mos(&format!("{stage}_mn2"), d2, a.p, root, gnd, n);
        // PMOS current mirror load.
        let pw = self.params.w_load * 2.0 * self.params.drive_mult();
        let p = Mosfet::pmos(self.pmos_params(), pw, self.params.l);
        self.add_mos(&format!("{stage}_mp1"), d1, d1, vdd, vdd, p);
        let p = Mosfet::pmos(self.pmos_params(), pw, self.params.l);
        self.add_mos(&format!("{stage}_mp2"), d2, d1, vdd, vdd, p);
        self.add_bias_chain(&stage, root);

        // Full-swing CMOS inverter: q = NOT d2, so q follows `a`.
        let q = self.ckt.node(q_name);
        self.ports.insert(q_name.to_owned(), q);
        let ni = Mosfet::nmos(
            MosParams::nmos_lvt_90().at_corner(self.params.corner),
            0.6e-6,
            self.params.l,
        );
        self.add_mos(&format!("{stage}_invn"), q, d2, gnd, gnd, ni);
        let pi = Mosfet::pmos(
            MosParams::pmos_lvt_90().at_corner(self.params.corner),
            1.2e-6,
            self.params.l,
        );
        self.add_mos(&format!("{stage}_invp"), q, d2, vdd, vdd, pi);
    }

    fn finish(mut self) -> CellNetlist {
        let style = match self.topology {
            Some(_) => LogicStyle::PgMcml,
            None => LogicStyle::Mcml,
        };
        let mut net = CellNetlist {
            circuit: std::mem::take(&mut self.ckt),
            ports: std::mem::take(&mut self.ports),
            kind: self.kind,
            style,
            stats: CellStats {
                n_nmos: 0,
                n_pmos: 0,
                stages: self.stages,
            },
        };
        let (n, p) = net.count_devices();
        net.stats.n_nmos = n;
        net.stats.n_pmos = p;
        net
    }
}

/// Build an MCML (`topology = None`) or PG-MCML (`topology = Some(_)`)
/// cell netlist.
///
/// # Panics
///
/// Panics only on internal generator bugs; every [`CellKind`] is
/// supported.
#[must_use]
pub fn build_mcml_cell(
    kind: CellKind,
    params: &CellParams,
    topology: Option<SleepTopology>,
) -> CellNetlist {
    let mut b = McmlBuilder::new(kind, params, topology);
    match kind {
        CellKind::Buffer => {
            let a = b.diff_input("a");
            let q = b.diff_output("q");
            b.stage(StageFn::Buf, &[a], q);
        }
        CellKind::Diff2Single => {
            let a = b.diff_input("a");
            b.d2s(a, "q");
        }
        CellKind::And2 => {
            let a = b.diff_input("a");
            let bb = b.diff_input("b");
            let q = b.diff_output("q");
            b.stage(StageFn::And2, &[a, bb], q);
        }
        CellKind::And3 => {
            let a = b.diff_input("a");
            let bb = b.diff_input("b");
            let c = b.diff_input("c");
            let w = b.fresh_diff("w");
            let q = b.diff_output("q");
            b.stage(StageFn::And2, &[a, bb], w);
            b.stage(StageFn::And2, &[w, c], q);
        }
        CellKind::And4 => {
            let a = b.diff_input("a");
            let bb = b.diff_input("b");
            let c = b.diff_input("c");
            let d = b.diff_input("d");
            let w1 = b.fresh_diff("w1");
            let w2 = b.fresh_diff("w2");
            let q = b.diff_output("q");
            b.stage(StageFn::And2, &[a, bb], w1);
            b.stage(StageFn::And2, &[w1, c], w2);
            b.stage(StageFn::And2, &[w2, d], q);
        }
        CellKind::Xor2 => {
            let a = b.diff_input("a");
            let bb = b.diff_input("b");
            let q = b.diff_output("q");
            b.stage(StageFn::Xor2, &[a, bb], q);
        }
        CellKind::Xor3 => {
            let a = b.diff_input("a");
            let bb = b.diff_input("b");
            let c = b.diff_input("c");
            let w = b.fresh_diff("w");
            let q = b.diff_output("q");
            b.stage(StageFn::Xor2, &[a, bb], w);
            b.stage(StageFn::Xor2, &[w, c], q);
        }
        CellKind::Xor4 => {
            let a = b.diff_input("a");
            let bb = b.diff_input("b");
            let c = b.diff_input("c");
            let d = b.diff_input("d");
            let w1 = b.fresh_diff("w1");
            let w2 = b.fresh_diff("w2");
            let q = b.diff_output("q");
            b.stage(StageFn::Xor2, &[a, bb], w1);
            b.stage(StageFn::Xor2, &[w1, c], w2);
            b.stage(StageFn::Xor2, &[w2, d], q);
        }
        CellKind::Mux2 => {
            let d0 = b.diff_input("d0");
            let d1 = b.diff_input("d1");
            let s = b.diff_input("s");
            let q = b.diff_output("q");
            b.stage(StageFn::Mux2, &[s, d0, d1], q);
        }
        CellKind::Mux4 => {
            let d0 = b.diff_input("d0");
            let d1 = b.diff_input("d1");
            let d2 = b.diff_input("d2");
            let d3 = b.diff_input("d3");
            let s0 = b.diff_input("s0");
            let s1 = b.diff_input("s1");
            let u = b.fresh_diff("u");
            let v = b.fresh_diff("v");
            let q = b.diff_output("q");
            b.stage(StageFn::Mux2, &[s0, d0, d1], u);
            b.stage(StageFn::Mux2, &[s0, d2, d3], v);
            b.stage(StageFn::Mux2, &[s1, u, v], q);
        }
        CellKind::Maj32 => {
            // MAJ(a,b,c) = c ? (a ∨ b) : (a ∧ b).
            let a = b.diff_input("a");
            let bb = b.diff_input("b");
            let c = b.diff_input("c");
            let u = b.fresh_diff("u");
            let v = b.fresh_diff("v");
            let q = b.diff_output("q");
            b.stage(StageFn::And2, &[a, bb], u);
            b.stage(StageFn::Or2, &[a, bb], v);
            b.stage(StageFn::Mux2, &[c, u, v], q);
        }
        CellKind::DLatch => {
            let d = b.diff_input("d");
            let clk = b.diff_input("clk");
            let q = b.diff_output("q");
            b.latch_stage(d, clk, q);
        }
        CellKind::Dff => {
            let d = b.diff_input("d");
            let clk = b.diff_input("clk");
            let m = b.fresh_diff("m");
            let q = b.diff_output("q");
            // Master transparent while clk is low, slave while high:
            // output changes on the rising edge.
            b.latch_stage(d, clk.inverted(), m);
            b.latch_stage(m, clk, q);
        }
        CellKind::Dffr => {
            let d = b.diff_input("d");
            let clk = b.diff_input("clk");
            let rst = b.diff_input("rst");
            let dr = b.fresh_diff("dr");
            let m = b.fresh_diff("m");
            let q = b.diff_output("q");
            // d' = d ∧ ¬rst — the complement of rst is free.
            b.stage(StageFn::And2, &[d, rst.inverted()], dr);
            b.latch_stage(dr, clk.inverted(), m);
            b.latch_stage(m, clk, q);
        }
        CellKind::Edff => {
            let d = b.diff_input("d");
            let clk = b.diff_input("clk");
            let en = b.diff_input("en");
            let q = b.diff_output("q");
            let dm = b.fresh_diff("dm");
            let m = b.fresh_diff("m");
            // dm = en ? d : q (q feedback keeps the held value).
            b.stage(StageFn::Mux2, &[en, q, d], dm);
            b.latch_stage(dm, clk.inverted(), m);
            b.latch_stage(m, clk, q);
        }
        CellKind::FullAdder => {
            let a = b.diff_input("a");
            let bb = b.diff_input("b");
            let ci = b.diff_input("ci");
            let x = b.fresh_diff("x");
            let u = b.fresh_diff("u");
            let v = b.fresh_diff("v");
            let s = b.diff_output("s");
            let co = b.diff_output("co");
            b.stage(StageFn::Xor2, &[a, bb], x);
            b.stage(StageFn::Xor2, &[x, ci], s);
            b.stage(StageFn::And2, &[a, bb], u);
            b.stage(StageFn::Or2, &[a, bb], v);
            b.stage(StageFn::Mux2, &[ci, u, v], co);
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bias::solve_bias;
    use mcml_spice::SourceWave;

    /// DC harness: drive every input at MCML levels, solve the operating
    /// point, and return the differential output voltage `q_p − q_n`.
    fn dc_diff_out(
        kind: CellKind,
        topology: Option<SleepTopology>,
        inputs: &[bool],
        out_name: &str,
        sleep_on: bool,
    ) -> f64 {
        let params = CellParams::default();
        let bias = solve_bias(&params);
        let cell = build_mcml_cell(kind, &params, topology);
        let mut ckt = cell.circuit.clone();
        let vdd_v = params.tech.vdd;
        let v_hi = vdd_v;
        let v_lo = params.v_low();

        ckt.vsource("VDD", cell.port("vdd"), Circuit::GND, SourceWave::dc(vdd_v));
        ckt.vsource("VN", cell.port("vn"), Circuit::GND, SourceWave::dc(bias.vn));
        ckt.vsource("VP", cell.port("vp"), Circuit::GND, SourceWave::dc(bias.vp));
        if cell.ports.contains_key("sleep") {
            let v = if sleep_on { vdd_v } else { 0.0 };
            ckt.vsource("VSLP", cell.port("sleep"), Circuit::GND, SourceWave::dc(v));
        }
        if cell.ports.contains_key("sleep_b") {
            let v = if sleep_on { 0.0 } else { vdd_v };
            ckt.vsource(
                "VSLPB",
                cell.port("sleep_b"),
                Circuit::GND,
                SourceWave::dc(v),
            );
        }
        for (i, name) in kind.input_names().iter().enumerate() {
            let (hi, lo) = if inputs[i] {
                (v_hi, v_lo)
            } else {
                (v_lo, v_hi)
            };
            ckt.vsource(
                &format!("VI{name}p"),
                cell.port(&format!("{name}_p")),
                Circuit::GND,
                SourceWave::dc(hi),
            );
            ckt.vsource(
                &format!("VI{name}n"),
                cell.port(&format!("{name}_n")),
                Circuit::GND,
                SourceWave::dc(lo),
            );
        }
        let op = ckt.dc_op().expect("cell DC converges");
        op.voltage(cell.port(&format!("{out_name}_p")))
            - op.voltage(cell.port(&format!("{out_name}_n")))
    }

    fn exhaustive_check(kind: CellKind, topology: Option<SleepTopology>) {
        let n = kind.input_count();
        for pattern in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
            let expect = kind.eval_comb(&inputs).expect("combinational");
            for (oi, oname) in kind.output_names().iter().enumerate() {
                let vdiff = dc_diff_out(kind, topology, &inputs, oname, true);
                let want = expect[oi];
                assert!(
                    (vdiff > 0.15) == want && vdiff.abs() > 0.15,
                    "{kind} {oname} inputs {inputs:?}: vdiff = {vdiff:.3} V, want {want}"
                );
            }
        }
    }

    #[test]
    fn buffer_truth_mcml() {
        exhaustive_check(CellKind::Buffer, None);
    }

    #[test]
    fn buffer_truth_pg() {
        exhaustive_check(CellKind::Buffer, Some(SleepTopology::SeriesSleep));
    }

    #[test]
    fn and2_truth_pg() {
        exhaustive_check(CellKind::And2, Some(SleepTopology::SeriesSleep));
    }

    #[test]
    fn xor2_truth_pg() {
        exhaustive_check(CellKind::Xor2, Some(SleepTopology::SeriesSleep));
    }

    #[test]
    fn xor3_truth_pg() {
        exhaustive_check(CellKind::Xor3, Some(SleepTopology::SeriesSleep));
    }

    #[test]
    fn and4_truth_pg() {
        exhaustive_check(CellKind::And4, Some(SleepTopology::SeriesSleep));
    }

    #[test]
    fn mux2_truth_pg() {
        exhaustive_check(CellKind::Mux2, Some(SleepTopology::SeriesSleep));
    }

    #[test]
    fn maj32_truth_pg() {
        exhaustive_check(CellKind::Maj32, Some(SleepTopology::SeriesSleep));
    }

    #[test]
    fn full_adder_truth_pg() {
        exhaustive_check(CellKind::FullAdder, Some(SleepTopology::SeriesSleep));
    }

    #[test]
    fn mux4_truth_mcml() {
        exhaustive_check(CellKind::Mux4, None);
    }

    #[test]
    fn sleep_gates_the_output_swing() {
        // Asleep, the tail current is cut: both outputs float to Vdd and
        // the differential swing collapses.
        let awake = dc_diff_out(
            CellKind::Buffer,
            Some(SleepTopology::SeriesSleep),
            &[true],
            "q",
            true,
        );
        let asleep = dc_diff_out(
            CellKind::Buffer,
            Some(SleepTopology::SeriesSleep),
            &[true],
            "q",
            false,
        );
        assert!(awake > 0.3, "awake swing {awake}");
        assert!(asleep.abs() < 0.05, "asleep residual swing {asleep}");
    }

    #[test]
    fn all_topologies_functional_when_awake() {
        for topo in SleepTopology::ALL {
            let v = dc_diff_out(CellKind::Buffer, Some(topo), &[true], "q", true);
            assert!(v > 0.2, "{topo}: awake buffer swing {v}");
        }
    }

    #[test]
    fn stats_and_ports_consistent() {
        let params = CellParams::default();
        for kind in CellKind::ALL {
            let cell = build_mcml_cell(kind, &params, Some(SleepTopology::SeriesSleep));
            let (n, p) = cell.count_devices();
            assert_eq!(cell.stats.n_nmos, n, "{kind} nmos count");
            assert_eq!(cell.stats.n_pmos, p, "{kind} pmos count");
            assert!(cell.stats.stages >= 1, "{kind} has at least one stage");
            assert!(cell.ports.contains_key("vdd"));
            assert!(cell.ports.contains_key("sleep") || cell.ports.contains_key("sleep_b"));
            for i in kind.input_names() {
                assert!(
                    cell.ports.contains_key(&format!("{i}_p")),
                    "{kind} input {i}_p"
                );
            }
        }
    }

    #[test]
    fn pg_adds_one_transistor_per_stage_topology_d() {
        let params = CellParams::default();
        for kind in [CellKind::Buffer, CellKind::And3, CellKind::FullAdder] {
            let plain = build_mcml_cell(kind, &params, None);
            let pg = build_mcml_cell(kind, &params, Some(SleepTopology::SeriesSleep));
            assert_eq!(
                pg.transistor_count(),
                plain.transistor_count() + plain.stats.stages,
                "{kind}"
            );
        }
    }

    #[test]
    fn diff2single_restores_full_swing() {
        let params = CellParams::default();
        let bias = solve_bias(&params);
        let cell = build_mcml_cell(
            CellKind::Diff2Single,
            &params,
            Some(SleepTopology::SeriesSleep),
        );
        let mut ckt = cell.circuit.clone();
        let vdd_v = params.tech.vdd;
        ckt.vsource("VDD", cell.port("vdd"), Circuit::GND, SourceWave::dc(vdd_v));
        ckt.vsource("VN", cell.port("vn"), Circuit::GND, SourceWave::dc(bias.vn));
        ckt.vsource("VP", cell.port("vp"), Circuit::GND, SourceWave::dc(bias.vp));
        ckt.vsource(
            "VSLP",
            cell.port("sleep"),
            Circuit::GND,
            SourceWave::dc(vdd_v),
        );
        for (val, want_high) in [(true, true), (false, false)] {
            let mut c = ckt.clone();
            let (hi, lo) = if val {
                (vdd_v, params.v_low())
            } else {
                (params.v_low(), vdd_v)
            };
            c.vsource("VAp", cell.port("a_p"), Circuit::GND, SourceWave::dc(hi));
            c.vsource("VAn", cell.port("a_n"), Circuit::GND, SourceWave::dc(lo));
            let op = c.dc_op().expect("d2s converges");
            let q = op.voltage(cell.port("q"));
            if want_high {
                assert!(q > 0.9 * vdd_v, "q should be full-swing high, got {q}");
            } else {
                assert!(q < 0.1 * vdd_v, "q should be full-swing low, got {q}");
            }
        }
    }
}
