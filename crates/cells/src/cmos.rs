//! Static CMOS equivalents of the library cells — the conventional
//! baseline of the paper's Tables 2 and 3 and the insecure reference for
//! the Fig. 6 CPA experiment.
//!
//! Cells are fully complementary (no transmission gates): every gate is a
//! pull-down series/parallel NMOS network between the output and ground
//! and its dual PMOS network to the supply. This keeps the SPICE
//! operating points well-conditioned and makes the data-dependent supply
//! current — the property CPA exploits — entirely structural.

use mcml_device::{MosParams, Mosfet};
use mcml_spice::{Circuit, NodeId};

use crate::cellnet::{CellNetlist, CellStats};
use crate::kind::CellKind;
use crate::params::CellParams;
use crate::style::LogicStyle;

/// A series/parallel switch network over gate nodes.
#[derive(Debug, Clone)]
pub enum SpNet {
    /// Single transistor controlled by the node.
    T(NodeId),
    /// Series composition (all must conduct).
    Series(Vec<SpNet>),
    /// Parallel composition (any may conduct).
    Par(Vec<SpNet>),
}

impl SpNet {
    /// The dual network (series ↔ parallel), used to derive the PMOS
    /// pull-up from the NMOS pull-down.
    #[must_use]
    pub fn dual(&self) -> SpNet {
        match self {
            SpNet::T(n) => SpNet::T(*n),
            SpNet::Series(xs) => SpNet::Par(xs.iter().map(SpNet::dual).collect()),
            SpNet::Par(xs) => SpNet::Series(xs.iter().map(SpNet::dual).collect()),
        }
    }

    /// Number of transistors in the network.
    #[must_use]
    pub fn size(&self) -> usize {
        match self {
            SpNet::T(_) => 1,
            SpNet::Series(xs) | SpNet::Par(xs) => xs.iter().map(SpNet::size).sum(),
        }
    }
}

struct CmosBuilder<'p> {
    ckt: Circuit,
    params: &'p CellParams,
    vdd: NodeId,
    ports: std::collections::HashMap<String, NodeId>,
    counter: usize,
}

impl<'p> CmosBuilder<'p> {
    fn new(params: &'p CellParams) -> Self {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let mut ports = std::collections::HashMap::new();
        ports.insert("vdd".to_owned(), vdd);
        Self {
            ckt,
            params,
            vdd,
            ports,
            counter: 0,
        }
    }

    fn uid(&mut self) -> usize {
        self.counter += 1;
        self.counter
    }

    fn input(&mut self, name: &str) -> NodeId {
        let n = self.ckt.node(name);
        self.ports.insert(name.to_owned(), n);
        n
    }

    fn output(&mut self, name: &str) -> NodeId {
        self.input(name)
    }

    fn fresh(&mut self, prefix: &str) -> NodeId {
        self.ckt.fresh_node(prefix)
    }

    fn add_nmos(&mut self, d: NodeId, g: NodeId, s: NodeId, w: f64) {
        let name = format!("mn{}", self.uid());
        let dev = Mosfet::nmos(
            MosParams::nmos_lvt_90().at_corner(self.params.corner),
            w,
            self.params.l,
        );
        if self.params.with_parasitics {
            self.ckt
                .mosfet_with_caps(&name, d, g, s, Circuit::GND, dev, &self.params.tech);
        } else {
            self.ckt.mosfet(&name, d, g, s, Circuit::GND, dev);
        }
    }

    fn add_pmos(&mut self, d: NodeId, g: NodeId, s: NodeId, w: f64) {
        let name = format!("mp{}", self.uid());
        let dev = Mosfet::pmos(
            MosParams::pmos_lvt_90().at_corner(self.params.corner),
            w,
            self.params.l,
        );
        let vdd = self.vdd;
        if self.params.with_parasitics {
            self.ckt
                .mosfet_with_caps(&name, d, g, s, vdd, dev, &self.params.tech);
        } else {
            self.ckt.mosfet(&name, d, g, s, vdd, dev);
        }
    }

    fn emit_net_nmos(&mut self, net: &SpNet, top: NodeId, bottom: NodeId, w: f64) {
        match net {
            SpNet::T(g) => self.add_nmos(top, *g, bottom, w),
            SpNet::Series(xs) => {
                // Series stacks are widened to keep drive comparable.
                let ws = w * xs.len() as f64;
                let mut upper = top;
                for (i, x) in xs.iter().enumerate() {
                    let lower = if i + 1 == xs.len() {
                        bottom
                    } else {
                        self.fresh("sn")
                    };
                    self.emit_net_nmos(x, upper, lower, ws);
                    upper = lower;
                }
            }
            SpNet::Par(xs) => {
                for x in xs {
                    self.emit_net_nmos(x, top, bottom, w);
                }
            }
        }
    }

    fn emit_net_pmos(&mut self, net: &SpNet, top: NodeId, bottom: NodeId, w: f64) {
        match net {
            SpNet::T(g) => self.add_pmos(bottom, *g, top, w),
            SpNet::Series(xs) => {
                let ws = w * xs.len() as f64;
                let mut upper = top;
                for (i, x) in xs.iter().enumerate() {
                    let lower = if i + 1 == xs.len() {
                        bottom
                    } else {
                        self.fresh("sp")
                    };
                    self.emit_net_pmos(x, upper, lower, ws);
                    upper = lower;
                }
            }
            SpNet::Par(xs) => {
                for x in xs {
                    self.emit_net_pmos(x, top, bottom, w);
                }
            }
        }
    }

    /// Complementary static gate: `out = NOT f`, where `f` is the
    /// pull-down network expression.
    fn static_gate(&mut self, f: &SpNet, out: NodeId) {
        let m = self.params.drive_mult();
        let wn = 0.4e-6 * m;
        let wp = 0.8e-6 * m;
        self.emit_net_nmos(f, out, Circuit::GND, wn);
        let vdd = self.vdd;
        self.emit_net_pmos(&f.dual(), vdd, out, wp);
    }

    fn inv(&mut self, a: NodeId, q: NodeId) {
        self.static_gate(&SpNet::T(a), q);
    }

    fn inv_new(&mut self, a: NodeId) -> NodeId {
        let q = self.fresh("inv");
        self.inv(a, q);
        q
    }

    fn nand(&mut self, inputs: &[NodeId], q: NodeId) {
        let f = SpNet::Series(inputs.iter().map(|&n| SpNet::T(n)).collect());
        self.static_gate(&f, q);
    }

    fn and_gate(&mut self, inputs: &[NodeId], q: NodeId) {
        let w = self.fresh("nand");
        self.nand(inputs, w);
        self.inv(w, q);
    }

    /// Complementary XOR2 needing both input polarities.
    fn xor(&mut self, a: NodeId, b: NodeId, q: NodeId) {
        let ab = self.inv_new(a);
        let bb = self.inv_new(b);
        // q' = a·b + a'·b' (XNOR pull-down) so q = a ⊕ b.
        let f = SpNet::Par(vec![
            SpNet::Series(vec![SpNet::T(a), SpNet::T(b)]),
            SpNet::Series(vec![SpNet::T(ab), SpNet::T(bb)]),
        ]);
        self.static_gate(&f, q);
    }

    fn xor_new(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let q = self.fresh("xor");
        self.xor(a, b, q);
        q
    }

    /// Static 2:1 mux: `q = s ? d1 : d0` via an AOI plus output inverter.
    fn mux2(&mut self, s: NodeId, d0: NodeId, d1: NodeId, q: NodeId) {
        let sb = self.inv_new(s);
        let y = self.fresh("muxy");
        // y = NOT(s·d1 + s'·d0), q = NOT y.
        let f = SpNet::Par(vec![
            SpNet::Series(vec![SpNet::T(s), SpNet::T(d1)]),
            SpNet::Series(vec![SpNet::T(sb), SpNet::T(d0)]),
        ]);
        self.static_gate(&f, y);
        self.inv(y, q);
    }

    fn mux2_new(&mut self, s: NodeId, d0: NodeId, d1: NodeId) -> NodeId {
        let q = self.fresh("mux");
        self.mux2(s, d0, d1, q);
        q
    }

    /// Majority gate: complex AOI plus inverter.
    fn maj(&mut self, a: NodeId, b: NodeId, c: NodeId, q: NodeId) {
        let y = self.fresh("majy");
        let f = SpNet::Par(vec![
            SpNet::Series(vec![SpNet::T(a), SpNet::T(b)]),
            SpNet::Series(vec![SpNet::T(a), SpNet::T(c)]),
            SpNet::Series(vec![SpNet::T(b), SpNet::T(c)]),
        ]);
        self.static_gate(&f, y);
        self.inv(y, q);
    }

    /// Level-sensitive latch, transparent while `clk` is high.
    fn latch(&mut self, d: NodeId, clk: NodeId, q: NodeId) {
        // q = clk ? d : q — a mux with output feedback.
        self.mux2(clk, q, d, q);
    }

    fn finish(mut self, kind: CellKind) -> CellNetlist {
        let mut net = CellNetlist {
            circuit: std::mem::take(&mut self.ckt),
            ports: std::mem::take(&mut self.ports),
            kind,
            style: LogicStyle::Cmos,
            stats: CellStats::default(),
        };
        let (n, p) = net.count_devices();
        net.stats.n_nmos = n;
        net.stats.n_pmos = p;
        net.stats.stages = 0;
        net
    }
}

/// Build the static CMOS netlist for `kind`.
///
/// # Panics
///
/// Panics only on internal generator bugs; every [`CellKind`] is
/// supported.
#[must_use]
pub fn build_cmos_cell(kind: CellKind, params: &CellParams) -> CellNetlist {
    let mut b = CmosBuilder::new(params);
    match kind {
        CellKind::Buffer | CellKind::Diff2Single => {
            let a = b.input("a");
            let q = b.output("q");
            let w = b.inv_new(a);
            b.inv(w, q);
        }
        CellKind::And2 | CellKind::And3 | CellKind::And4 => {
            let names = kind.input_names();
            let ins: Vec<NodeId> = names.iter().map(|n| b.input(n)).collect();
            let q = b.output("q");
            b.and_gate(&ins, q);
        }
        CellKind::Xor2 => {
            let a = b.input("a");
            let bb = b.input("b");
            let q = b.output("q");
            b.xor(a, bb, q);
        }
        CellKind::Xor3 => {
            let a = b.input("a");
            let bb = b.input("b");
            let c = b.input("c");
            let q = b.output("q");
            let w = b.xor_new(a, bb);
            b.xor(w, c, q);
        }
        CellKind::Xor4 => {
            let a = b.input("a");
            let bb = b.input("b");
            let c = b.input("c");
            let d = b.input("d");
            let q = b.output("q");
            let w1 = b.xor_new(a, bb);
            let w2 = b.xor_new(w1, c);
            b.xor(w2, d, q);
        }
        CellKind::Mux2 => {
            let d0 = b.input("d0");
            let d1 = b.input("d1");
            let s = b.input("s");
            let q = b.output("q");
            b.mux2(s, d0, d1, q);
        }
        CellKind::Mux4 => {
            let d0 = b.input("d0");
            let d1 = b.input("d1");
            let d2 = b.input("d2");
            let d3 = b.input("d3");
            let s0 = b.input("s0");
            let s1 = b.input("s1");
            let q = b.output("q");
            let u = b.mux2_new(s0, d0, d1);
            let v = b.mux2_new(s0, d2, d3);
            b.mux2(s1, u, v, q);
        }
        CellKind::Maj32 => {
            let a = b.input("a");
            let bb = b.input("b");
            let c = b.input("c");
            let q = b.output("q");
            b.maj(a, bb, c, q);
        }
        CellKind::DLatch => {
            let d = b.input("d");
            let clk = b.input("clk");
            let q = b.output("q");
            b.latch(d, clk, q);
        }
        CellKind::Dff => {
            let d = b.input("d");
            let clk = b.input("clk");
            let q = b.output("q");
            let clkb = b.inv_new(clk);
            let m = b.fresh("m");
            b.latch(d, clkb, m);
            b.latch(m, clk, q);
        }
        CellKind::Dffr => {
            let d = b.input("d");
            let clk = b.input("clk");
            let rst = b.input("rst");
            let q = b.output("q");
            let rstb = b.inv_new(rst);
            let dr = b.fresh("dr");
            b.and_gate(&[d, rstb], dr);
            let clkb = b.inv_new(clk);
            let m = b.fresh("m");
            b.latch(dr, clkb, m);
            b.latch(m, clk, q);
        }
        CellKind::Edff => {
            let d = b.input("d");
            let clk = b.input("clk");
            let en = b.input("en");
            let q = b.output("q");
            let dm = b.mux2_new(en, q, d);
            let clkb = b.inv_new(clk);
            let m = b.fresh("m");
            b.latch(dm, clkb, m);
            b.latch(m, clk, q);
        }
        CellKind::FullAdder => {
            let a = b.input("a");
            let bb = b.input("b");
            let ci = b.input("ci");
            let s = b.output("s");
            let co = b.output("co");
            let x = b.xor_new(a, bb);
            b.xor(x, ci, s);
            b.maj(a, bb, ci, co);
        }
    }
    b.finish(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcml_spice::SourceWave;

    fn dc_out(kind: CellKind, inputs: &[bool], out_name: &str) -> f64 {
        let params = CellParams::default();
        let cell = build_cmos_cell(kind, &params);
        let mut ckt = cell.circuit.clone();
        let vdd_v = params.tech.vdd;
        ckt.vsource("VDD", cell.port("vdd"), Circuit::GND, SourceWave::dc(vdd_v));
        for (i, name) in kind.input_names().iter().enumerate() {
            let v = if inputs[i] { vdd_v } else { 0.0 };
            ckt.vsource(
                &format!("VI{name}"),
                cell.port(name),
                Circuit::GND,
                SourceWave::dc(v),
            );
        }
        let op = ckt.dc_op().expect("cmos cell DC converges");
        op.voltage(cell.port(out_name))
    }

    fn exhaustive(kind: CellKind) {
        let n = kind.input_count();
        for pattern in 0..(1u32 << n) {
            let inputs: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
            let expect = kind.eval_comb(&inputs).expect("combinational");
            for (oi, oname) in kind.output_names().iter().enumerate() {
                let v = dc_out(kind, &inputs, oname);
                if expect[oi] {
                    assert!(v > 1.0, "{kind} {oname} {inputs:?}: {v} should be high");
                } else {
                    assert!(v < 0.2, "{kind} {oname} {inputs:?}: {v} should be low");
                }
            }
        }
    }

    #[test]
    fn buffer_truth() {
        exhaustive(CellKind::Buffer);
    }

    #[test]
    fn and_gates_truth() {
        exhaustive(CellKind::And2);
        exhaustive(CellKind::And3);
    }

    #[test]
    fn xor_truth() {
        exhaustive(CellKind::Xor2);
        exhaustive(CellKind::Xor3);
    }

    #[test]
    fn mux_truth() {
        exhaustive(CellKind::Mux2);
        exhaustive(CellKind::Mux4);
    }

    #[test]
    fn maj_and_fa_truth() {
        exhaustive(CellKind::Maj32);
        exhaustive(CellKind::FullAdder);
    }

    #[test]
    fn transistor_table_matches_generator() {
        let params = CellParams::default();
        for kind in CellKind::ALL {
            let cell = build_cmos_cell(kind, &params);
            assert_eq!(
                cell.transistor_count(),
                kind.spec().cmos_transistors,
                "{kind}: generator vs CATALOG"
            );
        }
    }

    #[test]
    fn cmos_cells_have_no_bias_pins() {
        let cell = build_cmos_cell(CellKind::And2, &CellParams::default());
        assert!(!cell.ports.contains_key("vn"));
        assert!(!cell.ports.contains_key("sleep"));
        assert_eq!(cell.stats.stages, 0);
    }

    #[test]
    fn sp_net_dual_and_size() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let f = SpNet::Series(vec![
            SpNet::T(a),
            SpNet::Par(vec![SpNet::T(b), SpNet::T(a)]),
        ]);
        assert_eq!(f.size(), 3);
        match f.dual() {
            SpNet::Par(xs) => assert_eq!(xs.len(), 2),
            _ => panic!("dual of series is parallel"),
        }
    }
}
