//! Gate-level netlist IR.
//!
//! Connections carry an `inverted` flag: differential styles realise it by
//! swapping the rail pair of the fat wire (zero cost), while the CMOS
//! back-end legalises it with explicit inverter gates (see
//! [`crate::techmap`]).

use std::collections::{BTreeMap, HashMap};

use mcml_cells::{CellKind, LogicStyle};
use serde::{Deserialize, Serialize};

/// Security classification of a primary port, consumed by the
/// `mcml-lint` secret-taint dataflow analysis.
///
/// The class is an *annotation*: it changes no electrical or logical
/// behaviour, only what the static analyses assume about the data the
/// port carries. Ports default to [`PortClass::Public`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum PortClass {
    /// Attacker-known or attacker-chosen data (plaintexts, outputs).
    #[default]
    Public,
    /// Secret data (key material, or internal state derived from it):
    /// the taint sources of the dataflow analysis.
    Secret,
    /// A clock or other data-independent control strobe; never a taint
    /// source and exempt from activity bounds.
    Clock,
}

impl PortClass {
    /// Stable report string (`public` / `secret` / `clock`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            PortClass::Public => "public",
            PortClass::Secret => "secret",
            PortClass::Clock => "clock",
        }
    }
}

/// Handle to a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct from a raw index (must come from the same netlist).
    ///
    /// # Panics
    ///
    /// Panics if the index exceeds `u32`.
    #[must_use]
    pub fn from_index(i: usize) -> Self {
        NetId(u32::try_from(i).expect("net index fits u32"))
    }
}

/// A gate input connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Conn {
    /// Source net.
    pub net: NetId,
    /// Complement flag.
    pub inverted: bool,
}

impl Conn {
    /// Plain (non-inverted) connection.
    #[must_use]
    pub fn plain(net: NetId) -> Self {
        Self {
            net,
            inverted: false,
        }
    }

    /// Inverted connection.
    #[must_use]
    pub fn inv(net: NetId) -> Self {
        Self {
            net,
            inverted: true,
        }
    }
}

/// Gate type: a library cell, or a CMOS legalisation inverter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GateKind {
    /// One of the 16 library cells.
    Lib(CellKind),
    /// An inverter (CMOS netlists only; differential styles invert for
    /// free).
    Inv,
}

impl GateKind {
    /// Number of logic inputs.
    #[must_use]
    pub fn input_count(self) -> usize {
        match self {
            GateKind::Lib(k) => k.input_count(),
            GateKind::Inv => 1,
        }
    }

    /// Whether the gate holds state.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        matches!(self, GateKind::Lib(k) if k.is_sequential())
    }
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GateKind::Lib(k) => write!(f, "{k}"),
            GateKind::Inv => write!(f, "INV"),
        }
    }
}

/// A gate instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// Instance name.
    pub name: String,
    /// Gate type.
    pub kind: GateKind,
    /// Input connections, ordered per [`CellKind::input_names`].
    pub inputs: Vec<Conn>,
    /// Output nets, ordered per [`CellKind::output_names`].
    pub outputs: Vec<NetId>,
}

/// Reference to a net consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkRef {
    /// A gate input pin.
    Gate {
        /// Gate index.
        gate: usize,
        /// Input pin index.
        input: usize,
    },
    /// A primary output.
    Output(usize),
}

/// A flat gate-level netlist.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    /// Logic style this netlist targets.
    pub style: LogicStyle,
    net_names: Vec<String>,
    gates: Vec<Gate>,
    inputs: Vec<(String, NetId)>,
    outputs: Vec<(String, Conn)>,
    /// Security class per annotated primary port (absent = `Public`).
    /// A `BTreeMap` so iteration (and thus every report) is ordered.
    port_classes: BTreeMap<String, PortClass>,
}

impl Netlist {
    /// An empty netlist.
    #[must_use]
    pub fn new(name: &str, style: LogicStyle) -> Self {
        Self {
            name: name.to_owned(),
            style,
            net_names: Vec::new(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            port_classes: BTreeMap::new(),
        }
    }

    /// Create a fresh net.
    pub fn add_net(&mut self, name: &str) -> NetId {
        let id = NetId(u32::try_from(self.net_names.len()).expect("netlist too large"));
        self.net_names.push(name.to_owned());
        id
    }

    /// Declare a primary input (creates its net).
    pub fn add_input(&mut self, name: &str) -> NetId {
        let n = self.add_net(name);
        self.inputs.push((name.to_owned(), n));
        n
    }

    /// Declare a primary output.
    pub fn set_output(&mut self, name: &str, conn: Conn) {
        self.outputs.push((name.to_owned(), conn));
    }

    /// Remove all primary outputs (used when re-registering a block's
    /// pipeline boundary).
    pub fn clear_outputs(&mut self) {
        self.outputs.clear();
    }

    /// Add a gate.
    ///
    /// # Panics
    ///
    /// Panics if the input arity does not match the gate kind.
    pub fn add_gate(&mut self, name: &str, kind: GateKind, inputs: Vec<Conn>, outputs: Vec<NetId>) {
        assert_eq!(
            inputs.len(),
            kind.input_count(),
            "gate {name}: {kind} needs {} inputs",
            kind.input_count()
        );
        self.gates.push(Gate {
            name: name.to_owned(),
            kind,
            inputs,
            outputs,
        });
    }

    /// Gates in insertion order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Net name.
    #[must_use]
    pub fn net_name(&self, n: NetId) -> &str {
        &self.net_names[n.index()]
    }

    /// Primary inputs.
    #[must_use]
    pub fn inputs(&self) -> &[(String, NetId)] {
        &self.inputs
    }

    /// Primary outputs.
    #[must_use]
    pub fn outputs(&self) -> &[(String, Conn)] {
        &self.outputs
    }

    /// Annotate a primary port with its security class.
    ///
    /// # Panics
    ///
    /// Panics if `port` names no primary input or output.
    pub fn set_port_class(&mut self, port: &str, class: PortClass) {
        assert!(
            self.inputs.iter().any(|(n, _)| n == port)
                || self.outputs.iter().any(|(n, _)| n == port),
            "no primary port `{port}` to classify"
        );
        self.port_classes.insert(port.to_owned(), class);
    }

    /// Security class of a primary port (`Public` unless annotated).
    #[must_use]
    pub fn port_class(&self, port: &str) -> PortClass {
        self.port_classes.get(port).copied().unwrap_or_default()
    }

    /// Every explicitly annotated port, in name order.
    pub fn port_classes(&self) -> impl Iterator<Item = (&str, PortClass)> {
        self.port_classes.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Histogram of gate kinds.
    #[must_use]
    pub fn cell_histogram(&self) -> HashMap<GateKind, usize> {
        let mut h = HashMap::new();
        for g in &self.gates {
            *h.entry(g.kind).or_insert(0) += 1;
        }
        h
    }

    /// Number of gate inputs + primary outputs each net drives.
    #[must_use]
    pub fn fanout_counts(&self) -> Vec<usize> {
        let mut f = vec![0usize; self.net_names.len()];
        for g in &self.gates {
            for c in &g.inputs {
                f[c.net.index()] += 1;
            }
        }
        for (_, c) in &self.outputs {
            f[c.net.index()] += 1;
        }
        f
    }

    /// Map from net to its driving gate index (primary inputs and
    /// floating nets have none).
    #[must_use]
    pub fn driver_map(&self) -> Vec<Option<usize>> {
        let mut d = vec![None; self.net_names.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            for &o in &g.outputs {
                d[o.index()] = Some(gi);
            }
        }
        d
    }

    /// Structural validation: single driver per net, inputs undriven,
    /// `Inv` gates only in CMOS netlists, no combinational cycles.
    ///
    /// Built on [`crate::check::structural_issues`]; only issues whose
    /// [`crate::check::StructuralIssue::is_fatal`] is true fail
    /// validation — undriven or dangling nets are reported by the
    /// `mcml-lint` rule pack instead.
    ///
    /// # Errors
    ///
    /// Returns every fatal [`crate::check::StructuralIssue`] as a typed
    /// [`crate::check::ValidateError`].
    pub fn validate(&self) -> Result<(), crate::check::ValidateError> {
        let issues: Vec<crate::check::StructuralIssue> = crate::check::structural_issues(self)
            .into_iter()
            .filter(crate::check::StructuralIssue::is_fatal)
            .collect();
        if issues.is_empty() {
            Ok(())
        } else {
            Err(crate::check::ValidateError { issues })
        }
    }

    /// Topological order of the **combinational** gates (sequential gate
    /// outputs act as sources).
    ///
    /// # Errors
    ///
    /// Returns `Err(gate_index)` naming a gate on a combinational cycle.
    pub fn comb_topo_order(&self) -> Result<Vec<usize>, usize> {
        let driver = self.driver_map();
        // In-degree of each combinational gate = # inputs driven by other
        // combinational gates.
        let mut indeg = vec![0usize; self.gates.len()];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); self.gates.len()];
        for (gi, g) in self.gates.iter().enumerate() {
            if g.kind.is_sequential() {
                continue;
            }
            for c in &g.inputs {
                if let Some(src) = driver[c.net.index()] {
                    if !self.gates[src].kind.is_sequential() {
                        indeg[gi] += 1;
                        dependents[src].push(gi);
                    }
                }
            }
        }
        let mut queue: Vec<usize> = (0..self.gates.len())
            .filter(|&g| !self.gates[g].kind.is_sequential() && indeg[g] == 0)
            .collect();
        let mut order = Vec::new();
        while let Some(g) = queue.pop() {
            order.push(g);
            for &d in &dependents[g] {
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    queue.push(d);
                }
            }
        }
        let n_comb = self
            .gates
            .iter()
            .filter(|g| !g.kind.is_sequential())
            .count();
        if order.len() != n_comb {
            let stuck = (0..self.gates.len())
                .find(|&g| !self.gates[g].kind.is_sequential() && indeg[g] > 0)
                .unwrap_or(0);
            return Err(stuck);
        }
        Ok(order)
    }

    /// Cycle-level evaluation: compute all net values given primary
    /// inputs and the current state of each sequential gate (by gate
    /// index). Returns net values.
    ///
    /// # Panics
    ///
    /// Panics if an input is missing or the netlist has a combinational
    /// cycle.
    #[must_use]
    pub fn evaluate(
        &self,
        inputs: &HashMap<String, bool>,
        state: &HashMap<usize, bool>,
    ) -> Vec<bool> {
        let mut values = vec![false; self.net_names.len()];
        for (name, n) in &self.inputs {
            values[n.index()] = *inputs
                .get(name)
                .unwrap_or_else(|| panic!("missing input `{name}`"));
        }
        // Sequential outputs from state.
        for (gi, g) in self.gates.iter().enumerate() {
            if g.kind.is_sequential() {
                let q = state.get(&gi).copied().unwrap_or(false);
                values[g.outputs[0].index()] = q;
            }
        }
        let order = self.comb_topo_order().expect("acyclic");
        for gi in order {
            let g = &self.gates[gi];
            let ins: Vec<bool> = g
                .inputs
                .iter()
                .map(|c| values[c.net.index()] ^ c.inverted)
                .collect();
            let outs = match g.kind {
                GateKind::Inv => vec![!ins[0]],
                GateKind::Lib(k) => k.eval_comb(&ins).expect("combinational gate"),
            };
            for (o, v) in g.outputs.iter().zip(outs) {
                values[o.index()] = v;
            }
        }
        values
    }

    /// Advance sequential state by one active clock edge given the net
    /// values computed by [`Netlist::evaluate`].
    #[must_use]
    pub fn next_state(
        &self,
        values: &[bool],
        state: &HashMap<usize, bool>,
    ) -> HashMap<usize, bool> {
        let mut next = HashMap::new();
        for (gi, g) in self.gates.iter().enumerate() {
            if let GateKind::Lib(k) = g.kind {
                if k.is_sequential() {
                    let ins: Vec<bool> = g
                        .inputs
                        .iter()
                        .map(|c| values[c.net.index()] ^ c.inverted)
                        .collect();
                    let cur = state.get(&gi).copied().unwrap_or(false);
                    next.insert(gi, k.next_state(cur, &ins).expect("sequential"));
                }
            }
        }
        next
    }

    /// All consumers of a net (gate input pins and primary outputs).
    #[must_use]
    pub fn sinks_of(&self, net: NetId) -> Vec<SinkRef> {
        let mut out = Vec::new();
        for (gi, g) in self.gates.iter().enumerate() {
            for (ii, c) in g.inputs.iter().enumerate() {
                if c.net == net {
                    out.push(SinkRef::Gate {
                        gate: gi,
                        input: ii,
                    });
                }
            }
        }
        for (oi, (_, c)) in self.outputs.iter().enumerate() {
            if c.net == net {
                out.push(SinkRef::Output(oi));
            }
        }
        out
    }

    /// Re-point a sink at a different net, preserving its inversion flag.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range sink reference.
    pub fn redirect_sink(&mut self, sink: SinkRef, to: NetId) {
        match sink {
            SinkRef::Gate { gate, input } => self.gates[gate].inputs[input].net = to,
            SinkRef::Output(oi) => self.outputs[oi].1.net = to,
        }
    }

    /// Apply a rewrite to every connection (gate inputs and primary
    /// outputs).
    pub fn rewrite_conns(&mut self, f: impl Fn(Conn) -> Conn) {
        for g in &mut self.gates {
            for c in &mut g.inputs {
                *c = f(*c);
            }
        }
        for (_, c) in &mut self.outputs {
            *c = f(*c);
        }
    }

    /// Value of a named output given evaluated net values.
    ///
    /// # Panics
    ///
    /// Panics for unknown output names.
    #[must_use]
    pub fn output_value(&self, name: &str, values: &[bool]) -> bool {
        let (_, c) = self
            .outputs
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("no output `{name}`"));
        values[c.net.index()] ^ c.inverted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_and_netlist(style: LogicStyle) -> Netlist {
        let mut nl = Netlist::new("t", style);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_net("x");
        let q = nl.add_net("q");
        nl.add_gate(
            "u_xor",
            GateKind::Lib(CellKind::Xor2),
            vec![Conn::plain(a), Conn::plain(b)],
            vec![x],
        );
        nl.add_gate(
            "u_and",
            GateKind::Lib(CellKind::And2),
            vec![Conn::plain(x), Conn::inv(b)],
            vec![q],
        );
        nl.set_output("q", Conn::plain(q));
        nl
    }

    fn asg(pairs: &[(&str, bool)]) -> HashMap<String, bool> {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn evaluate_with_inverted_conns() {
        let nl = xor_and_netlist(LogicStyle::PgMcml);
        nl.validate().unwrap();
        for (a, b) in [(false, false), (true, false), (false, true), (true, true)] {
            let v = nl.evaluate(&asg(&[("a", a), ("b", b)]), &HashMap::new());
            let expect = (a ^ b) && !b;
            assert_eq!(nl.output_value("q", &v), expect, "a={a} b={b}");
        }
    }

    #[test]
    fn inv_gate_only_in_cmos() {
        let mut nl = Netlist::new("t", LogicStyle::Mcml);
        let a = nl.add_input("a");
        let q = nl.add_net("q");
        nl.add_gate("u_inv", GateKind::Inv, vec![Conn::plain(a)], vec![q]);
        assert!(nl.validate().is_err());
        let mut nl2 = Netlist::new("t", LogicStyle::Cmos);
        let a = nl2.add_input("a");
        let q = nl2.add_net("q");
        nl2.add_gate("u_inv", GateKind::Inv, vec![Conn::plain(a)], vec![q]);
        nl2.set_output("q", Conn::plain(q));
        assert!(nl2.validate().is_ok());
        let v = nl2.evaluate(&asg(&[("a", true)]), &HashMap::new());
        assert!(!nl2.output_value("q", &v));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("t", LogicStyle::Cmos);
        let a = nl.add_input("a");
        let q = nl.add_net("q");
        nl.add_gate("u1", GateKind::Inv, vec![Conn::plain(a)], vec![q]);
        nl.add_gate("u2", GateKind::Inv, vec![Conn::plain(a)], vec![q]);
        assert!(nl
            .validate()
            .unwrap_err()
            .to_string()
            .contains("multiple drivers"));
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut nl = Netlist::new("t", LogicStyle::Cmos);
        let a = nl.add_net("a");
        let b = nl.add_net("b");
        nl.add_gate("u1", GateKind::Inv, vec![Conn::plain(a)], vec![b]);
        nl.add_gate("u2", GateKind::Inv, vec![Conn::plain(b)], vec![a]);
        assert!(nl.validate().unwrap_err().to_string().contains("cycle"));
    }

    #[test]
    fn sequential_state_machine() {
        // DFF toggling through an XOR feedback: q' = q ^ 1.
        let mut nl = Netlist::new("toggle", LogicStyle::PgMcml);
        let clk = nl.add_input("clk");
        let one = nl.add_input("one");
        let q = nl.add_net("q");
        let d = nl.add_net("d");
        nl.add_gate(
            "u_x",
            GateKind::Lib(CellKind::Xor2),
            vec![Conn::plain(q), Conn::plain(one)],
            vec![d],
        );
        nl.add_gate(
            "u_ff",
            GateKind::Lib(CellKind::Dff),
            vec![Conn::plain(d), Conn::plain(clk)],
            vec![q],
        );
        nl.set_output("q", Conn::plain(q));
        nl.validate().unwrap();

        let mut state = HashMap::new();
        let mut seen = Vec::new();
        for _ in 0..4 {
            let v = nl.evaluate(&asg(&[("clk", false), ("one", true)]), &state);
            seen.push(nl.output_value("q", &v));
            state = nl.next_state(&v, &state);
        }
        assert_eq!(seen, vec![false, true, false, true]);
    }

    #[test]
    fn histogram_and_fanout() {
        let nl = xor_and_netlist(LogicStyle::PgMcml);
        let h = nl.cell_histogram();
        assert_eq!(h[&GateKind::Lib(CellKind::Xor2)], 1);
        assert_eq!(h[&GateKind::Lib(CellKind::And2)], 1);
        let f = nl.fanout_counts();
        // `b` feeds both gates.
        let b = nl.inputs()[1].1;
        assert_eq!(f[b.index()], 2);
    }

    #[test]
    fn port_classes_default_public_and_annotate() {
        let mut nl = xor_and_netlist(LogicStyle::PgMcml);
        assert_eq!(nl.port_class("a"), PortClass::Public);
        assert_eq!(nl.port_classes().count(), 0);
        nl.set_port_class("a", PortClass::Secret);
        nl.set_port_class("q", PortClass::Public);
        assert_eq!(nl.port_class("a"), PortClass::Secret);
        let annotated: Vec<(&str, PortClass)> = nl.port_classes().collect();
        assert_eq!(
            annotated,
            vec![("a", PortClass::Secret), ("q", PortClass::Public)]
        );
    }

    #[test]
    #[should_panic(expected = "no primary port")]
    fn port_class_requires_existing_port() {
        let mut nl = xor_and_netlist(LogicStyle::PgMcml);
        nl.set_port_class("nope", PortClass::Secret);
    }

    #[test]
    #[should_panic(expected = "needs 2 inputs")]
    fn arity_checked() {
        let mut nl = Netlist::new("t", LogicStyle::Cmos);
        let a = nl.add_input("a");
        let q = nl.add_net("q");
        nl.add_gate(
            "u",
            GateKind::Lib(CellKind::And2),
            vec![Conn::plain(a)],
            vec![q],
        );
    }
}
