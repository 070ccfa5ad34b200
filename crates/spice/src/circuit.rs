//! Circuit construction: named nodes, element builders, validation.

use std::collections::HashMap;

use mcml_device::{Mosfet, Technology};

use crate::element::Element;
use crate::error::SpiceError;
use crate::source::SourceWave;
use crate::Result;

/// Handle to a circuit node. Node 0 is ground.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index (0 = ground).
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Whether this is the ground node.
    #[must_use]
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Handle to an element within its circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

impl ElementId {
    /// Raw index into the circuit's element list.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A flat transistor-level circuit: named nodes plus a list of elements.
///
/// Built programmatically (the cell generators in `mcml-cells` emit these),
/// then analysed with [`Circuit::dc_op`] or [`Circuit::transient`].
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, usize>,
    elements: Vec<(String, Element)>,
    elem_index: HashMap<String, usize>,
    n_branches: usize,
    /// Minimum conductance added from every node to ground for numerical
    /// robustness (SPICE `gmin`).
    pub gmin: f64,
}

impl Circuit {
    /// The ground node, shared by every circuit.
    pub const GND: NodeId = NodeId(0);

    /// An empty circuit.
    #[must_use]
    pub fn new() -> Self {
        let mut node_index = HashMap::new();
        node_index.insert("0".to_owned(), 0);
        Self {
            node_names: vec!["0".to_owned()],
            node_index,
            elements: Vec::new(),
            elem_index: HashMap::new(),
            n_branches: 0,
            gmin: 1e-12,
        }
    }

    /// Get or create the node with the given name. The names `"0"` and
    /// `"gnd"` refer to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Self::GND;
        }
        if let Some(&idx) = self.node_index.get(name) {
            return NodeId(idx);
        }
        let idx = self.node_names.len();
        self.node_names.push(name.to_owned());
        self.node_index.insert(name.to_owned(), idx);
        NodeId(idx)
    }

    /// Create a fresh anonymous node with a unique generated name.
    pub fn fresh_node(&mut self, prefix: &str) -> NodeId {
        let mut i = self.node_names.len();
        loop {
            let name = format!("{prefix}#{i}");
            if !self.node_index.contains_key(&name) {
                return self.node(&name);
            }
            i += 1;
        }
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to this circuit.
    #[must_use]
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Look up an existing node by name.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_index.get(name).map(|&i| NodeId(i))
    }

    /// Number of nodes including ground.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of voltage-source branch unknowns.
    #[must_use]
    pub fn branch_count(&self) -> usize {
        self.n_branches
    }

    /// Number of MNA unknowns (non-ground nodes + branches).
    #[must_use]
    pub fn unknown_count(&self) -> usize {
        self.node_count() - 1 + self.n_branches
    }

    /// Elements in insertion order, with their names.
    pub fn elements(&self) -> impl Iterator<Item = (ElementId, &str, &Element)> {
        self.elements
            .iter()
            .enumerate()
            .map(|(i, (n, e))| (ElementId(i), n.as_str(), e))
    }

    /// Element by id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    #[must_use]
    pub fn element(&self, id: ElementId) -> &Element {
        &self.elements[id.0].1
    }

    /// Mutable element access (used by testbench reconfiguration).
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this circuit.
    #[must_use]
    pub fn element_mut(&mut self, id: ElementId) -> &mut Element {
        &mut self.elements[id.0].1
    }

    /// Element lookup by name.
    #[must_use]
    pub fn find_element(&self, name: &str) -> Option<ElementId> {
        self.elem_index.get(name).map(|&i| ElementId(i))
    }

    fn insert(&mut self, name: &str, e: Element) -> Result<ElementId> {
        if self.elem_index.contains_key(name) {
            return Err(SpiceError::InvalidCircuit(format!(
                "duplicate element name `{name}`"
            )));
        }
        let id = ElementId(self.elements.len());
        self.elem_index.insert(name.to_owned(), id.0);
        self.elements.push((name.to_owned(), e));
        Ok(id)
    }

    fn check_positive(name: &str, what: &str, v: f64) -> Result<()> {
        if !v.is_finite() || v <= 0.0 {
            return Err(SpiceError::InvalidParameter {
                element: name.to_owned(),
                reason: format!("{what} must be positive and finite, got {v}"),
            });
        }
        Ok(())
    }

    /// Add a resistor.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate element name or a non-positive resistance —
    /// these are construction bugs in generator code.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> ElementId {
        Self::check_positive(name, "resistance", ohms)
            .and_then(|()| self.insert(name, Element::Resistor { a, b, ohms }))
            .expect("valid resistor")
    }

    /// Add a capacitor.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name or non-positive capacitance.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) -> ElementId {
        Self::check_positive(name, "capacitance", farads)
            .and_then(|()| self.insert(name, Element::Capacitor { a, b, farads }))
            .expect("valid capacitor")
    }

    /// Add an independent voltage source (positive terminal `p`).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name.
    pub fn vsource(&mut self, name: &str, p: NodeId, n: NodeId, wave: SourceWave) -> ElementId {
        let branch = self.n_branches;
        self.n_branches += 1;
        self.insert(name, Element::Vsource { p, n, wave, branch })
            .expect("valid vsource")
    }

    /// Add an independent current source pushing current from `p` to `n`
    /// through itself.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name.
    pub fn isource(&mut self, name: &str, p: NodeId, n: NodeId, wave: SourceWave) -> ElementId {
        self.insert(name, Element::Isource { p, n, wave })
            .expect("valid isource")
    }

    /// Add a MOSFET (no parasitic capacitors).
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name.
    pub fn mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        dev: Mosfet,
    ) -> ElementId {
        self.insert(name, Element::Mos { d, g, s, b, dev })
            .expect("valid mosfet")
    }

    /// Add a MOSFET together with its estimated parasitic capacitances
    /// (Cgs, Cgd, Cdb, Csb) as linear capacitors, which is what gives the
    /// transient waveforms realistic edges and the delay its load
    /// dependence.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name.
    #[allow(clippy::too_many_arguments)] // name + 4 terminals + device + tech
    pub fn mosfet_with_caps(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        b: NodeId,
        dev: Mosfet,
        tech: &Technology,
    ) -> ElementId {
        let cgs = dev.cgs(tech);
        let cgd = dev.cgd(tech);
        let cdb = dev.cdb(tech);
        let csb = dev.sb_cap(tech);
        let add_cap = |c: &mut Self, suffix: &str, x: NodeId, y: NodeId, val: f64| {
            if x != y && val > 0.0 {
                c.capacitor(&format!("{name}.{suffix}"), x, y, val);
            }
        };
        add_cap(self, "cgs", g, s, cgs);
        add_cap(self, "cgd", g, d, cgd);
        add_cap(self, "cdb", d, b, cdb);
        add_cap(self, "csb", s, b, csb);
        self.insert(name, Element::Mos { d, g, s, b, dev })
            .expect("valid mosfet")
    }

    /// Basic structural validation: at least one element and at least one
    /// source or ground-connected element.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidCircuit`] on an empty circuit.
    pub fn validate(&self) -> Result<()> {
        if self.elements.is_empty() {
            return Err(SpiceError::InvalidCircuit("no elements".to_owned()));
        }
        Ok(())
    }

    /// Merge another circuit into this one, prefixing its node and element
    /// names with `prefix/`; the ground node is shared, and nodes listed in
    /// `connections` are merged with the given existing nodes instead of
    /// being copied.
    ///
    /// Returns a map from the sub-circuit's node ids to the new ids.
    ///
    /// # Panics
    ///
    /// Panics if element names collide after prefixing (generator bug).
    pub fn instantiate(
        &mut self,
        prefix: &str,
        sub: &Circuit,
        connections: &[(NodeId, NodeId)],
    ) -> Vec<NodeId> {
        let mut map: Vec<Option<NodeId>> = vec![None; sub.node_count()];
        map[0] = Some(Self::GND);
        for &(inner, outer) in connections {
            map[inner.0] = Some(outer);
        }
        let mut resolved = Vec::with_capacity(sub.node_count());
        for (idx, slot) in map.iter_mut().enumerate() {
            let id = match *slot {
                Some(id) => id,
                None => {
                    let name = format!("{prefix}/{}", sub.node_names[idx]);
                    self.node(&name)
                }
            };
            *slot = Some(id);
            resolved.push(id);
        }
        let remap = |n: NodeId| resolved[n.0];
        for (name, e) in &sub.elements {
            let new_name = format!("{prefix}/{name}");
            match e {
                Element::Resistor { a, b, ohms } => {
                    self.resistor(&new_name, remap(*a), remap(*b), *ohms);
                }
                Element::Capacitor { a, b, farads } => {
                    self.capacitor(&new_name, remap(*a), remap(*b), *farads);
                }
                Element::Vsource { p, n, wave, .. } => {
                    self.vsource(&new_name, remap(*p), remap(*n), wave.clone());
                }
                Element::Isource { p, n, wave } => {
                    self.isource(&new_name, remap(*p), remap(*n), wave.clone());
                }
                Element::Mos { d, g, s, b, dev } => {
                    self.mosfet(
                        &new_name,
                        remap(*d),
                        remap(*g),
                        remap(*s),
                        remap(*b),
                        dev.clone(),
                    );
                }
            }
        }
        resolved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert_eq!(c.node("0"), Circuit::GND);
        assert_eq!(c.node("gnd"), Circuit::GND);
        assert_eq!(c.node("GND"), Circuit::GND);
        assert!(Circuit::GND.is_ground());
    }

    #[test]
    fn node_creation_is_idempotent() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let a2 = c.node("a");
        assert_eq!(a, a2);
        assert_eq!(c.node_count(), 2);
        assert_eq!(c.node_name(a), "a");
        assert_eq!(c.find_node("a"), Some(a));
        assert_eq!(c.find_node("zz"), None);
    }

    #[test]
    fn fresh_nodes_are_unique() {
        let mut c = Circuit::new();
        let x = c.fresh_node("tmp");
        let y = c.fresh_node("tmp");
        assert_ne!(x, y);
    }

    #[test]
    fn duplicate_element_name_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.resistor("R1", a, Circuit::GND, 1e3);
        let again = std::panic::catch_unwind(move || {
            c.resistor("R1", a, Circuit::GND, 1e3);
        });
        assert!(again.is_err(), "a second `R1` was accepted");
    }

    #[test]
    fn invalid_resistance_rejected() {
        for ohms in [0.0, -5.0, f64::NAN] {
            let added = std::panic::catch_unwind(|| {
                let mut c = Circuit::new();
                let a = c.node("a");
                c.resistor("R", a, Circuit::GND, ohms);
            });
            assert!(added.is_err(), "{ohms} Ω accepted");
        }
    }

    #[test]
    fn branch_indices_count_up() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::GND, SourceWave::dc(1.0));
        c.vsource("V2", b, Circuit::GND, SourceWave::dc(2.0));
        assert_eq!(c.branch_count(), 2);
        assert_eq!(c.unknown_count(), 2 + 2);
    }

    #[test]
    fn validate_empty_circuit_fails() {
        assert!(Circuit::new().validate().is_err());
    }

    #[test]
    fn instantiate_merges_and_prefixes() {
        let mut sub = Circuit::new();
        let sin = sub.node("in");
        let sout = sub.node("out");
        sub.resistor("R", sin, sout, 1e3);

        let mut top = Circuit::new();
        let tin = top.node("top_in");
        let nodes = top.instantiate("u1", &sub, &[(sin, tin)]);
        assert_eq!(nodes[sin.0], tin, "connected node mapped");
        assert!(top.find_node("u1/out").is_some(), "inner node prefixed");
        assert!(top.find_element("u1/R").is_some(), "element prefixed");
    }
}
