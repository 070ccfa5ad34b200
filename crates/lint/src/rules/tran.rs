//! Transistor-level rule pack: electrical rule checks over a
//! [`Circuit`], plus the PG-MCML cell-topology rules that need the
//! [`CellNetlist`] port view (differential symmetry — the core DPA
//! rule — and the series-sleep position of topology (d)).

use std::collections::HashSet;

use mcml_cells::CellNetlist;
use mcml_device::MosPolarity;
use mcml_spice::{Circuit, Element, NodeId};

use crate::diag::{Diagnostic, Location, Severity};
use crate::engine::{LintContext, LintTarget, Rule};

/// Every rule of the transistor-level pack, in registration order.
#[must_use]
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(MosFloatingGate),
        Box::new(MosFloatingBulk),
        Box::new(NodeNoDcPath),
        Box::new(VsourceLoop),
        Box::new(DiffSymmetry),
        Box::new(PgSleepMissing),
        Box::new(PgSleepPosition),
        Box::new(PartitionCollapse),
    ]
}

/// How a node is used across the circuit.
#[derive(Default)]
struct NodeUse {
    /// Touched by a terminal that can carry DC current (resistor,
    /// voltage source, MOS drain/source). Capacitors, current sources
    /// and MOS gate/bulk terminals do not count.
    conductive: bool,
    /// Names of MOS devices whose gate sits on the node.
    gates: Vec<String>,
    /// Names of MOS devices whose bulk sits on the node.
    bulks: Vec<String>,
    /// Touched by any element at all.
    touched: bool,
    /// The node's name (captured during the survey; [`NodeId`] has no
    /// public index constructor).
    label: String,
}

fn survey(ckt: &Circuit) -> Vec<NodeUse> {
    let mut uses: Vec<NodeUse> = Vec::new();
    uses.resize_with(ckt.node_count(), NodeUse::default);
    for (_, name, e) in ckt.elements() {
        for n in e.nodes() {
            let u = &mut uses[n.index()];
            u.touched = true;
            if u.label.is_empty() {
                u.label = ckt.node_name(n).to_owned();
            }
        }
        match e {
            Element::Resistor { a, b, .. } => {
                uses[a.index()].conductive = true;
                uses[b.index()].conductive = true;
            }
            Element::Vsource { p, n, .. } => {
                uses[p.index()].conductive = true;
                uses[n.index()].conductive = true;
            }
            Element::Mos { d, g, s, b, .. } => {
                uses[d.index()].conductive = true;
                uses[s.index()].conductive = true;
                uses[g.index()].gates.push(name.to_owned());
                uses[b.index()].bulks.push(name.to_owned());
            }
            _ => {}
        }
    }
    uses
}

/// Node indices exposed as cell ports (externally driven, so they count
/// as anchored even without an internal DC path).
fn port_indices(cell: Option<&CellNetlist>) -> HashSet<usize> {
    cell.map(|c| c.ports.values().map(|n| n.index()).collect())
        .unwrap_or_default()
}

/// Plain union-find over node indices.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n).collect())
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.0[x] != x {
            self.0[x] = self.0[self.0[x]];
            x = self.0[x];
        }
        x
    }

    /// Join two sets; `false` when they were already joined.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.0[ra] = rb;
        true
    }
}

/// The (w, l) geometry multiset of a device group, sorted for
/// order-independent comparison.
fn sorted_geometry(mut v: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite device geometry"));
    v
}

fn fmt_geometry(v: &[(f64, f64)]) -> String {
    let parts: Vec<String> = v
        .iter()
        .map(|&(w, l)| format!("{:.0}n/{:.0}n", w * 1e9, l * 1e9))
        .collect();
    format!("[{}]", parts.join(", "))
}

/// `mos-floating-gate`: a node driven by nothing that only feeds MOS
/// gate terminals — the transistors under it have an undefined
/// operating point.
pub struct MosFloatingGate;

impl Rule for MosFloatingGate {
    fn id(&self) -> &'static str {
        "mos-floating-gate"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "MOS gate node has no conductive connection and is not a port"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Circuit { circuit, cell } = ctx.target else {
            return Vec::new();
        };
        let ports = port_indices(*cell);
        survey(circuit)
            .iter()
            .enumerate()
            .filter(|&(ni, u)| {
                ni != Circuit::GND.index()
                    && !ports.contains(&ni)
                    && !u.conductive
                    && !u.gates.is_empty()
            })
            .map(|(_, u)| Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message: format!(
                    "floating node drives only MOS gates ({})",
                    u.gates.join(", ")
                ),
                location: Location::Node(u.label.clone()),
            })
            .collect()
    }
}

/// `mos-floating-bulk`: like the gate rule, for bulk terminals — an
/// unbiased well.
pub struct MosFloatingBulk;

impl Rule for MosFloatingBulk {
    fn id(&self) -> &'static str {
        "mos-floating-bulk"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "MOS bulk node has no conductive connection and is not a port"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Circuit { circuit, cell } = ctx.target else {
            return Vec::new();
        };
        let ports = port_indices(*cell);
        survey(circuit)
            .iter()
            .enumerate()
            .filter(|&(ni, u)| {
                ni != Circuit::GND.index()
                    && !ports.contains(&ni)
                    && !u.conductive
                    && !u.bulks.is_empty()
            })
            .map(|(_, u)| Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message: format!(
                    "floating node biases only MOS bulks ({})",
                    u.bulks.join(", ")
                ),
                location: Location::Node(u.label.clone()),
            })
            .collect()
    }
}

/// `node-no-dc-path`: a node in the current-carrying part of the
/// circuit whose connected component reaches neither ground nor any
/// port — its DC voltage is undefined and the MNA matrix is singular.
pub struct NodeNoDcPath;

impl Rule for NodeNoDcPath {
    fn id(&self) -> &'static str {
        "node-no-dc-path"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "node has no DC path to ground or to any port"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Circuit { circuit, cell } = ctx.target else {
            return Vec::new();
        };
        let ports = port_indices(*cell);
        let uses = survey(circuit);
        let mut dsu = Dsu::new(circuit.node_count());
        for (_, _, e) in circuit.elements() {
            match e {
                Element::Resistor { a, b, .. } => {
                    dsu.union(a.index(), b.index());
                }
                Element::Vsource { p, n, .. } => {
                    dsu.union(p.index(), n.index());
                }
                Element::Mos { d, s, .. } => {
                    dsu.union(d.index(), s.index());
                }
                _ => {}
            }
        }
        let mut anchored: HashSet<usize> = HashSet::new();
        anchored.insert(dsu.find(Circuit::GND.index()));
        for &p in &ports {
            anchored.insert(dsu.find(p));
        }
        uses.iter()
            .enumerate()
            .filter(|&(ni, u)| {
                // Gate/bulk-only nodes are the floating-gate rules' job.
                ni != Circuit::GND.index() && u.touched && u.conductive && !ports.contains(&ni)
            })
            .filter(|&(ni, _u)| !anchored.contains(&dsu.find(ni)))
            .map(|(_ni, u)| Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message: "no DC path to ground or to any port (undefined bias point)".to_owned(),
                location: Location::Node(u.label.clone()),
            })
            .collect()
    }
}

/// `vsource-loop`: a cycle made purely of voltage sources — the branch
/// currents are indeterminate.
pub struct VsourceLoop;

impl Rule for VsourceLoop {
    fn id(&self) -> &'static str {
        "vsource-loop"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "voltage source closes a loop of voltage sources"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Circuit { circuit, .. } = ctx.target else {
            return Vec::new();
        };
        let mut dsu = Dsu::new(circuit.node_count());
        let mut out = Vec::new();
        for (_, name, e) in circuit.elements() {
            if let Element::Vsource { p, n, .. } = e {
                if !dsu.union(p.index(), n.index()) {
                    out.push(Diagnostic {
                        rule_id: self.id(),
                        severity: self.default_severity(),
                        message: "closes a loop of voltage sources (branch currents are \
                                  indeterminate)"
                            .to_owned(),
                        location: Location::Element(name.to_owned()),
                    });
                }
            }
        }
        out
    }
}

/// `diff-symmetry`: the core DPA rule. For every differential port pair
/// `x_p`/`x_n`, the true and complement rails must present identical
/// device multisets — NMOS gated by each rail (the switching
/// capacitance the attacker's power trace sees) and PMOS loads driving
/// each rail. Any W/L or count imbalance makes the supply-current
/// signature data-dependent.
pub struct DiffSymmetry;

impl DiffSymmetry {
    fn rail_mismatch(circuit: &Circuit, p: NodeId, n: NodeId) -> Option<String> {
        let mut nmos_gate_p = Vec::new();
        let mut nmos_gate_n = Vec::new();
        let mut pmos_drain_p = Vec::new();
        let mut pmos_drain_n = Vec::new();
        for (_, _, e) in circuit.elements() {
            if let Element::Mos { d, g, dev, .. } = e {
                let wl = (dev.geom.w, dev.geom.l);
                match dev.params.polarity {
                    MosPolarity::Nmos => {
                        if *g == p {
                            nmos_gate_p.push(wl);
                        } else if *g == n {
                            nmos_gate_n.push(wl);
                        }
                    }
                    MosPolarity::Pmos => {
                        if *d == p {
                            pmos_drain_p.push(wl);
                        } else if *d == n {
                            pmos_drain_n.push(wl);
                        }
                    }
                }
            }
        }
        let ngp = sorted_geometry(nmos_gate_p);
        let ngn = sorted_geometry(nmos_gate_n);
        if ngp != ngn {
            return Some(format!(
                "NMOS gated by the true/complement rails differ: {} vs {}",
                fmt_geometry(&ngp),
                fmt_geometry(&ngn)
            ));
        }
        let pdp = sorted_geometry(pmos_drain_p);
        let pdn = sorted_geometry(pmos_drain_n);
        if pdp != pdn {
            return Some(format!(
                "PMOS loads on the true/complement rails differ: {} vs {}",
                fmt_geometry(&pdp),
                fmt_geometry(&pdn)
            ));
        }
        None
    }
}

impl Rule for DiffSymmetry {
    fn id(&self) -> &'static str {
        "diff-symmetry"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "differential rail pair presents unbalanced device loads (DPA leakage)"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Circuit {
            circuit,
            cell: Some(cell),
        } = ctx.target
        else {
            return Vec::new();
        };
        if !cell.style.is_differential() {
            return Vec::new();
        }
        let mut bases: Vec<&str> = cell
            .ports
            .keys()
            .filter_map(|k| k.strip_suffix("_p"))
            .filter(|base| cell.ports.contains_key(&format!("{base}_n")))
            .collect();
        bases.sort_unstable();
        bases
            .into_iter()
            .filter_map(|base| {
                let sig = cell.diff_port(base);
                Self::rail_mismatch(circuit, sig.p, sig.n).map(|message| Diagnostic {
                    rule_id: self.id(),
                    severity: self.default_severity(),
                    message,
                    location: Location::Port(base.to_owned()),
                })
            })
            .collect()
    }
}

/// `pg-sleep-missing`: a PG-MCML cell with no transistor gated by its
/// sleep signal — the cell can never be powered down.
pub struct PgSleepMissing;

impl Rule for PgSleepMissing {
    fn id(&self) -> &'static str {
        "pg-sleep-missing"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "power-gated cell has no transistor gated by the sleep signal"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Circuit {
            circuit,
            cell: Some(cell),
        } = ctx.target
        else {
            return Vec::new();
        };
        if !cell.style.is_power_gated() {
            return Vec::new();
        }
        let sleep_nodes: Vec<NodeId> = ["sleep", "sleep_b"]
            .iter()
            .filter_map(|p| cell.ports.get(*p).copied())
            .collect();
        if sleep_nodes.is_empty() {
            return vec![Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message: "power-gated cell exposes neither a `sleep` nor a `sleep_b` port"
                    .to_owned(),
                location: Location::Design,
            }];
        }
        let gated = circuit
            .elements()
            .any(|(_, _, e)| matches!(e, Element::Mos { g, .. } if sleep_nodes.contains(g)));
        if gated {
            Vec::new()
        } else {
            vec![Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message: "no transistor is gated by the sleep signal (cell can never power \
                          down)"
                    .to_owned(),
                location: Location::Design,
            }]
        }
    }
}

/// `pg-sleep-position`: topology (d) requires the sleep transistor in
/// series **above** the tail current source (so its VGS goes negative
/// in sleep and crushes leakage). Applies only to cells whose tails are
/// gated by `vn` (topologies (a)–(c) bias their tails differently and
/// are skipped).
pub struct PgSleepPosition;

impl Rule for PgSleepPosition {
    fn id(&self) -> &'static str {
        "pg-sleep-position"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "sleep transistor is not in series above the tail current source (topology (d))"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Circuit {
            circuit,
            cell: Some(cell),
        } = ctx.target
        else {
            return Vec::new();
        };
        if !cell.style.is_power_gated() {
            return Vec::new();
        }
        let (Some(&sleep), Some(&vn)) = (cell.ports.get("sleep"), cell.ports.get("vn")) else {
            return Vec::new();
        };
        let mut vn_gated = 0usize;
        let mut tail_drains: HashSet<usize> = HashSet::new();
        let mut tails = 0usize;
        let mut sleep_devs: Vec<(String, NodeId)> = Vec::new();
        for (_, name, e) in circuit.elements() {
            let Element::Mos { d, g, s, dev, .. } = e else {
                continue;
            };
            if dev.params.polarity != MosPolarity::Nmos {
                continue;
            }
            if *g == vn {
                vn_gated += 1;
                if s.is_ground() {
                    tails += 1;
                    tail_drains.insert(d.index());
                }
            }
            if *g == sleep {
                sleep_devs.push((name.to_owned(), *s));
            }
        }
        // No vn-gated tail devices: topologies (a)-(c) bias the tail
        // through a local node or the bulk — position rule out of scope.
        if vn_gated == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (name, s) in &sleep_devs {
            if s.is_ground() || !tail_drains.contains(&s.index()) {
                out.push(Diagnostic {
                    rule_id: self.id(),
                    severity: self.default_severity(),
                    message: "sleep transistor is not stacked above a tail current source \
                              (topology (d) puts it between the logic and the tail)"
                        .to_owned(),
                    location: Location::Element(name.clone()),
                });
            }
        }
        if sleep_devs.len() != tails {
            out.push(Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message: format!(
                    "{} sleep transistor(s) for {} tail current source(s); topology (d) \
                     pairs one sleep device with every stage",
                    sleep_devs.len(),
                    tails
                ),
                location: Location::Design,
            });
        }
        out
    }
}

/// Multi-stage circuit whose DC-coupling graph collapses into a single
/// galvanic component.
///
/// MCML stages hand signals forward through MOS **gates** (input-only —
/// no DC current), so a multi-cell design should decompose into one
/// DC-coupled component per stage once the shared rails are split out.
/// When it instead collapses into one component, some net couples the
/// stages galvanically — typically a resistive bridge, a shared bias
/// net that should be a rail, or an output shorted to a neighbour's
/// internal node. For a DPA library that merges current paths that the
/// differential-symmetry argument assumes independent. Stages that feed
/// each other only through gates, even around a loop, stay separate.
///
/// The threshold of 16 devices (~two PG-MCML gates) keeps single-cell
/// targets — which are legitimately one component — out of scope.
struct PartitionCollapse;

/// Smallest MOS count at which a one-component decomposition is
/// suspicious: a single PG-MCML cell tops out below this, so only
/// genuinely multi-stage circuits can trip the rule.
const COLLAPSE_MIN_MOS: usize = 16;

/// Galvanic components of `ckt`, or `None` when its voltage sources do
/// not tie a forest of rails to ground: a source loop or a floating
/// source is a structural defect (the `vsource-loop` and `no-dc-path`
/// rules own those), not a collapse.
///
/// Every node tied to ground through voltage sources is a rail. The
/// free nodes left are joined over every element that carries DC
/// current between two of them: resistors, current sources and MOS
/// drain–source channels; capacitors and gates join nothing. A
/// component counts when it owns an element, that is, when the
/// element's first free KCL row (either terminal of a two-terminal
/// element, the drain or source of a MOS) lies in it. A net that only
/// feeds gates owns none.
fn galvanic_components(ckt: &Circuit) -> Option<usize> {
    let n = ckt.node_count();
    let mut rails = Dsu::new(n);
    let mut source_nodes = Vec::new();
    for (_, _, e) in ckt.elements() {
        if let Element::Vsource { p, n, .. } = e {
            if !rails.union(p.index(), n.index()) {
                return None;
            }
            source_nodes.push(p.index());
        }
    }
    let ground = rails.find(Circuit::GND.index());
    if source_nodes.into_iter().any(|p| rails.find(p) != ground) {
        return None;
    }
    let free: Vec<bool> = (0..n).map(|i| rails.find(i) != ground).collect();
    let rows = |e: &Element| match e {
        Element::Resistor { a, b, .. }
        | Element::Capacitor { a, b, .. }
        | Element::Isource { p: a, n: b, .. } => Some([a.index(), b.index()]),
        Element::Mos { d, s, .. } => Some([d.index(), s.index()]),
        _ => None,
    };
    let mut dsu = Dsu::new(n);
    for (_, _, e) in ckt.elements() {
        if let Some([a, b]) = rows(e) {
            if free[a] && free[b] && !matches!(e, Element::Capacitor { .. }) {
                dsu.union(a, b);
            }
        }
    }
    let mut owners = HashSet::new();
    for (_, _, e) in ckt.elements() {
        if let Some(row) = rows(e).and_then(|r| r.into_iter().find(|&r| free[r])) {
            owners.insert(dsu.find(row));
        }
    }
    Some(owners.len())
}

impl Rule for PartitionCollapse {
    fn id(&self) -> &'static str {
        "partition-collapse"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "multi-stage circuit collapses into one DC-coupled solve block"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Circuit { circuit, .. } = ctx.target else {
            return Vec::new();
        };
        let mos_count = circuit
            .elements()
            .filter(|(_, _, e)| matches!(e, Element::Mos { .. }))
            .count();
        if mos_count < COLLAPSE_MIN_MOS {
            return Vec::new();
        }
        if galvanic_components(circuit).is_none_or(|c| c > 1) {
            return Vec::new();
        }
        vec![Diagnostic {
            rule_id: self.id(),
            severity: self.default_severity(),
            message: format!(
                "{mos_count} MOS devices form a single DC-coupled solve block; a \
                 multi-stage MCML design should split into per-stage blocks at the \
                 rails — look for a resistive bridge or shared bias net coupling \
                 stages galvanically"
            ),
            location: Location::Design,
        }]
    }
}
