//! Connected-component / block-triangular partitioning of the MNA solve.
//!
//! MCML and PG-MCML netlists are naturally block-structured: each cell is
//! a differential island whose only couplings to the rest of the design
//! are the shared supply rails (held by voltage sources) and the
//! high-impedance gate inputs of downstream cells. Splitting the node
//! graph at the rail nodes therefore decomposes the MNA system into
//! small, nearly independent blocks — and because a MOSFET's gate and
//! bulk terminals carry no current (they contribute Jacobian *columns*
//! to the drain/source rows but no KCL row entries of their own), the
//! inter-block coupling is strictly one-directional: upstream outputs
//! feed downstream gates, never the reverse. The quotient graph over
//! blocks is a DAG (after merging the rare strongly-connected cluster,
//! e.g. a latch coupled only through gates), so a single topological
//! sweep per time step solves every block against already-final upstream
//! interface voltages. No inner relaxation loop is needed; the result
//! matches the monolithic Newton solve to solver tolerance.
//!
//! # Splitting rule
//!
//! 1. **Pin the rails.** Run a fixpoint over the voltage sources: a
//!    source with one terminal at ground (or at an already-pinned node)
//!    pins its other terminal to a known waveform — a *chain* of source
//!    values. Sources forming a loop, or floating between two free
//!    nodes, abort partitioning (the monolithic path handles them).
//! 2. **Union the free nodes** over the bidirectional couplings:
//!    resistors, capacitors and current sources between two free nodes,
//!    and the drain–source pair of every MOSFET.
//! 3. **Direct the gate edges.** A free gate (or bulk) node in component
//!    `A` driving a device whose channel lives in component `B` adds the
//!    edge `A → B`. Strongly-connected components of this quotient graph
//!    are merged into one block; the condensation is topologically
//!    ordered, upstream first.
//!
//! # Block sub-circuits
//!
//! Each block owns a real [`Circuit`] holding its elements verbatim; any
//! terminal outside the block (a pinned rail or an upstream free node)
//! becomes a local boundary node held by a *replica* voltage source
//! whose DC value is rewritten before every solve. The block then runs
//! the ordinary damped-Newton [`Engine`] — stamp plan, sparse/dense LU,
//! quiescent-MOS bypass and per-block exact factor reuse all come along
//! for free, and a block small enough for the dense LU takes it.
//!
//! # Event-driven scheduling and the skip rule
//!
//! The blocks of one circuit form a *partitioned lane*: the same
//! try/commit solver the transient march drives for a monolithic
//! circuit, so grid, subdivision and recording are the march's.
//!
//! Per committed sub-step, a block is re-solved only when it is not yet
//! settled (its last solve still moved some node voltage by more than
//! `VTOL`) or some boundary input moved by more than the skip tolerance
//! (the bypass tolerance when enabled, else `VTOL`) since the last
//! solve; otherwise its cached solution is replayed and only its
//! companion states advance (exact under frozen voltages). The identity
//! `block_solves + block_skips == blocks × committed sub-steps` holds
//! per run. Supply currents are reconstructed exactly from the replica
//! branch currents: KCL at each rail node determines the global source
//! currents by a leaves-first sweep over the pinning forest, with
//! rail-to-rail elements evaluated directly and a `(1 − replicas)·gmin`
//! correction so the accounting matches the monolithic gmin row.

use std::collections::HashMap;

use crate::analysis::dc::branch_map;
use crate::analysis::engine::{
    companion_terms, init_cap_states, v_node, CapState, CompanionCtx, Engine, VTOL,
};
use crate::analysis::march::{update_caps, Lane};
use crate::analysis::tran::TranOptions;
use crate::circuit::{Circuit, ElementId, NodeId};
use crate::element::Element;
use crate::source::SourceWave;
use crate::Result;

/// A node's role in the partition.
#[derive(Debug, Clone, Copy)]
enum NodeClass {
    Ground,
    /// Held by a voltage-source chain; index into `PartitionStructure::pins`.
    Pinned(usize),
    /// Free unknown; member of the given solve block.
    #[allow(dead_code)] // block id kept for diagnostics
    Free(usize),
}

/// A rail node pinned by the voltage-source fixpoint.
#[derive(Debug, Clone)]
struct Pin {
    /// Global node index of the pinned node.
    node: usize,
    /// The voltage source that pinned it.
    elem: ElementId,
    /// +1 when `node` is the source's positive terminal.
    sign: f64,
    /// Global node index of the other (parent) terminal; 0 = ground.
    parent: usize,
    /// `v(node, t) = Σ sign_i · wave_i(t)` over the chain to ground.
    chain: Vec<(f64, ElementId)>,
}

/// Which boundary value a replica source mirrors.
#[derive(Debug, Clone, Copy)]
enum Boundary {
    /// A pinned rail; index into `PartitionStructure::pins`.
    Pin(usize),
    /// A free node outside this block; global unknown index (`node - 1`).
    Upstream(usize),
}

/// One solve block of the condensed quotient DAG, in topological order.
#[derive(Debug, Clone)]
struct BlockStructure {
    /// Global node indices of the member free nodes.
    members: Vec<usize>,
    /// Global element ids owned by this block, in circuit order.
    elems: Vec<ElementId>,
    /// Boundary nodes referenced by the block's elements, in the order
    /// their replica sources are created (global node index + value).
    boundaries: Vec<(usize, Boundary)>,
    /// True when the block contains a time-varying current source and
    /// must re-solve every sub-step regardless of its inputs.
    always_active: bool,
}

/// Topology-only partition of a circuit: which nodes are pinned rails,
/// which elements form each block and in what order the blocks solve.
#[derive(Debug, Clone)]
pub(crate) struct PartitionStructure {
    class: Vec<NodeClass>,
    /// Pins in pinning order (parents before children).
    pins: Vec<Pin>,
    /// Blocks in topological order (upstream first).
    blocks: Vec<BlockStructure>,
    /// Elements with every terminal on a rail or ground, excluded from
    /// all blocks and evaluated directly during supply accounting.
    rail_elems: Vec<ElementId>,
    /// Free nodes in element-less components, frozen at the operating
    /// point (the monolithic system holds them through gmin alone).
    #[allow(dead_code)] // diagnostic surface; the march never touches them
    inert_nodes: Vec<usize>,
}

/// Union-find over node indices.
struct Dsu(Vec<usize>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n).collect())
    }

    fn find(&mut self, mut a: usize) -> usize {
        while self.0[a] != a {
            self.0[a] = self.0[self.0[a]];
            a = self.0[a];
        }
        a
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.0[ra] = rb;
        }
    }
}

/// Iterative Tarjan SCC over a small digraph; returns `(scc count, scc
/// id per vertex)` with ids in *reverse* topological order of the
/// condensation (every edge points to an equal-or-lower id).
fn tarjan_scc(n: usize, adj: &[Vec<usize>]) -> (usize, Vec<usize>) {
    const UNSEEN: usize = usize::MAX;
    let mut index = vec![UNSEEN; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut scc_of = vec![UNSEEN; n];
    let (mut next_index, mut next_scc) = (0usize, 0usize);
    // Explicit DFS frames: (vertex, next child position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSEEN {
            continue;
        }
        index[start] = next_index;
        low[start] = next_index;
        next_index += 1;
        stack.push(start);
        on_stack[start] = true;
        frames.push((start, 0));
        while let Some(&(v, ci)) = frames.last() {
            if let Some(&w) = adj[v].get(ci) {
                frames.last_mut().expect("frame exists").1 += 1;
                if index[w] == UNSEEN {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(p, _)) = frames.last() {
                low[p] = low[p].min(low[v]);
            }
            if low[v] == index[v] {
                loop {
                    let w = stack.pop().expect("SCC root on stack");
                    on_stack[w] = false;
                    scc_of[w] = next_scc;
                    if w == v {
                        break;
                    }
                }
                next_scc += 1;
            }
        }
    }
    (next_scc, scc_of)
}

impl PartitionStructure {
    /// Build the partition for a circuit, or `None` when the circuit
    /// does not usefully partition (voltage-source loop or floating
    /// source, or at most one solve block) and the monolithic path
    /// should run instead. `include_caps` controls whether capacitors
    /// count as bidirectional couplings: the solver requires it (their
    /// companion conductances stamp off-diagonals); the lint report
    /// turns it off to expose the DC-coupling structure.
    pub(crate) fn build(ckt: &Circuit, include_caps: bool) -> Option<Self> {
        let n = ckt.node_count();

        // 1. Pin rails via the voltage-source fixpoint.
        let mut pin_of: Vec<Option<usize>> = vec![None; n];
        let mut pins: Vec<Pin> = Vec::new();
        let vsources: Vec<(ElementId, usize, usize)> = ckt
            .elements()
            .filter_map(|(id, _, e)| match e {
                Element::Vsource { p, n, .. } => Some((id, p.index(), n.index())),
                _ => None,
            })
            .collect();
        let mut done = vec![false; vsources.len()];
        let mut remaining = vsources.len();
        loop {
            let mut progressed = false;
            for (k, &(id, p, q)) in vsources.iter().enumerate() {
                if done[k] {
                    continue;
                }
                let p_known = p == 0 || pin_of[p].is_some();
                let q_known = q == 0 || pin_of[q].is_some();
                match (p_known, q_known) {
                    (true, true) => return None, // source loop between rails
                    (false, false) => {}
                    (true, false) | (false, true) => {
                        let (child, parent, sign) =
                            if q_known { (p, q, 1.0) } else { (q, p, -1.0) };
                        let mut chain = match pin_of[parent] {
                            Some(pi) => pins[pi].chain.clone(),
                            None => Vec::new(),
                        };
                        chain.push((sign, id));
                        pin_of[child] = Some(pins.len());
                        pins.push(Pin {
                            node: child,
                            elem: id,
                            sign,
                            parent,
                            chain,
                        });
                        done[k] = true;
                        remaining -= 1;
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        if remaining > 0 {
            return None; // floating source between two free nodes
        }

        // 2. Union free nodes over bidirectional couplings.
        let free = |idx: usize| idx != 0 && pin_of[idx].is_none();
        let mut dsu = Dsu::new(n);
        for (_, _, e) in ckt.elements() {
            match e {
                Element::Resistor { a, b, .. } | Element::Isource { p: a, n: b, .. } => {
                    if free(a.index()) && free(b.index()) {
                        dsu.union(a.index(), b.index());
                    }
                }
                Element::Capacitor { a, b, .. } => {
                    if include_caps && free(a.index()) && free(b.index()) {
                        dsu.union(a.index(), b.index());
                    }
                }
                Element::Mos { d, s, .. } => {
                    if free(d.index()) && free(s.index()) {
                        dsu.union(d.index(), s.index());
                    }
                }
                Element::Vsource { .. } => {}
            }
        }
        let mut comp_of: Vec<Option<usize>> = vec![None; n];
        let mut comp_ids: HashMap<usize, usize> = HashMap::new();
        for (idx, slot) in comp_of.iter_mut().enumerate().skip(1) {
            if free(idx) {
                let root = dsu.find(idx);
                let next = comp_ids.len();
                let id = *comp_ids.entry(root).or_insert(next);
                *slot = Some(id);
            }
        }
        let n_comps = comp_ids.len();

        // 3. Element ownership: the component of any free *row* terminal
        //    (KCL rows: both terminals for R/C/I, drain/source for MOS —
        //    gate and bulk stamp no rows of their own).
        let owner = |e: &Element| -> Option<usize> {
            let rows: [usize; 2] = match e {
                Element::Resistor { a, b, .. }
                | Element::Capacitor { a, b, .. }
                | Element::Isource { p: a, n: b, .. } => [a.index(), b.index()],
                Element::Mos { d, s, .. } => [d.index(), s.index()],
                Element::Vsource { .. } => return None,
            };
            rows.iter().find_map(|&r| comp_of[r])
        };

        // 4. Direct gate/bulk edges between components and condense.
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_comps];
        for (_, _, e) in ckt.elements() {
            if let Element::Mos { g, b, .. } = e {
                let Some(to) = owner(e) else { continue };
                for &inp in &[g.index(), b.index()] {
                    if let Some(from) = comp_of[inp] {
                        if from != to {
                            adj[from].push(to);
                        }
                    }
                }
            }
        }
        let (n_sccs, scc_of) = tarjan_scc(n_comps, &adj);
        // Tarjan ids are reverse-topological (downstream first); flip so
        // block 0 is the most upstream.
        let block_id = |comp: usize| n_sccs - 1 - scc_of[comp];

        let mut blocks: Vec<BlockStructure> = (0..n_sccs)
            .map(|_| BlockStructure {
                members: Vec::new(),
                elems: Vec::new(),
                boundaries: Vec::new(),
                always_active: false,
            })
            .collect();
        for (idx, comp) in comp_of.iter().enumerate().skip(1) {
            if let Some(c) = *comp {
                blocks[block_id(c)].members.push(idx);
            }
        }
        let mut rail_elems: Vec<ElementId> = Vec::new();
        for (id, _, e) in ckt.elements() {
            if matches!(e, Element::Vsource { .. }) {
                continue; // every source is a pinning edge by now
            }
            let Some(c) = owner(e) else {
                rail_elems.push(id);
                continue;
            };
            let b = block_id(c);
            blocks[b].elems.push(id);
            if let Element::Isource { wave, .. } = e {
                if !matches!(wave, SourceWave::Dc(_)) {
                    blocks[b].always_active = true;
                }
            }
            // Record this element's out-of-block terminals as boundary
            // nodes, in deterministic first-reference order.
            for tn in e.nodes() {
                let tn = tn.index();
                if tn == 0 {
                    continue;
                }
                let boundary = match (pin_of[tn], comp_of[tn]) {
                    (Some(pi), _) => Some(Boundary::Pin(pi)),
                    (None, Some(c2)) if block_id(c2) != b => Some(Boundary::Upstream(tn - 1)),
                    _ => None,
                };
                if let Some(src) = boundary {
                    let blk = &mut blocks[b];
                    if !blk.boundaries.iter().any(|&(g, _)| g == tn) {
                        blk.boundaries.push((tn, src));
                    }
                }
            }
        }

        // 5. Drop element-less blocks (floating gate nets): the
        //    monolithic system holds them at 0 V through gmin alone, so
        //    they stay frozen at the operating point.
        let mut inert_nodes = Vec::new();
        let mut kept: Vec<BlockStructure> = Vec::new();
        let mut kept_id: Vec<Option<usize>> = vec![None; n_sccs];
        for (b, blk) in blocks.into_iter().enumerate() {
            if blk.elems.is_empty() {
                inert_nodes.extend(blk.members);
            } else {
                kept_id[b] = Some(kept.len());
                kept.push(blk);
            }
        }
        if kept.len() <= 1 {
            return None; // single block: the monolithic plan IS the block
        }

        let mut class = vec![NodeClass::Ground; n];
        for (pi, p) in pins.iter().enumerate() {
            class[p.node] = NodeClass::Pinned(pi);
        }
        for idx in 1..n {
            if let Some(c) = comp_of[idx] {
                if let Some(k) = kept_id[block_id(c)] {
                    class[idx] = NodeClass::Free(k);
                }
            }
        }
        Some(PartitionStructure {
            class,
            pins,
            blocks: kept,
            rail_elems,
            inert_nodes,
        })
    }

    /// Number of solve blocks.
    pub(crate) fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// `v(node, t)` of a pinned rail from its source chain.
    fn pin_value(&self, ckt: &Circuit, pi: usize, t: f64) -> f64 {
        self.pins[pi]
            .chain
            .iter()
            .map(|&(sign, id)| match ckt.element(id) {
                Element::Vsource { wave, .. } => sign * wave.value(t),
                _ => unreachable!("pin chains reference voltage sources"),
            })
            .sum()
    }
}

/// How one block fared in the current sub-step attempt.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Skip,
    /// Solved; payload: whether the solve left the block settled.
    Solved(bool),
}

/// A boundary replica source inside a block's local circuit.
#[derive(Debug, Clone, Copy)]
struct Replica {
    /// Local element id of the replica voltage source.
    elem: ElementId,
    /// Local branch unknown index.
    branch: usize,
    /// Local *unknown* index of the boundary node it holds.
    node_unk: usize,
}

/// Per-block mutable solver state: an owned sub-circuit behind its own
/// engine (own stamp plan, LU factors and MOS bypass cache), the
/// committed/trial local states, and the skip bookkeeping.
struct BlockRuntime {
    engine: Engine<Circuit>,
    /// Committed local state at the last accepted time point.
    x: Vec<f64>,
    /// Trial state for the in-flight sub-step attempt.
    x_try: Vec<f64>,
    caps: Vec<Option<CapState>>,
    /// `(local unknown, global unknown)` pairs for the member free nodes.
    copy_out: Vec<(usize, usize)>,
    /// Replica sources in `boundaries` order.
    replicas: Vec<Replica>,
    /// Replica branch taps at pinned rails: `(local branch unknown,
    /// pin index)` — the block's exact current draw from each rail.
    rail_taps: Vec<(usize, usize)>,
    /// Boundary values at the last committed solve (NaN before the
    /// first, which forces the initial solve), compared against the
    /// skip tolerance.
    last_inputs: Vec<f64>,
    /// Boundary values of the in-flight attempt, committed on accept.
    try_inputs: Vec<f64>,
    settled: bool,
    pending: Pending,
}

impl BlockRuntime {
    fn build(ckt: &Circuit, blk: &BlockStructure) -> Self {
        let mut local = Circuit::new();
        local.gmin = ckt.gmin;
        let mut node_map: HashMap<usize, NodeId> = HashMap::new();
        // Boundary nodes first, each held by a replica source.
        let mut replicas = Vec::with_capacity(blk.boundaries.len());
        let mut rail_taps = Vec::new();
        for &(gn, src) in &blk.boundaries {
            let ln = local.node(ckt.node_name(NodeId(gn)));
            let branch = local.branch_count();
            let elem = local.vsource(
                &format!("__bnd/{}", ckt.node_name(NodeId(gn))),
                ln,
                Circuit::GND,
                SourceWave::Dc(0.0),
            );
            replicas.push(Replica {
                elem,
                branch,
                node_unk: ln.index() - 1,
            });
            if let Boundary::Pin(pi) = src {
                rail_taps.push((branch, pi));
            }
            node_map.insert(gn, ln);
        }
        let mut map_node = |local: &mut Circuit, n: NodeId| -> NodeId {
            if n.is_ground() {
                return Circuit::GND;
            }
            *node_map
                .entry(n.index())
                .or_insert_with(|| local.node(ckt.node_name(n)))
        };
        for &id in &blk.elems {
            let name = ckt
                .elements()
                .nth(id.index())
                .map(|(_, n, _)| n.to_owned())
                .expect("owned element exists");
            match ckt.element(id) {
                Element::Resistor { a, b, ohms } => {
                    let (a, b) = (map_node(&mut local, *a), map_node(&mut local, *b));
                    local.resistor(&name, a, b, *ohms);
                }
                Element::Capacitor { a, b, farads } => {
                    let (a, b) = (map_node(&mut local, *a), map_node(&mut local, *b));
                    local.capacitor(&name, a, b, *farads);
                }
                Element::Isource { p, n, wave } => {
                    let wave = wave.clone();
                    let (p, n) = (map_node(&mut local, *p), map_node(&mut local, *n));
                    local.isource(&name, p, n, wave);
                }
                Element::Mos { d, g, s, b, dev } => {
                    let dev = dev.clone();
                    let (d, g) = (map_node(&mut local, *d), map_node(&mut local, *g));
                    let (s, b) = (map_node(&mut local, *s), map_node(&mut local, *b));
                    local.mosfet(&name, d, g, s, b, dev);
                }
                Element::Vsource { .. } => unreachable!("blocks own no voltage sources"),
            }
        }
        let copy_out: Vec<(usize, usize)> = blk
            .members
            .iter()
            .map(|&gn| {
                let ln = node_map
                    .get(&gn)
                    .copied()
                    .expect("every member node is referenced by an owned element");
                (ln.index() - 1, gn - 1)
            })
            .collect();
        let n_unk = local.unknown_count();
        let n_bounds = blk.boundaries.len();
        BlockRuntime {
            engine: Engine::new(local),
            x: vec![0.0; n_unk],
            x_try: vec![0.0; n_unk],
            caps: Vec::new(),
            copy_out,
            replicas,
            rail_taps,
            last_inputs: vec![f64::NAN; n_bounds],
            try_inputs: Vec::with_capacity(n_bounds),
            settled: false,
            pending: Pending::Skip,
        }
    }

    /// Seed the local state from the global operating point and
    /// initialise companion states. Replica branch currents start at 0;
    /// the first (forced) solve produces them.
    fn seed(&mut self, x_global: &[f64], inputs: &[f64]) {
        for &(li, gi) in &self.copy_out {
            self.x[li] = x_global[gi];
        }
        let nn = self.engine.n_node_unk;
        for (r, &v) in self.replicas.iter().zip(inputs) {
            self.x[r.node_unk] = v;
            self.x[nn + r.branch] = 0.0;
        }
        self.caps = init_cap_states(&self.engine.ckt, &self.x);
    }
}

/// Rail-to-rail capacitor state tracked outside any block.
struct RailCap {
    a: NodeId,
    b: NodeId,
    state: CapState,
    /// Companion current from `a` to `b` at the last accepted time
    /// point, for the rails' branch-current reconstruction.
    i: f64,
}

/// A partitioned lane: the block scheduler behind the march's
/// try/commit interface. A trial stages the candidate global state,
/// sweeps the blocks upstream first and either skips or solves each one;
/// nothing committed changes until [`Lane::commit`].
pub(crate) struct PartLane<'a> {
    ckt: &'a Circuit,
    structure: &'a PartitionStructure,
    /// Quiescent-MOS bypass tolerance (V); `0.0` disables it.
    bypass_tol: f64,
    /// Boundary movement below which a settled block is skipped: the
    /// bypass tolerance when enabled, else `VTOL`.
    skip_tol: f64,
    runtimes: Vec<BlockRuntime>,
    rail_caps: Vec<RailCap>,
    /// Replica count per pin, for the gmin accounting correction.
    n_replicas: Vec<u64>,
    /// Committed global state (branch currents stay at the operating
    /// point's; [`Lane::record`] reconstructs them).
    x: Vec<f64>,
    /// Candidate global state of the in-flight trial.
    x_stage: Vec<f64>,
    block_solves: u64,
    block_skips: u64,
}

impl<'a> PartLane<'a> {
    /// Build the per-block runtimes and rail-element state from the
    /// operating point `x0`, under the partition span.
    pub(crate) fn new(
        ckt: &'a Circuit,
        structure: &'a PartitionStructure,
        x0: &[f64],
        opts: &TranOptions,
    ) -> Self {
        let _span = mcml_obs::span(mcml_obs::Stage::Partition);
        let bypass_tol = opts.bypass_vtol;
        let runtimes: Vec<BlockRuntime> = structure
            .blocks
            .iter()
            .map(|blk| {
                let mut rt = BlockRuntime::build(ckt, blk);
                let inputs: Vec<f64> = blk
                    .boundaries
                    .iter()
                    .map(|&(_, src)| match src {
                        Boundary::Pin(pi) => structure.pin_value(ckt, pi, 0.0),
                        Boundary::Upstream(gu) => x0[gu],
                    })
                    .collect();
                rt.seed(x0, &inputs);
                rt
            })
            .collect();
        let rail_caps = structure
            .rail_elems
            .iter()
            .filter_map(|&id| match ckt.element(id) {
                Element::Capacitor { a, b, farads } => Some(RailCap {
                    a: *a,
                    b: *b,
                    state: CapState {
                        c: *farads,
                        prev_v: v_node(x0, *a) - v_node(x0, *b),
                    },
                    i: 0.0,
                }),
                _ => None,
            })
            .collect();
        let mut n_replicas = vec![0u64; structure.pins.len()];
        for rt in &runtimes {
            for &(_, pi) in &rt.rail_taps {
                n_replicas[pi] += 1;
            }
        }
        mcml_obs::add(
            mcml_obs::Counter::PartitionBlocks,
            structure.n_blocks() as u64,
        );
        PartLane {
            ckt,
            structure,
            bypass_tol,
            skip_tol: if bypass_tol > 0.0 { bypass_tol } else { VTOL },
            runtimes,
            rail_caps,
            n_replicas,
            x: x0.to_vec(),
            x_stage: x0.to_vec(),
            block_solves: 0,
            block_skips: 0,
        }
    }
}

impl Lane for PartLane<'_> {
    fn try_step(&mut self, t: f64, h: f64) -> Result<()> {
        let tol = self.bypass_tol;
        let PartLane {
            ckt,
            structure,
            skip_tol,
            runtimes,
            x,
            x_stage,
            ..
        } = self;
        x_stage.copy_from_slice(x);
        for (pi, pin) in structure.pins.iter().enumerate() {
            x_stage[pin.node - 1] = structure.pin_value(ckt, pi, t);
        }
        for (rt, blk) in runtimes.iter_mut().zip(&structure.blocks) {
            rt.try_inputs.clear();
            for &(_, src) in &blk.boundaries {
                rt.try_inputs.push(match src {
                    Boundary::Pin(pi) => structure.pin_value(ckt, pi, t),
                    Boundary::Upstream(gu) => x_stage[gu],
                });
            }
            let unchanged = rt
                .try_inputs
                .iter()
                .zip(&rt.last_inputs)
                .all(|(a, b)| (a - b).abs() <= *skip_tol);
            if rt.settled && !blk.always_active && unchanged {
                rt.pending = Pending::Skip;
                continue;
            }
            for (r, &v) in rt.replicas.iter().zip(&rt.try_inputs) {
                if let Element::Vsource { wave, .. } = rt.engine.ckt_mut().element_mut(r.elem) {
                    *wave = SourceWave::Dc(v);
                }
            }
            rt.x_try.clone_from(&rt.x);
            let ctx = CompanionCtx { h, caps: &rt.caps };
            rt.engine
                .solve_nr(&mut rt.x_try, t, Some(&ctx), ckt.gmin, 1.0, tol, "tran")?;
            let nn = rt.engine.n_node_unk;
            let settled = rt.x_try[..nn]
                .iter()
                .zip(&rt.x[..nn])
                .all(|(a, b)| (a - b).abs() <= VTOL);
            for &(li, gi) in &rt.copy_out {
                x_stage[gi] = rt.x_try[li];
            }
            rt.pending = Pending::Solved(settled);
        }
        Ok(())
    }

    fn trial(&self) -> &[f64] {
        &self.x_stage
    }

    fn commit(&mut self, h: f64) {
        for rt in &mut self.runtimes {
            match rt.pending {
                Pending::Skip => {
                    self.block_skips += 1;
                    // Companion states still advance — exact under
                    // frozen node voltages.
                    update_caps(&rt.engine.ckt, &mut rt.caps, &rt.x);
                }
                Pending::Solved(settled) => {
                    self.block_solves += 1;
                    update_caps(&rt.engine.ckt, &mut rt.caps, &rt.x_try);
                    rt.x.clone_from(&rt.x_try);
                    rt.settled = settled;
                    std::mem::swap(&mut rt.last_inputs, &mut rt.try_inputs);
                }
            }
        }
        for rc in &mut self.rail_caps {
            let v_now = v_node(&self.x_stage, rc.a) - v_node(&self.x_stage, rc.b);
            let (geq, hist) = companion_terms(&rc.state, h);
            rc.i = geq * v_now + hist;
            rc.state.prev_v = v_now;
        }
        self.x.copy_from_slice(&self.x_stage);
    }

    fn state(&self) -> &[f64] {
        &self.x
    }

    fn record(&self, t: f64) -> Vec<f64> {
        let mut rec = self.x.clone();
        reconstruct_branch_currents(
            self.ckt,
            self.structure,
            &self.runtimes,
            &self.rail_caps,
            &self.n_replicas,
            t,
            &mut rec,
        );
        rec
    }
}

impl Drop for PartLane<'_> {
    /// The lane's block tallies reach `mcml-obs` once, however the
    /// march ends.
    fn drop(&mut self) {
        mcml_obs::add(mcml_obs::Counter::BlockSolves, self.block_solves);
        mcml_obs::add(mcml_obs::Counter::BlockSkips, self.block_skips);
    }
}

/// Fill the global voltage-source branch currents of a recorded state by
/// KCL at every pinned rail: sum the replica branch taps (each block's
/// exact draw), the directly evaluated rail-to-rail element currents and
/// the gmin correction, then sweep the pinning forest leaves-first.
fn reconstruct_branch_currents(
    ckt: &Circuit,
    structure: &PartitionStructure,
    runtimes: &[BlockRuntime],
    rail_caps: &[RailCap],
    n_replicas: &[u64],
    t: f64,
    rec: &mut [f64],
) {
    let n_node_unk = ckt.node_count() - 1;
    // acc[pi] = total current demanded at the rail, excluding the global
    // voltage sources themselves. The monolithic KCL row at a rail node
    // carries exactly one gmin term; each block replica already absorbed
    // one locally, hence the (1 - replicas) correction.
    let mut acc: Vec<f64> = structure
        .pins
        .iter()
        .enumerate()
        .map(|(pi, pin)| (1.0 - n_replicas[pi] as f64) * ckt.gmin * rec[pin.node - 1])
        .collect();
    for rt in runtimes {
        let nn = rt.engine.n_node_unk;
        for &(branch, pi) in &rt.rail_taps {
            // The replica branch current satisfies the block's local KCL
            // at the rail: -i_br = current leaving the rail into the
            // block (including the block's own gmin row there).
            acc[pi] -= rt.x[nn + branch];
        }
    }
    let pin_idx = |node: NodeId| -> Option<usize> {
        match structure.class[node.index()] {
            NodeClass::Pinned(pi) => Some(pi),
            _ => None,
        }
    };
    let leave = |acc: &mut Vec<f64>, node: NodeId, i: f64| {
        if let Some(pi) = pin_idx(node) {
            acc[pi] += i;
        }
    };
    for &id in &structure.rail_elems {
        match ckt.element(id) {
            Element::Resistor { a, b, ohms } => {
                let i = (v_node(rec, *a) - v_node(rec, *b)) / ohms;
                leave(&mut acc, *a, i);
                leave(&mut acc, *b, -i);
            }
            Element::Capacitor { .. } => {} // handled via rail_caps below
            Element::Isource { p, n, wave } => {
                let i = wave.value(t);
                leave(&mut acc, *p, i);
                leave(&mut acc, *n, -i);
            }
            Element::Mos { d, g, s, b, dev } => {
                let e = dev.eval(
                    v_node(rec, *g),
                    v_node(rec, *d),
                    v_node(rec, *s),
                    v_node(rec, *b),
                );
                leave(&mut acc, *d, e.id);
                leave(&mut acc, *s, -e.id);
            }
            Element::Vsource { .. } => {}
        }
    }
    for rc in rail_caps {
        leave(&mut acc, rc.a, rc.i);
        leave(&mut acc, rc.b, -rc.i);
    }
    // Leaves-first sweep: children were pinned after their parents, so
    // reverse pinning order resolves every child branch before its
    // parent's KCL needs it. The branch current is defined flowing
    // p -> n through the source; sigma(V, child) = pin.sign.
    let branch_of = branch_map(ckt);
    for (pi, pin) in structure.pins.iter().enumerate().rev() {
        let i_br = -pin.sign * acc[pi];
        let branch = branch_of[pin.elem.index()].expect("pin sources carry a branch");
        rec[n_node_unk + branch] = i_br;
        if pin.parent != 0 {
            if let NodeClass::Pinned(ppi) = structure.class[pin.parent] {
                // sigma(V, parent) = -sigma(V, child).
                acc[ppi] += -pin.sign * i_br;
            }
        }
    }
}

/// Public summary of how a circuit's MNA system decomposes into solve
/// blocks — the surface behind `mcml-lint`'s partition report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionReport {
    /// Number of solve blocks (1 when the design collapses into a single
    /// component or partitioning had to fall back).
    pub blocks: usize,
    /// Free nodes per block, largest first.
    pub block_sizes: Vec<usize>,
    /// Rail nodes pinned by voltage-source chains.
    pub rail_nodes: usize,
    /// True when the solver would fall back to the monolithic path for a
    /// structural reason (voltage-source loop or floating source) rather
    /// than because the design is one block.
    pub fallback: bool,
}

/// Analyse how `ckt` partitions into solve blocks. With
/// `dc_coupling_only`, capacitors are ignored as couplings, exposing the
/// DC connectivity that a differential-design audit cares about (a
/// parasitic gate–drain capacitor merges blocks for the solver but is
/// not a galvanic bridge).
#[must_use]
pub fn partition_report(ckt: &Circuit, dc_coupling_only: bool) -> PartitionReport {
    match PartitionStructure::build(ckt, !dc_coupling_only) {
        Some(s) => {
            let mut sizes: Vec<usize> = s.blocks.iter().map(|b| b.members.len()).collect();
            sizes.sort_unstable_by(|a, b| b.cmp(a));
            PartitionReport {
                blocks: s.blocks.len(),
                block_sizes: sizes,
                rail_nodes: s.pins.len(),
                fallback: false,
            }
        }
        None => {
            // Distinguish "genuinely one block" from a structural
            // fallback by re-running just the pinning fixpoint.
            let (rails, fallback, free_nodes) = pin_summary(ckt);
            PartitionReport {
                blocks: usize::from(free_nodes > 0),
                block_sizes: if free_nodes > 0 {
                    vec![free_nodes]
                } else {
                    Vec::new()
                },
                rail_nodes: rails,
                fallback,
            }
        }
    }
}

/// Pinning fixpoint only: `(rail count, structural fallback?, free nodes)`.
fn pin_summary(ckt: &Circuit) -> (usize, bool, usize) {
    let n = ckt.node_count();
    let mut pinned = vec![false; n];
    let vsources: Vec<(usize, usize)> = ckt
        .elements()
        .filter_map(|(_, _, e)| match e {
            Element::Vsource { p, n, .. } => Some((p.index(), n.index())),
            _ => None,
        })
        .collect();
    let mut done = vec![false; vsources.len()];
    let mut fallback = false;
    loop {
        let mut progressed = false;
        for (k, &(p, q)) in vsources.iter().enumerate() {
            if done[k] {
                continue;
            }
            let p_known = p == 0 || pinned[p];
            let q_known = q == 0 || pinned[q];
            match (p_known, q_known) {
                (true, true) => {
                    fallback = true;
                    done[k] = true;
                    progressed = true;
                }
                (false, false) => {}
                (true, false) => {
                    pinned[q] = true;
                    done[k] = true;
                    progressed = true;
                }
                (false, true) => {
                    pinned[p] = true;
                    done[k] = true;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    if done.iter().any(|d| !d) {
        fallback = true;
    }
    let rails = pinned.iter().filter(|&&b| b).count();
    let free = (1..n).filter(|&i| !pinned[i]).count();
    (rails, fallback, free)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// vdd -R-> a -R-> gnd, and an independent vdd -R-> b -R-> gnd:
    /// two blocks split at the rail.
    fn two_island_circuit() -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.vsource("VDD", vdd, Circuit::GND, SourceWave::Dc(1.2));
        ckt.resistor("Ra1", vdd, a, 1e3);
        ckt.resistor("Ra2", a, Circuit::GND, 2e3);
        ckt.resistor("Rb1", vdd, b, 1e3);
        ckt.resistor("Rb2", b, Circuit::GND, 1e3);
        ckt
    }

    #[test]
    fn splits_rail_coupled_islands() {
        let ckt = two_island_circuit();
        let s = PartitionStructure::build(&ckt, true).expect("two blocks");
        assert_eq!(s.n_blocks(), 2);
        assert_eq!(s.pins.len(), 1);
        assert!(s.rail_elems.is_empty());
    }

    #[test]
    fn single_component_returns_none() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let a = ckt.node("a");
        ckt.vsource("VDD", vdd, Circuit::GND, SourceWave::Dc(1.2));
        ckt.resistor("R1", vdd, a, 1e3);
        ckt.resistor("R2", a, Circuit::GND, 2e3);
        assert!(PartitionStructure::build(&ckt, true).is_none());
    }

    #[test]
    fn floating_source_returns_none() {
        let mut ckt = two_island_circuit();
        let (a, b) = (ckt.node("a"), ckt.node("b"));
        ckt.vsource("VF", a, b, SourceWave::Dc(0.1));
        assert!(PartitionStructure::build(&ckt, true).is_none());
    }

    #[test]
    fn source_loop_returns_none() {
        let mut ckt = two_island_circuit();
        let vdd = ckt.node("vdd");
        ckt.vsource("VDUP", vdd, Circuit::GND, SourceWave::Dc(1.2));
        assert!(PartitionStructure::build(&ckt, true).is_none());
    }

    #[test]
    fn capacitor_bridge_merges_unless_dc_only() {
        let mut ckt = two_island_circuit();
        let (a, b) = (ckt.node("a"), ckt.node("b"));
        ckt.capacitor("Cbridge", a, b, 1e-15);
        assert!(PartitionStructure::build(&ckt, true).is_none());
        let s = PartitionStructure::build(&ckt, false).expect("DC view still splits");
        assert_eq!(s.n_blocks(), 2);
    }

    #[test]
    fn stacked_sources_pin_a_chain() {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vmid = ckt.node("vmid");
        let a = ckt.node("a");
        let b = ckt.node("b");
        // vmid is pinned *through* vdd: v(vmid) = 1.2 - 0.4.
        ckt.vsource("VDD", vdd, Circuit::GND, SourceWave::Dc(1.2));
        ckt.vsource("VDROP", vdd, vmid, SourceWave::Dc(0.4));
        ckt.resistor("Ra1", vmid, a, 1e3);
        ckt.resistor("Ra2", a, Circuit::GND, 2e3);
        ckt.resistor("Rb1", vdd, b, 1e3);
        ckt.resistor("Rb2", b, Circuit::GND, 1e3);
        let s = PartitionStructure::build(&ckt, true).expect("two blocks");
        assert_eq!(s.n_blocks(), 2);
        assert_eq!(s.pins.len(), 2);
        let vmid_pin = s
            .pins
            .iter()
            .position(|p| ckt.node_name(NodeId(p.node)) == "vmid")
            .expect("vmid pinned");
        let v = s.pin_value(&ckt, vmid_pin, 0.0);
        assert!((v - 0.8).abs() < 1e-12, "chain value {v}");
    }

    #[test]
    fn report_surfaces_block_sizes() {
        let ckt = two_island_circuit();
        let r = partition_report(&ckt, false);
        assert_eq!(r.blocks, 2);
        assert_eq!(r.block_sizes, vec![1, 1]);
        assert_eq!(r.rail_nodes, 1);
        assert!(!r.fallback);

        let mut merged = two_island_circuit();
        let (a, b) = (merged.node("a"), merged.node("b"));
        merged.resistor("Rbridge", a, b, 1e6);
        let r = partition_report(&merged, false);
        assert_eq!(r.blocks, 1);
        assert_eq!(r.block_sizes, vec![2]);
        assert!(!r.fallback);

        let mut floating = two_island_circuit();
        let (fa, fb) = (floating.node("a"), floating.node("b"));
        floating.vsource("VF", fa, fb, SourceWave::Dc(0.1));
        let r = partition_report(&floating, false);
        assert!(r.fallback);
    }

    #[test]
    fn tarjan_condenses_cycles() {
        // 0 -> 1 -> 2 -> 1 (cycle 1,2), 2 -> 3.
        let adj = vec![vec![1], vec![2], vec![1, 3], vec![]];
        let (n, scc) = tarjan_scc(4, &adj);
        assert_eq!(n, 3);
        assert_eq!(scc[1], scc[2]);
        // Reverse-topological ids: every edge points to an equal-or-lower id.
        assert!(scc[0] > scc[1]);
        assert!(scc[2] > scc[3]);
    }
}
