//! Three-valued event-driven netlist simulation with back-annotated
//! delays.
//!
//! [`EventSim::new`] compiles a netlist once, and each
//! [`EventSim::run`] replays a [`Stimulus`] through the compiled form
//! into a [`SimTrace`]: events pop in `(time, push order)`, gates
//! evaluate from truth tables, unknown inputs give unknown outputs, and
//! every output has one delay, the library's FO1/FO4 interpolation at
//! the net's fan-out plus 1 ps of wiring per fan-out.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::OnceLock;

use mcml_cells::CellKind;
use mcml_char::{CellTiming, TimingLibrary};
use mcml_netlist::{GateKind, NetId, Netlist};
use mcml_spice::SpiceError;
use serde::{Deserialize, Serialize};

use crate::power::{kind_slot, KindTimings, GATE_KINDS};

/// Logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Logic {
    /// Logic low.
    L0,
    /// Logic high.
    L1,
    /// Unknown (uninitialised).
    #[default]
    X,
}

impl Logic {
    /// From a boolean.
    #[must_use]
    pub fn from_bool(b: bool) -> Self {
        if b {
            Logic::L1
        } else {
            Logic::L0
        }
    }

    /// To a boolean; unknown maps to `None`.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::L0 => Some(false),
            Logic::L1 => Some(true),
            Logic::X => None,
        }
    }

    /// Complement (X stays X).
    #[allow(clippy::should_implement_trait)] // three-valued, not boolean `!`
    #[must_use]
    pub fn not(self) -> Self {
        match self {
            Logic::L0 => Logic::L1,
            Logic::L1 => Logic::L0,
            Logic::X => Logic::X,
        }
    }

    /// Apply an optional inversion.
    #[must_use]
    pub fn xor_inv(self, inv: bool) -> Self {
        if inv {
            self.not()
        } else {
            self
        }
    }
}

/// An input stimulus: `(time, input name, value)` transitions.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Stimulus {
    events: Vec<(f64, String, bool)>,
}

impl Stimulus {
    /// Empty stimulus.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a transition.
    pub fn at(&mut self, time: f64, input: &str, value: bool) -> &mut Self {
        self.events.push((time, input.to_owned(), value));
        self
    }

    /// Add a clock on `input`: first rising edge at `start`, then the
    /// given period, for `cycles` cycles.
    pub fn clock(&mut self, input: &str, start: f64, period: f64, cycles: usize) -> &mut Self {
        for c in 0..cycles {
            let t = start + period * c as f64;
            self.at(t, input, true);
            self.at(t + period / 2.0, input, false);
        }
        self
    }

    /// Check the stimulus against a netlist: every event drives one of
    /// its primary inputs at a time that is not NaN.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidParameter`] naming the first event that
    /// fails.
    pub fn check(&self, nl: &Netlist) -> Result<(), SpiceError> {
        for (i, (t, name, _)) in self.events.iter().enumerate() {
            let reason = if !nl.inputs().iter().any(|(n, _)| n == name) {
                format!("drives `{name}`, which is not an input of `{}`", nl.name)
            } else if t.is_nan() {
                format!("drives `{name}` at a NaN time")
            } else {
                continue;
            };
            return Err(SpiceError::InvalidParameter {
                element: format!("stimulus event {i}"),
                reason,
            });
        }
        Ok(())
    }

    /// Number of stimulus events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stimulus is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One recorded net transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Event time (s).
    pub time: f64,
    /// Net that changed.
    pub net: u32,
    /// New value.
    pub value: Logic,
}

/// Recorded simulation activity (the VCD-equivalent).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimTrace {
    /// All transitions, time-ordered.
    pub transitions: Vec<Transition>,
    /// Number of nets in the simulated netlist.
    pub net_count: usize,
    /// Final values at `t_stop`.
    pub final_values: Vec<Logic>,
    /// Simulation end time (s).
    pub t_stop: f64,
}

impl SimTrace {
    /// Value of a net at time `t` (`X` before its first assignment).
    #[must_use]
    pub fn value_at(&self, net: NetId, t: f64) -> Logic {
        let mut v = Logic::X;
        for tr in &self.transitions {
            if tr.time > t {
                break;
            }
            if tr.net as usize == net.index() {
                v = tr.value;
            }
        }
        v
    }

    /// Transitions of one net.
    #[must_use]
    pub fn net_transitions(&self, net: NetId) -> Vec<(f64, Logic)> {
        self.transitions
            .iter()
            .filter(|t| t.net as usize == net.index())
            .map(|t| (t.time, t.value))
            .collect()
    }

    /// Known-value toggle count per net.
    #[must_use]
    pub fn toggle_counts(&self) -> Vec<usize> {
        let mut last = vec![Logic::X; self.net_count];
        let mut counts = vec![0usize; self.net_count];
        for t in &self.transitions {
            let n = t.net as usize;
            if last[n] != Logic::X && t.value != Logic::X && t.value != last[n] {
                counts[n] += 1;
            }
            last[n] = t.value;
        }
        counts
    }
}

/// Extra delay per fan-out unit from wiring (s).
const WIRE_DELAY: f64 = 1e-12;

/// Most inputs of any cell (`Mux4`): a truth table over them fits a
/// `u64`.
const MAX_INPUTS: usize = 6;

/// Most outputs of any cell (`FullAdder`).
const MAX_OUTPUTS: usize = 2;

/// Truth tables of every gate kind, by [`kind_slot`]. Output `o` of a
/// combinational kind reads bit `row` of `[o]`, where bit `j` of `row`
/// is input `j`. Sequential cells have none (their tables stay 0).
type TruthTables = [[u64; MAX_OUTPUTS]; GATE_KINDS];

/// The tables, derived once per process from [`CellKind::eval_comb`].
fn truth_tables() -> &'static TruthTables {
    static TABLES: OnceLock<TruthTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0; MAX_OUTPUTS]; GATE_KINDS];
        for k in CellKind::ALL.into_iter().filter(|k| !k.is_sequential()) {
            let n = k.input_count();
            assert!(
                n <= MAX_INPUTS && k.output_names().len() <= MAX_OUTPUTS,
                "{k}: a truth table holds {MAX_INPUTS} inputs and {MAX_OUTPUTS} outputs"
            );
            for row in 0..1usize << n {
                let ins: Vec<bool> = (0..n).map(|j| (row >> j) & 1 == 1).collect();
                let outs = k.eval_comb(&ins).expect("combinational");
                for (table, out) in tables[kind_slot(GateKind::Lib(k))].iter_mut().zip(outs) {
                    *table |= u64::from(out) << row;
                }
            }
        }
        // `Inv`: the complement of its one input.
        tables[kind_slot(GateKind::Inv)][0] = 0b01;
        tables
    })
}

/// How a compiled gate reacts when one of its inputs changes.
#[derive(Debug, Clone, Copy)]
enum Eval {
    /// Combinational: one truth table per output.
    Comb([u64; MAX_OUTPUTS]),
    /// Latch or flip-flop, with the position of its `clk` pin.
    Seq { kind: CellKind, clk: usize },
}

/// One gate, compiled: its pins are `pins[pin0..pin0 + n_in]`, its
/// outputs `outs[out0..out0 + n_out]`.
#[derive(Debug, Clone, Copy)]
struct CompiledGate {
    eval: Eval,
    pin0: u32,
    n_in: u8,
    /// Bit `j` set when pin `j` reads its net inverted.
    inverted: u8,
    out0: u32,
    n_out: u8,
}

/// A gate output: the net it drives and the delay to it (s).
#[derive(Debug, Clone, Copy)]
struct Output {
    net: u32,
    delay: f64,
}

/// The input pattern a gate sees, as a truth-table row, or `None` when
/// any input is unknown (X-pessimism).
fn input_row(values: &[Logic], nets: &[u32], inverted: u8) -> Option<usize> {
    let mut row = 0;
    for (j, &net) in nets.iter().enumerate() {
        match values[net as usize] {
            Logic::L0 => {}
            Logic::L1 => row |= 1 << j,
            Logic::X => return None,
        }
    }
    Some(row ^ usize::from(inverted))
}

/// A scheduled net assignment.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Pop order: the time as a totally ordered integer (high half),
    /// then the push sequence number (low half).
    key: u128,
    time: f64,
    net: u32,
    value: Logic,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Map a time to an integer with the same order. Adding `0.0` folds
/// `-0.0` onto `+0.0`, which compare equal as floats.
fn time_order(time: f64) -> u64 {
    let bits = (time + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Pops events in `(time, push order)` order.
struct Scheduler {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl Scheduler {
    fn with_capacity(n: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
        }
    }

    fn push(&mut self, time: f64, net: u32, value: Logic) {
        self.seq += 1;
        let key = (u128::from(time_order(time)) << 64) | u128::from(self.seq);
        self.heap.push(Reverse(Event {
            key,
            time,
            net,
            value,
        }));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// Output delay (s) of a gate of `kind` driving `fanout` loads: the
/// library's FO1/FO4 interpolation (a default when the cell is not
/// characterised) plus wiring per fan-out.
fn gate_delay(kind: GateKind, timing: Option<&CellTiming>, fanout: usize) -> f64 {
    let ps = match kind {
        GateKind::Lib(_) => timing.map_or(30.0, |t| t.delay_ps(fanout as f64)),
        GateKind::Inv => timing.map_or(15.0, |t| 0.6 * t.delay_ps(fanout as f64)),
    };
    ps * 1e-12 + WIRE_DELAY * fanout as f64
}

/// Event-driven simulator with library delays.
///
/// [`EventSim::new`] compiles the netlist once: fan-out lists, each
/// gate's pins, each output's delay and each cell's truth tables. A
/// [`run`](EventSim::run) then evaluates gates without allocating or
/// consulting the library, so one simulator serves any number of runs,
/// from any number of threads.
pub struct EventSim<'a> {
    /// Primary inputs by name.
    inputs: HashMap<&'a str, u32>,
    net_count: usize,
    /// The gates reading net `n` are `sinks[sink_start[n]..sink_start[n + 1]]`,
    /// once per pin, in gate then pin order.
    sink_start: Vec<u32>,
    sinks: Vec<u32>,
    gates: Vec<CompiledGate>,
    /// Input nets of every gate, concatenated.
    pins: Vec<u32>,
    outs: Vec<Output>,
}

impl<'a> EventSim<'a> {
    /// Compile a netlist with delays from `lib`.
    ///
    /// # Panics
    ///
    /// Panics if a gate has more outputs than its cell, or a sequential
    /// gate has none.
    #[must_use]
    pub fn new(nl: &'a Netlist, lib: &'a TimingLibrary) -> Self {
        let net_count = nl.net_count();
        let fanout = nl.fanout_counts();
        let timings = KindTimings::new(lib, nl.style);
        let tables = truth_tables();

        let mut sink_start = vec![0u32; net_count + 1];
        for g in nl.gates() {
            for c in &g.inputs {
                sink_start[c.net.index() + 1] += 1;
            }
        }
        for n in 0..net_count {
            sink_start[n + 1] += sink_start[n];
        }
        let mut fill = sink_start.clone();
        let mut sinks = vec![0u32; sink_start[net_count] as usize];

        let mut gates = Vec::with_capacity(nl.gate_count());
        let mut pins = Vec::with_capacity(sinks.len());
        let mut outs = Vec::new();
        for (gi, g) in nl.gates().iter().enumerate() {
            let gi = u32::try_from(gi).expect("gate index fits u32");
            let mut inverted = 0u8;
            for (j, c) in g.inputs.iter().enumerate() {
                let slot = &mut fill[c.net.index()];
                sinks[*slot as usize] = gi;
                *slot += 1;
                pins.push(c.net.index() as u32);
                inverted |= u8::from(c.inverted) << j;
            }
            let eval = match g.kind {
                GateKind::Lib(k) if k.is_sequential() => {
                    assert!(!g.outputs.is_empty(), "gate {}: {k} drives no net", g.name);
                    let clk = k
                        .input_names()
                        .iter()
                        .position(|&n| n == "clk")
                        .expect("sequential cell has clk");
                    Eval::Seq { kind: k, clk }
                }
                kind => Eval::Comb(tables[kind_slot(kind)]),
            };
            let max_outputs = match g.kind {
                GateKind::Lib(k) => k.output_names().len(),
                GateKind::Inv => 1,
            };
            assert!(
                g.outputs.len() <= max_outputs,
                "gate {}: {} has {max_outputs} outputs, not {}",
                g.name,
                g.kind,
                g.outputs.len()
            );
            let out0 = outs.len() as u32;
            for &o in &g.outputs {
                let delay = gate_delay(g.kind, timings.get(g.kind), fanout[o.index()].max(1));
                outs.push(Output {
                    net: o.index() as u32,
                    delay,
                });
            }
            gates.push(CompiledGate {
                eval,
                pin0: (pins.len() - g.inputs.len()) as u32,
                // The netlist holds every gate to its kind's arity, at
                // most `MAX_INPUTS`.
                n_in: g.inputs.len() as u8,
                inverted,
                out0,
                n_out: g.outputs.len() as u8,
            });
        }

        Self {
            inputs: nl
                .inputs()
                .iter()
                .map(|(n, id)| (n.as_str(), id.index() as u32))
                .collect(),
            net_count,
            sink_start,
            sinks,
            gates,
            pins,
            outs,
        }
    }

    /// Run until `t_stop`, applying `stimulus` to the primary inputs.
    /// Sequential elements power up holding 0 (a settled MCML latch).
    ///
    /// Events pop in time order; events at equal times pop in the order
    /// they were scheduled, stimulus events in the order they were added.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus drives an unknown input or has a NaN time
    /// (see [`Stimulus::check`]).
    #[must_use]
    pub fn run(&self, stimulus: &Stimulus, t_stop: f64) -> SimTrace {
        let _span = mcml_obs::span(mcml_obs::Stage::EventSim);
        mcml_obs::incr(mcml_obs::Counter::EventSimRuns);
        let mut values = vec![Logic::X; self.net_count];
        let mut state = vec![Logic::L0; self.gates.len()];
        let mut sched = Scheduler::with_capacity(self.net_count + stimulus.len());

        // Pushing in insertion order pops exactly as a stable time sort
        // would: equal times fall back to push order.
        for (t, name, v) in &stimulus.events {
            let net = *self
                .inputs
                .get(name.as_str())
                .unwrap_or_else(|| panic!("stimulus drives unknown input `{name}`"));
            assert!(!t.is_nan(), "stimulus time of `{name}` is NaN");
            sched.push(*t, net, Logic::from_bool(*v));
        }
        for g in &self.gates {
            if matches!(g.eval, Eval::Seq { .. }) {
                sched.push(0.0, self.outs[g.out0 as usize].net, Logic::L0);
            }
        }

        let mut transitions = Vec::with_capacity(self.net_count);
        while let Some(ev) = sched.pop() {
            if ev.time > t_stop {
                break;
            }
            let net = ev.net as usize;
            let old = values[net];
            if old == ev.value {
                continue;
            }
            values[net] = ev.value;
            transitions.push(Transition {
                time: ev.time,
                net: ev.net,
                value: ev.value,
            });

            let fan = self.sink_start[net] as usize..self.sink_start[net + 1] as usize;
            for &gi in &self.sinks[fan] {
                let g = &self.gates[gi as usize];
                let nets = &self.pins[g.pin0 as usize..][..usize::from(g.n_in)];
                let outs = &self.outs[g.out0 as usize..][..usize::from(g.n_out)];
                match g.eval {
                    Eval::Comb(tables) => {
                        let row = input_row(&values, nets, g.inverted);
                        for (table, out) in tables.iter().zip(outs) {
                            let v =
                                row.map_or(Logic::X, |r| Logic::from_bool((table >> r) & 1 == 1));
                            sched.push(ev.time + out.delay, out.net, v);
                        }
                    }
                    Eval::Seq { kind, clk } => {
                        let clk_net = nets[clk] as usize;
                        let clk_inv = (g.inverted >> clk) & 1 == 1;
                        let clk_now = values[clk_net].xor_inv(clk_inv);
                        // A flop fires on a rising clock pin; the latch
                        // follows its data while the clock is high.
                        let rising = clk_net == net
                            && old.xor_inv(clk_inv) != Logic::L1
                            && clk_now == Logic::L1;
                        let transparent = kind == CellKind::DLatch && clk_now == Logic::L1;
                        if !(rising || transparent) {
                            continue;
                        }
                        let gi = gi as usize;
                        let next = match input_row(&values, nets, g.inverted) {
                            Some(row) => {
                                let ins: [bool; MAX_INPUTS] =
                                    std::array::from_fn(|j| (row >> j) & 1 == 1);
                                let cur = state[gi].to_bool().unwrap_or(false);
                                let next = kind.next_state(cur, &ins[..nets.len()]);
                                Logic::from_bool(next.expect("sequential"))
                            }
                            None => Logic::X,
                        };
                        state[gi] = next;
                        let out = outs[0];
                        sched.push(ev.time + out.delay, out.net, next);
                    }
                }
            }
        }

        mcml_obs::add(mcml_obs::Counter::NetTransitions, transitions.len() as u64);
        SimTrace {
            transitions,
            net_count: self.net_count,
            final_values: values,
            t_stop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcml_cells::{DriveStrength, LogicStyle};
    use mcml_netlist::Conn;

    fn test_lib(style: LogicStyle) -> TimingLibrary {
        let mut lib = TimingLibrary::new();
        for kind in CellKind::ALL {
            lib.insert(CellTiming {
                kind,
                style,
                drive: DriveStrength::X1,
                area_um2: 10.0,
                delay_fo1_ps: 40.0,
                delay_fo4_ps: 80.0,
                input_cap_ff: 1.0,
                static_power_w: 60e-6,
                leakage_sleep_w: 1e-9,
                toggle_energy_j: 2e-15,
            });
        }
        lib
    }

    fn xor_netlist() -> Netlist {
        let mut nl = Netlist::new("x", LogicStyle::PgMcml);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let q = nl.add_net("q");
        nl.add_gate(
            "u",
            GateKind::Lib(CellKind::Xor2),
            vec![Conn::plain(a), Conn::plain(b)],
            vec![q],
        );
        nl.set_output("q", Conn::plain(q));
        nl
    }

    #[test]
    fn xor_propagates_with_delay() {
        let nl = xor_netlist();
        let lib = test_lib(LogicStyle::PgMcml);
        let sim = EventSim::new(&nl, &lib);
        let mut st = Stimulus::new();
        st.at(0.0, "a", false).at(0.0, "b", false);
        st.at(1e-9, "a", true);
        let trace = sim.run(&st, 3e-9);
        let q = nl.outputs()[0].1.net;
        assert_eq!(trace.value_at(q, 0.9e-9), Logic::L0);
        assert_eq!(trace.value_at(q, 2e-9), Logic::L1);
        // Delay ≈ 40 ps + wire.
        let tr = trace.net_transitions(q);
        let t_rise = tr.iter().find(|(_, v)| *v == Logic::L1).unwrap().0;
        assert!(
            (t_rise - 1.0e-9 - 41e-12).abs() < 5e-12,
            "q rise at {t_rise}"
        );
    }

    #[test]
    fn unknown_until_driven() {
        let nl = xor_netlist();
        let lib = test_lib(LogicStyle::PgMcml);
        let sim = EventSim::new(&nl, &lib);
        let mut st = Stimulus::new();
        st.at(1e-9, "a", false).at(1e-9, "b", false);
        let trace = sim.run(&st, 2e-9);
        let q = nl.outputs()[0].1.net;
        assert_eq!(trace.value_at(q, 0.5e-9), Logic::X);
        assert_eq!(trace.value_at(q, 1.8e-9), Logic::L0);
    }

    #[test]
    fn dff_captures_on_rising_edge_only() {
        let mut nl = Netlist::new("ff", LogicStyle::PgMcml);
        let d = nl.add_input("d");
        let clk = nl.add_input("clk");
        let q = nl.add_net("q");
        nl.add_gate(
            "ff",
            GateKind::Lib(CellKind::Dff),
            vec![Conn::plain(d), Conn::plain(clk)],
            vec![q],
        );
        nl.set_output("q", Conn::plain(q));
        let lib = test_lib(LogicStyle::PgMcml);
        let sim = EventSim::new(&nl, &lib);
        let mut st = Stimulus::new();
        st.at(0.0, "d", true).at(0.0, "clk", false);
        st.at(2e-9, "clk", true); // rising: capture 1
        st.at(3e-9, "d", false); // d change mid-cycle: ignored
        st.at(4e-9, "clk", false); // falling: ignored
        let trace = sim.run(&st, 5e-9);
        let qn = nl.outputs()[0].1.net;
        assert_eq!(trace.value_at(qn, 1.5e-9), Logic::L0, "initial state");
        assert_eq!(trace.value_at(qn, 2.5e-9), Logic::L1, "captured on edge");
        assert_eq!(trace.value_at(qn, 4.9e-9), Logic::L1, "held after");
    }

    #[test]
    fn latch_is_transparent_while_high() {
        let mut nl = Netlist::new("lat", LogicStyle::PgMcml);
        let d = nl.add_input("d");
        let clk = nl.add_input("clk");
        let q = nl.add_net("q");
        nl.add_gate(
            "lat",
            GateKind::Lib(CellKind::DLatch),
            vec![Conn::plain(d), Conn::plain(clk)],
            vec![q],
        );
        nl.set_output("q", Conn::plain(q));
        let lib = test_lib(LogicStyle::PgMcml);
        let sim = EventSim::new(&nl, &lib);
        let mut st = Stimulus::new();
        st.at(0.0, "d", false).at(0.0, "clk", true);
        st.at(1e-9, "d", true); // passes (transparent)
        st.at(2e-9, "clk", false);
        st.at(3e-9, "d", false); // blocked (opaque)
        let trace = sim.run(&st, 4e-9);
        let qn = nl.outputs()[0].1.net;
        assert_eq!(trace.value_at(qn, 1.8e-9), Logic::L1, "tracked while high");
        assert_eq!(trace.value_at(qn, 3.9e-9), Logic::L1, "held while low");
    }

    #[test]
    fn flop_variants_follow_next_state() {
        use Logic::{L0, L1};
        let mut nl = Netlist::new("flops", LogicStyle::PgMcml);
        let [d, clk, rst, en] = ["d", "clk", "rst", "en"].map(|n| nl.add_input(n));
        let q: Vec<NetId> = ["r", "e", "n"].iter().map(|n| nl.add_net(n)).collect();
        nl.add_gate(
            "dffr",
            GateKind::Lib(CellKind::Dffr),
            vec![Conn::plain(d), Conn::plain(clk), Conn::plain(rst)],
            vec![q[0]],
        );
        nl.add_gate(
            "edff",
            GateKind::Lib(CellKind::Edff),
            vec![Conn::plain(d), Conn::plain(clk), Conn::plain(en)],
            vec![q[1]],
        );
        // Clocked through an inverted pin: captures on the falling net.
        nl.add_gate(
            "negff",
            GateKind::Lib(CellKind::Dff),
            vec![Conn::plain(d), Conn::inv(clk)],
            vec![q[2]],
        );
        let lib = test_lib(LogicStyle::PgMcml);
        let mut st = Stimulus::new();
        st.at(0.0, "d", false)
            .at(0.0, "clk", false)
            .at(0.0, "rst", false)
            .at(0.0, "en", false);
        st.at(0.5e-9, "d", true);
        st.at(1e-9, "clk", true); // dffr takes 1, edff holds 0
        st.at(1.5e-9, "clk", false); // negff takes 1
        st.at(2e-9, "en", true).at(2e-9, "rst", true);
        st.at(3e-9, "clk", true); // dffr resets, edff takes 1
                                  // Same time: `d` pops first, so negff takes the new 0.
        st.at(3.5e-9, "d", false).at(3.5e-9, "clk", false);
        let trace = EventSim::new(&nl, &lib).run(&st, 4e-9);
        let at = |t: f64| q.iter().map(|&n| trace.value_at(n, t)).collect::<Vec<_>>();
        assert_eq!(at(0.9e-9), [L0, L0, L0], "power-up");
        assert_eq!(at(1.4e-9), [L1, L0, L0], "rising edge, en low");
        assert_eq!(at(1.9e-9), [L1, L0, L1], "inverted clock pin rose");
        assert_eq!(at(3.4e-9), [L0, L1, L1], "reset and enable");
        assert_eq!(at(3.9e-9), [L0, L1, L0], "data before clock");
    }

    #[test]
    fn inverted_conn_respected() {
        let mut nl = Netlist::new("i", LogicStyle::PgMcml);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let q = nl.add_net("q");
        nl.add_gate(
            "u",
            GateKind::Lib(CellKind::And2),
            vec![Conn::plain(a), Conn::inv(b)],
            vec![q],
        );
        nl.set_output("q", Conn::plain(q));
        let lib = test_lib(LogicStyle::PgMcml);
        let sim = EventSim::new(&nl, &lib);
        let mut st = Stimulus::new();
        st.at(0.0, "a", true).at(0.0, "b", false);
        let trace = sim.run(&st, 1e-9);
        assert_eq!(
            trace.value_at(nl.outputs()[0].1.net, 0.9e-9),
            Logic::L1,
            "a & !b"
        );
    }

    #[test]
    fn toggle_counts_counted() {
        let nl = xor_netlist();
        let lib = test_lib(LogicStyle::PgMcml);
        let sim = EventSim::new(&nl, &lib);
        let mut st = Stimulus::new();
        st.at(0.0, "a", false).at(0.0, "b", false);
        for i in 1..=4 {
            st.at(i as f64 * 1e-9, "a", i % 2 == 1);
        }
        let trace = sim.run(&st, 6e-9);
        let q = nl.outputs()[0].1.net;
        assert_eq!(trace.toggle_counts()[q.index()], 4);
    }

    #[test]
    fn stimulus_helpers() {
        let mut st = Stimulus::new();
        st.clock("clk", 1e-9, 2e-9, 2);
        assert_eq!(st.len(), 4);
        assert!(!st.is_empty());
        let edges: Vec<(f64, bool)> = st.events.iter().map(|e| (e.0, e.2)).collect();
        let (start, period) = (1e-9, 2e-9);
        let rise = start + period;
        assert_eq!(
            edges,
            [
                (start, true),
                (start + period / 2.0, false),
                (rise, true),
                (rise + period / 2.0, false)
            ]
        );
    }

    fn bits(row: usize, n: usize) -> Vec<bool> {
        (0..n).map(|j| (row >> j) & 1 == 1).collect()
    }

    #[test]
    fn truth_tables_match_eval_comb_on_every_input() {
        let tables = truth_tables();
        for k in CellKind::ALL.into_iter().filter(|k| !k.is_sequential()) {
            let n = k.input_count();
            let table = tables[kind_slot(GateKind::Lib(k))];
            for row in 0..1usize << n {
                let want = k.eval_comb(&bits(row, n)).unwrap();
                let got: Vec<bool> = (0..want.len())
                    .map(|o| (table[o] >> row) & 1 == 1)
                    .collect();
                assert_eq!(got, want, "{k} at input row {row:#b}");
            }
        }
        let inv = tables[kind_slot(GateKind::Inv)][0];
        assert_eq!([inv & 1, (inv >> 1) & 1], [1, 0], "Inv complements");
        assert_eq!(CellKind::Mux4.input_count(), MAX_INPUTS);
        assert_eq!(CellKind::FullAdder.output_names().len(), MAX_OUTPUTS);
    }

    /// One gate of `kind` on inputs `i0…`, its odd pins inverted, every
    /// output a primary output.
    fn one_gate(kind: GateKind) -> Netlist {
        let mut nl = Netlist::new("g", LogicStyle::Cmos);
        let ins: Vec<Conn> = (0..kind.input_count())
            .map(|j| {
                let net = nl.add_input(&format!("i{j}"));
                if j % 2 == 1 {
                    Conn::inv(net)
                } else {
                    Conn::plain(net)
                }
            })
            .collect();
        let n_out = match kind {
            GateKind::Lib(k) => k.output_names().len(),
            GateKind::Inv => 1,
        };
        let outs: Vec<NetId> = (0..n_out).map(|o| nl.add_net(&format!("o{o}"))).collect();
        nl.add_gate("u", kind, ins, outs.clone());
        for (o, &net) in outs.iter().enumerate() {
            nl.set_output(&format!("o{o}"), Conn::plain(net));
        }
        nl
    }

    fn comb_kinds() -> impl Iterator<Item = GateKind> {
        CellKind::ALL
            .into_iter()
            .filter(|k| !k.is_sequential())
            .map(GateKind::Lib)
            .chain([GateKind::Inv])
    }

    #[test]
    fn compiled_gates_evaluate_every_input_pattern() {
        let lib = test_lib(LogicStyle::Cmos);
        for kind in comb_kinds() {
            let nl = one_gate(kind);
            let sim = EventSim::new(&nl, &lib);
            let n = kind.input_count();
            // Pattern `row` on the pins, applied 1 ns apart.
            let mut st = Stimulus::new();
            for row in 0..1usize << n {
                for (j, pin) in bits(row, n).into_iter().enumerate() {
                    st.at(row as f64 * 1e-9, &format!("i{j}"), pin ^ (j % 2 == 1));
                }
            }
            let trace = sim.run(&st, (1usize << n) as f64 * 1e-9);
            for row in 0..1usize << n {
                let want = match kind {
                    GateKind::Lib(k) => k.eval_comb(&bits(row, n)).unwrap(),
                    GateKind::Inv => vec![row == 0],
                };
                for (o, (_, c)) in nl.outputs().iter().enumerate() {
                    let got = trace.value_at(c.net, (row as f64 + 0.9) * 1e-9);
                    assert_eq!(
                        got,
                        Logic::from_bool(want[o]),
                        "{kind} output {o}, row {row:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn any_unknown_input_makes_every_output_unknown() {
        let lib = test_lib(LogicStyle::Cmos);
        for kind in comb_kinds() {
            let nl = one_gate(kind);
            let sim = EventSim::new(&nl, &lib);
            let n = kind.input_count();
            for undriven in 0..n {
                for row in [0, (1usize << n) - 1] {
                    let mut st = Stimulus::new();
                    for (j, pin) in bits(row, n).into_iter().enumerate() {
                        if j != undriven {
                            st.at(0.0, &format!("i{j}"), pin);
                        }
                    }
                    let trace = sim.run(&st, 1e-9);
                    for (_, c) in nl.outputs() {
                        assert_eq!(
                            trace.final_values[c.net.index()],
                            Logic::X,
                            "{kind}: input {undriven} unknown, row {row:#b}"
                        );
                    }
                }
            }
        }
        // A flop clocked with an unknown data input captures X.
        let mut nl = Netlist::new("ff", LogicStyle::Cmos);
        let d = nl.add_input("d");
        let clk = nl.add_input("clk");
        let q = nl.add_net("q");
        nl.add_gate(
            "ff",
            GateKind::Lib(CellKind::Dff),
            vec![Conn::plain(d), Conn::plain(clk)],
            vec![q],
        );
        let mut st = Stimulus::new();
        st.at(0.0, "clk", false).at(1e-9, "clk", true);
        let trace = EventSim::new(&nl, &lib).run(&st, 2e-9);
        assert_eq!(trace.value_at(q, 0.9e-9), Logic::L0, "powers up at 0");
        assert_eq!(trace.value_at(q, 1.9e-9), Logic::X, "captured X");
    }

    #[test]
    fn equal_times_pop_in_push_order() {
        let mut s = Scheduler::with_capacity(0);
        let pushes = [
            (1e-9, 0),
            (-1e-9, 1),
            (0.0, 2),
            (-1e-9, 3),
            (-0.0, 4),
            (1e-9, 5),
            (0.0, 6),
            (-1e-9, 7),
            (f64::NEG_INFINITY, 8),
        ];
        for (t, net) in pushes {
            s.push(t, net, Logic::L1);
        }
        let popped: Vec<(f64, u32)> = std::iter::from_fn(|| s.pop())
            .map(|e| (e.time, e.net))
            .collect();
        let order: Vec<u32> = popped.iter().map(|p| p.1).collect();
        assert_eq!(order, [8, 1, 3, 7, 2, 4, 6, 0, 5]);
        // Times come back with their bits, the sign of zero included.
        assert!(popped[5].0.is_sign_negative() && popped[5].0 == 0.0);

        // Through a run: the later of two same-time stimulus events wins.
        let nl = xor_netlist();
        let lib = test_lib(LogicStyle::PgMcml);
        let mut st = Stimulus::new();
        st.at(-1e-9, "a", true).at(-1e-9, "b", true);
        st.at(-1e-9, "a", false).at(-2e-9, "b", false);
        let trace = EventSim::new(&nl, &lib).run(&st, 1e-9);
        let a = nl.inputs()[0].1;
        assert_eq!(
            trace.net_transitions(a),
            [(-1e-9, Logic::L1), (-1e-9, Logic::L0)]
        );
        let q = nl.outputs()[0].1.net;
        assert_eq!(trace.final_values[q.index()], Logic::L1, "a = 0, b = 1");
    }

    #[test]
    fn simulator_is_sync() {
        fn sync<T: Sync>() {}
        sync::<EventSim<'_>>();
    }
}
