//! Three-valued event-driven netlist simulation with back-annotated
//! delays.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use mcml_cells::{CellKind, LogicStyle};
use mcml_char::TimingLibrary;
use mcml_netlist::{Conn, GateKind, NetId, Netlist};
use serde::{Deserialize, Serialize};

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

    /// All events sorted by time.
    #[must_use]
    pub fn sorted(&self) -> Vec<(f64, String, bool)> {
        let mut e = self.events.clone();
        e.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        e
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
    /// Net names, indexed like [`Transition::net`].
    pub net_names: Vec<String>,
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

#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    net: u32,
    value: Logic,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("finite event times")
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Default)]
struct Scheduler {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl Scheduler {
    fn push(&mut self, time: f64, net: usize, value: Logic) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time,
            seq: self.seq,
            net: u32::try_from(net).expect("net index"),
            value,
        }));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// Event-driven simulator with library delays.
pub struct EventSim<'a> {
    nl: &'a Netlist,
    lib: &'a TimingLibrary,
    /// Extra delay per fan-out unit from wiring (s).
    pub wire_delay: f64,
}

impl<'a> EventSim<'a> {
    /// Create a simulator for a netlist with delays from `lib`.
    #[must_use]
    pub fn new(nl: &'a Netlist, lib: &'a TimingLibrary) -> Self {
        Self {
            nl,
            lib,
            wire_delay: 1e-12,
        }
    }

    fn gate_delay(&self, kind: GateKind, fanout: usize) -> f64 {
        let ps = match kind {
            GateKind::Lib(k) => self
                .lib
                .get(k, self.nl.style)
                .map_or(30.0, |t| t.delay_ps(fanout as f64)),
            GateKind::Inv => self
                .lib
                .get(CellKind::Buffer, LogicStyle::Cmos)
                .map_or(15.0, |t| 0.6 * t.delay_ps(fanout as f64)),
        };
        ps * 1e-12 + self.wire_delay * fanout as f64
    }

    /// Run until `t_stop`, applying `stimulus` to the primary inputs.
    /// Sequential elements power up holding 0 (a settled MCML latch).
    ///
    /// # Panics
    ///
    /// Panics if the stimulus drives an unknown input.
    #[must_use]
    pub fn run(&self, stimulus: &Stimulus, t_stop: f64) -> SimTrace {
        let _span = mcml_obs::span(mcml_obs::Stage::EventSim);
        mcml_obs::incr(mcml_obs::Counter::EventSimRuns);
        let nl = self.nl;
        let n_nets = nl.net_count();
        let input_of: HashMap<&str, NetId> = nl
            .inputs()
            .iter()
            .map(|(n, id)| (n.as_str(), *id))
            .collect();
        let mut sinks: Vec<Vec<usize>> = vec![Vec::new(); n_nets];
        for (gi, g) in nl.gates().iter().enumerate() {
            for c in &g.inputs {
                sinks[c.net.index()].push(gi);
            }
        }
        let fanout = nl.fanout_counts();

        let mut values = vec![Logic::X; n_nets];
        let mut ff_state: Vec<Logic> = vec![Logic::L0; nl.gates().len()];
        let mut sched = Scheduler::default();

        for (t, name, v) in stimulus.sorted() {
            let net = input_of
                .get(name.as_str())
                .unwrap_or_else(|| panic!("stimulus drives unknown input `{name}`"));
            sched.push(t, net.index(), Logic::from_bool(v));
        }
        for (gi, g) in nl.gates().iter().enumerate() {
            if g.kind.is_sequential() {
                sched.push(0.0, g.outputs[0].index(), ff_state[gi]);
            }
        }

        let mut transitions = Vec::new();
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

            for &gi in &sinks[net] {
                let g = &nl.gates()[gi];
                match g.kind {
                    GateKind::Lib(k) if k.is_sequential() => {
                        let clk_idx = k
                            .input_names()
                            .iter()
                            .position(|&n| n == "clk")
                            .expect("sequential cell has clk");
                        let clk_conn = g.inputs[clk_idx];
                        let clk_now = conn_value(&values, clk_conn);
                        let triggered = if clk_conn.net.index() == net {
                            let old_pin = old.xor_inv(clk_conn.inverted);
                            let rising = old_pin != Logic::L1 && clk_now == Logic::L1;
                            rising || (k == CellKind::DLatch && clk_now == Logic::L1)
                        } else {
                            // Data changed: only the transparent latch
                            // reacts without a clock edge.
                            k == CellKind::DLatch && clk_now == Logic::L1
                        };
                        if triggered {
                            let ins: Vec<Logic> =
                                g.inputs.iter().map(|c| conn_value(&values, *c)).collect();
                            let next = match ins
                                .iter()
                                .map(|l| l.to_bool())
                                .collect::<Option<Vec<bool>>>()
                            {
                                Some(b) => {
                                    let cur = ff_state[gi].to_bool().unwrap_or(false);
                                    Logic::from_bool(k.next_state(cur, &b).expect("sequential"))
                                }
                                None => Logic::X,
                            };
                            ff_state[gi] = next;
                            let onet = g.outputs[0];
                            let d = self.gate_delay(g.kind, fanout[onet.index()].max(1));
                            sched.push(ev.time + d, onet.index(), next);
                        }
                    }
                    _ => {
                        let ins: Vec<Logic> =
                            g.inputs.iter().map(|c| conn_value(&values, *c)).collect();
                        let outs = eval_gate(g.kind, &ins);
                        for (oi, &onet) in g.outputs.iter().enumerate() {
                            let d = self.gate_delay(g.kind, fanout[onet.index()].max(1));
                            sched.push(ev.time + d, onet.index(), outs[oi]);
                        }
                    }
                }
            }
        }

        mcml_obs::add(mcml_obs::Counter::NetTransitions, transitions.len() as u64);
        SimTrace {
            transitions,
            net_count: n_nets,
            net_names: (0..n_nets)
                .map(|i| nl.net_name(NetId::from_index(i)).to_owned())
                .collect(),
            final_values: values,
            t_stop,
        }
    }
}

fn conn_value(values: &[Logic], c: Conn) -> Logic {
    values[c.net.index()].xor_inv(c.inverted)
}

/// Evaluate a combinational gate over 3-valued inputs (X-pessimistic:
/// any unknown input makes all outputs unknown).
fn eval_gate(kind: GateKind, ins: &[Logic]) -> Vec<Logic> {
    let bools: Option<Vec<bool>> = ins.iter().map(|l| l.to_bool()).collect();
    match (kind, bools) {
        (GateKind::Inv, Some(b)) => vec![Logic::from_bool(!b[0])],
        (GateKind::Lib(k), Some(b)) => k
            .eval_comb(&b)
            .expect("combinational")
            .into_iter()
            .map(Logic::from_bool)
            .collect(),
        (GateKind::Inv, None) => vec![Logic::X],
        (GateKind::Lib(k), None) => vec![Logic::X; k.output_names().len()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcml_cells::DriveStrength;
    use mcml_char::CellTiming;

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
        let sorted = st.sorted();
        assert!(sorted.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
