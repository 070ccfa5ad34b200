//! Property-based tests: the event-driven simulator agrees with the
//! cycle-level evaluator once signals settle, and pulses leave every net
//! where it started.

use std::collections::HashMap;

use proptest::prelude::*;

use mcml_cells::{CellKind, DriveStrength, LogicStyle};
use mcml_char::{CellTiming, TimingLibrary};
use mcml_netlist::{Conn, GateKind, NetId, Netlist};
use mcml_sim::{EventSim, Logic, Stimulus};

fn test_lib(style: LogicStyle) -> TimingLibrary {
    let mut lib = TimingLibrary::new();
    for kind in CellKind::ALL {
        lib.insert(CellTiming {
            kind,
            style,
            drive: DriveStrength::X1,
            area_um2: 10.0,
            delay_fo1_ps: 35.0,
            delay_fo4_ps: 70.0,
            input_cap_ff: 1.0,
            static_power_w: 60e-6,
            leakage_sleep_w: 1e-9,
            toggle_energy_j: 2e-15,
        });
    }
    lib
}

/// Random 2-level combinational netlist over 5 inputs.
fn random_netlist(gates: &[(u8, u8, u8)]) -> Netlist {
    let mut nl = Netlist::new("rand", LogicStyle::PgMcml);
    let inputs: Vec<NetId> = (0..5).map(|i| nl.add_input(&format!("i{i}"))).collect();
    let mut nets = inputs;
    for (gi, &(kind_pick, a, b)) in gates.iter().enumerate() {
        let kinds = [CellKind::And2, CellKind::Xor2, CellKind::Maj32];
        let kind = kinds[kind_pick as usize % 3];
        let out = nl.add_net(&format!("n{gi}"));
        let pick = |x: u8| nets[x as usize % nets.len()];
        let conns = match kind {
            CellKind::Maj32 => vec![
                Conn::plain(pick(a)),
                Conn::plain(pick(b)),
                Conn::inv(pick(a.wrapping_add(1))),
            ],
            _ => vec![Conn::plain(pick(a)), Conn::inv(pick(b))],
        };
        nl.add_gate(&format!("g{gi}"), GateKind::Lib(kind), conns, vec![out]);
        nets.push(out);
    }
    let last = *nets.last().expect("nets");
    nl.set_output("q", Conn::plain(last));
    nl
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After the netlist settles, the event simulator's steady state
    /// equals the cycle-level evaluation for the same inputs.
    #[test]
    fn event_sim_settles_to_evaluate(
        gates in collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..12),
        bits in 0u32..32,
    ) {
        let nl = random_netlist(&gates);
        let lib = test_lib(LogicStyle::PgMcml);
        let sim = EventSim::new(&nl, &lib);
        let mut st = Stimulus::new();
        let mut asg = HashMap::new();
        for i in 0..5 {
            let v = (bits >> i) & 1 == 1;
            st.at(0.0, &format!("i{i}"), v);
            asg.insert(format!("i{i}"), v);
        }
        let trace = sim.run(&st, 10e-9);
        let values = nl.evaluate(&asg, &HashMap::new());
        let qnet = nl.outputs()[0].1.net;
        let settled = trace.value_at(qnet, 9.9e-9);
        prop_assert_eq!(settled, Logic::from_bool(values[qnet.index()]));
    }

    /// Toggle counts are even when the input returns to its initial
    /// value (every net ends where it started, absent X states).
    #[test]
    fn pulse_toggles_are_even(
        gates in collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..10),
    ) {
        let nl = random_netlist(&gates);
        let lib = test_lib(LogicStyle::PgMcml);
        let sim = EventSim::new(&nl, &lib);
        let mut st = Stimulus::new();
        for i in 0..5 {
            st.at(0.0, &format!("i{i}"), false);
        }
        st.at(2e-9, "i0", true);
        st.at(5e-9, "i0", false);
        let trace = sim.run(&st, 10e-9);
        // Compare settled values before and after the pulse.
        for n in 0..trace.net_count {
            let id = NetId::from_index(n);
            let before = trace.value_at(id, 1.9e-9);
            let after = trace.value_at(id, 9.9e-9);
            if before != Logic::X {
                prop_assert_eq!(before, after, "net {} must return", n);
            }
        }
    }
}
