//! Failure-injection tests: the simulator must fail loudly, not
//! silently, when driven outside its contract.

use mcml_cells::{CellKind, DriveStrength, LogicStyle};
use mcml_char::{CellTiming, TimingLibrary};
use mcml_netlist::{Conn, GateKind, Netlist};
use mcml_sim::power::SleepWave;
use mcml_sim::{circuit_current, EventSim, Stimulus};

fn lib_missing_xor(style: LogicStyle) -> TimingLibrary {
    let mut lib = TimingLibrary::new();
    // Everything except Xor2 — to trigger the missing-cell panic.
    for kind in CellKind::ALL.into_iter().filter(|&k| k != CellKind::Xor2) {
        lib.insert(CellTiming {
            kind,
            style,
            drive: DriveStrength::X1,
            area_um2: 1.0,
            delay_fo1_ps: 10.0,
            delay_fo4_ps: 20.0,
            input_cap_ff: 1.0,
            static_power_w: 1e-6,
            leakage_sleep_w: 1e-9,
            toggle_energy_j: 1e-15,
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
#[should_panic(expected = "unknown input")]
fn stimulus_on_unknown_input_panics() {
    let nl = xor_netlist();
    let lib = lib_missing_xor(LogicStyle::PgMcml);
    let sim = EventSim::new(&nl, &lib);
    let mut st = Stimulus::new();
    st.at(0.0, "nonexistent", true);
    let _ = sim.run(&st, 1e-9);
}

#[test]
#[should_panic(expected = "library misses")]
fn power_model_requires_characterised_cells() {
    let nl = xor_netlist();
    let lib = lib_missing_xor(LogicStyle::PgMcml);
    let sim = EventSim::new(&nl, &lib);
    let mut st = Stimulus::new();
    st.at(0.0, "a", false).at(0.0, "b", false);
    let trace = sim.run(&st, 1e-9);
    let _ = circuit_current(&nl, &trace, &lib, None);
}

#[test]
fn missing_timing_falls_back_to_default_delay() {
    // The event simulator itself degrades gracefully (default delay)
    // when a cell is uncharacterised — only the power model hard-fails.
    let nl = xor_netlist();
    let lib = lib_missing_xor(LogicStyle::PgMcml);
    let sim = EventSim::new(&nl, &lib);
    let mut st = Stimulus::new();
    st.at(0.0, "a", true).at(0.0, "b", false);
    let trace = sim.run(&st, 1e-9);
    let q = nl.outputs()[0].1.net;
    assert_eq!(
        trace.value_at(q, 0.9e-9),
        mcml_sim::Logic::L1,
        "still functionally simulates"
    );
}

#[test]
fn sleep_wave_ignored_for_non_pg_styles() {
    let mut nl = Netlist::new("x", LogicStyle::Mcml);
    let a = nl.add_input("a");
    let q = nl.add_net("q");
    nl.add_gate(
        "u",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(a)],
        vec![q],
    );
    nl.set_output("q", Conn::plain(q));
    let mut lib = lib_missing_xor(LogicStyle::Mcml);
    lib.insert(CellTiming {
        kind: CellKind::Buffer,
        style: LogicStyle::Mcml,
        drive: DriveStrength::X1,
        area_um2: 1.0,
        delay_fo1_ps: 10.0,
        delay_fo4_ps: 20.0,
        input_cap_ff: 1.0,
        static_power_w: 60e-6,
        leakage_sleep_w: 60e-6,
        toggle_energy_j: 0.0,
    });
    let sim = EventSim::new(&nl, &lib);
    let mut st = Stimulus::new();
    st.at(0.0, "a", true);
    let trace = sim.run(&st, 2e-9);
    // Even with an "asleep" sleep wave, conventional MCML keeps burning.
    let asleep = SleepWave::awake_windows(&[]);
    let i = circuit_current(&nl, &trace, &lib, Some(&asleep));
    assert!(
        i.mean() > 40e-6 / 1.2,
        "MCML has no sleep pin to honour: {}",
        i.mean()
    );
}
