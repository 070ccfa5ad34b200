//! Rule-coverage contract: a negative corpus of seeded-fault targets
//! that together make **every registered rule** fire at least once.
//!
//! CI runs this test as its own step. If a new rule is registered
//! without a corpus entry here, `every_registered_rule_fires` fails
//! with the missing id — so the registry can never silently grow rules
//! nothing exercises.

use mcml_cells::{build_cell, CellKind, CellNetlist, CellParams, LogicStyle};
use mcml_device::{MosParams, MosPolarity, Mosfet};
use mcml_lint::{LintEngine, LintReport, LintTarget, Rule};
use mcml_netlist::sleep_tree::SleepTree;
use mcml_netlist::{Conn, GateKind, Netlist, PortClass, SleepDomain, SleepPlan};
use mcml_spice::{Circuit, Element, SourceWave};

/// `k XOR p` into a DFF in CMOS, with a skewed reconvergent side path:
/// trips secret-cmos and glitch.
fn leaky_cmos() -> Netlist {
    let mut nl = Netlist::new("leaky", LogicStyle::Cmos);
    let clk = nl.add_input("clk");
    let k = nl.add_input("k");
    let p = nl.add_input("p");
    let slow = nl.add_net("slow");
    let d = nl.add_net("d");
    let q = nl.add_net("q");
    nl.add_gate(
        "u_s",
        GateKind::Lib(CellKind::And2),
        vec![Conn::plain(k), Conn::plain(p)],
        vec![slow],
    );
    nl.add_gate(
        "u_x",
        GateKind::Lib(CellKind::Xor2),
        vec![Conn::plain(k), Conn::plain(slow)],
        vec![d],
    );
    nl.add_gate(
        "u_ff",
        GateKind::Lib(CellKind::Dff),
        vec![Conn::plain(d), Conn::plain(clk)],
        vec![q],
    );
    nl.set_output("q", Conn::plain(q));
    nl.set_port_class("k", PortClass::Secret);
    nl.set_port_class("clk", PortClass::Clock);
    nl
}

/// Structural grab-bag (PG-MCML): undriven, multi-driven, dangling and
/// driven-input faults in one netlist, plus an FO5 net.
fn structural_faults() -> Netlist {
    let mut nl = Netlist::new("broken", LogicStyle::PgMcml);
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let ghost = nl.add_net("ghost");
    let multi = nl.add_net("multi");
    let dangle = nl.add_net("dangle");
    let q = nl.add_net("q");
    nl.add_gate(
        "u_g",
        GateKind::Lib(CellKind::And2),
        vec![Conn::plain(a), Conn::plain(ghost)],
        vec![q],
    );
    nl.add_gate(
        "u_m1",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(a)],
        vec![multi],
    );
    nl.add_gate(
        "u_m2",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(a)],
        vec![multi],
    );
    nl.add_gate(
        "u_d",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(multi)],
        vec![dangle],
    );
    nl.add_gate(
        "u_i",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(a)],
        vec![b],
    );
    for i in 0..5 {
        let f = nl.add_net(&format!("f{i}"));
        nl.add_gate(
            &format!("u_f{i}"),
            GateKind::Lib(CellKind::Buffer),
            vec![Conn::plain(b)],
            vec![f],
        );
        nl.set_output(&format!("f{i}"), Conn::plain(f));
    }
    nl.set_output("q", Conn::plain(q));
    nl
}

/// Combinational loop (deny) — kept separate because it also disables
/// the dataflow pack for its target.
fn comb_loop() -> Netlist {
    let mut nl = Netlist::new("loopy", LogicStyle::PgMcml);
    let x = nl.add_input("x");
    let a = nl.add_net("a");
    let b = nl.add_net("b");
    nl.add_gate(
        "u1",
        GateKind::Lib(CellKind::And2),
        vec![Conn::plain(a), Conn::plain(x)],
        vec![b],
    );
    nl.add_gate(
        "u2",
        GateKind::Lib(CellKind::And2),
        vec![Conn::plain(b), Conn::plain(x)],
        vec![a],
    );
    nl.set_output("q", Conn::plain(a));
    nl
}

/// Style faults: an explicit inverter in MCML; an inverted connection
/// in CMOS; a tainted secret-gated clock and a tainted single-ended
/// crossing in PG-MCML.
fn style_faults() -> Vec<Netlist> {
    let mut inv = Netlist::new("inv", LogicStyle::Mcml);
    let a = inv.add_input("a");
    let q = inv.add_net("q");
    inv.add_gate("u_inv", GateKind::Inv, vec![Conn::plain(a)], vec![q]);
    inv.set_output("q", Conn::plain(q));

    let mut cmos = Netlist::new("cmos_inv_conn", LogicStyle::Cmos);
    let a = cmos.add_input("a");
    let q = cmos.add_net("q");
    cmos.add_gate(
        "u",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::inv(a)],
        vec![q],
    );
    cmos.set_output("q", Conn::plain(q));

    let mut ctl = Netlist::new("clkgate", LogicStyle::PgMcml);
    let clk = ctl.add_input("clk");
    let k = ctl.add_input("k");
    let d = ctl.add_input("d");
    let gclk = ctl.add_net("gclk");
    let q = ctl.add_net("q");
    ctl.add_gate(
        "u_g",
        GateKind::Lib(CellKind::And2),
        vec![Conn::plain(clk), Conn::plain(k)],
        vec![gclk],
    );
    ctl.add_gate(
        "u_ff",
        GateKind::Lib(CellKind::Dff),
        vec![Conn::plain(d), Conn::plain(gclk)],
        vec![q],
    );
    ctl.set_output("q", Conn::plain(q));
    ctl.set_port_class("k", PortClass::Secret);
    ctl.set_port_class("clk", PortClass::Clock);

    let mut cross = Netlist::new("crossing", LogicStyle::PgMcml);
    let k = cross.add_input("k");
    let single = cross.add_net("single");
    cross.add_gate(
        "u_d2s",
        GateKind::Lib(CellKind::Diff2Single),
        vec![Conn::plain(k)],
        vec![single],
    );
    cross.set_output("out", Conn::plain(single));
    cross.set_port_class("k", PortClass::Secret);

    vec![inv, cmos, ctl, cross]
}

/// Broken sleep plans over a two-buffer PG netlist.
fn sleep_faults() -> (Netlist, SleepPlan) {
    let mut nl = Netlist::new("pg_pair", LogicStyle::PgMcml);
    let a = nl.add_input("a");
    let m = nl.add_net("m");
    let q = nl.add_net("q");
    nl.add_gate(
        "u1",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(a)],
        vec![m],
    );
    nl.add_gate(
        "u2",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(m)],
        vec![q],
    );
    nl.set_output("q", Conn::plain(q));
    let plan = SleepPlan {
        domains: vec![SleepDomain {
            name: "d0".into(),
            gates: vec![0],
            tree: SleepTree {
                sinks: 2,
                buffers_per_level: vec![1],
                insertion_delay: 2.3e-9,
                skew: 0.0,
            },
        }],
        domain_of_gate: vec![0, 0],
    };
    (nl, plan)
}

/// Electrical faults: floating gate, floating bulk, a resistive island
/// and a voltage-source loop in one circuit.
fn broken_circuit() -> Circuit {
    let nmos = Mosfet::nmos(MosParams::nmos_lvt_90(), 400e-9, 100e-9);
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let d = ckt.node("d");
    ckt.vsource("v_vdd", vdd, Circuit::GND, SourceWave::dc(1.0));
    ckt.vsource("v_dup", vdd, Circuit::GND, SourceWave::dc(1.2));
    ckt.resistor("r_load", vdd, d, 10e3);
    let fg = ckt.node("fg");
    ckt.mosfet("m_fg", d, fg, Circuit::GND, Circuit::GND, nmos.clone());
    let nb = ckt.node("nb");
    ckt.mosfet("m_nb", d, vdd, Circuit::GND, nb, nmos);
    let i1 = ckt.node("isl1");
    let i2 = ckt.node("isl2");
    ckt.resistor("r_island", i1, i2, 1e3);
    ckt
}

/// Two differential stages (18 MOS) whose gates hand the signal forward
/// — which should split into per-stage solve blocks at the rail — but
/// with a resistive bridge between the stage outputs that galvanically
/// collapses them into one block: trips `partition-collapse`.
fn collapsed_circuit() -> Circuit {
    let nmos = Mosfet::nmos(MosParams::nmos_lvt_90(), 400e-9, 100e-9);
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("v_vdd", vdd, Circuit::GND, SourceWave::dc(1.2));
    let mut prev = (vdd, vdd);
    for s in 0..2 {
        let out_p = ckt.node(&format!("s{s}_out_p"));
        let out_n = ckt.node(&format!("s{s}_out_n"));
        let tail = ckt.node(&format!("s{s}_tail"));
        ckt.resistor(&format!("s{s}_rl_p"), vdd, out_p, 10e3);
        ckt.resistor(&format!("s{s}_rl_n"), vdd, out_n, 10e3);
        for k in 0..4 {
            ckt.mosfet(
                &format!("s{s}_mp{k}"),
                out_p,
                prev.0,
                tail,
                Circuit::GND,
                nmos.clone(),
            );
            ckt.mosfet(
                &format!("s{s}_mn{k}"),
                out_n,
                prev.1,
                tail,
                Circuit::GND,
                nmos.clone(),
            );
        }
        ckt.mosfet(
            &format!("s{s}_tail_dev"),
            tail,
            vdd,
            Circuit::GND,
            Circuit::GND,
            nmos.clone(),
        );
        prev = (out_p, out_n);
    }
    let a = ckt.find_node("s0_out_p").expect("s0_out_p");
    let b = ckt.find_node("s1_out_p").expect("s1_out_p");
    ckt.resistor("r_bridge", a, b, 50e3);
    ckt
}

/// Cell-topology faults: a symmetry break, a PG cell without sleep, and
/// a sleep/tail gate swap.
fn broken_cells() -> Vec<CellNetlist> {
    let params = CellParams::default();

    let mut skew = build_cell(CellKind::Xor2, LogicStyle::PgMcml, &params);
    let a_p = skew.ports["a_p"];
    let victim = skew
        .circuit
        .elements()
        .find_map(|(id, _, e)| match e {
            Element::Mos { g, dev, .. }
                if *g == a_p && dev.params.polarity == MosPolarity::Nmos =>
            {
                Some(id)
            }
            _ => None,
        })
        .expect("an NMOS gated by a_p");
    if let Element::Mos { dev, .. } = skew.circuit.element_mut(victim) {
        dev.geom.w *= 1.2;
    }

    let mut no_sleep = build_cell(CellKind::Buffer, LogicStyle::Mcml, &params);
    no_sleep.style = LogicStyle::PgMcml;

    let mut swapped = build_cell(CellKind::Buffer, LogicStyle::PgMcml, &params);
    let slp = swapped.circuit.find_element("s0_slp").expect("s0_slp");
    let tail = swapped.circuit.find_element("s0_tail").expect("s0_tail");
    let gate_of = |c: &CellNetlist, id| match c.circuit.element(id) {
        Element::Mos { g, .. } => *g,
        _ => unreachable!("sleep/tail devices are MOSFETs"),
    };
    let g_slp = gate_of(&swapped, slp);
    let g_tail = gate_of(&swapped, tail);
    if let Element::Mos { g, .. } = swapped.circuit.element_mut(slp) {
        *g = g_tail;
    }
    if let Element::Mos { g, .. } = swapped.circuit.element_mut(tail) {
        *g = g_slp;
    }

    vec![skew, no_sleep, swapped]
}

#[test]
fn every_registered_rule_fires() {
    let engine = LintEngine::with_default_rules();
    let mut reports: Vec<LintReport> = Vec::new();

    reports.push(engine.lint_netlist(&leaky_cmos(), None));
    reports.push(engine.lint_netlist(&structural_faults(), None));
    reports.push(engine.lint_netlist(&comb_loop(), None));
    for nl in style_faults() {
        reports.push(engine.lint_netlist(&nl, None));
    }
    let (pg, plan) = sleep_faults();
    reports.push(engine.lint_netlist(&pg, Some(&plan)));
    for circuit in [&broken_circuit(), &collapsed_circuit()] {
        reports.push(engine.run(&LintTarget::Circuit {
            circuit,
            cell: None,
        }));
    }
    for cell in broken_cells() {
        reports.push(engine.lint_cell(&cell));
    }

    let fired: std::collections::BTreeSet<&str> = reports
        .iter()
        .flat_map(|r| r.diagnostics.iter().map(|d| d.rule_id))
        .collect();
    let missing: Vec<&str> = engine
        .rules()
        .map(Rule::id)
        .filter(|id| !fired.contains(id))
        .collect();
    assert!(
        missing.is_empty(),
        "rules with no negative-corpus coverage: {missing:?} (fired: {fired:?})"
    );
}
