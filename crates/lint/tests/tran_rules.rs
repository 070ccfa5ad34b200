//! Golden corpus for the transistor-level rule pack: one deliberately
//! broken circuit per rule, asserting the exact rule id. The
//! `diff-symmetry` test seeds a W/L imbalance into a generated PG-MCML
//! cell — the headline DPA-leakage check of the pack.

use mcml_cells::{build_cell, CellKind, CellParams, LogicStyle};
use mcml_device::{MosParams, Mosfet};
use mcml_lint::{LintEngine, LintReport, LintTarget, Severity};
use mcml_spice::{Circuit, Element, SourceWave};

fn lint(circuit: &Circuit) -> LintReport {
    LintEngine::with_default_rules().run(&LintTarget::Circuit {
        circuit,
        cell: None,
    })
}

fn assert_rule(report: &LintReport, rule_id: &str, severity: Severity) {
    let hits: Vec<_> = report.by_rule(rule_id).collect();
    assert!(
        !hits.is_empty(),
        "expected a `{rule_id}` diagnostic, got: {:?}",
        report.diagnostics
    );
    assert!(
        hits.iter().all(|d| d.severity == severity),
        "`{rule_id}` severity: {hits:?}"
    );
}

fn nmos() -> Mosfet {
    Mosfet::nmos(MosParams::nmos_lvt_90(), 400e-9, 100e-9)
}

/// Supply + resistive load: a legal, anchored skeleton for the ERC
/// cases below.
fn skeleton() -> Circuit {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let d = ckt.node("d");
    ckt.vsource("v_vdd", vdd, Circuit::GND, SourceWave::dc(1.0));
    ckt.resistor("r_load", vdd, d, 10e3);
    ckt
}

#[test]
fn mos_floating_gate_is_reported() {
    let mut ckt = skeleton();
    let d = ckt.node("d");
    let fg = ckt.node("fg"); // nothing drives this
    ckt.mosfet("m1", d, fg, Circuit::GND, Circuit::GND, nmos());
    let report = lint(&ckt);
    assert_rule(&report, "mos-floating-gate", Severity::Deny);
    let diag = report.by_rule("mos-floating-gate").next().unwrap();
    assert_eq!(diag.location.to_string(), "node fg");
    assert!(diag.message.contains("m1"), "{}", diag.message);
    assert_eq!(report.deny_count(), 1, "only the gate rule: {report:?}");
}

#[test]
fn mos_floating_bulk_is_reported() {
    let mut ckt = skeleton();
    let vdd = ckt.node("vdd");
    let d = ckt.node("d");
    let nb = ckt.node("nb"); // unbiased well
    ckt.mosfet("m1", d, vdd, Circuit::GND, nb, nmos());
    let report = lint(&ckt);
    assert_rule(&report, "mos-floating-bulk", Severity::Deny);
    assert_eq!(
        report
            .by_rule("mos-floating-bulk")
            .next()
            .unwrap()
            .location
            .to_string(),
        "node nb"
    );
    assert_eq!(report.deny_count(), 1, "{report:?}");
}

#[test]
fn node_no_dc_path_is_reported() {
    let mut ckt = skeleton();
    let n1 = ckt.node("isl1");
    let n2 = ckt.node("isl2");
    ckt.resistor("r_island", n1, n2, 1e3); // floats as a pair
    let report = lint(&ckt);
    assert_rule(&report, "node-no-dc-path", Severity::Deny);
    let locs: Vec<String> = report
        .by_rule("node-no-dc-path")
        .map(|d| d.location.to_string())
        .collect();
    assert_eq!(locs, ["node isl1", "node isl2"]);
}

#[test]
fn vsource_loop_is_reported() {
    let mut ckt = skeleton();
    let vdd = ckt.node("vdd");
    ckt.vsource("v_dup", vdd, Circuit::GND, SourceWave::dc(1.2));
    let report = lint(&ckt);
    assert_rule(&report, "vsource-loop", Severity::Deny);
    assert_eq!(
        report
            .by_rule("vsource-loop")
            .next()
            .unwrap()
            .location
            .to_string(),
        "element v_dup"
    );
}

#[test]
fn seeded_symmetry_break_is_flagged() {
    // Acceptance case: widen one NMOS on the true rail of a generated
    // PG-MCML XOR2 by 20 % and the DPA symmetry rule must fire.
    let params = CellParams::default();
    let mut cell = build_cell(CellKind::Xor2, LogicStyle::PgMcml, &params);
    assert!(lint_cell_clean(&cell), "generated cell starts clean");

    let a_p = cell.ports["a_p"];
    let victim = cell
        .circuit
        .elements()
        .find_map(|(id, _, e)| match e {
            Element::Mos { g, dev, .. }
                if *g == a_p && dev.params.polarity == mcml_device::MosPolarity::Nmos =>
            {
                Some(id)
            }
            _ => None,
        })
        .expect("an NMOS gated by a_p");
    if let Element::Mos { dev, .. } = cell.circuit.element_mut(victim) {
        dev.geom.w *= 1.2;
    }

    let report = LintEngine::with_default_rules().lint_cell(&cell);
    assert_rule(&report, "diff-symmetry", Severity::Deny);
    let diag = report.by_rule("diff-symmetry").next().unwrap();
    assert_eq!(diag.location.to_string(), "port a");
    assert!(
        diag.message
            .contains("NMOS gated by the true/complement rails differ"),
        "{}",
        diag.message
    );
}

fn lint_cell_clean(cell: &mcml_cells::CellNetlist) -> bool {
    let report = LintEngine::with_default_rules().lint_cell(cell);
    report.is_clean() && report.warn_count() == 0
}

#[test]
fn pg_sleep_missing_is_reported() {
    let params = CellParams::default();

    // A cell claiming to be power-gated without any sleep port.
    let mut cell = build_cell(CellKind::Buffer, LogicStyle::Mcml, &params);
    cell.style = LogicStyle::PgMcml;
    let report = LintEngine::with_default_rules().lint_cell(&cell);
    assert_rule(&report, "pg-sleep-missing", Severity::Deny);
    assert!(
        report
            .by_rule("pg-sleep-missing")
            .next()
            .unwrap()
            .message
            .contains("exposes neither"),
        "{report:?}"
    );

    // A sleep port that no transistor listens to.
    let sleep = cell.circuit.node("sleep");
    cell.ports.insert("sleep".to_owned(), sleep);
    let report = LintEngine::with_default_rules().lint_cell(&cell);
    assert_rule(&report, "pg-sleep-missing", Severity::Deny);
    assert!(
        report
            .by_rule("pg-sleep-missing")
            .next()
            .unwrap()
            .message
            .contains("no transistor is gated"),
        "{report:?}"
    );
}

#[test]
fn pg_sleep_position_swap_is_reported() {
    // Swap the gates of the stage-0 sleep and tail devices of a
    // topology-(d) buffer: the sleep transistor ends up *below* the
    // tail (source at ground), defeating the negative-VGS sleep trick.
    let params = CellParams::default();
    let mut cell = build_cell(CellKind::Buffer, LogicStyle::PgMcml, &params);
    let slp = cell.circuit.find_element("s0_slp").expect("s0_slp");
    let tail = cell.circuit.find_element("s0_tail").expect("s0_tail");
    let gate_of = |cell: &mcml_cells::CellNetlist, id| match cell.circuit.element(id) {
        Element::Mos { g, .. } => *g,
        _ => unreachable!("sleep/tail devices are MOSFETs"),
    };
    let g_slp = gate_of(&cell, slp);
    let g_tail = gate_of(&cell, tail);
    if let Element::Mos { g, .. } = cell.circuit.element_mut(slp) {
        *g = g_tail;
    }
    if let Element::Mos { g, .. } = cell.circuit.element_mut(tail) {
        *g = g_slp;
    }

    let report = LintEngine::with_default_rules().lint_cell(&cell);
    assert_rule(&report, "pg-sleep-position", Severity::Deny);
    assert!(
        report
            .by_rule("pg-sleep-position")
            .any(|d| d.location.to_string() == "element s0_tail"),
        "the misplaced sleep device is named: {report:?}"
    );
}

#[test]
fn whole_library_is_lint_clean() {
    // The golden *clean* corpus: every generated cell in every style
    // passes the full transistor-level pack with zero diagnostics.
    let params = CellParams::default();
    for style in LogicStyle::ALL {
        for kind in CellKind::ALL {
            let cell = build_cell(kind, style, &params);
            let report = LintEngine::with_default_rules().lint_cell(&cell);
            assert!(
                report.is_clean() && report.warn_count() == 0,
                "{kind} [{style}]: {report:?}"
            );
        }
    }
}

/// Three differential stages of 9 MOS each, every stage's gates driven
/// by the previous stage's outputs, the ring closed from the last stage
/// back to the first. The stages couple only through gates, which carry
/// no DC current, so there is no galvanic bridge and
/// `partition-collapse` must stay silent: each stage is its own DC
/// component.
#[test]
fn gate_only_ring_is_not_a_collapse() {
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    ckt.vsource("v_vdd", vdd, Circuit::GND, SourceWave::dc(1.2));
    let outs: Vec<_> = (0..3)
        .map(|s| {
            (
                ckt.node(&format!("s{s}_out_p")),
                ckt.node(&format!("s{s}_out_n")),
            )
        })
        .collect();
    for s in 0..3 {
        let (out_p, out_n) = outs[s];
        let (in_p, in_n) = outs[(s + 2) % 3];
        let tail = ckt.node(&format!("s{s}_tail"));
        ckt.resistor(&format!("s{s}_rl_p"), vdd, out_p, 10e3);
        ckt.resistor(&format!("s{s}_rl_n"), vdd, out_n, 10e3);
        for k in 0..4 {
            ckt.mosfet(
                &format!("s{s}_mp{k}"),
                out_p,
                in_p,
                tail,
                Circuit::GND,
                nmos(),
            );
            ckt.mosfet(
                &format!("s{s}_mn{k}"),
                out_n,
                in_n,
                tail,
                Circuit::GND,
                nmos(),
            );
        }
        ckt.mosfet(
            &format!("s{s}_tail_dev"),
            tail,
            vdd,
            Circuit::GND,
            Circuit::GND,
            nmos(),
        );
    }
    let report = lint(&ckt);
    assert_eq!(
        report.by_rule("partition-collapse").count(),
        0,
        "a gate-only ring is not a galvanic bridge: {:?}",
        report.diagnostics
    );

    // Two resistive bridges join the three stages into one galvanic
    // component: now the rule fires.
    let (a, b, c) = (outs[0].0, outs[1].0, outs[2].0);
    ckt.resistor("r_bridge_01", a, b, 50e3);
    ckt.resistor("r_bridge_12", b, c, 50e3);
    assert_rule(&lint(&ckt), "partition-collapse", Severity::Warn);
}
