//! Golden corpus for the gate-level rule pack: one deliberately broken
//! netlist per rule, asserting the exact rule id (and severity) each
//! violation is reported under. These ids are the stable public
//! contract of `mcml-lint` (documented in `docs/LINTING.md`).

use mcml_cells::{CellKind, LogicStyle};
use mcml_lint::{LintConfig, LintEngine, LintReport, Severity};
use mcml_netlist::sleep_tree::SleepTree;
use mcml_netlist::{Conn, GateKind, Netlist, SleepDomain, SleepPlan};

fn lint(nl: &Netlist) -> LintReport {
    LintEngine::with_default_rules().lint_netlist(nl, None)
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

#[test]
fn net_undriven_is_reported() {
    let mut nl = Netlist::new("t", LogicStyle::PgMcml);
    let a = nl.add_input("a");
    let ghost = nl.add_net("ghost");
    let q = nl.add_net("q");
    nl.add_gate(
        "u",
        GateKind::Lib(CellKind::And2),
        vec![Conn::plain(a), Conn::plain(ghost)],
        vec![q],
    );
    nl.set_output("q", Conn::plain(q));
    let report = lint(&nl);
    assert_rule(&report, "net-undriven", Severity::Warn);
    assert!(report.is_clean(), "warn-only: {report:?}");
}

#[test]
fn net_multi_driven_is_reported() {
    let mut nl = Netlist::new("t", LogicStyle::PgMcml);
    let a = nl.add_input("a");
    let q = nl.add_net("q");
    for name in ["u1", "u2"] {
        nl.add_gate(
            name,
            GateKind::Lib(CellKind::Buffer),
            vec![Conn::plain(a)],
            vec![q],
        );
    }
    nl.set_output("q", Conn::plain(q));
    let report = lint(&nl);
    assert_rule(&report, "net-multi-driven", Severity::Deny);
    assert!(!report.is_clean());
}

#[test]
fn net_dangling_is_reported() {
    let mut nl = Netlist::new("t", LogicStyle::PgMcml);
    let a = nl.add_input("a");
    let q = nl.add_net("q");
    nl.add_gate(
        "u",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(a)],
        vec![q],
    );
    // `q` never consumed: no output declared.
    let report = lint(&nl);
    assert_rule(&report, "net-dangling", Severity::Warn);
}

#[test]
fn input_driven_is_reported() {
    let mut nl = Netlist::new("t", LogicStyle::PgMcml);
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    nl.add_gate(
        "u",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(a)],
        vec![b],
    );
    nl.set_output("q", Conn::plain(b));
    let report = lint(&nl);
    assert_rule(&report, "input-driven", Severity::Deny);
}

#[test]
fn comb_loop_is_reported_with_cycle() {
    let mut nl = Netlist::new("t", LogicStyle::PgMcml);
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
    let report = lint(&nl);
    assert_rule(&report, "comb-loop", Severity::Deny);
    let d = report.by_rule("comb-loop").next().unwrap();
    assert!(
        d.message.contains("u1") && d.message.contains("u2") && d.message.contains("->"),
        "cycle path named: {}",
        d.message
    );
}

#[test]
fn sequential_gate_breaks_the_loop() {
    let mut nl = Netlist::new("t", LogicStyle::PgMcml);
    let clk = nl.add_input("clk");
    let a = nl.add_net("a");
    let b = nl.add_net("b");
    nl.add_gate(
        "u1",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::plain(a)],
        vec![b],
    );
    nl.add_gate(
        "ff",
        GateKind::Lib(CellKind::Dff),
        vec![Conn::plain(b), Conn::plain(clk)],
        vec![a],
    );
    nl.set_output("q", Conn::plain(a));
    let report = lint(&nl);
    assert_eq!(report.by_rule("comb-loop").count(), 0, "{report:?}");
}

#[test]
fn diff_illegal_inverter_is_reported() {
    let mut nl = Netlist::new("t", LogicStyle::Mcml);
    let a = nl.add_input("a");
    let q = nl.add_net("q");
    nl.add_gate("u_inv", GateKind::Inv, vec![Conn::plain(a)], vec![q]);
    nl.set_output("q", Conn::plain(q));
    let report = lint(&nl);
    assert_rule(&report, "diff-illegal-inverter", Severity::Deny);
}

#[test]
fn fanout_envelope_is_reported() {
    let mut nl = Netlist::new("t", LogicStyle::PgMcml);
    let a = nl.add_input("a");
    for i in 0..5 {
        let q = nl.add_net(&format!("q{i}"));
        nl.add_gate(
            &format!("u{i}"),
            GateKind::Lib(CellKind::Buffer),
            vec![Conn::plain(a)],
            vec![q],
        );
        nl.set_output(&format!("q{i}"), Conn::plain(q));
    }
    let report = lint(&nl); // a drives 5 > FO4 default
    assert_rule(&report, "fanout-envelope", Severity::Warn);
    let d = report.by_rule("fanout-envelope").next().unwrap();
    assert_eq!(d.location.to_string(), "net a");

    // A raised envelope waives it.
    let mut cfg = LintConfig::default();
    cfg.max_fanout = 8;
    let relaxed = LintEngine::new(cfg).lint_netlist(&nl, None);
    assert_eq!(relaxed.by_rule("fanout-envelope").count(), 0);
}

#[test]
fn cmos_inverted_conn_is_reported() {
    let mut nl = Netlist::new("t", LogicStyle::Cmos);
    let a = nl.add_input("a");
    let q = nl.add_net("q");
    nl.add_gate(
        "u",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::inv(a)],
        vec![q],
    );
    nl.set_output("q", Conn::inv(q));
    let report = lint(&nl);
    assert_rule(&report, "cmos-inverted-conn", Severity::Deny);
    assert_eq!(
        report.by_rule("cmos-inverted-conn").count(),
        2,
        "pin + output"
    );

    // The same connections are legal (free) in a differential netlist.
    let mut diff = Netlist::new("t", LogicStyle::PgMcml);
    let a = diff.add_input("a");
    let q = diff.add_net("q");
    diff.add_gate(
        "u",
        GateKind::Lib(CellKind::Buffer),
        vec![Conn::inv(a)],
        vec![q],
    );
    diff.set_output("q", Conn::inv(q));
    assert_eq!(lint(&diff).by_rule("cmos-inverted-conn").count(), 0);
}

/// Two-gate PG netlist used by the sleep-plan tests.
fn pg_pair() -> Netlist {
    let mut nl = Netlist::new("t", LogicStyle::PgMcml);
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
    nl
}

fn tree(insertion_delay: f64) -> SleepTree {
    SleepTree {
        sinks: 2,
        buffers_per_level: vec![1],
        insertion_delay,
        skew: 0.0,
    }
}

#[test]
fn sleep_domain_orphan_is_reported() {
    let nl = pg_pair();
    // Gate u2 claims domain 0 membership, but the domain lists only u1.
    let plan = SleepPlan {
        domains: vec![SleepDomain {
            name: "d0".into(),
            gates: vec![0],
            tree: tree(0.5e-9),
        }],
        domain_of_gate: vec![0, 0],
    };
    let report = LintEngine::with_default_rules().lint_netlist(&nl, Some(&plan));
    assert_rule(&report, "sleep-domain-orphan", Severity::Deny);
    let d = report.by_rule("sleep-domain-orphan").next().unwrap();
    assert_eq!(d.location.to_string(), "gate u2");

    // A complete plan is clean.
    let full = SleepPlan {
        domains: vec![SleepDomain {
            name: "d0".into(),
            gates: vec![0, 1],
            tree: tree(0.5e-9),
        }],
        domain_of_gate: vec![0, 0],
    };
    let report = LintEngine::with_default_rules().lint_netlist(&nl, Some(&full));
    assert_eq!(
        report.by_rule("sleep-domain-orphan").count(),
        0,
        "{report:?}"
    );
}

#[test]
fn sleep_insertion_delay_is_reported() {
    let nl = pg_pair();
    let plan = SleepPlan {
        domains: vec![SleepDomain {
            name: "slow".into(),
            gates: vec![0, 1],
            tree: tree(2.3e-9), // over the 1 ns budget
        }],
        domain_of_gate: vec![0, 0],
    };
    let report = LintEngine::with_default_rules().lint_netlist(&nl, Some(&plan));
    assert_rule(&report, "sleep-insertion-delay", Severity::Warn);
    let d = report.by_rule("sleep-insertion-delay").next().unwrap();
    assert!(
        d.message.contains("slow") && d.message.contains("2.30 ns"),
        "{}",
        d.message
    );
}
