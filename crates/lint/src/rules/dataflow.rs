//! Dataflow rule pack: security lints driven by the forward fixpoint
//! analyses in [`crate::dataflow`].
//!
//! These rules encode the paper's threat model. Secret-dependent
//! switching on a CMOS net shows up directly in the supply current and
//! is what the CPA attack in `mcml-bench` correlates against; a secret
//! reaching a clock/enable/reset pin modulates *when* power is drawn,
//! which no logic style hides; and a single-ended crossing out of the
//! differential domain re-creates the unbalanced signature PG-MCML
//! exists to remove. All four rules are no-ops on circuit targets and
//! on netlists with combinational cycles (no dataflow results — the
//! `comb-loop` rule already denies those).

use mcml_cells::{CellKind, LogicStyle};
use mcml_netlist::{GateKind, Netlist};

use crate::dataflow::DataflowResults;
use crate::diag::{Diagnostic, Location, Severity};
use crate::engine::{LintContext, LintTarget, Rule};

/// Every rule of the dataflow pack, in registration order.
#[must_use]
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(SecretCmos),
        Box::new(SecretControl),
        Box::new(UnbalancedCrossing),
        Box::new(Glitch),
    ]
}

/// Netlist + dataflow results, or nothing to check.
fn netlist_dataflow<'c>(ctx: &'c LintContext<'_>) -> Option<(&'c Netlist, &'c DataflowResults)> {
    let LintTarget::Netlist { nl, .. } = ctx.target else {
        return None;
    };
    ctx.dataflow().map(|r| (*nl, r))
}

/// Control (clock/enable/reset) inputs of a sequential cell, as
/// `(pin index, name)`: every catalog input except the data pin `d`.
/// Data pins are excluded: secret *data* through a register is the
/// normal datapath, secret *timing* is a side channel on its own.
fn control_pins(kind: CellKind) -> impl Iterator<Item = (usize, &'static str)> {
    let pins = if kind.is_sequential() {
        kind.input_names()
    } else {
        &[]
    };
    pins.iter()
        .copied()
        .enumerate()
        .filter(|&(_, name)| name != "d")
}

/// `dataflow-secret-cmos`: a secret-tainted net implemented in plain
/// CMOS. Warn (not deny): the CMOS attack baselines this repo ships
/// exist precisely to exhibit the leak, and waivers mark them as
/// intentional.
pub struct SecretCmos;

impl Rule for SecretCmos {
    fn id(&self) -> &'static str {
        "dataflow-secret-cmos"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "secret-tainted net is implemented in plain CMOS (data-dependent supply current)"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some((nl, r)) = netlist_dataflow(ctx) else {
            return Vec::new();
        };
        if nl.style != LogicStyle::Cmos {
            return Vec::new();
        }
        let driver = nl.driver_map();
        (0..nl.net_count())
            .filter(|&ni| r.taint[ni] && driver[ni].is_some())
            .map(|ni| Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message: "secret-tainted net switches in plain CMOS; its toggles are visible \
                          in the supply current"
                    .to_owned(),
                location: Location::Net(
                    nl.net_name(mcml_netlist::NetId::from_index(ni)).to_owned(),
                ),
            })
            .collect()
    }
}

/// `dataflow-secret-control`: a secret-tainted net drives a sequential
/// cell's clock, enable or reset pin. Deny by default — secret-gated
/// timing leaks in every logic style, including PG-MCML, and never
/// occurs in a legitimate datapath.
pub struct SecretControl;

impl Rule for SecretControl {
    fn id(&self) -> &'static str {
        "dataflow-secret-control"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "secret-tainted net drives a sequential clock/enable/reset pin (timing side channel)"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some((nl, r)) = netlist_dataflow(ctx) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for g in nl.gates() {
            let GateKind::Lib(kind) = g.kind else {
                continue;
            };
            for (pin, pin_name) in control_pins(kind) {
                let Some(c) = g.inputs.get(pin) else {
                    continue;
                };
                if r.taint[c.net.index()] {
                    out.push(Diagnostic {
                        rule_id: self.id(),
                        severity: self.default_severity(),
                        message: format!(
                            "secret-tainted net {} drives the `{}` pin of a {kind}; \
                             when this register fires is key-dependent",
                            nl.net_name(c.net),
                            pin_name,
                        ),
                        location: Location::Gate(g.name.clone()),
                    });
                }
            }
        }
        out
    }
}

/// `dataflow-unbalanced-crossing`: a secret-tainted net leaves the
/// differential domain through a `Diff2Single` converter. Deny by
/// default — the single-ended side has no complementary rail, so the
/// crossing re-creates exactly the unbalanced switching signature the
/// differential style pays area and static power to remove.
pub struct UnbalancedCrossing;

impl Rule for UnbalancedCrossing {
    fn id(&self) -> &'static str {
        "dataflow-unbalanced-crossing"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "secret-tainted net crosses out of the differential domain single-ended"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some((nl, r)) = netlist_dataflow(ctx) else {
            return Vec::new();
        };
        if !nl.style.is_differential() {
            return Vec::new();
        }
        nl.gates()
            .iter()
            .filter(|g| g.kind == GateKind::Lib(CellKind::Diff2Single))
            .filter_map(|g| {
                let tainted = g.inputs.iter().find(|c| r.taint[c.net.index()])?;
                Some(Diagnostic {
                    rule_id: self.id(),
                    severity: self.default_severity(),
                    message: format!(
                        "secret-tainted net {} leaves the differential domain through a \
                         single-ended converter",
                        nl.net_name(tainted.net)
                    ),
                    location: Location::Gate(g.name.clone()),
                })
            })
            .collect()
    }
}

/// Toggle bound above which a tainted CMOS net counts as glitch-prone
/// (`dataflow-glitch` rule): 1 flags any net that can transition more
/// than once per evaluation.
pub const GLITCH_TOGGLE_LIMIT: u32 = 1;

/// `dataflow-glitch`: a secret-tainted CMOS net whose static toggle
/// bound exceeds [`GLITCH_TOGGLE_LIMIT`]: every spurious transition is
/// an extra data-dependent charge packet on the supply rail.
/// Differential styles are exempt — their tail current is
/// glitch-independent.
pub struct Glitch;

impl Rule for Glitch {
    fn id(&self) -> &'static str {
        "dataflow-glitch"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "secret-tainted CMOS net is glitch-prone (toggle bound above the limit)"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let Some((nl, r)) = netlist_dataflow(ctx) else {
            return Vec::new();
        };
        if nl.style != LogicStyle::Cmos {
            return Vec::new();
        }
        (0..nl.net_count())
            .filter(|&ni| r.taint[ni] && r.activity[ni].toggles > GLITCH_TOGGLE_LIMIT)
            .map(|ni| {
                let a = r.activity[ni];
                Diagnostic {
                    rule_id: self.id(),
                    severity: self.default_severity(),
                    message: format!(
                        "toggle bound {} exceeds the limit of {GLITCH_TOGGLE_LIMIT} (arrival \
                         window [{}, {}] gate levels)",
                        a.toggles, a.min_arrival, a.max_arrival
                    ),
                    location: Location::Net(
                        nl.net_name(mcml_netlist::NetId::from_index(ni)).to_owned(),
                    ),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LintEngine;
    use mcml_netlist::{Conn, PortClass};

    /// k XOR p into a DFF, CMOS style: the canonical leaky datapath.
    fn cmos_secret_path() -> Netlist {
        let mut nl = Netlist::new("leaky", LogicStyle::Cmos);
        let clk = nl.add_input("clk");
        let k = nl.add_input("k");
        let p = nl.add_input("p");
        let d = nl.add_net("d");
        let q = nl.add_net("q");
        nl.add_gate(
            "u_x",
            GateKind::Lib(CellKind::Xor2),
            vec![Conn::plain(k), Conn::plain(p)],
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

    #[test]
    fn secret_cmos_warns_on_driven_tainted_nets_only() {
        let nl = cmos_secret_path();
        let report = LintEngine::with_default_rules().lint_netlist(&nl, None);
        let nets: Vec<String> = report
            .by_rule("dataflow-secret-cmos")
            .map(|d| d.location.to_string())
            .collect();
        // d and q are tainted *and* driven; the primary input k is
        // tainted but has no driver on this design's supply rail.
        assert_eq!(nets, vec!["net d", "net q"]);
        assert!(report.is_clean(), "warn-only: {report:?}");
    }

    #[test]
    fn secret_control_denies_a_key_gated_clock() {
        let mut nl = Netlist::new("gated", LogicStyle::PgMcml);
        let clk = nl.add_input("clk");
        let k = nl.add_input("k");
        let d = nl.add_input("d");
        let gclk = nl.add_net("gclk");
        let q = nl.add_net("q");
        nl.add_gate(
            "u_and",
            GateKind::Lib(CellKind::And2),
            vec![Conn::plain(clk), Conn::plain(k)],
            vec![gclk],
        );
        nl.add_gate(
            "u_ff",
            GateKind::Lib(CellKind::Dff),
            vec![Conn::plain(d), Conn::plain(gclk)],
            vec![q],
        );
        nl.set_output("q", Conn::plain(q));
        nl.set_port_class("k", PortClass::Secret);
        nl.set_port_class("clk", PortClass::Clock);

        let report = LintEngine::with_default_rules().lint_netlist(&nl, None);
        let hits: Vec<&Diagnostic> = report.by_rule("dataflow-secret-control").collect();
        assert_eq!(hits.len(), 1, "{report:?}");
        assert_eq!(hits[0].severity, Severity::Deny);
        assert_eq!(hits[0].location, Location::Gate("u_ff".into()));
    }

    #[test]
    fn unbalanced_crossing_denies_tainted_diff2single() {
        let mut nl = Netlist::new("cross", LogicStyle::PgMcml);
        let k = nl.add_input("k");
        let single = nl.add_net("single");
        nl.add_gate(
            "u_d2s",
            GateKind::Lib(CellKind::Diff2Single),
            vec![Conn::plain(k)],
            vec![single],
        );
        nl.set_output("out", Conn::plain(single));
        nl.set_port_class("k", PortClass::Secret);

        let report = LintEngine::with_default_rules().lint_netlist(&nl, None);
        assert_eq!(report.by_rule("dataflow-unbalanced-crossing").count(), 1);
        assert!(!report.is_clean());

        // The same crossing on an untainted net is fine.
        let mut clean = Netlist::new("cross_ok", LogicStyle::PgMcml);
        let a = clean.add_input("a");
        let s = clean.add_net("single");
        clean.add_gate(
            "u_d2s",
            GateKind::Lib(CellKind::Diff2Single),
            vec![Conn::plain(a)],
            vec![s],
        );
        clean.set_output("out", Conn::plain(s));
        let report = LintEngine::with_default_rules().lint_netlist(&clean, None);
        assert_eq!(report.by_rule("dataflow-unbalanced-crossing").count(), 0);
    }

    #[test]
    fn glitch_warns_on_cmos_only_and_respects_the_limit() {
        // A skewed public side-path reconverges with the key: `slow`
        // is glitch-prone but untainted, `q` is tainted with toggle
        // bound 3 — only `q` should fire.
        let build = |style| {
            let mut nl = Netlist::new("glitchy", style);
            let k = nl.add_input("k");
            let p = nl.add_input("p");
            let p2 = nl.add_input("p2");
            let slow = nl.add_net("slow");
            let q = nl.add_net("q");
            nl.add_gate(
                "u_a",
                GateKind::Lib(CellKind::And2),
                vec![Conn::plain(p), Conn::plain(p2)],
                vec![slow],
            );
            nl.add_gate(
                "u_x",
                GateKind::Lib(CellKind::Xor2),
                vec![Conn::plain(k), Conn::plain(slow)],
                vec![q],
            );
            nl.set_output("q", Conn::plain(q));
            nl.set_port_class("k", PortClass::Secret);
            nl
        };
        let engine = LintEngine::with_default_rules();
        let report = engine.lint_netlist(&build(LogicStyle::Cmos), None);
        assert_eq!(report.by_rule("dataflow-glitch").count(), 1, "{report:?}");
        // Same structure in PG-MCML: constant tail current, no rule.
        let report = engine.lint_netlist(&build(LogicStyle::PgMcml), None);
        assert_eq!(report.by_rule("dataflow-glitch").count(), 0);
    }
}
