//! Gate-level rule pack: structural ERC over the [`mcml_netlist`] IR
//! plus the characterisation and sleep-tree envelope checks.

use mcml_cells::LogicStyle;
use mcml_netlist::{structural_issues, NetId, Netlist, SleepPlan, StructuralIssue};

use crate::diag::{Diagnostic, Location, Severity};
use crate::engine::{LintContext, LintTarget, Rule};

/// Every rule of the gate-level pack, in registration order.
#[must_use]
pub fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NetUndriven),
        Box::new(NetMultiDriven),
        Box::new(NetDangling),
        Box::new(InputDriven),
        Box::new(CombLoop),
        Box::new(DiffIllegalInverter),
        Box::new(FanoutEnvelope),
        Box::new(CmosInvertedConn),
        Box::new(SleepDomainOrphan),
        Box::new(SleepInsertionDelay),
    ]
}

/// Run a closure over the shared structural walk, keeping the issues it
/// maps to diagnostics.
fn from_structural(
    target: &LintTarget<'_>,
    rule_id: &'static str,
    severity: Severity,
    map: impl FnMut(&StructuralIssue) -> Option<(Location, String)>,
) -> Vec<Diagnostic> {
    let LintTarget::Netlist { nl, .. } = target else {
        return Vec::new();
    };
    structural_issues(nl)
        .iter()
        .filter_map(map)
        .map(|(location, message)| Diagnostic {
            rule_id,
            severity,
            message,
            location,
        })
        .collect()
}

/// `net-undriven`: a net consumed by a gate or output but driven by
/// nothing (and not a primary input).
pub struct NetUndriven;

impl Rule for NetUndriven {
    fn id(&self) -> &'static str {
        "net-undriven"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "net is consumed but has no driver and is not a primary input"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        from_structural(
            ctx.target,
            self.id(),
            self.default_severity(),
            |i| match i {
                StructuralIssue::UndrivenNet { net } => Some((
                    Location::Net(net.clone()),
                    "consumed by the design but driven by nothing".to_owned(),
                )),
                _ => None,
            },
        )
    }
}

/// `net-multi-driven`: a net with more than one driving gate output.
pub struct NetMultiDriven;

impl Rule for NetMultiDriven {
    fn id(&self) -> &'static str {
        "net-multi-driven"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "net is driven by more than one gate output"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        from_structural(
            ctx.target,
            self.id(),
            self.default_severity(),
            |i| match i {
                StructuralIssue::MultipleDrivers { net, drivers } => Some((
                    Location::Net(net.clone()),
                    format!("driven by {} gates ({})", drivers.len(), drivers.join(", ")),
                )),
                _ => None,
            },
        )
    }
}

/// `net-dangling`: a driven net nothing consumes.
pub struct NetDangling;

impl Rule for NetDangling {
    fn id(&self) -> &'static str {
        "net-dangling"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "net is driven but consumed by nothing"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        from_structural(
            ctx.target,
            self.id(),
            self.default_severity(),
            |i| match i {
                StructuralIssue::DanglingNet { net, driver } => Some((
                    Location::Net(net.clone()),
                    format!("driven by {driver} but consumed by nothing"),
                )),
                _ => None,
            },
        )
    }
}

/// `input-driven`: a primary input whose net also has a gate driver.
pub struct InputDriven;

impl Rule for InputDriven {
    fn id(&self) -> &'static str {
        "input-driven"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "primary input net is also driven by a gate"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        from_structural(
            ctx.target,
            self.id(),
            self.default_severity(),
            |i| match i {
                StructuralIssue::DrivenInput { input, driver } => Some((
                    Location::Port(input.clone()),
                    format!("primary input is also driven by gate {driver}"),
                )),
                _ => None,
            },
        )
    }
}

/// `comb-loop`: a combinational cycle, reported with the offending path.
pub struct CombLoop;

impl Rule for CombLoop {
    fn id(&self) -> &'static str {
        "comb-loop"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "combinational cycle (no sequential element breaks the path)"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        from_structural(
            ctx.target,
            self.id(),
            self.default_severity(),
            |i| match i {
                StructuralIssue::CombinationalCycle { cycle } => Some((
                    Location::Gate(cycle.first().cloned().unwrap_or_default()),
                    format!("combinational cycle: {}", cycle.join(" -> ")),
                )),
                _ => None,
            },
        )
    }
}

/// `diff-illegal-inverter`: an explicit `Inv` gate in a differential
/// netlist, where inversion is free by rail swap.
pub struct DiffIllegalInverter;

impl Rule for DiffIllegalInverter {
    fn id(&self) -> &'static str {
        "diff-illegal-inverter"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "explicit inverter gate in a differential netlist (inversion is a free rail swap)"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        from_structural(
            ctx.target,
            self.id(),
            self.default_severity(),
            |i| match i {
                StructuralIssue::IllegalInverter { gate } => Some((
                    Location::Gate(gate.clone()),
                    "explicit INV in a differential netlist; invert the connection instead"
                        .to_owned(),
                )),
                _ => None,
            },
        )
    }
}

/// `fanout-envelope`: a net loaded beyond the fan-out range the library
/// was characterised at (FO1–FO4 by default), so its delay is an
/// extrapolation.
pub struct FanoutEnvelope;

impl Rule for FanoutEnvelope {
    fn id(&self) -> &'static str {
        "fanout-envelope"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "net fan-out exceeds the characterisation envelope (delay is extrapolated)"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Netlist { nl, .. } = ctx.target else {
            return Vec::new();
        };
        let cfg = ctx.config;
        nl.fanout_counts()
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > cfg.max_fanout)
            .map(|(ni, &f)| Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message: format!(
                    "fan-out {f} exceeds the FO{} characterisation envelope",
                    cfg.max_fanout
                ),
                location: Location::Net(nl.net_name(NetId::from_index(ni)).to_owned()),
            })
            .collect()
    }
}

/// `cmos-inverted-conn`: an inverted connection that survived into a
/// CMOS netlist — the techmap legaliser should have replaced it with a
/// real inverter gate.
pub struct CmosInvertedConn;

impl Rule for CmosInvertedConn {
    fn id(&self) -> &'static str {
        "cmos-inverted-conn"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "inverted connection in a CMOS netlist escaped inverter legalisation"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Netlist { nl, .. } = ctx.target else {
            return Vec::new();
        };
        if nl.style != LogicStyle::Cmos {
            return Vec::new();
        }
        let mut out = Vec::new();
        for g in nl.gates() {
            for (pin, c) in g.inputs.iter().enumerate() {
                if c.inverted {
                    out.push(Diagnostic {
                        rule_id: self.id(),
                        severity: self.default_severity(),
                        message: format!(
                            "input pin {pin} takes an inverted connection from net {}; \
                             CMOS netlists need an explicit inverter",
                            nl.net_name(c.net)
                        ),
                        location: Location::Gate(g.name.clone()),
                    });
                }
            }
        }
        for (name, c) in nl.outputs() {
            if c.inverted {
                out.push(Diagnostic {
                    rule_id: self.id(),
                    severity: self.default_severity(),
                    message: format!(
                        "primary output takes an inverted connection from net {}; \
                         CMOS netlists need an explicit inverter",
                        nl.net_name(c.net)
                    ),
                    location: Location::Port(name.clone()),
                });
            }
        }
        out
    }
}

/// Compare a sleep plan against the netlist it claims to cover,
/// returning the gate indices whose domain assignment is broken.
fn orphan_gates(nl: &Netlist, plan: &SleepPlan) -> Result<Vec<usize>, String> {
    if plan.domain_of_gate.len() != nl.gate_count() {
        return Err(format!(
            "sleep plan covers {} gates but the netlist has {}",
            plan.domain_of_gate.len(),
            nl.gate_count()
        ));
    }
    let mut orphans = Vec::new();
    for (gi, &d) in plan.domain_of_gate.iter().enumerate() {
        let listed = plan
            .domains
            .get(d)
            .is_some_and(|dom| dom.gates.contains(&gi));
        if !listed {
            orphans.push(gi);
        }
    }
    Ok(orphans)
}

/// `sleep-domain-orphan`: a gate the sleep plan leaves outside every
/// domain — it would never receive a sleep signal and burn static power
/// forever.
pub struct SleepDomainOrphan;

impl Rule for SleepDomainOrphan {
    fn id(&self) -> &'static str {
        "sleep-domain-orphan"
    }
    fn default_severity(&self) -> Severity {
        Severity::Deny
    }
    fn description(&self) -> &'static str {
        "gate is not a member of any sleep domain in the plan"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Netlist {
            nl,
            plan: Some(plan),
            ..
        } = ctx.target
        else {
            return Vec::new();
        };
        match orphan_gates(nl, plan) {
            Err(message) => vec![Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message,
                location: Location::Design,
            }],
            Ok(orphans) => orphans
                .into_iter()
                .map(|gi| Diagnostic {
                    rule_id: self.id(),
                    severity: self.default_severity(),
                    message: "gate is assigned to no sleep domain (it would never sleep)"
                        .to_owned(),
                    location: Location::Gate(nl.gates()[gi].name.clone()),
                })
                .collect(),
        }
    }
}

/// Sleep-tree insertion-delay budget in seconds
/// (`sleep-insertion-delay` rule): the paper's ≈1 ns wake-up (§5 /
/// Fig. 5).
pub const INSERTION_DELAY_BUDGET: f64 = 1.0e-9;

/// `sleep-insertion-delay`: a domain's sleep tree wakes up slower than
/// [`INSERTION_DELAY_BUDGET`].
pub struct SleepInsertionDelay;

impl Rule for SleepInsertionDelay {
    fn id(&self) -> &'static str {
        "sleep-insertion-delay"
    }
    fn default_severity(&self) -> Severity {
        Severity::Warn
    }
    fn description(&self) -> &'static str {
        "sleep-tree insertion delay exceeds the wake-up budget"
    }
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic> {
        let LintTarget::Netlist {
            plan: Some(plan), ..
        } = ctx.target
        else {
            return Vec::new();
        };
        plan.domains
            .iter()
            .filter(|d| d.tree.insertion_delay > INSERTION_DELAY_BUDGET)
            .map(|d| Diagnostic {
                rule_id: self.id(),
                severity: self.default_severity(),
                message: format!(
                    "sleep domain `{}`: insertion delay {:.2} ns exceeds the {:.2} ns \
                     wake-up budget",
                    d.name,
                    d.tree.insertion_delay * 1e9,
                    INSERTION_DELAY_BUDGET * 1e9
                ),
                location: Location::Design,
            })
            .collect()
    }
}
