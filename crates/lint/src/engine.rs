//! The rule registry and the lint run loop.

use std::cell::OnceCell;

use mcml_cells::CellNetlist;
use mcml_char::TimingLibrary;
use mcml_netlist::{Netlist, SleepPlan};
use mcml_spice::Circuit;

use crate::config::LintConfig;
use crate::dataflow::{self, DataflowResults};
use crate::diag::{Diagnostic, Severity};
use crate::report::{DataflowSummary, LintReport, NetScore, WaivedDiagnostic};
use crate::rules;

/// What a lint run inspects: one gate-level netlist or one
/// transistor-level circuit, with whatever side information is
/// available.
///
/// Rules receive the full target and skip silently when it is not
/// theirs (a transistor rule sees a netlist, a sleep-tree rule sees a
/// netlist without a [`SleepPlan`], …).
#[derive(Clone, Copy)]
pub enum LintTarget<'a> {
    /// A gate-level [`Netlist`], optionally with its sleep-domain plan
    /// (enables the `sleep-domain-orphan` and `sleep-insertion-delay`
    /// rules) and a characterised [`TimingLibrary`] (gives the
    /// dataflow leakage score real per-cell energies instead of the
    /// area proxy).
    Netlist {
        /// The netlist under check.
        nl: &'a Netlist,
        /// Sleep-domain plan, when one was synthesised.
        plan: Option<&'a SleepPlan>,
        /// Characterised timing library, when one is available.
        lib: Option<&'a TimingLibrary>,
    },
    /// A transistor-level [`Circuit`], optionally as a generated cell
    /// (ports + kind + style enable the differential-symmetry and
    /// sleep-transistor rules).
    Circuit {
        /// The circuit under check.
        circuit: &'a Circuit,
        /// The cell view, when the circuit is a generated standard cell.
        cell: Option<&'a CellNetlist>,
    },
}

impl LintTarget<'_> {
    /// Report name of the target.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            LintTarget::Netlist { nl, .. } => format!("{} [{}]", nl.name, nl.style),
            LintTarget::Circuit { cell: Some(c), .. } => format!("{} [{}]", c.kind, c.style),
            LintTarget::Circuit { cell: None, .. } => "circuit".to_owned(),
        }
    }
}

/// Everything one lint run hands its rules: the target, the resolved
/// configuration, and the shared dataflow analysis results — computed
/// lazily on first use so runs without dataflow rules pay nothing, and
/// computed **once** so the five dataflow rules don't re-solve the
/// fixpoint each.
pub struct LintContext<'a> {
    /// The target under check.
    pub target: &'a LintTarget<'a>,
    /// Fan-out envelope and waivers for this run.
    pub config: &'a LintConfig,
    dataflow: OnceCell<Option<DataflowResults>>,
}

impl<'a> LintContext<'a> {
    /// A context for one run.
    #[must_use]
    pub fn new(target: &'a LintTarget<'a>, config: &'a LintConfig) -> Self {
        Self {
            target,
            config,
            dataflow: OnceCell::new(),
        }
    }

    /// Dataflow results for netlist targets. `None` for circuit
    /// targets and for netlists with combinational cycles (which the
    /// `comb-loop` rule already denies).
    pub fn dataflow(&self) -> Option<&DataflowResults> {
        self.dataflow
            .get_or_init(|| match self.target {
                LintTarget::Netlist { nl, lib, .. } => dataflow::analyze(nl, *lib),
                LintTarget::Circuit { .. } => None,
            })
            .as_ref()
    }
}

/// A static-analysis rule.
///
/// A rule is pure: it inspects the context and returns diagnostics at
/// its own severity; the engine diverts waived findings into the
/// report's waived section.
pub trait Rule {
    /// Stable identifier (the key used in waivers, reports and
    /// `docs/LINTING.md`).
    fn id(&self) -> &'static str;
    /// Severity of every finding the rule reports.
    fn default_severity(&self) -> Severity;
    /// One-line description for documentation and `--list-rules` style
    /// output.
    fn description(&self) -> &'static str;
    /// Inspect the context and return every finding.
    fn check(&self, ctx: &LintContext<'_>) -> Vec<Diagnostic>;
}

/// The rule registry plus its configuration.
pub struct LintEngine {
    rules: Vec<Box<dyn Rule>>,
    /// Fan-out envelope and waivers applied at run time.
    pub config: LintConfig,
}

impl LintEngine {
    /// An engine with all three built-in rule packs at the given config.
    #[must_use]
    pub fn new(config: LintConfig) -> Self {
        Self {
            rules: rules::gate::all()
                .into_iter()
                .chain(rules::tran::all())
                .chain(rules::dataflow::all())
                .collect(),
            config,
        }
    }

    /// An engine with the default rules and default configuration.
    #[must_use]
    pub fn with_default_rules() -> Self {
        Self::new(LintConfig::default())
    }

    /// The rules, in pack order: gate, transistor, dataflow.
    pub fn rules(&self) -> impl Iterator<Item = &dyn Rule> {
        self.rules.iter().map(AsRef::as_ref)
    }

    /// Lint a gate-level netlist (with its sleep plan, when available).
    #[must_use]
    pub fn lint_netlist(&self, nl: &Netlist, plan: Option<&SleepPlan>) -> LintReport {
        self.run(&LintTarget::Netlist {
            nl,
            plan,
            lib: None,
        })
    }

    /// Lint a gate-level netlist with a characterised timing library,
    /// so the dataflow leakage score uses measured per-cell energies.
    #[must_use]
    pub fn lint_netlist_with_lib(
        &self,
        nl: &Netlist,
        plan: Option<&SleepPlan>,
        lib: &TimingLibrary,
    ) -> LintReport {
        self.run(&LintTarget::Netlist {
            nl,
            plan,
            lib: Some(lib),
        })
    }

    /// Lint a generated standard cell at transistor level.
    #[must_use]
    pub fn lint_cell(&self, cell: &CellNetlist) -> LintReport {
        self.run(&LintTarget::Circuit {
            circuit: &cell.circuit,
            cell: Some(cell),
        })
    }

    /// Run every registered rule against one target.
    #[must_use]
    pub fn run(&self, target: &LintTarget<'_>) -> LintReport {
        let _span = mcml_obs::span(mcml_obs::Stage::Lint);
        let ctx = LintContext::new(target, &self.config);
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        let mut waived: Vec<WaivedDiagnostic> = Vec::new();
        for rule in &self.rules {
            mcml_obs::incr(mcml_obs::Counter::LintRulesRun);
            for d in rule.check(&ctx) {
                if let Some(w) = self.config.waiver_for(d.rule_id, &d.location) {
                    mcml_obs::incr(mcml_obs::Counter::LintWaived);
                    waived.push(WaivedDiagnostic {
                        justification: w.justification.clone(),
                        diagnostic: d,
                    });
                    continue;
                }
                mcml_obs::incr(mcml_obs::Counter::LintDiagnostics);
                diagnostics.push(d);
            }
        }
        // Deterministic report order regardless of rule registration
        // order: by rule id, then location, then message.
        diagnostics.sort_by(|a, b| {
            (a.rule_id, &a.location, &a.message).cmp(&(b.rule_id, &b.location, &b.message))
        });
        waived.sort_by(|a, b| {
            (
                a.diagnostic.rule_id,
                &a.diagnostic.location,
                &a.diagnostic.message,
            )
                .cmp(&(
                    b.diagnostic.rule_id,
                    &b.diagnostic.location,
                    &b.diagnostic.message,
                ))
        });
        let dataflow = match target {
            LintTarget::Netlist { nl, .. } => ctx.dataflow().map(|r| summarize(nl, r)),
            LintTarget::Circuit { .. } => None,
        };
        LintReport {
            target: target.name(),
            rules_run: self.rules.len(),
            diagnostics,
            waived,
            dataflow,
        }
    }
}

/// Number of per-net score rows kept in a report's dataflow table.
const TOP_SCORES: usize = 16;

/// Condense full per-net dataflow results into the report table.
fn summarize(nl: &Netlist, r: &DataflowResults) -> DataflowSummary {
    let mut top: Vec<NetScore> = (0..nl.net_count())
        .filter(|&ni| r.score_j[ni] > 0.0)
        .map(|ni| NetScore {
            net: nl.net_name(mcml_netlist::NetId::from_index(ni)).to_owned(),
            toggle_bound: r.activity[ni].toggles,
            score_j: r.score_j[ni],
        })
        .collect();
    top.sort_by(|a, b| {
        b.score_j
            .partial_cmp(&a.score_j)
            .expect("finite scores")
            .then_with(|| a.net.cmp(&b.net))
    });
    top.truncate(TOP_SCORES);
    DataflowSummary {
        tainted_nets: r.tainted_count(),
        glitch_nets: r.activity.iter().filter(|a| a.is_glitch_prone()).count(),
        max_toggle_bound: r.activity.iter().map(|a| a.toggles).max().unwrap_or(0),
        top_scores: top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcml_cells::LogicStyle;

    #[test]
    fn default_engine_has_unique_rule_ids() {
        let engine = LintEngine::with_default_rules();
        let mut ids: Vec<&str> = engine.rules().map(Rule::id).collect();
        assert!(ids.len() >= 18, "all three packs registered: {ids:?}");
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(before, ids.len(), "duplicate rule id");
    }

    #[test]
    fn waiver_diverts_but_records_the_diagnostic() {
        let mut nl = Netlist::new("t", LogicStyle::Mcml);
        let a = nl.add_input("a");
        let q = nl.add_net("q");
        nl.add_gate(
            "u_inv",
            mcml_netlist::GateKind::Inv,
            vec![mcml_netlist::Conn::plain(a)],
            vec![q],
        );
        nl.set_output("q", mcml_netlist::Conn::plain(q));

        let mut cfg = LintConfig::default();
        cfg.add_waiver(
            "diff-illegal-inverter",
            Some("gate u_inv"),
            "legacy macro, tracked in issue 42",
        );
        let engine = LintEngine::new(cfg);
        let report = engine.lint_netlist(&nl, None);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.waived.len(), 1);
        assert_eq!(report.waived[0].diagnostic.rule_id, "diff-illegal-inverter");
        assert!(report.waived[0].justification.contains("issue 42"));
    }
}
