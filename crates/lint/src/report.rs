//! Deterministic lint reports (`mcml-lint/3` JSON schema).
//!
//! The JSON is hand-rolled the same way `mcml-obs` renders its run
//! reports: keys in a fixed order, diagnostics pre-sorted by the
//! engine, floats only in the fixed `{:.3e}` score notation — so
//! byte-identical inputs produce byte-identical reports and golden
//! files stay stable.
//!
//! Schema history: `mcml-lint/2` added the `waived` list (per-instance
//! waivers with justification) and the optional `dataflow` summary
//! (taint/toggle/leakage-score tables) to each target; the optional
//! `partition` summary (solve-block decomposition of transistor-level
//! targets) was added later under the same schema tag. `mcml-lint/3`
//! drops the `partition` summary with the partitioned transient solve
//! it described; the `partition-collapse` rule still reports a
//! galvanically collapsed circuit as a diagnostic.

use std::fmt::Write as _;

use mcml_obs::json_escape;

use crate::diag::{Diagnostic, Severity};

/// Schema identifier stamped into every report.
pub const SCHEMA: &str = "mcml-lint/3";

/// A diagnostic suppressed by a configured waiver: kept out of the
/// deny/warn counts but carried into the report with its justification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaivedDiagnostic {
    /// The suppressed finding, at its resolved severity.
    pub diagnostic: Diagnostic,
    /// The waiver's justification text.
    pub justification: String,
}

/// One row of the dataflow score table: a net with a non-zero static
/// leakage score.
#[derive(Debug, Clone, PartialEq)]
pub struct NetScore {
    /// Net name.
    pub net: String,
    /// Static toggle upper bound per evaluation.
    pub toggle_bound: u32,
    /// Static leakage score in joules per evaluation.
    pub score_j: f64,
}

/// Condensed dataflow analysis results for one netlist target.
///
/// Present only for acyclic gate-level netlist targets (the dataflow
/// engine refuses combinational loops, which the `comb-loop` rule
/// already denies).
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowSummary {
    /// Nets carrying secret taint.
    pub tainted_nets: usize,
    /// Nets with a toggle bound above one.
    pub glitch_nets: usize,
    /// Largest per-net toggle bound.
    pub max_toggle_bound: u32,
    /// Highest-scoring nets, sorted by score descending then name,
    /// truncated to a fixed table size.
    pub top_scores: Vec<NetScore>,
}

/// The outcome of linting one target.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// Report name of the target (netlist name or cell name, with its
    /// logic style).
    pub target: String,
    /// Number of rules the engine evaluated.
    pub rules_run: usize,
    /// Kept findings, sorted by (rule id, location, message).
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by waivers, same sort order.
    pub waived: Vec<WaivedDiagnostic>,
    /// Dataflow summary, when the target is an acyclic netlist.
    pub dataflow: Option<DataflowSummary>,
}

impl LintReport {
    /// Number of deny-severity findings.
    #[must_use]
    pub fn deny_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-severity findings.
    #[must_use]
    pub fn warn_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// `true` when the target has no deny-severity findings (warnings
    /// and waived findings do not fail the gate).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Findings reported by one rule.
    pub fn by_rule<'a>(&'a self, rule_id: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.rule_id == rule_id)
    }

    /// Render the report as `mcml-lint/3` JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_json(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let _ = writeln!(out, "{pad}{{");
        let _ = writeln!(out, "{pad}  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "{pad}  \"target\": \"{}\",", json_escape(&self.target));
        let _ = writeln!(out, "{pad}  \"rules_run\": {},", self.rules_run);
        let _ = writeln!(out, "{pad}  \"deny\": {},", self.deny_count());
        let _ = writeln!(out, "{pad}  \"warn\": {},", self.warn_count());
        let _ = writeln!(out, "{pad}  \"waived\": {},", self.waived.len());
        if self.diagnostics.is_empty() {
            let _ = writeln!(out, "{pad}  \"diagnostics\": [],");
        } else {
            let _ = writeln!(out, "{pad}  \"diagnostics\": [");
            for (i, d) in self.diagnostics.iter().enumerate() {
                let comma = if i + 1 < self.diagnostics.len() {
                    ","
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{pad}    {{ \"rule\": \"{}\", \"severity\": \"{}\", \"location\": \"{}\", \"message\": \"{}\" }}{comma}",
                    json_escape(d.rule_id),
                    d.severity.name(),
                    json_escape(&d.location.to_string()),
                    json_escape(&d.message),
                );
            }
            let _ = writeln!(out, "{pad}  ],");
        }
        let dataflow_comma = if self.dataflow.is_some() { "," } else { "" };
        if self.waived.is_empty() {
            let _ = writeln!(out, "{pad}  \"waived_diagnostics\": []{dataflow_comma}");
        } else {
            let _ = writeln!(out, "{pad}  \"waived_diagnostics\": [");
            for (i, w) in self.waived.iter().enumerate() {
                let comma = if i + 1 < self.waived.len() { "," } else { "" };
                let d = &w.diagnostic;
                let _ = writeln!(
                    out,
                    "{pad}    {{ \"rule\": \"{}\", \"severity\": \"{}\", \"location\": \"{}\", \"message\": \"{}\", \"justification\": \"{}\" }}{comma}",
                    json_escape(d.rule_id),
                    d.severity.name(),
                    json_escape(&d.location.to_string()),
                    json_escape(&d.message),
                    json_escape(&w.justification),
                );
            }
            let _ = writeln!(out, "{pad}  ]{dataflow_comma}");
        }
        if let Some(df) = &self.dataflow {
            let _ = writeln!(out, "{pad}  \"dataflow\": {{");
            let _ = writeln!(out, "{pad}    \"tainted_nets\": {},", df.tainted_nets);
            let _ = writeln!(out, "{pad}    \"glitch_nets\": {},", df.glitch_nets);
            let _ = writeln!(
                out,
                "{pad}    \"max_toggle_bound\": {},",
                df.max_toggle_bound
            );
            if df.top_scores.is_empty() {
                let _ = writeln!(out, "{pad}    \"top_scores\": []");
            } else {
                let _ = writeln!(out, "{pad}    \"top_scores\": [");
                for (i, s) in df.top_scores.iter().enumerate() {
                    let comma = if i + 1 < df.top_scores.len() { "," } else { "" };
                    let _ = writeln!(
                        out,
                        "{pad}      {{ \"net\": \"{}\", \"toggle_bound\": {}, \"score_j\": \"{:.3e}\" }}{comma}",
                        json_escape(&s.net),
                        s.toggle_bound,
                        s.score_j,
                    );
                }
                let _ = writeln!(out, "{pad}    ]");
            }
            let _ = writeln!(out, "{pad}  }}");
        }
        let _ = write!(out, "{pad}}}");
    }
}

/// Render several reports as one `mcml-lint/3` document (the shape the
/// `lint` bench binary writes to `report.json`).
#[must_use]
pub fn combined_json(run: &str, reports: &[LintReport]) -> String {
    let deny: usize = reports.iter().map(LintReport::deny_count).sum();
    let warn: usize = reports.iter().map(LintReport::warn_count).sum();
    let waived: usize = reports.iter().map(|r| r.waived.len()).sum();
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"run\": \"{}\",", json_escape(run));
    let _ = writeln!(out, "  \"targets_linted\": {},", reports.len());
    let _ = writeln!(out, "  \"deny\": {deny},");
    let _ = writeln!(out, "  \"warn\": {warn},");
    let _ = writeln!(out, "  \"waived\": {waived},");
    if reports.is_empty() {
        out.push_str("  \"targets\": []\n");
    } else {
        out.push_str("  \"targets\": [\n");
        for (i, r) in reports.iter().enumerate() {
            r.write_json(&mut out, 2);
            out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Location;

    fn sample() -> LintReport {
        LintReport {
            target: "t [MCML]".into(),
            rules_run: 3,
            diagnostics: vec![
                Diagnostic {
                    rule_id: "comb-loop",
                    severity: Severity::Deny,
                    message: "cycle through u1 -> u2".into(),
                    location: Location::Gate("u1".into()),
                },
                Diagnostic {
                    rule_id: "net-undriven",
                    severity: Severity::Warn,
                    message: "never driven".into(),
                    location: Location::Net("x".into()),
                },
            ],
            waived: vec![],
            dataflow: None,
        }
    }

    #[test]
    fn counts_and_cleanliness() {
        let r = sample();
        assert_eq!(r.deny_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(!r.is_clean());
        assert_eq!(r.by_rule("comb-loop").count(), 1);
        let clean = LintReport {
            target: "c".into(),
            rules_run: 3,
            diagnostics: vec![],
            waived: vec![],
            dataflow: None,
        };
        assert!(clean.is_clean());
    }

    #[test]
    fn json_is_deterministic_and_schema_tagged() {
        let r = sample();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\n  \"schema\": \"mcml-lint/3\","));
        assert!(a.contains("\"deny\": 1"));
        assert!(a.contains("\"rule\": \"comb-loop\""));
        assert!(a.contains("\"waived_diagnostics\": []"));
    }

    #[test]
    fn waived_and_dataflow_sections_render() {
        let mut r = sample();
        r.waived = vec![WaivedDiagnostic {
            diagnostic: Diagnostic {
                rule_id: "dataflow-secret-cmos",
                severity: Severity::Warn,
                message: "tainted CMOS net".into(),
                location: Location::Net("y0".into()),
            },
            justification: "attack baseline, leakage is the point".into(),
        }];
        r.dataflow = Some(DataflowSummary {
            tainted_nets: 4,
            glitch_nets: 1,
            max_toggle_bound: 3,
            top_scores: vec![NetScore {
                net: "y0".into(),
                toggle_bound: 3,
                score_j: 1.25e-14,
            }],
        });
        let json = r.to_json();
        assert!(json.contains("\"waived\": 1"));
        assert!(json.contains("\"justification\": \"attack baseline, leakage is the point\""));
        assert!(json.contains("\"tainted_nets\": 4"));
        assert!(json.contains("\"score_j\": \"1.250e-14\""));
        // Still deterministic.
        assert_eq!(json, r.to_json());
    }

    #[test]
    fn combined_json_aggregates() {
        let doc = combined_json("bench", &[sample(), sample()]);
        assert!(doc.contains("\"targets_linted\": 2"));
        assert!(doc.contains("\"deny\": 2"));
        assert!(doc.contains("\"run\": \"bench\""));
        assert!(doc.contains("\"waived\": 0"));
    }
}
