//! The engine's configuration: the fan-out envelope and the waivers.

use crate::diag::Location;

/// A per-instance suppression: one rule id at (optionally) one
/// location, with a mandatory human justification.
///
/// A waived diagnostic is still computed and still appears in the JSON
/// report's `waived` section — it is excluded only from the deny/warn
/// counts, so a waiver never hides a finding, it documents a decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The rule id being waived.
    pub rule_id: String,
    /// Rendered location the waiver applies to (e.g. `"net y0_q"`,
    /// `"gate u_ff_y0"`); `None` waives the rule at every location of
    /// this target.
    pub location: Option<String>,
    /// Why the finding is acceptable. Required non-empty.
    pub justification: String,
}

/// Engine configuration: the fan-out envelope and the waivers.
///
/// The default fan-out envelope is the paper's: the characterisation
/// envelope ends at fan-out 4 (delay beyond FO4 is extrapolated). The
/// other thresholds have one value in use and are constants of the
/// rules that read them: the sleep tree's ≈1 ns insertion-delay budget
/// ([`INSERTION_DELAY_BUDGET`](crate::rules::gate::INSERTION_DELAY_BUDGET),
/// §5 / Fig. 5) and the glitch toggle bound
/// ([`GLITCH_TOGGLE_LIMIT`](crate::rules::dataflow::GLITCH_TOGGLE_LIMIT)).
/// A finding is suppressed only by a [`Waiver`], which keeps it on the
/// record.
#[derive(Debug, Clone, PartialEq)]
pub struct LintConfig {
    /// Largest fan-out inside the characterisation envelope
    /// (`fanout-envelope` rule). The library is characterised FO1–FO4,
    /// so delays above this are extrapolations.
    pub max_fanout: usize,
    /// Per-instance suppressions (see [`Waiver`]).
    waivers: Vec<Waiver>,
}

impl Default for LintConfig {
    fn default() -> Self {
        Self {
            max_fanout: 4,
            waivers: Vec::new(),
        }
    }
}

impl LintConfig {
    /// Register a per-instance waiver. `location` is the rendered
    /// diagnostic location (`"net q"`, `"gate u1"`, …); `None` matches
    /// every location. The justification must be non-empty — a waiver
    /// without a reason is just a silent suppression.
    ///
    /// # Panics
    ///
    /// Panics when `justification` is empty or whitespace.
    pub fn add_waiver(
        &mut self,
        rule_id: &str,
        location: Option<&str>,
        justification: &str,
    ) -> &mut Self {
        assert!(
            !justification.trim().is_empty(),
            "waiver for `{rule_id}` needs a justification"
        );
        self.waivers.push(Waiver {
            rule_id: rule_id.to_owned(),
            location: location.map(str::to_owned),
            justification: justification.to_owned(),
        });
        self
    }

    /// The waiver matching one diagnostic, if any.
    #[must_use]
    pub fn waiver_for(&self, rule_id: &str, location: &Location) -> Option<&Waiver> {
        let rendered = location.to_string();
        self.waivers.iter().find(|w| {
            w.rule_id == rule_id && w.location.as_ref().is_none_or(|loc| *loc == rendered)
        })
    }

    /// The registered waivers, in registration order.
    pub fn waivers(&self) -> impl Iterator<Item = &Waiver> {
        self.waivers.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_envelopes() {
        let cfg = LintConfig::default();
        assert_eq!(cfg.max_fanout, 4);
        assert_eq!(cfg.waivers().count(), 0);
    }

    #[test]
    fn waiver_matches_rule_and_location() {
        let mut cfg = LintConfig::default();
        cfg.add_waiver("dataflow-glitch", Some("net q"), "CMOS attack baseline");
        cfg.add_waiver("dataflow-secret-cmos", None, "whole-target waiver");

        let at_q = Location::Net("q".into());
        let at_r = Location::Net("r".into());
        assert!(cfg.waiver_for("dataflow-glitch", &at_q).is_some());
        assert!(cfg.waiver_for("dataflow-glitch", &at_r).is_none());
        assert!(cfg.waiver_for("dataflow-secret-cmos", &at_q).is_some());
        assert!(cfg.waiver_for("dataflow-secret-cmos", &at_r).is_some());
        assert!(cfg.waiver_for("comb-loop", &at_q).is_none());
    }

    #[test]
    #[should_panic(expected = "needs a justification")]
    fn waiver_requires_justification() {
        LintConfig::default().add_waiver("comb-loop", None, "  ");
    }
}
