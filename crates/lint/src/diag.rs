//! Diagnostics: what a rule reports and how severe it is.

use std::fmt;

/// How a diagnostic from a rule is treated: each rule reports at its
/// own fixed severity. A finding is suppressed only by a
/// [`Waiver`](crate::Waiver), which keeps it in the report's waived
/// section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Reported, but does not fail the flow gate.
    Warn,
    /// Reported and fails [`LintReport::is_clean`](crate::LintReport::is_clean)
    /// — the flow refuses to elaborate.
    Deny,
}

impl Severity {
    /// Stable report string (`warn` / `deny`).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where in the design a diagnostic points.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Location {
    /// The design as a whole (aggregate findings like a sleep domain's
    /// insertion delay).
    Design,
    /// A gate-level net, by name.
    Net(String),
    /// A gate instance, by name.
    Gate(String),
    /// A primary input or output, by name.
    Port(String),
    /// A transistor-level circuit node, by name.
    Node(String),
    /// A transistor-level element (device/source), by name.
    Element(String),
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Location::Design => f.write_str("design"),
            Location::Net(n) => write!(f, "net {n}"),
            Location::Gate(g) => write!(f, "gate {g}"),
            Location::Port(p) => write!(f, "port {p}"),
            Location::Node(n) => write!(f, "node {n}"),
            Location::Element(e) => write!(f, "element {e}"),
        }
    }
}

/// One finding of one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule identifier (see `docs/LINTING.md` for the registry).
    pub rule_id: &'static str,
    /// Severity, the reporting rule's own.
    pub severity: Severity,
    /// Human-readable description of the violation.
    pub message: String,
    /// What the diagnostic points at.
    pub location: Location,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.rule_id, self.location, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_display() {
        let d = Diagnostic {
            rule_id: "net-multi-driven",
            severity: Severity::Deny,
            message: "driven by u1 and u2".into(),
            location: Location::Net("q".into()),
        };
        assert_eq!(
            d.to_string(),
            "deny[net-multi-driven] net q: driven by u1 and u2"
        );
    }
}
