//! Run-report capture, deterministic JSON serialisation, and the
//! human-readable stage summary.
//!
//! The JSON is hand-rolled on purpose: the report must be byte-identical
//! for identical counter totals (fixed key order, integers only, fixed
//! indentation), and the crate takes no dependencies. The schema is
//! documented field-by-field in `docs/OBSERVABILITY.md`.

use crate::counters::{self, Counter};
use crate::span::{self, Stage};
use std::fmt::Write as _;

/// Schema identifier written into every report.
pub const SCHEMA: &str = "mcml-obs/1";

/// Busy time and call count of one [`Stage`], as captured in a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Number of completed spans of the stage.
    pub calls: u64,
    /// Accumulated busy nanoseconds across all spans (sums across
    /// concurrent workers, so it can exceed the run's wall-clock).
    pub busy_ns: u64,
}

/// A point-in-time snapshot of every counter and stage timer.
///
/// Captured by [`RunReport::capture`] (usually via [`crate::finish`]).
/// The `counters` section is deterministic under any `MCML_THREADS`; the
/// `stages` and `elapsed_ns` sections are wall-clock and are excluded
/// from determinism comparisons — use [`RunReport::deterministic_totals`]
/// for equality tests.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the run (e.g. the bench binary: `"table2"`).
    pub run: String,
    /// Worker-thread count the run executed with.
    pub threads: usize,
    /// Wall-clock nanoseconds since the last [`crate::reset`].
    pub elapsed_ns: u64,
    /// Every counter's aggregate total, in [`Counter::ALL`] order.
    pub counters: [u64; Counter::COUNT],
    /// Every stage's snapshot, in [`Stage::ALL`] order.
    pub stages: [StageSnapshot; Stage::COUNT],
}

impl RunReport {
    /// Snapshot the current totals into a report.
    #[must_use]
    pub fn capture(run: &str, threads: usize) -> Self {
        let mut counter_totals = [0u64; Counter::COUNT];
        for (slot, c) in counter_totals.iter_mut().zip(Counter::ALL) {
            *slot = counters::total(c);
        }
        let mut stage_snaps = [StageSnapshot {
            calls: 0,
            busy_ns: 0,
        }; Stage::COUNT];
        for (slot, s) in stage_snaps.iter_mut().zip(Stage::ALL) {
            let (busy_ns, calls) = span::stage_totals(s);
            *slot = StageSnapshot { calls, busy_ns };
        }
        RunReport {
            run: run.to_owned(),
            threads,
            elapsed_ns: crate::elapsed_ns(),
            counters: counter_totals,
            stages: stage_snaps,
        }
    }

    /// Total of one counter in this snapshot.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Snapshot of one stage in this report.
    #[must_use]
    pub fn stage(&self, s: Stage) -> StageSnapshot {
        self.stages[s as usize]
    }

    /// The `(name, total)` pairs that must be identical for identical
    /// workloads regardless of `MCML_THREADS` — i.e. everything except
    /// wall-clock. Sorted by counter name, like the JSON.
    #[must_use]
    pub fn deterministic_totals(&self) -> Vec<(&'static str, u64)> {
        let mut rows: Vec<(&'static str, u64)> = Counter::ALL
            .iter()
            .map(|&c| (c.name(), self.counter(c)))
            .collect();
        rows.sort_unstable_by_key(|&(name, _)| name);
        rows
    }

    /// Serialise to the deterministic `mcml-obs/1` JSON document.
    ///
    /// Counter keys are sorted by name and **all** counters are present
    /// even when zero, so the key set is a schema constant; stage keys
    /// follow [`Stage::ALL`] order, restricted to stages that ran.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"run\": \"{}\",", json_escape(&self.run));
        let _ = writeln!(out, "  \"threads\": {},", self.threads);
        let _ = writeln!(out, "  \"elapsed_ns\": {},", self.elapsed_ns);
        out.push_str("  \"counters\": {\n");
        let rows = self.deterministic_totals();
        for (i, (name, total)) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {total}{comma}");
        }
        out.push_str("  },\n");
        out.push_str("  \"stages\": {\n");
        let ran: Vec<Stage> = Stage::ALL
            .iter()
            .copied()
            .filter(|&s| self.stage(s).calls > 0)
            .collect();
        for (i, s) in ran.iter().enumerate() {
            let snap = self.stage(*s);
            let comma = if i + 1 < ran.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{}\": {{ \"calls\": {}, \"busy_ns\": {} }}{comma}",
                s.name(),
                snap.calls,
                snap.busy_ns
            );
        }
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }

    /// Write the JSON document to `path`.
    ///
    /// # Errors
    /// Propagates the underlying [`std::fs::write`] failure (permission,
    /// missing parent directory, full disk, …).
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// The human-readable stage-by-stage table printed at [`crate::finish`].
    #[must_use]
    pub fn summary(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(
            out,
            "[mcml-obs] run {:<18} threads={} wall {}",
            self.run,
            self.threads,
            fmt_ns(self.elapsed_ns)
        );
        let _ = writeln!(
            out,
            "[mcml-obs] {:<18} {:>8} {:>12}",
            "stage", "calls", "busy"
        );
        for s in Stage::ALL {
            let snap = self.stage(s);
            if snap.calls == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "[mcml-obs] {:<18} {:>8} {:>12}",
                s.name(),
                snap.calls,
                fmt_ns(snap.busy_ns)
            );
        }
        let busy = self.stage(Stage::WorkerBusy).busy_ns;
        if busy > 0 && self.elapsed_ns > 0 && self.threads > 0 {
            #[allow(clippy::cast_precision_loss)] // display only
            let util = busy as f64 / (self.elapsed_ns as f64 * self.threads as f64);
            let _ = writeln!(
                out,
                "[mcml-obs] worker utilisation {:.0}% of {} thread(s)",
                (util * 100.0).min(100.0),
                self.threads
            );
        }
        let _ = write!(out, "[mcml-obs] counters:");
        let mut any = false;
        for (name, total) in self.deterministic_totals() {
            if total == 0 {
                continue;
            }
            any = true;
            let _ = write!(out, " {name}={total}");
        }
        if !any {
            let _ = write!(out, " (all zero)");
        }
        out.push('\n');
        out
    }
}

/// Capture a report for `run` over `threads` workers and write it to
/// `path` in one step.
///
/// # Errors
/// Propagates the underlying [`std::fs::write`] failure.
pub fn write_json(run: &str, threads: usize, path: &str) -> std::io::Result<RunReport> {
    let report = RunReport::capture(run, threads);
    report.write_to(path)?;
    Ok(report)
}

/// Minimal JSON string escaping (quotes, backslashes, control chars):
/// the one escaper every JSON writer in the workspace uses.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render nanoseconds with an adaptive unit for the summary table.
fn fmt_ns(ns: u64) -> String {
    #[allow(clippy::cast_precision_loss)] // display only
    let ns_f = ns as f64;
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns_f / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns_f / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns_f / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let report = RunReport {
            run: "unit".into(),
            threads: 2,
            elapsed_ns: 1234,
            counters: [0; Counter::COUNT],
            stages: [StageSnapshot {
                calls: 0,
                busy_ns: 0,
            }; Stage::COUNT],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"mcml-obs/1\",\n"));
        assert!(json.contains("\"run\": \"unit\""));
        assert!(json.contains("\"threads\": 2"));
        // All counters present even when zero.
        for c in Counter::ALL {
            assert!(
                json.contains(&format!("\"{}\": 0", c.name())),
                "{}",
                c.name()
            );
        }
        // Idle stages omitted.
        assert!(json.contains("\"stages\": {\n  }"));
    }

    #[test]
    fn json_counters_sorted() {
        let report = RunReport {
            run: "unit".into(),
            threads: 1,
            elapsed_ns: 0,
            counters: [0; Counter::COUNT],
            stages: [StageSnapshot {
                calls: 0,
                busy_ns: 0,
            }; Stage::COUNT],
        };
        let names: Vec<&str> = report.deterministic_totals().iter().map(|r| r.0).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\r\t"), "\\r\\t");
        assert_eq!(json_escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        assert_eq!(json_escape("µ ps"), "µ ps");
    }
}
