//! One workload, end to end: repeated cold set-up, the closed timed loop,
//! golden checks, and the metrics of the untraced or traced run.

use std::fmt::Write as _;
use std::time::Instant;

use mcml_obs::{Counter, Mode};

use crate::golden::{err_ratio, Golden};
use crate::trace::{per_layer, ObsSnapshot, TracedRun, Tracer};
use crate::workload::{Outcome, Workload};

/// Cold set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// End-to-end metric names and units, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("items_per_s", "items/s"),
    ("iter_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Correctness gates printed beside the end-to-end metrics. They must
/// read 0 at every commit, so they are carried by the result's
/// `correct`/`failed` fields rather than bounded as metrics.
pub const CHECKS: [(&str, &str); 2] = [("failed_frac", "fraction"), ("golden_err_ratio", "ratio")];

/// Median of `v` (mean of the middle pair for even lengths); 0 when
/// empty.
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Items completed per second of summed iteration time.
#[must_use]
pub fn throughput(items: usize, iter_s: &[f64]) -> f64 {
    let total: f64 = iter_s.iter().sum();
    if total > 0.0 {
        items as f64 / total
    } else {
        0.0
    }
}

/// How a run is configured.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Time budget that sizes the timed loop.
    pub seconds: u64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Everything one workload's run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// Timed iterations per mode.
    pub iterations: usize,
    /// Host seconds of each cold set-up (including its first iteration).
    pub setup_s: Vec<f64>,
    /// Host seconds of each untraced timed iteration.
    pub iter_s: Vec<f64>,
    /// Host seconds of each traced timed iteration (traced run only).
    pub traced_iter_s: Vec<f64>,
    /// Items of the untraced iterations that passed their checks.
    pub items: usize,
    /// Iterations run, set-up ones included.
    pub attempted: usize,
    /// Iterations that errored, broke a golden or a paper invariant.
    pub failed: usize,
    /// Worst golden error ratio over every checked output.
    pub golden_err_ratio: f64,
    /// Why iterations failed (first few).
    pub failures: Vec<String>,
    /// Peak resident set of the workload (MiB).
    pub peak_rss_mb: f64,
    /// `/proc/loadavg` before and after the workload.
    pub loadavg: [String; 2],
    /// Per-layer metrics (traced run only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// The traced run's spans as JSON.
    pub spans_json: String,
}

impl Report {
    /// The [`END_TO_END`] values, in order.
    #[must_use]
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("items_per_s", throughput(self.items, &self.iter_s)),
            ("iter_p50_s", median(&self.iter_s)),
            ("setup_s", median(&self.setup_s)),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }

    /// The [`CHECKS`] values, in order.
    #[must_use]
    pub fn checks(&self) -> Vec<(&'static str, f64)> {
        vec![
            (
                "failed_frac",
                self.failed as f64 / self.attempted.max(1) as f64,
            ),
            ("golden_err_ratio", self.golden_err_ratio),
        ]
    }

    /// This workload's block of the `--out` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut metrics: Vec<(&str, f64)> = self.checks();
        if self.per_layer.is_empty() {
            metrics.extend(self.end_to_end());
        } else {
            metrics.extend(self.per_layer.iter().copied());
        }
        let metrics: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {}", json_num(*v)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n    \"name\": \"{}\",\n    \"iterations\": {},\n    \"setup_reps\": {SETUP_REPS},\n    \
             \"loadavg_before\": {},\n    \"loadavg_after\": {},\n    \"setup_s\": [{}],\n    \
             \"iter_s\": [{}],\n    \"traced_iter_s\": [{}],\n    \"items\": {},\n    \
             \"attempted\": {},\n    \"failed\": {},\n    \"failures\": [{}],\n    \
             \"metrics\": {{{}}},\n    \"spans\": {}\n  }}",
            self.workload.name(),
            self.iterations,
            json_str(&self.loadavg[0]),
            json_str(&self.loadavg[1]),
            list(&self.setup_s),
            list(&self.iter_s),
            list(&self.traced_iter_s),
            self.items,
            self.attempted,
            self.failed,
            failures.join(", "),
            metrics.join(", "),
            if self.spans_json.is_empty() {
                "[]"
            } else {
                &self.spans_json
            },
        );
        out
    }
}

/// A finite number as JSON; `null` otherwise.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `/proc/loadavg`, or `unknown`.
#[must_use]
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg").map_or_else(|_| "unknown".into(), |s| s.trim().into())
}

/// `VmHWM` of this process in MiB (0 when unreadable).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so the next workload of a
/// multi-workload process reports its own peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The golden verdict of one iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Worst golden error ratio over the iteration's outputs.
    pub ratio: f64,
    /// Why it failed; `None` when it passed.
    pub failure: Option<String>,
}

/// Check an iteration's outcome against the goldens.
#[must_use]
pub fn verdict(w: Workload, res: &Result<Outcome, String>, golden: &Golden) -> Verdict {
    let out = match res {
        Ok(out) => out,
        Err(e) => {
            return Verdict {
                ratio: 0.0,
                failure: Some(e.clone()),
            }
        }
    };
    let mut ratio = 0.0f64;
    let mut worst_key = "";
    for (key, got) in &out.outputs {
        let r = golden
            .get(key)
            .map_or(f64::INFINITY, |want| err_ratio(got, want, w.tolerance()));
        if r > ratio {
            ratio = r;
            worst_key = key;
        }
    }
    let failure = if ratio > 1.0 {
        Some(format!("golden {worst_key}: error ratio {ratio:.3e}"))
    } else {
        out.violations.first().cloned()
    };
    Verdict { ratio, failure }
}

/// Check one iteration and fold the verdict into the report's tallies;
/// returns whether it passed.
fn check_iteration(report: &mut Report, res: &Result<Outcome, String>, golden: &Golden) -> bool {
    let v = verdict(report.workload, res, golden);
    report.attempted += 1;
    report.golden_err_ratio = report.golden_err_ratio.max(v.ratio);
    let Some(f) = v.failure else {
        return true;
    };
    report.failed += 1;
    if report.failures.len() < 8 {
        report.failures.push(f);
    }
    false
}

/// Run one workload: [`SETUP_REPS`] cold set-ups (each ending with the
/// first iteration), then the timed closed loop of
/// [`Workload::iterations`] iterations, one at a time. The traced run
/// interleaves traced and untraced iterations (alternating which goes
/// first) so their ratio is the tracing overhead.
///
/// # Errors
///
/// Set-up failed, the goldens are unreadable, or the traced run caught
/// `mcml-obs` reporting nothing where it must.
pub fn run_workload(w: Workload, opts: Options, fresh_peak: bool) -> Result<Report, String> {
    if fresh_peak {
        reset_peak_rss();
    }
    let n = w.iterations(opts.seconds);
    let mut report = Report {
        workload: w,
        iterations: n,
        setup_s: Vec::with_capacity(SETUP_REPS),
        iter_s: Vec::with_capacity(n),
        traced_iter_s: Vec::new(),
        items: 0,
        attempted: 0,
        failed: 0,
        golden_err_ratio: 0.0,
        failures: Vec::new(),
        peak_rss_mb: 0.0,
        loadavg: [loadavg(), String::new()],
        per_layer: Vec::new(),
        spans_json: String::new(),
    };
    mcml_obs::set_mode(Mode::Off);
    let mut tr = Tracer::new(false);

    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let golden = Golden::load()?;
        let inputs = w.inputs(opts.seed, n);
        tr.set_enabled(opts.trace);
        let st = w.setup(&mut tr);
        tr.set_enabled(false);
        let mut st = st?;
        w.prepare();
        let mut res = w.run(&mut st, &inputs[0], &mut tr);
        report.setup_s.push(t.elapsed().as_secs_f64());
        if let Ok(out) = &mut res {
            out.verify();
        }
        check_iteration(&mut report, &res, &golden);
        prepared = Some((golden, inputs, st));
    }
    let (golden, inputs, mut st) = prepared.ok_or("no set-up ran")?;

    let mut obs = ObsSnapshot::zero();
    let mut traced_items = 0;
    for (i, input) in inputs.iter().enumerate() {
        let order: &[bool] = match (opts.trace, i % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &traced in order {
            w.prepare();
            mcml_obs::set_mode(if traced { Mode::Summary } else { Mode::Off });
            if traced && mcml_obs::mode() == Mode::Off {
                return Err("mcml-obs is off in the traced run".into());
            }
            tr.set_enabled(traced);
            tr.set_iteration(Some(i));
            let before = traced.then(ObsSnapshot::capture);
            let t = Instant::now();
            let root = tr.open("iteration");
            let mut res = w.run(&mut st, input, &mut tr);
            tr.close(root);
            let secs = t.elapsed().as_secs_f64();
            if let Some(before) = before {
                obs.add_delta(&before, &ObsSnapshot::capture());
            }
            tr.set_enabled(false);
            mcml_obs::set_mode(Mode::Off);
            if let Ok(out) = &mut res {
                out.verify();
            }
            let items = res.as_ref().map_or(0, |o| o.items);
            let passed = check_iteration(&mut report, &res, &golden);
            let (times, done) = if traced {
                (&mut report.traced_iter_s, &mut traced_items)
            } else {
                (&mut report.iter_s, &mut report.items)
            };
            times.push(secs);
            if passed {
                *done += items;
            }
        }
    }
    report.peak_rss_mb = peak_rss_mb();
    report.loadavg[1] = loadavg();

    if opts.trace {
        let nr = obs.counter(Counter::NrIterations);
        if w.runs_spice() && nr == 0 {
            return Err(format!(
                "{}: traced run recorded 0 Newton iterations; mcml-obs is not counting",
                w.name()
            ));
        }
        if !w.runs_spice() && (nr != 0 || obs.counter(Counter::CacheMisses) != 0) {
            return Err(format!(
                "{}: expected no SPICE and no characterisation in timed iterations, got {nr} \
                 Newton iterations and {} cache misses",
                w.name(),
                obs.counter(Counter::CacheMisses)
            ));
        }
        let setup_spans = tr.self_s_by_name(|s| s.iteration.is_none());
        let elaborations = tr
            .spans()
            .iter()
            .filter(|s| s.iteration.is_none() && s.name == "core.elaborate")
            .count();
        let spans_s = tr.self_s_by_name(|s| s.iteration.is_some());
        let untraced = throughput(report.items, &report.iter_s);
        let traced = throughput(traced_items, &report.traced_iter_s);
        report.per_layer = per_layer(&TracedRun {
            spans_s: &spans_s,
            elaborate_s: setup_spans.get("core.elaborate").copied().unwrap_or(0.0)
                / elaborations.max(1) as f64,
            obs: &obs,
            iterations: report.traced_iter_s.len(),
            overhead_frac: if untraced > 0.0 {
                1.0 - traced / untraced
            } else {
                0.0
            },
        });
        report.spans_json = tr.to_json();
    }
    Ok(report)
}

/// Run every input `--write-golden` covers and record the outputs.
///
/// # Errors
///
/// An iteration failed, broke an invariant, produced a non-finite value,
/// or two iterations disagree on a shared key.
pub fn write_golden(w: Workload, golden: &mut Golden) -> Result<usize, String> {
    let mut tr = Tracer::new(false);
    mcml_obs::set_mode(Mode::Off);
    let mut st = w.setup(&mut tr)?;
    golden.remove_prefix(&format!("{}/", w.name()));
    let mut seen = std::collections::BTreeSet::new();
    for input in w.golden_inputs() {
        w.prepare();
        let mut out = w.run(&mut st, &input, &mut tr)?;
        out.verify();
        if let Some(v) = out.violations.first() {
            return Err(format!("{}: {input:?}: {v}", w.name()));
        }
        for (key, values) in out.outputs {
            if values.iter().any(|v| !v.is_finite()) {
                return Err(format!("{key}: non-finite output"));
            }
            if !seen.insert(key.clone()) && golden.get(&key) != Some(values.as_slice()) {
                return Err(format!("{key}: outputs differ between inputs"));
            }
            golden.insert(key, values);
        }
    }
    Ok(seen.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_throughput() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(throughput(16, &[1.0, 3.0]), 4.0);
        assert_eq!(throughput(5, &[]), 0.0);
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_num(0.5), "0.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_str("a\"b\\\n"), "\"a\\\"b\\\\\\u000a\"");
    }
}
