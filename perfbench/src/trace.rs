//! The traced run: the benchmark's own spans around each layer call,
//! `mcml-obs` counter and stage deltas, and the per-layer metrics derived
//! from both.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use mcml_obs::{Counter, RunReport, Stage};

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call (or `iteration` for the root of an iteration).
    pub name: &'static str,
    /// Timed iteration the span belongs to; `None` during set-up.
    pub iteration: Option<usize>,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span recorder. Disabled, it records nothing and
/// [`Tracer::span`] is a plain call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: Option<usize>,
}

impl Tracer {
    /// A recorder, on or off.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: None,
        }
    }

    /// Turn recording on or off (between iterations).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; spans opened before [`Tracer::close`] nest under it.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            iteration: self.iteration,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span [`Tracer::open`] returned.
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    /// Time `f` as a leaf span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.open(name);
        let out = f();
        self.close(idx);
        out
    }

    /// Attribute the spans that follow to timed iteration `i` (`None`:
    /// set-up).
    pub fn set_iteration(&mut self, i: Option<usize>) {
        self.iteration = i;
    }

    /// Everything recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus its children's.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }

    /// Summed self seconds per span name, over the spans `keep` selects.
    #[must_use]
    pub fn self_s_by_name(&self, keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            if keep(s) {
                *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
            }
        }
        out
    }

    /// The spans as a JSON array, one object per line.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = write!(
                out,
                "{}\n      {{\"name\": \"{}\", \"iteration\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
                if i == 0 { "" } else { "," },
                s.name,
                opt(s.iteration),
                opt(s.parent),
                s.start_ns,
                s.end_ns,
            );
        }
        out.push_str("\n    ]");
        out
    }
}

/// Counter totals and stage busy time of `mcml-obs` at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsSnapshot {
    counters: [u64; Counter::COUNT],
    stage_ns: [u64; Stage::COUNT],
}

impl ObsSnapshot {
    /// Read every counter and stage total.
    #[must_use]
    pub fn capture() -> Self {
        let r = RunReport::capture("perfbench", 1);
        Self {
            counters: r.counters,
            stage_ns: std::array::from_fn(|i| r.stages[i].busy_ns),
        }
    }

    /// All zeros: the identity of [`ObsSnapshot::add_delta`].
    #[must_use]
    pub const fn zero() -> Self {
        Self {
            counters: [0; Counter::COUNT],
            stage_ns: [0; Stage::COUNT],
        }
    }

    /// Add `after − before` to `self`.
    pub fn add_delta(&mut self, before: &Self, after: &Self) {
        for i in 0..Counter::COUNT {
            self.counters[i] += after.counters[i].saturating_sub(before.counters[i]);
        }
        for i in 0..Stage::COUNT {
            self.stage_ns[i] += after.stage_ns[i].saturating_sub(before.stage_ns[i]);
        }
    }

    /// One counter's total.
    #[must_use]
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// One stage's busy seconds (inclusive of nested stages).
    #[must_use]
    pub fn stage_s(&self, s: Stage) -> f64 {
        self.stage_ns[s as usize] as f64 * 1e-9
    }
}

/// Per-layer metric names and units, in report order. Times and counts
/// are per traced iteration; `_frac` values are shares of attempts.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("spice.call_s", "s"),
    ("spice.us_per_nr_iter", "us"),
    ("spice.nr_iterations", "count"),
    ("spice.matrix_solves", "count"),
    ("spice.tran_steps", "count"),
    ("spice.dc_solves", "count"),
    ("spice.mos_evals", "count"),
    ("spice.bypass_frac", "fraction"),
    ("spice.refactors", "count"),
    ("spice.refactor_per_nr", "ratio"),
    ("spice.step_reject_frac", "fraction"),
    ("spice.tran_retries", "count"),
    ("spice.block_solves", "count"),
    ("spice.block_skip_frac", "fraction"),
    ("spice.mna_assemble_s", "s"),
    ("spice.lu_factor_s", "s"),
    ("spice.lu_solve_s", "s"),
    ("charlib.characterize_s", "s"),
    ("charlib.bias_sweep_s", "s"),
    ("charlib.cache_misses", "count"),
    ("charlib.hit_frac", "fraction"),
    ("charlib.cells_characterized", "count"),
    ("core.elaborate_s", "s"),
    ("core.table3_s", "s"),
    ("core.fig5_s", "s"),
    ("core.fig6_template_s", "s"),
    ("sim.event_runs", "count"),
    ("sim.net_transitions", "count"),
    ("sim.event_sim_s", "s"),
    ("sim.power_model_s", "s"),
    ("netlist.sleep_tree_s", "s"),
    ("dpa.cpa_s", "s"),
    ("dpa.traces_acquired", "count"),
    ("lint.corpus_s", "s"),
    ("lint.rules_run", "count"),
    ("lint.dataflow_gate_evals", "count"),
    ("obs.overhead_frac", "fraction"),
];

/// Benchmark spans around calls that run SPICE: `spice.call_s` is their
/// sum, and `spice.us_per_nr_iter` divides it by the Newton iterations.
const SPICE_BOUND: [&str; 3] = ["spice.call", "charlib.characterize", "charlib.bias_sweep"];

/// `num / den`, 0 when nothing was attempted.
fn share(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What the traced run measured, for [`per_layer`].
#[derive(Debug, Clone)]
pub struct TracedRun<'a> {
    /// Summed self seconds per benchmark span name over the traced
    /// iterations.
    pub spans_s: &'a BTreeMap<&'static str, f64>,
    /// Mean seconds of one set-up elaboration (0 when none ran).
    pub elaborate_s: f64,
    /// `mcml-obs` deltas summed over the traced iterations.
    pub obs: &'a ObsSnapshot,
    /// Traced iterations.
    pub iterations: usize,
    /// `1 − traced ÷ untraced items_per_s`.
    pub overhead_frac: f64,
}

/// Every [`PER_LAYER`] metric, in that order.
#[must_use]
pub fn per_layer(run: &TracedRun<'_>) -> Vec<(&'static str, f64)> {
    let n = run.iterations.max(1) as f64;
    let obs = run.obs;
    let c = |counter: Counter| obs.counter(counter) as f64;
    let span = |name: &str| run.spans_s.get(name).copied().unwrap_or(0.0);
    let spice_s: f64 = SPICE_BOUND.iter().map(|s| span(s)).sum();
    let nr = c(Counter::NrIterations);
    let refactors = c(Counter::NumericRefactor) + c(Counter::LaneRefactors);
    // The template attack's CPA runs inside `fig6_template`, out of the
    // benchmark's reach; there the obs `cpa` stage stands in.
    let cpa_s = if run.spans_s.contains_key("dpa.cpa") {
        span("dpa.cpa")
    } else {
        obs.stage_s(Stage::Cpa)
    };
    let values: BTreeMap<&str, f64> = [
        ("spice.call_s", spice_s / n),
        ("spice.us_per_nr_iter", share(spice_s * 1e6, nr)),
        ("spice.nr_iterations", nr / n),
        ("spice.matrix_solves", c(Counter::MatrixSolves) / n),
        ("spice.tran_steps", c(Counter::TranSteps) / n),
        ("spice.dc_solves", c(Counter::DcSolves) / n),
        ("spice.mos_evals", c(Counter::MosEvals) / n),
        (
            "spice.bypass_frac",
            share(
                c(Counter::MosBypassed),
                c(Counter::MosEvals) + c(Counter::MosBypassed),
            ),
        ),
        ("spice.refactors", refactors / n),
        ("spice.refactor_per_nr", share(refactors, nr)),
        (
            "spice.step_reject_frac",
            share(
                c(Counter::LteRejects),
                c(Counter::AdaptiveSteps) + c(Counter::LteRejects),
            ),
        ),
        ("spice.tran_retries", c(Counter::TranRetries) / n),
        ("spice.block_solves", c(Counter::BlockSolves) / n),
        (
            "spice.block_skip_frac",
            share(
                c(Counter::BlockSkips),
                c(Counter::BlockSolves) + c(Counter::BlockSkips),
            ),
        ),
        ("spice.mna_assemble_s", obs.stage_s(Stage::MnaAssemble) / n),
        ("spice.lu_factor_s", obs.stage_s(Stage::LuFactor) / n),
        ("spice.lu_solve_s", obs.stage_s(Stage::LuSolve) / n),
        ("charlib.characterize_s", span("charlib.characterize") / n),
        ("charlib.bias_sweep_s", span("charlib.bias_sweep") / n),
        ("charlib.cache_misses", c(Counter::CacheMisses) / n),
        (
            "charlib.hit_frac",
            share(c(Counter::CacheHits), c(Counter::CacheLookups)),
        ),
        (
            "charlib.cells_characterized",
            c(Counter::CellsCharacterized) / n,
        ),
        ("core.elaborate_s", run.elaborate_s),
        ("core.table3_s", span("core.table3") / n),
        ("core.fig5_s", span("core.fig5") / n),
        ("core.fig6_template_s", span("core.fig6_template") / n),
        ("sim.event_runs", c(Counter::EventSimRuns) / n),
        ("sim.net_transitions", c(Counter::NetTransitions) / n),
        ("sim.event_sim_s", obs.stage_s(Stage::EventSim) / n),
        ("sim.power_model_s", obs.stage_s(Stage::PowerModel) / n),
        ("netlist.sleep_tree_s", obs.stage_s(Stage::SleepTree) / n),
        ("dpa.cpa_s", cpa_s / n),
        ("dpa.traces_acquired", c(Counter::TracesAcquired) / n),
        ("lint.corpus_s", span("lint.corpus") / n),
        ("lint.rules_run", c(Counter::LintRulesRun) / n),
        (
            "lint.dataflow_gate_evals",
            c(Counter::DataflowGateEvals) / n,
        ),
        ("obs.overhead_frac", run.overhead_frac),
    ]
    .into_iter()
    .collect();
    PER_LAYER
        .iter()
        .map(|&(name, _)| (name, values[name]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.set_iteration(Some(0));
        let root = tr.open("iteration");
        tr.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        tr.span("b", || ());
        tr.close(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].iteration, Some(0));
        let own = tr.self_ns();
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert_eq!(own[1], dur(1));
        assert!(dur(1) >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let root = tr.open("iteration");
        assert_eq!(tr.span("a", || 7), 7);
        tr.close(root);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn per_layer_emits_every_metric_in_order() {
        let mut spans = BTreeMap::new();
        spans.insert("spice.call", 2.0);
        let mut obs = ObsSnapshot::zero();
        obs.counters[Counter::NrIterations as usize] = 1000;
        obs.counters[Counter::BlockSolves as usize] = 1;
        obs.counters[Counter::BlockSkips as usize] = 9;
        let run = TracedRun {
            spans_s: &spans,
            elaborate_s: 0.001,
            obs: &obs,
            iterations: 2,
            overhead_frac: 0.02,
        };
        let m = per_layer(&run);
        let names: Vec<&str> = m.iter().map(|(n, _)| *n).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want);
        let get = |k: &str| m.iter().find(|(n, _)| *n == k).unwrap().1;
        assert_eq!(get("spice.call_s"), 1.0);
        assert_eq!(get("spice.nr_iterations"), 500.0);
        assert_eq!(get("spice.us_per_nr_iter"), 2000.0);
        assert_eq!(get("spice.block_skip_frac"), 0.9);
        assert_eq!(get("charlib.hit_frac"), 0.0);
        assert!(m.iter().all(|(_, v)| v.is_finite()));
    }
}
