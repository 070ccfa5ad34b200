//! Wall-clock span timers for pipeline stages.
//!
//! A [`span`] returns an RAII guard that, on drop, adds the elapsed
//! nanoseconds to the stage's accumulator and bumps its call count.
//! Spans nest freely — each guard measures its own interval, so a
//! nested stage's time is also inside its parent's total, the same
//! convention as flat profiler output. Accumulators are plain atomics:
//! concurrent spans of the same stage sum their intervals, which is why
//! the summary reports *busy* time (can exceed wall-clock under
//! parallelism) next to the run's wall-clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Pipeline stages with a dedicated wall-clock accumulator.
///
/// Stage timings are machine-dependent by nature; they live in the
/// `stages` section of the report, which determinism tests ignore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Standard-cell characterisation (`mcml-char`).
    Characterize,
    /// Tail-bias sweep (`mcml-char`).
    BiasSweep,
    /// Process-corner sweep (`mcml-char`).
    CornerSweep,
    /// Event-driven gate-level simulation (`mcml-sim`).
    EventSim,
    /// Toggle-count → current-waveform power model (`mcml-sim`).
    PowerModel,
    /// Sleep-tree sizing (`mcml-core`).
    SleepTree,
    /// Power-trace acquisition (`mcml-dpa` via `mcml-core`).
    TraceAcquisition,
    /// Transistor-level SPICE tier of fig. 6 (`mcml-core`).
    SpiceTier,
    /// One transient analysis, DC operating point to final step
    /// (`mcml-spice`).
    Transient,
    /// One DC operating-point solve, the whole continuation ladder
    /// (`mcml-spice`); nested inside `transient` when it seeds one.
    DcOp,
    /// Correlation power analysis (`mcml-dpa`).
    Cpa,
    /// Welch t-test leakage assessment (`mcml-dpa`).
    Tvla,
    /// Parallel batch dispatch, queue-to-done (`mcml-exec`).
    ParallelMap,
    /// Time workers spent executing items (`mcml-exec`); summed across
    /// workers, so this exceeds wall-clock on multi-thread runs — the
    /// summary derives per-worker utilisation from it.
    WorkerBusy,
    /// Static rule checking of netlists and circuits (`mcml-lint`).
    Lint,
    /// Dataflow fixpoint analyses — secret taint, activity bounds and
    /// the static leakage score — over a netlist (`mcml-lint`); nested
    /// inside the `lint` span when driven by the rule engine.
    Dataflow,
    /// MNA Jacobian/residual assembly inside the Newton loop
    /// (`mcml-spice`).
    MnaAssemble,
    /// Linear-system factorisation — dense LU, sparse symbolic+numeric,
    /// or sparse numeric-only refactorisation (`mcml-spice`).
    LuFactor,
    /// Triangular solves against the computed factors (`mcml-spice`).
    LuSolve,
    /// One derivative-free optimization run, first sample to returned
    /// optimum (`mcml-opt`).
    Opt,
}

impl Stage {
    /// Every stage, in declaration order.
    pub const ALL: [Stage; 20] = [
        Stage::Characterize,
        Stage::BiasSweep,
        Stage::CornerSweep,
        Stage::EventSim,
        Stage::PowerModel,
        Stage::SleepTree,
        Stage::TraceAcquisition,
        Stage::SpiceTier,
        Stage::Transient,
        Stage::DcOp,
        Stage::Cpa,
        Stage::Tvla,
        Stage::ParallelMap,
        Stage::WorkerBusy,
        Stage::Lint,
        Stage::Dataflow,
        Stage::MnaAssemble,
        Stage::LuFactor,
        Stage::LuSolve,
        Stage::Opt,
    ];

    /// Number of stages (size of the accumulator arrays).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable report key.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Characterize => "characterize",
            Stage::BiasSweep => "bias_sweep",
            Stage::CornerSweep => "corner_sweep",
            Stage::EventSim => "event_sim",
            Stage::PowerModel => "power_model",
            Stage::SleepTree => "sleep_tree",
            Stage::TraceAcquisition => "trace_acquisition",
            Stage::SpiceTier => "spice_tier",
            Stage::Transient => "transient",
            Stage::DcOp => "dc_op",
            Stage::Cpa => "cpa",
            Stage::Tvla => "tvla",
            Stage::ParallelMap => "parallel_map",
            Stage::WorkerBusy => "worker_busy",
            Stage::Lint => "lint",
            Stage::Dataflow => "dataflow",
            Stage::MnaAssemble => "mna_assemble",
            Stage::LuFactor => "lu_factor",
            Stage::LuSolve => "lu_solve",
            Stage::Opt => "opt",
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)] // static-array-of-atomics init
const ZERO: AtomicU64 = AtomicU64::new(0);
static STAGE_NANOS: [AtomicU64; Stage::COUNT] = [ZERO; Stage::COUNT];
static STAGE_CALLS: [AtomicU64; Stage::COUNT] = [ZERO; Stage::COUNT];

/// RAII timer: accumulates into its [`Stage`] when dropped.
///
/// Obtained from [`span`]. When observability is off the guard holds no
/// start time and drop does nothing — not even a clock read.
#[must_use = "a span guard times until it is dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    stage: Stage,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            STAGE_NANOS[self.stage as usize].fetch_add(ns, Ordering::Relaxed);
            STAGE_CALLS[self.stage as usize].fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Start timing `stage`; the returned guard accumulates on drop.
#[inline]
pub fn span(stage: Stage) -> SpanGuard {
    let start = if crate::enabled() {
        Some(Instant::now())
    } else {
        None
    };
    SpanGuard { stage, start }
}

/// Time a closure as one span of `stage` and return its result.
#[inline]
pub fn time<T>(stage: Stage, f: impl FnOnce() -> T) -> T {
    let _guard = span(stage);
    f()
}

/// Accumulated (busy) nanoseconds and call count for a stage.
#[must_use]
pub fn stage_totals(stage: Stage) -> (u64, u64) {
    (
        STAGE_NANOS[stage as usize].load(Ordering::Relaxed),
        STAGE_CALLS[stage as usize].load(Ordering::Relaxed),
    )
}

pub(crate) fn reset_all() {
    for i in 0..Stage::COUNT {
        STAGE_NANOS[i].store(0, Ordering::Relaxed);
        STAGE_CALLS[i].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate stage name");
    }
}
