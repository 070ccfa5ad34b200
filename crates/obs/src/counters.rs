//! The counter registry and its sharded atomic storage.
//!
//! Counters are a closed set (an enum, not string interning) so the hot
//! path never hashes a name or allocates: an increment is a thread-local
//! shard lookup plus one `fetch_add(Relaxed)`. Shards exist only to keep
//! concurrent workers off each other's cache lines; totals are the sum
//! over shards and are therefore independent of how work was scheduled.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Every named counter in the workspace.
///
/// The `name()` strings (`<crate-area>.<what>`) are the keys of the
/// `counters` object in `report.json`; units and emitting crates are
/// documented per counter in `docs/OBSERVABILITY.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// DC operating points solved (`mcml-spice`).
    DcSolves,
    /// Transient analyses run (`mcml-spice`).
    Transients,
    /// Accepted transient time steps (`mcml-spice`).
    TranSteps,
    /// Transient step subdivisions after a Newton failure (`mcml-spice`).
    TranRetries,
    /// Adaptive transient steps rejected by the LTE controller
    /// (`mcml-spice`).
    LteRejects,
    /// Macro steps of the grid-aligned LTE controller, one per lane —
    /// each a single grid cell or a multi-cell leap (`mcml-spice`).
    AdaptiveSteps,
    /// Adaptive step-size growths in quiet regions (`mcml-spice`).
    HGrowths,
    /// Newton–Raphson iterations (`mcml-spice`).
    NrIterations,
    /// MOSFET model evaluations actually executed (`mcml-spice`).
    MosEvals,
    /// MOSFET evaluations skipped by the quiescent-device bypass: the
    /// cached linearization was reused because no terminal voltage moved
    /// more than the bypass tolerance since it was recorded
    /// (`mcml-spice`).
    MosBypassed,
    /// Lockstep ensemble lanes launched. Nothing emits it since every
    /// transient marches one circuit, so it always reads 0; it stays
    /// because the `mcml-obs/1` report's key set is part of its schema,
    /// so it goes with the other three dead SPICE counters in one
    /// report-schema bump (`mcml-spice`).
    EnsembleLanes,
    /// LU factorisations, dense or sparse, actually performed inside
    /// transient solves; the gap to `MatrixSolves` is the solves that reused
    /// factors of provably unchanged Jacobian values (`mcml-spice`).
    LaneRefactors,
    /// Linear-system factor/solve calls (`mcml-spice`).
    MatrixSolves,
    /// Sparse solves that reused an existing symbolic factorisation
    /// (elimination order + fill pattern) instead of re-analysing
    /// (`mcml-spice`).
    SymbolicReuse,
    /// Numeric-only sparse refactorisations attempted on a fixed pivot
    /// order; includes the rare attempts that fell back to a fresh
    /// symbolic factorisation on a degraded pivot (`mcml-spice`).
    NumericRefactor,
    /// Constant linear matrix stamps served from the pre-accumulated
    /// `StampPlan` base instead of being re-evaluated per Newton
    /// iteration (`mcml-spice`).
    LinearStampsSkipped,
    /// Solve blocks of the deleted partitioned transient solve. Nothing
    /// emits it since every transient runs one monolithic system, so it
    /// always reads 0; it stays for the same reason as `EnsembleLanes`
    /// (`mcml-spice`).
    PartitionBlocks,
    /// Per-block solves of the deleted partitioned transient solve;
    /// always 0. It stays for the same reason as `EnsembleLanes`, and
    /// perfbench's per-layer metrics still read it (`mcml-spice`).
    BlockSolves,
    /// Per-block skips of the deleted partitioned transient solve;
    /// always 0, kept for the same reasons as `BlockSolves`
    /// (`mcml-spice`).
    BlockSkips,
    /// Characterisation-cache lookups (`mcml-char`).
    CacheLookups,
    /// Characterisation-cache lookups served from memory (`mcml-char`).
    CacheHits,
    /// Characterisation-cache lookups that ran the measurements (`mcml-char`).
    CacheMisses,
    /// Full cell characterisations executed (`mcml-char`).
    CellsCharacterized,
    /// Bias/corner sweep points measured (`mcml-char`).
    SweepPoints,
    /// `parallel_map` batches dispatched (`mcml-exec`).
    ParallelBatches,
    /// Work items executed by the runner, serial or parallel (`mcml-exec`).
    TasksRun,
    /// Event-driven simulation runs (`mcml-sim`).
    EventSimRuns,
    /// Net transitions recorded by the event simulator (`mcml-sim`).
    NetTransitions,
    /// Power traces acquired into trace sets (`mcml-dpa`).
    TracesAcquired,
    /// Fixed-size trace chunks folded by the Pearson accumulation (`mcml-dpa`).
    PearsonChunks,
    /// Fixed-size trace chunks folded by the Welch t-test (`mcml-dpa`).
    WelchChunks,
    /// Zero-variance correlation cells short-circuited to 0 (`mcml-dpa`).
    ZeroVarianceSkipped,
    /// Lint rules evaluated against a target (`mcml-lint`).
    LintRulesRun,
    /// Lint diagnostics emitted at warn or deny severity (`mcml-lint`).
    LintDiagnostics,
    /// Lint diagnostics suppressed by a configured waiver (`mcml-lint`).
    LintWaived,
    /// Dataflow fixpoint solves over a netlist — one per analysed
    /// target, covering taint, activity and score together (`mcml-lint`).
    DataflowRuns,
    /// Gate transfer-function applications inside the dataflow worklist
    /// solver, summed over all analyses (`mcml-lint`).
    DataflowGateEvals,
    /// Nets the secret-taint analysis marked tainted (`mcml-lint`).
    DataflowTaintedNets,
    /// Optimizer generations advanced — one per population the solver
    /// sampled, evaluated and folded into its state (`mcml-opt`).
    OptGenerations,
    /// Objective evaluations requested by an optimizer, feasible or not;
    /// cache hits still count — the solver asked (`mcml-opt`).
    OptEvals,
    /// Candidate sizings rejected by the feasibility oracle (parameter
    /// validation, bias solvability, lint, Iss budget) and charged the
    /// penalty cost instead of a measurement (`mcml-opt`).
    OptInfeasible,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 41] = [
        Counter::DcSolves,
        Counter::Transients,
        Counter::TranSteps,
        Counter::TranRetries,
        Counter::LteRejects,
        Counter::AdaptiveSteps,
        Counter::HGrowths,
        Counter::NrIterations,
        Counter::MosEvals,
        Counter::MosBypassed,
        Counter::EnsembleLanes,
        Counter::LaneRefactors,
        Counter::MatrixSolves,
        Counter::SymbolicReuse,
        Counter::NumericRefactor,
        Counter::LinearStampsSkipped,
        Counter::PartitionBlocks,
        Counter::BlockSolves,
        Counter::BlockSkips,
        Counter::CacheLookups,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CellsCharacterized,
        Counter::SweepPoints,
        Counter::ParallelBatches,
        Counter::TasksRun,
        Counter::EventSimRuns,
        Counter::NetTransitions,
        Counter::TracesAcquired,
        Counter::PearsonChunks,
        Counter::WelchChunks,
        Counter::ZeroVarianceSkipped,
        Counter::LintRulesRun,
        Counter::LintDiagnostics,
        Counter::LintWaived,
        Counter::DataflowRuns,
        Counter::DataflowGateEvals,
        Counter::DataflowTaintedNets,
        Counter::OptGenerations,
        Counter::OptEvals,
        Counter::OptInfeasible,
    ];

    /// Number of counters (size of the storage rows).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable report key, `<area>.<what>`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Counter::DcSolves => "spice.dc_solves",
            Counter::Transients => "spice.transients",
            Counter::TranSteps => "spice.tran_steps",
            Counter::TranRetries => "spice.tran_retries",
            Counter::LteRejects => "spice.lte_rejects",
            Counter::AdaptiveSteps => "spice.adaptive_steps",
            Counter::HGrowths => "spice.h_growths",
            Counter::NrIterations => "spice.nr_iterations",
            Counter::MosEvals => "spice.mos_evals",
            Counter::MosBypassed => "spice.mos_bypassed",
            Counter::EnsembleLanes => "spice.ensemble_lanes",
            Counter::LaneRefactors => "spice.lane_refactors",
            Counter::MatrixSolves => "spice.matrix_solves",
            Counter::SymbolicReuse => "spice.symbolic_reuse",
            Counter::NumericRefactor => "spice.numeric_refactor",
            Counter::LinearStampsSkipped => "spice.linear_stamps_skipped",
            Counter::PartitionBlocks => "spice.partition_blocks",
            Counter::BlockSolves => "spice.block_solves",
            Counter::BlockSkips => "spice.block_skips",
            Counter::CacheLookups => "charlib.cache_lookups",
            Counter::CacheHits => "charlib.cache_hits",
            Counter::CacheMisses => "charlib.cache_misses",
            Counter::CellsCharacterized => "charlib.cells_characterized",
            Counter::SweepPoints => "charlib.sweep_points",
            Counter::ParallelBatches => "exec.parallel_batches",
            Counter::TasksRun => "exec.tasks_run",
            Counter::EventSimRuns => "sim.event_runs",
            Counter::NetTransitions => "sim.net_transitions",
            Counter::TracesAcquired => "dpa.traces_acquired",
            Counter::PearsonChunks => "dpa.pearson_chunks",
            Counter::WelchChunks => "dpa.welch_chunks",
            Counter::ZeroVarianceSkipped => "dpa.zero_variance_skipped",
            Counter::LintRulesRun => "lint.rules_run",
            Counter::LintDiagnostics => "lint.diagnostics",
            Counter::LintWaived => "lint.waived",
            Counter::DataflowRuns => "lint.dataflow_runs",
            Counter::DataflowGateEvals => "lint.dataflow_gate_evals",
            Counter::DataflowTaintedNets => "lint.dataflow_tainted_nets",
            Counter::OptGenerations => "opt.generations",
            Counter::OptEvals => "opt.evals",
            Counter::OptInfeasible => "opt.infeasible",
        }
    }

    /// Unit of the counted quantity.
    #[must_use]
    pub const fn unit(self) -> &'static str {
        match self {
            Counter::DcSolves => "operating points",
            Counter::Transients => "analyses",
            Counter::TranSteps => "accepted steps",
            Counter::TranRetries => "subdivisions",
            Counter::LteRejects => "rejected steps",
            Counter::AdaptiveSteps => "accepted steps",
            Counter::HGrowths => "step growths",
            Counter::NrIterations => "iterations",
            Counter::MosEvals => "model evaluations",
            Counter::MosBypassed => "skipped evaluations",
            Counter::EnsembleLanes => "lanes",
            Counter::LaneRefactors => "refactorisations",
            Counter::MatrixSolves => "factor+solve calls",
            Counter::SymbolicReuse => "reused factorisations",
            Counter::NumericRefactor => "refactorisations",
            Counter::LinearStampsSkipped => "stamps",
            Counter::PartitionBlocks => "blocks",
            Counter::BlockSolves => "block solves",
            Counter::BlockSkips => "skipped solves",
            Counter::CacheLookups | Counter::CacheHits | Counter::CacheMisses => "lookups",
            Counter::CellsCharacterized => "cells",
            Counter::SweepPoints => "points",
            Counter::ParallelBatches => "batches",
            Counter::TasksRun => "work items",
            Counter::EventSimRuns => "runs",
            Counter::NetTransitions => "transitions",
            Counter::TracesAcquired => "traces",
            Counter::PearsonChunks | Counter::WelchChunks => "chunks",
            Counter::ZeroVarianceSkipped => "matrix cells",
            Counter::LintRulesRun => "rule evaluations",
            Counter::LintDiagnostics => "diagnostics",
            Counter::LintWaived => "diagnostics",
            Counter::DataflowRuns => "solves",
            Counter::DataflowGateEvals => "transfer applications",
            Counter::DataflowTaintedNets => "nets",
            Counter::OptGenerations => "generations",
            Counter::OptEvals => "evaluations",
            Counter::OptInfeasible => "candidates",
        }
    }

    /// Crate that emits the counter.
    #[must_use]
    pub const fn crate_name(self) -> &'static str {
        match self {
            Counter::DcSolves
            | Counter::Transients
            | Counter::TranSteps
            | Counter::TranRetries
            | Counter::LteRejects
            | Counter::AdaptiveSteps
            | Counter::HGrowths
            | Counter::NrIterations
            | Counter::MosEvals
            | Counter::MosBypassed
            | Counter::EnsembleLanes
            | Counter::LaneRefactors
            | Counter::MatrixSolves
            | Counter::SymbolicReuse
            | Counter::NumericRefactor
            | Counter::LinearStampsSkipped
            | Counter::PartitionBlocks
            | Counter::BlockSolves
            | Counter::BlockSkips => "mcml-spice",
            Counter::CacheLookups
            | Counter::CacheHits
            | Counter::CacheMisses
            | Counter::CellsCharacterized
            | Counter::SweepPoints => "mcml-char",
            Counter::ParallelBatches | Counter::TasksRun => "mcml-exec",
            Counter::EventSimRuns | Counter::NetTransitions => "mcml-sim",
            Counter::TracesAcquired
            | Counter::PearsonChunks
            | Counter::WelchChunks
            | Counter::ZeroVarianceSkipped => "mcml-dpa",
            Counter::LintRulesRun
            | Counter::LintDiagnostics
            | Counter::LintWaived
            | Counter::DataflowRuns
            | Counter::DataflowGateEvals
            | Counter::DataflowTaintedNets => "mcml-lint",
            Counter::OptGenerations | Counter::OptEvals | Counter::OptInfeasible => "mcml-opt",
        }
    }
}

/// Shard count; power of two so the shard pick is a mask. 16 shards of
/// `Counter::COUNT`×8 B keep concurrent workers on distinct cache-line
/// groups without bloating the aggregate read.
const SHARDS: usize = 16;

#[allow(clippy::declare_interior_mutable_const)] // the canonical static-array-of-atomics init
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ROW: [AtomicU64; Counter::COUNT] = [ZERO; Counter::COUNT];
static BANK: [[AtomicU64; Counter::COUNT]; SHARDS] = [ROW; SHARDS];

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread is pinned round-robin to one shard for its lifetime.
    static MY_SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) & (SHARDS - 1);
}

/// Add `n` to a counter: one relaxed `fetch_add` on this thread's shard.
///
/// A no-op (no atomics touched, no allocation) when the mode is
/// [`Off`](crate::Mode::Off).
#[inline]
pub fn add(c: Counter, n: u64) {
    if !crate::enabled() {
        return;
    }
    MY_SHARD.with(|&s| {
        BANK[s][c as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Increment a counter by one. See [`add`].
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Aggregate total of a counter: the sum over shards.
///
/// Deterministic for deterministic workloads: the total depends only on
/// the multiset of `add` calls, never on which thread made them.
#[must_use]
pub fn total(c: Counter) -> u64 {
    BANK.iter()
        .map(|row| row[c as usize].load(Ordering::Relaxed))
        .sum()
}

pub(crate) fn reset_all() {
    for row in &BANK {
        for cell in row {
            cell.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_schema_stable() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate counter name");
        for c in Counter::ALL {
            assert!(c.name().contains('.'), "{} missing area prefix", c.name());
            assert!(!c.unit().is_empty());
            assert!(c.crate_name().starts_with("mcml-"));
        }
    }
}
