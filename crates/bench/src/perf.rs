//! Machine-readable SPICE performance trajectory (`BENCH_spice.json`).
//!
//! Every timing-mode bench run appends one [`PerfPoint`] — a labelled set
//! of per-tier measurements (wall-clock, Newton/solver counters,
//! solves/sec) — to a committed trajectory file, so each PR that touches
//! the solver hot path leaves a recorded before/after pair behind. The
//! JSON is hand-rolled for byte-stable output (fixed key order, fixed
//! float formatting) and parsed back by a minimal scanner so the
//! `perfcheck` regression gate needs no external dependencies.
//!
//! # Honest wall-clock numbers (`mcml-bench-perf/2`)
//!
//! Single-shot wall times conflate the workload with cold caches, lazy
//! page faults, and scheduler noise. Points therefore come from
//! [`measure_tier_reps`]: one **untimed warmup**, then N timed
//! repetitions; `wall_s` is the **median**, with `wall_min_s`/`wall_max_s`
//! recording the observed spread so a reader can judge the noise floor.
//! Each point also carries a host block (core count, `MCML_THREADS`,
//! build profile, rustc version) because a wall number without its
//! environment is not comparable to anything. The reader accepts only
//! this schema and requires every key; the one exception is the host
//! block, which the committed file's first three points (`pr3`–`pr5`,
//! single-shot, `reps: 1`) predate.
//!
//! ```
//! use mcml_bench::perf::{PerfPoint, TierPerf, Trajectory};
//!
//! let mut traj = Trajectory::default();
//! traj.points.push(PerfPoint {
//!     label: "example".to_owned(),
//!     reps: 5,
//!     host: None,
//!     tiers: vec![TierPerf {
//!         tier: "fig6_tran".to_owned(),
//!         wall_s: 1.5,
//!         wall_min_s: 1.4,
//!         wall_max_s: 1.7,
//!         nr_iterations: 1000,
//!         matrix_solves: 1000,
//!         tran_steps: 360,
//!         symbolic_reuse: 900,
//!         numeric_refactor: 900,
//!         linear_stamps_skipped: 50_000,
//!         lte_rejects: 3,
//!         adaptive_steps: 120,
//!         h_growths: 40,
//!         mos_evals: 80_000,
//!         mos_bypassed: 20_000,
//!         ensemble_lanes: 0,
//!         lane_refactors: 0,
//!         partition_blocks: 0,
//!         block_solves: 0,
//!         block_skips: 0,
//!         solves_per_sec: 666.7,
//!     }],
//! });
//! let json = traj.to_json();
//! let back = Trajectory::from_json(&json).unwrap();
//! assert_eq!(back.to_json(), json, "round-trips byte-identically");
//! ```

use mcml_obs::{json_escape, Counter};
use std::time::Instant;

/// Schema identifier written into every trajectory file.
pub const SCHEMA: &str = "mcml-bench-perf/2";

/// One measured tier inside a trajectory point.
#[derive(Debug, Clone, PartialEq)]
pub struct TierPerf {
    /// Tier name, stable across PRs (e.g. `"fig6_tran"`).
    pub tier: String,
    /// Wall-clock seconds for the tier: the **median** of the timed
    /// repetitions (machine-dependent).
    pub wall_s: f64,
    /// Fastest timed repetition (s). Equal to `wall_s` for single-shot
    /// points.
    pub wall_min_s: f64,
    /// Slowest timed repetition (s). Equal to `wall_s` for single-shot
    /// points.
    pub wall_max_s: f64,
    /// `spice.nr_iterations` delta over the tier (deterministic).
    pub nr_iterations: u64,
    /// `spice.matrix_solves` delta over the tier (deterministic).
    pub matrix_solves: u64,
    /// `spice.tran_steps` delta over the tier (deterministic).
    pub tran_steps: u64,
    /// `spice.symbolic_reuse` delta over the tier (deterministic).
    pub symbolic_reuse: u64,
    /// `spice.numeric_refactor` delta over the tier (deterministic).
    pub numeric_refactor: u64,
    /// `spice.linear_stamps_skipped` delta over the tier (deterministic).
    pub linear_stamps_skipped: u64,
    /// `spice.lte_rejects` delta over the tier (deterministic; 0 on
    /// fixed-step tiers and on trajectory points predating adaptive
    /// stepping).
    pub lte_rejects: u64,
    /// `spice.adaptive_steps` delta over the tier (deterministic; ditto).
    pub adaptive_steps: u64,
    /// `spice.h_growths` delta over the tier (deterministic; ditto).
    pub h_growths: u64,
    /// `spice.mos_evals` delta over the tier (deterministic; 0 on
    /// trajectory points predating the quiescent-device bypass).
    pub mos_evals: u64,
    /// `spice.mos_bypassed` delta over the tier (deterministic; ditto).
    pub mos_bypassed: u64,
    /// `spice.ensemble_lanes` delta over the tier (deterministic). Only
    /// the deleted lockstep ensemble engine emitted it, so it is 0 on
    /// every point since; schema 2 still records it.
    pub ensemble_lanes: u64,
    /// `spice.lane_refactors` delta over the tier (deterministic; 0 on
    /// trajectory points predating the counter).
    pub lane_refactors: u64,
    /// `spice.partition_blocks` delta over the tier (deterministic).
    /// Only the deleted partitioned solve emitted it, so it is 0 on
    /// every monolithic tier and on every point since; schema 2 still
    /// records it.
    pub partition_blocks: u64,
    /// `spice.block_solves` delta over the tier (deterministic; ditto).
    pub block_solves: u64,
    /// `spice.block_skips` delta over the tier (deterministic; ditto).
    pub block_skips: u64,
    /// Linear solves per wall-clock second (machine-dependent).
    pub solves_per_sec: f64,
}

/// The measurement environment recorded with a trajectory point. Wall
/// numbers are only comparable within one host block.
#[derive(Debug, Clone, PartialEq)]
pub struct HostInfo {
    /// Logical cores the OS reported (0 when unknown).
    pub cores: u64,
    /// The `MCML_THREADS` setting in effect, or `"unset"`.
    pub mcml_threads: String,
    /// Build profile the binary was compiled with (`release`/`debug`).
    pub profile: String,
    /// `rustc --version` of the compiler that built the binary, or
    /// `"unknown"` when the build script could not run it.
    pub rustc: String,
}

impl HostInfo {
    /// Capture the current process environment.
    #[must_use]
    pub fn capture() -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
            mcml_threads: std::env::var("MCML_THREADS").unwrap_or_else(|_| "unset".to_owned()),
            profile: if cfg!(debug_assertions) {
                "debug".to_owned()
            } else {
                "release".to_owned()
            },
            rustc: option_env!("MCML_RUSTC_VERSION")
                .unwrap_or("unknown")
                .to_owned(),
        }
    }
}

/// One labelled trajectory point: the tiers measured by a single run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PerfPoint {
    /// Point label, conventionally `pr<N>-<short-description>`.
    pub label: String,
    /// Timed repetitions behind each tier's wall stats (1 for
    /// single-shot points).
    pub reps: u32,
    /// Measurement environment; `None` for points recorded before the
    /// host block existed (the key is then omitted, keeping those points
    /// byte-stable).
    pub host: Option<HostInfo>,
    /// Per-tier measurements.
    pub tiers: Vec<TierPerf>,
}

/// The whole perf trajectory: an append-only series of [`PerfPoint`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    /// Recorded points, oldest first.
    pub points: Vec<PerfPoint>,
}

/// Snapshot of the SPICE solver counters, for delta measurement around a
/// tier without resetting global observability state.
#[derive(Debug, Clone, Copy)]
pub struct CounterSnap {
    nr_iterations: u64,
    matrix_solves: u64,
    tran_steps: u64,
    symbolic_reuse: u64,
    numeric_refactor: u64,
    linear_stamps_skipped: u64,
    lte_rejects: u64,
    adaptive_steps: u64,
    h_growths: u64,
    mos_evals: u64,
    mos_bypassed: u64,
    ensemble_lanes: u64,
    lane_refactors: u64,
    partition_blocks: u64,
    block_solves: u64,
    block_skips: u64,
}

impl CounterSnap {
    /// Capture the current solver counter totals.
    #[must_use]
    pub fn now() -> Self {
        Self {
            nr_iterations: mcml_obs::total(Counter::NrIterations),
            matrix_solves: mcml_obs::total(Counter::MatrixSolves),
            tran_steps: mcml_obs::total(Counter::TranSteps),
            symbolic_reuse: mcml_obs::total(Counter::SymbolicReuse),
            numeric_refactor: mcml_obs::total(Counter::NumericRefactor),
            linear_stamps_skipped: mcml_obs::total(Counter::LinearStampsSkipped),
            lte_rejects: mcml_obs::total(Counter::LteRejects),
            adaptive_steps: mcml_obs::total(Counter::AdaptiveSteps),
            h_growths: mcml_obs::total(Counter::HGrowths),
            mos_evals: mcml_obs::total(Counter::MosEvals),
            mos_bypassed: mcml_obs::total(Counter::MosBypassed),
            ensemble_lanes: mcml_obs::total(Counter::EnsembleLanes),
            lane_refactors: mcml_obs::total(Counter::LaneRefactors),
            partition_blocks: mcml_obs::total(Counter::PartitionBlocks),
            block_solves: mcml_obs::total(Counter::BlockSolves),
            block_skips: mcml_obs::total(Counter::BlockSkips),
        }
    }
}

/// Run `f` as one single-shot timed tier and package the counter deltas.
/// `wall_min_s`/`wall_max_s` equal `wall_s`. Prefer [`measure_tier_reps`]
/// for numbers that get committed to the trajectory.
pub fn measure_tier<T>(tier: &str, f: impl FnOnce() -> T) -> (TierPerf, T) {
    let before = CounterSnap::now();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let after = CounterSnap::now();
    let solves = after.matrix_solves - before.matrix_solves;
    (
        TierPerf {
            tier: tier.to_owned(),
            wall_s,
            wall_min_s: wall_s,
            wall_max_s: wall_s,
            nr_iterations: after.nr_iterations - before.nr_iterations,
            matrix_solves: solves,
            tran_steps: after.tran_steps - before.tran_steps,
            symbolic_reuse: after.symbolic_reuse - before.symbolic_reuse,
            numeric_refactor: after.numeric_refactor - before.numeric_refactor,
            linear_stamps_skipped: after.linear_stamps_skipped - before.linear_stamps_skipped,
            lte_rejects: after.lte_rejects - before.lte_rejects,
            adaptive_steps: after.adaptive_steps - before.adaptive_steps,
            h_growths: after.h_growths - before.h_growths,
            mos_evals: after.mos_evals - before.mos_evals,
            mos_bypassed: after.mos_bypassed - before.mos_bypassed,
            ensemble_lanes: after.ensemble_lanes - before.ensemble_lanes,
            lane_refactors: after.lane_refactors - before.lane_refactors,
            partition_blocks: after.partition_blocks - before.partition_blocks,
            block_solves: after.block_solves - before.block_solves,
            block_skips: after.block_skips - before.block_skips,
            solves_per_sec: solves as f64 / wall_s.max(1e-9),
        },
        out,
    )
}

/// Median of a sorted slice: the middle element, or the mean of the two
/// middle elements for even lengths.
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// Run `f` as one tier with honest repetition statistics: one untimed
/// warmup, then `reps` (min 1) timed repetitions. `prepare` runs before
/// the warmup and before every timed repetition, *outside* the timed
/// window — the place to reset caches so every repetition starts from the
/// same declared state.
///
/// `wall_s` is the median of the timed walls; `wall_min_s`/`wall_max_s`
/// bound the spread. Counters come from the first timed repetition; the
/// deltas are deterministic for a fixed workload, and a repetition that
/// disagrees trips a stderr warning (it means the workload itself is not
/// repetition-invariant, so the whole tier measurement is suspect).
/// Returns the last repetition's output.
pub fn measure_tier_reps<T>(
    tier: &str,
    reps: u32,
    mut prepare: impl FnMut(),
    mut f: impl FnMut() -> T,
) -> (TierPerf, T) {
    let reps = reps.max(1);
    // Untimed warmup: faults in code pages, fills model caches, and warms
    // the allocator so the timed repetitions measure steady state.
    prepare();
    let mut out = f();
    let mut walls = Vec::with_capacity(reps as usize);
    let mut first: Option<TierPerf> = None;
    for rep in 0..reps {
        prepare();
        let (t, o) = measure_tier(tier, &mut f);
        out = o;
        walls.push(t.wall_s);
        match &first {
            Some(f0)
                if (f0.nr_iterations, f0.matrix_solves, f0.tran_steps)
                    != (t.nr_iterations, t.matrix_solves, t.tran_steps) =>
            {
                eprintln!(
                    "warning: tier `{tier}` repetition {rep} solver counters diverge from \
                     repetition 0 — the workload is not repetition-invariant"
                );
            }
            Some(_) => {}
            None => first = Some(t),
        }
    }
    walls.sort_by(f64::total_cmp);
    let mut tp = first.expect("reps >= 1");
    tp.wall_s = median_sorted(&walls);
    tp.wall_min_s = walls[0];
    tp.wall_max_s = walls[walls.len() - 1];
    tp.solves_per_sec = tp.matrix_solves as f64 / tp.wall_s.max(1e-9);
    (tp, out)
}

impl Trajectory {
    /// Serialise to the stable JSON format.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str("  \"points\": [\n");
        for (pi, p) in self.points.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!(
                "      \"label\": \"{}\",\n",
                json_escape(&p.label)
            ));
            s.push_str(&format!("      \"reps\": {},\n", p.reps));
            if let Some(h) = &p.host {
                s.push_str("      \"host\": {\n");
                s.push_str(&format!("        \"cores\": {},\n", h.cores));
                s.push_str(&format!(
                    "        \"mcml_threads\": \"{}\",\n",
                    json_escape(&h.mcml_threads)
                ));
                s.push_str(&format!(
                    "        \"profile\": \"{}\",\n",
                    json_escape(&h.profile)
                ));
                s.push_str(&format!(
                    "        \"rustc\": \"{}\"\n",
                    json_escape(&h.rustc)
                ));
                s.push_str("      },\n");
            }
            s.push_str("      \"tiers\": [\n");
            for (ti, t) in p.tiers.iter().enumerate() {
                s.push_str("        {\n");
                s.push_str(&format!(
                    "          \"tier\": \"{}\",\n",
                    json_escape(&t.tier)
                ));
                s.push_str(&format!("          \"wall_s\": {:.6},\n", t.wall_s));
                s.push_str(&format!("          \"wall_min_s\": {:.6},\n", t.wall_min_s));
                s.push_str(&format!("          \"wall_max_s\": {:.6},\n", t.wall_max_s));
                s.push_str(&format!(
                    "          \"nr_iterations\": {},\n",
                    t.nr_iterations
                ));
                s.push_str(&format!(
                    "          \"matrix_solves\": {},\n",
                    t.matrix_solves
                ));
                s.push_str(&format!("          \"tran_steps\": {},\n", t.tran_steps));
                s.push_str(&format!(
                    "          \"symbolic_reuse\": {},\n",
                    t.symbolic_reuse
                ));
                s.push_str(&format!(
                    "          \"numeric_refactor\": {},\n",
                    t.numeric_refactor
                ));
                s.push_str(&format!(
                    "          \"linear_stamps_skipped\": {},\n",
                    t.linear_stamps_skipped
                ));
                s.push_str(&format!("          \"lte_rejects\": {},\n", t.lte_rejects));
                s.push_str(&format!(
                    "          \"adaptive_steps\": {},\n",
                    t.adaptive_steps
                ));
                s.push_str(&format!("          \"h_growths\": {},\n", t.h_growths));
                s.push_str(&format!("          \"mos_evals\": {},\n", t.mos_evals));
                s.push_str(&format!(
                    "          \"mos_bypassed\": {},\n",
                    t.mos_bypassed
                ));
                s.push_str(&format!(
                    "          \"ensemble_lanes\": {},\n",
                    t.ensemble_lanes
                ));
                s.push_str(&format!(
                    "          \"lane_refactors\": {},\n",
                    t.lane_refactors
                ));
                s.push_str(&format!(
                    "          \"partition_blocks\": {},\n",
                    t.partition_blocks
                ));
                s.push_str(&format!(
                    "          \"block_solves\": {},\n",
                    t.block_solves
                ));
                s.push_str(&format!("          \"block_skips\": {},\n", t.block_skips));
                s.push_str(&format!(
                    "          \"solves_per_sec\": {:.1}\n",
                    t.solves_per_sec
                ));
                s.push_str(if ti + 1 == p.tiers.len() {
                    "        }\n"
                } else {
                    "        },\n"
                });
            }
            s.push_str("      ]\n");
            s.push_str(if pi + 1 == self.points.len() {
                "    }\n"
            } else {
                "    },\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a trajectory back from [`Trajectory::to_json`] output (or any
    /// JSON matching the schema).
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or schema problem.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object().ok_or("top level must be an object")?;
        let schema = get(obj, "schema")?
            .as_str()
            .ok_or("`schema` must be a string")?;
        if schema != SCHEMA {
            return Err(format!("unsupported schema `{schema}` (want `{SCHEMA}`)"));
        }
        let mut points = Vec::new();
        for p in get(obj, "points")?
            .as_array()
            .ok_or("`points` must be an array")?
        {
            let pobj = p.as_object().ok_or("point must be an object")?;
            let mut tiers = Vec::new();
            for t in get(pobj, "tiers")?
                .as_array()
                .ok_or("`tiers` must be an array")?
            {
                let tobj = t.as_object().ok_or("tier must be an object")?;
                tiers.push(TierPerf {
                    tier: get(tobj, "tier")?
                        .as_str()
                        .ok_or("`tier` must be a string")?
                        .to_owned(),
                    wall_s: num(tobj, "wall_s")?,
                    wall_min_s: num(tobj, "wall_min_s")?,
                    wall_max_s: num(tobj, "wall_max_s")?,
                    nr_iterations: int(tobj, "nr_iterations")?,
                    matrix_solves: int(tobj, "matrix_solves")?,
                    tran_steps: int(tobj, "tran_steps")?,
                    symbolic_reuse: int(tobj, "symbolic_reuse")?,
                    numeric_refactor: int(tobj, "numeric_refactor")?,
                    linear_stamps_skipped: int(tobj, "linear_stamps_skipped")?,
                    lte_rejects: int(tobj, "lte_rejects")?,
                    adaptive_steps: int(tobj, "adaptive_steps")?,
                    h_growths: int(tobj, "h_growths")?,
                    mos_evals: int(tobj, "mos_evals")?,
                    mos_bypassed: int(tobj, "mos_bypassed")?,
                    ensemble_lanes: int(tobj, "ensemble_lanes")?,
                    lane_refactors: int(tobj, "lane_refactors")?,
                    partition_blocks: int(tobj, "partition_blocks")?,
                    block_solves: int(tobj, "block_solves")?,
                    block_skips: int(tobj, "block_skips")?,
                    solves_per_sec: num(tobj, "solves_per_sec")?,
                });
            }
            let host = match pobj.iter().find(|(k, _)| k == "host") {
                None => None,
                Some((_, h)) => {
                    let hobj = h.as_object().ok_or("`host` must be an object")?;
                    Some(HostInfo {
                        cores: int(hobj, "cores")?,
                        mcml_threads: get(hobj, "mcml_threads")?
                            .as_str()
                            .ok_or("`mcml_threads` must be a string")?
                            .to_owned(),
                        profile: get(hobj, "profile")?
                            .as_str()
                            .ok_or("`profile` must be a string")?
                            .to_owned(),
                        rustc: get(hobj, "rustc")?
                            .as_str()
                            .ok_or("`rustc` must be a string")?
                            .to_owned(),
                    })
                }
            };
            points.push(PerfPoint {
                label: get(pobj, "label")?
                    .as_str()
                    .ok_or("`label` must be a string")?
                    .to_owned(),
                reps: u32::try_from(int(pobj, "reps")?)
                    .map_err(|_| "`reps` out of range".to_owned())?,
                host,
                tiers,
            });
        }
        Ok(Trajectory { points })
    }

    /// Load a trajectory from disk; a missing file is an empty trajectory.
    /// (The writer's behaviour: `spiceperf` starting a fresh file. Gates
    /// that *require* a baseline should use [`Trajectory::load_required`].)
    ///
    /// # Errors
    ///
    /// Returns I/O or parse failures (other than file-not-found).
    pub fn load(path: &std::path::Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json(&text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// Load a trajectory that must exist: a missing file is an error, not
    /// an empty trajectory — so a regression gate pointed at a mistyped or
    /// never-generated path fails loudly instead of passing vacuously.
    ///
    /// # Errors
    ///
    /// Returns a clear message for a missing file, other I/O failures,
    /// truncated JSON, or an unknown schema.
    pub fn load_required(path: &std::path::Path) -> Result<Self, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Self::from_json(&text)
                .map_err(|e| format!("{}: not a perf trajectory: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(format!(
                "{}: trajectory file not found (run spiceperf to generate it)",
                path.display()
            )),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// Append `point` — or, when a point with the same label already
    /// exists, replace it **in place**, keeping its position in the
    /// series — and write the file back. (Remove-then-push would silently
    /// move a re-run historical point to the end, corrupting both the
    /// chronology and what [`Trajectory::latest`] reports.)
    ///
    /// # Errors
    ///
    /// Returns I/O failures.
    pub fn append_and_save(
        mut self,
        point: PerfPoint,
        path: &std::path::Path,
    ) -> Result<(), String> {
        match self.points.iter_mut().find(|p| p.label == point.label) {
            Some(existing) => *existing = point,
            None => self.points.push(point),
        }
        std::fs::write(path, self.to_json()).map_err(|e| format!("write {}: {e}", path.display()))
    }

    /// The most recent point, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&PerfPoint> {
        self.points.last()
    }
}

/// Counters introduced after the first recorded baselines. A trajectory
/// point measured before such a counter existed records it as 0 (the
/// committed `pr3`–`pr5` points read `mos_evals` and `block_solves` as
/// 0), and a zero baseline would turn *any* candidate value into a
/// violation — so these checks only arm once a baseline with a real
/// (nonzero) measurement exists. Every gated counter added to
/// [`TierPerf`] after the first points belongs in this list; the
/// always-armed trio (`nr_iterations`, `matrix_solves`, `tran_steps`)
/// has been measured since the first point and stays out.
pub const ZERO_BASELINE_ARMED: &[&str] = &["mos_evals", "block_solves"];

/// Compare a candidate point against a baseline point: every gated
/// deterministic work counter (`nr_iterations`, `matrix_solves`,
/// `tran_steps`, `mos_evals`, `block_solves`) of every tier present in
/// both must not exceed the baseline by more than `tolerance` (e.g.
/// `0.10` for +10 %). Returns the list of violations, empty when the
/// candidate passes. Counters listed in [`ZERO_BASELINE_ARMED`] are
/// skipped while their baseline reads 0.
#[must_use]
pub fn compare_points(baseline: &PerfPoint, candidate: &PerfPoint, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for base_tier in &baseline.tiers {
        let Some(cand_tier) = candidate.tiers.iter().find(|t| t.tier == base_tier.tier) else {
            violations.push(format!("tier `{}` missing from candidate", base_tier.tier));
            continue;
        };
        let checks = [
            (
                "nr_iterations",
                base_tier.nr_iterations,
                cand_tier.nr_iterations,
            ),
            (
                "matrix_solves",
                base_tier.matrix_solves,
                cand_tier.matrix_solves,
            ),
            ("tran_steps", base_tier.tran_steps, cand_tier.tran_steps),
            ("mos_evals", base_tier.mos_evals, cand_tier.mos_evals),
            // `block_skips` needs no check of its own: the scheduler's
            // conservation identity (solves + skips = blocks × sub-steps)
            // turns any lost skip into an extra solve, which the
            // `block_solves` check catches.
            (
                "block_solves",
                base_tier.block_solves,
                cand_tier.block_solves,
            ),
        ];
        for (name, base, cand) in checks {
            if base == 0 && ZERO_BASELINE_ARMED.contains(&name) {
                continue;
            }
            let limit = (base as f64 * (1.0 + tolerance)).ceil() as u64;
            if cand > limit {
                violations.push(format!(
                    "tier `{}`: {name} regressed {base} -> {cand} (limit {limit})",
                    base_tier.tier
                ));
            }
        }
    }
    violations
}

/// Compare wall-clock medians against a noise band: every tier present in
/// both points must not exceed the baseline's `wall_s` by more than
/// `band` (e.g. `0.30` for +30 %). Wall time is machine- and load-
/// dependent, so callers should treat these as warnings by default and
/// only fail on them when explicitly asked (`perfcheck --wall-strict`).
#[must_use]
pub fn compare_wall(baseline: &PerfPoint, candidate: &PerfPoint, band: f64) -> Vec<String> {
    let mut notes = Vec::new();
    for base_tier in &baseline.tiers {
        let Some(cand_tier) = candidate.tiers.iter().find(|t| t.tier == base_tier.tier) else {
            continue; // compare_points already reports missing tiers
        };
        let limit = base_tier.wall_s * (1.0 + band);
        if cand_tier.wall_s > limit {
            notes.push(format!(
                "tier `{}`: wall_s {:.3}s -> {:.3}s exceeds the +{:.0}% noise band (limit {:.3}s)",
                base_tier.tier,
                base_tier.wall_s,
                cand_tier.wall_s,
                band * 100.0,
                limit
            ));
        }
    }
    notes
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key `{key}`"))
}

fn num(obj: &[(String, Json)], key: &str) -> Result<f64, String> {
    get(obj, key)?
        .as_number()
        .ok_or_else(|| format!("`{key}` must be a number"))
}

fn int(obj: &[(String, Json)], key: &str) -> Result<u64, String> {
    let v = num(obj, key)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("`{key}` must be a non-negative integer, got {v}"));
    }
    Ok(v as u64)
}

/// Minimal JSON value for the trajectory schema (objects keep key order).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(o) => Some(o),
            _ => None,
        }
    }
    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(a) => Some(a),
            _ => None,
        }
    }
    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }
    fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let val = parse_value(b, pos)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::String(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map(Json::Number)
                .map_err(|_| format!("bad number `{text}` at byte {start}"))
        }
        None => Err("unexpected end of input".to_owned()),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through unchanged.
                let ch_len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&b[*pos..*pos + ch_len.min(b.len() - *pos)])
                    .map_err(|e| e.to_string())?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
    Err("unterminated string".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier(name: &str, nr: u64) -> TierPerf {
        TierPerf {
            tier: name.to_owned(),
            wall_s: 0.5,
            wall_min_s: 0.4,
            wall_max_s: 0.7,
            nr_iterations: nr,
            matrix_solves: nr,
            tran_steps: nr / 2,
            symbolic_reuse: 0,
            numeric_refactor: 0,
            linear_stamps_skipped: 0,
            lte_rejects: 0,
            adaptive_steps: nr / 4,
            h_growths: 0,
            mos_evals: nr * 8,
            mos_bypassed: nr * 2,
            ensemble_lanes: 0,
            lane_refactors: nr / 8,
            partition_blocks: nr / 10,
            block_solves: nr * 3,
            block_skips: nr,
            solves_per_sec: nr as f64 / 0.5,
        }
    }

    fn point(label: &str, tiers: Vec<TierPerf>) -> PerfPoint {
        PerfPoint {
            label: label.to_owned(),
            reps: 5,
            host: Some(HostInfo {
                cores: 8,
                mcml_threads: "1".to_owned(),
                profile: "release".to_owned(),
                rustc: "rustc 1.0.0-test".to_owned(),
            }),
            tiers,
        }
    }

    #[test]
    fn round_trip_is_byte_stable() {
        let traj = Trajectory {
            points: vec![
                point(
                    "pr3-baseline",
                    vec![tier("fig6_tran", 1000), tier("table3_tran", 400)],
                ),
                // A legacy-shaped point: single-shot, no host block.
                PerfPoint {
                    label: "pr4-plan".to_owned(),
                    reps: 1,
                    host: None,
                    tiers: vec![tier("fig6_tran", 900)],
                },
            ],
        };
        let json = traj.to_json();
        let back = Trajectory::from_json(&json).unwrap();
        assert_eq!(back, traj);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn empty_trajectory_round_trips() {
        let t = Trajectory::default();
        assert_eq!(Trajectory::from_json(&t.to_json()).unwrap(), t);
    }

    #[test]
    fn schema_mismatch_rejected() {
        assert!(Trajectory::from_json(r#"{"schema": "other/9", "points": []}"#).is_err());
    }

    #[test]
    fn emitted_tier_json_carries_bypass_counters() {
        let traj = Trajectory {
            points: vec![point("pr6", vec![tier("fig6_tran", 100)])],
        };
        let json = traj.to_json();
        assert!(json.contains("\"mos_evals\": 800"));
        assert!(json.contains("\"mos_bypassed\": 200"));
        assert!(json.contains("\"ensemble_lanes\": 0"));
        assert!(json.contains("\"lane_refactors\": 12"));
        assert!(json.contains("\"partition_blocks\": 10"));
        assert!(json.contains("\"block_solves\": 300"));
        assert!(json.contains("\"block_skips\": 100"));
        assert!(json.contains("\"wall_min_s\": 0.400000"));
        assert!(json.contains("\"wall_max_s\": 0.700000"));
        assert!(json.contains("\"reps\": 5"));
        assert!(json.contains("\"mcml_threads\": \"1\""));
    }

    #[test]
    fn median_of_reps_is_robust_to_one_outlier() {
        // Odd count: the middle element, unmoved by a slow tail.
        assert_eq!(median_sorted(&[1.0, 1.1, 9.0]), 1.1);
        // Even count: mean of the two middle elements (exactly
        // representable values keep the assertion float-safe).
        assert_eq!(median_sorted(&[1.0, 1.25, 1.75, 9.0]), 1.5);
        // Single shot: the only sample.
        assert_eq!(median_sorted(&[2.0]), 2.0);
    }

    #[test]
    fn measure_tier_reps_reports_median_and_spread() {
        let mut calls = 0u32;
        let (t, _) = measure_tier_reps(
            "toy",
            4,
            || {},
            || {
                calls += 1;
                // Make later repetitions measurably slower so min/median/max
                // separate without relying on scheduler noise.
                std::thread::sleep(std::time::Duration::from_millis(u64::from(calls) * 2));
            },
        );
        assert_eq!(calls, 5, "one warmup plus four timed repetitions");
        assert!(t.wall_min_s <= t.wall_s && t.wall_s <= t.wall_max_s);
        assert!(
            t.wall_max_s > t.wall_min_s,
            "staircase sleeps must produce a spread"
        );
    }

    #[test]
    fn compare_flags_regressions_over_tolerance() {
        let base = PerfPoint {
            label: "a".to_owned(),
            tiers: vec![tier("fig6_tran", 1000)],
            ..PerfPoint::default()
        };
        let good = PerfPoint {
            label: "b".to_owned(),
            tiers: vec![tier("fig6_tran", 1099)],
            ..PerfPoint::default()
        };
        let bad = PerfPoint {
            label: "c".to_owned(),
            tiers: vec![tier("fig6_tran", 1200)],
            ..PerfPoint::default()
        };
        assert!(compare_points(&base, &good, 0.10).is_empty());
        let v = compare_points(&base, &bad, 0.10);
        assert!(!v.is_empty() && v[0].contains("nr_iterations"));
    }

    #[test]
    fn zero_baseline_arms_post_schema_counters_uniformly() {
        // A mixed trajectory: the baseline is shaped like the committed
        // pr3–pr5 points, measured before the bypass and partition
        // counters existed, so it records `mos_evals`/`block_solves` as
        // 0; the candidate is a fresh measurement with real values.
        // Every counter in ZERO_BASELINE_ARMED must stay quiet against
        // the old point — none may spuriously flag "0 -> n".
        let old = Trajectory {
            points: vec![PerfPoint {
                label: "pr5-old-baseline".to_owned(),
                reps: 1,
                host: None,
                tiers: vec![TierPerf {
                    mos_evals: 0,
                    mos_bypassed: 0,
                    block_solves: 0,
                    block_skips: 0,
                    ..tier("fig6_tran", 1000)
                }],
            }],
        };
        let old = Trajectory::from_json(&old.to_json()).unwrap();
        let baseline = &old.points[0];
        for name in ZERO_BASELINE_ARMED {
            let t = &baseline.tiers[0];
            let read = match *name {
                "mos_evals" => t.mos_evals,
                "block_solves" => t.block_solves,
                other => panic!("unknown armed counter `{other}` — extend this test"),
            };
            assert_eq!(read, 0, "{name}: the old point must read the counter as 0");
        }
        // Candidate: same always-armed work, huge post-schema counters.
        let candidate = PerfPoint {
            label: "pr10-candidate".to_owned(),
            tiers: vec![tier("fig6_tran", 1000)], // mos_evals 8000, block_solves 3000
            ..PerfPoint::default()
        };
        assert!(
            compare_points(baseline, &candidate, 0.10).is_empty(),
            "zero-baseline counters must not fire against an old point"
        );
        // And once a real (nonzero) baseline exists, the same counters arm:
        // regressing mos_evals/block_solves 8x against it must fail.
        let armed_base = PerfPoint {
            label: "pr9-baseline".to_owned(),
            tiers: vec![tier("fig6_tran", 125)],
            ..PerfPoint::default()
        };
        let v = compare_points(&armed_base, &candidate, 0.10);
        assert!(
            v.iter().any(|m| m.contains("mos_evals")),
            "armed mos_evals must fire: {v:?}"
        );
        assert!(
            v.iter().any(|m| m.contains("block_solves")),
            "armed block_solves must fire: {v:?}"
        );
    }

    #[test]
    fn compare_flags_missing_tier() {
        let base = PerfPoint {
            label: "a".to_owned(),
            tiers: vec![tier("fig6_tran", 10)],
            ..PerfPoint::default()
        };
        let cand = PerfPoint {
            label: "b".to_owned(),
            tiers: vec![],
            ..PerfPoint::default()
        };
        assert_eq!(compare_points(&base, &cand, 0.1).len(), 1);
    }

    #[test]
    fn label_replacement_on_append() {
        let dir = std::env::temp_dir().join("mcml-perf-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traj.json");
        let _ = std::fs::remove_file(&path);
        let p = |label: &str, nr| PerfPoint {
            label: label.to_owned(),
            tiers: vec![tier("t", nr)],
            ..PerfPoint::default()
        };
        Trajectory::load(&path)
            .unwrap()
            .append_and_save(p("x", 1), &path)
            .unwrap();
        Trajectory::load(&path)
            .unwrap()
            .append_and_save(p("x", 2), &path)
            .unwrap();
        let t = Trajectory::load(&path).unwrap();
        assert_eq!(t.points.len(), 1);
        assert_eq!(t.points[0].tiers[0].nr_iterations, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = Json::parse(r#"{"a": [1, 2.5, "x\"y"], "b": {"c": true, "d": null}}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.len(), 2);
        let arr = get(obj, "a").unwrap().as_array().unwrap();
        assert_eq!(arr[2].as_str().unwrap(), "x\"y");
    }
}
