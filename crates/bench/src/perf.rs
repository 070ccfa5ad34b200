//! Machine-readable SPICE performance trajectory (`BENCH_spice.json`).
//!
//! Every timing-mode bench run appends one [`PerfPoint`] — a labelled set
//! of per-tier measurements (wall-clock, the [`TIER_COUNTERS`] deltas,
//! solves/sec) — to a committed trajectory file, so each PR that touches
//! the solver hot path leaves a recorded before/after pair behind. The
//! JSON is hand-rolled for byte-stable output (fixed key order, fixed
//! float formatting) and parsed back by a minimal scanner so the
//! `perfcheck` regression gate needs no external dependencies.
//!
//! # Honest wall-clock numbers (`mcml-bench-perf/3`)
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
//! use mcml_bench::perf::{PerfPoint, TierPerf, Trajectory, TIER_COUNTERS};
//! use mcml_obs::Counter;
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
//!         counts: [1000; TIER_COUNTERS.len()],
//!         solves_per_sec: 666.7,
//!     }],
//! });
//! let json = traj.to_json();
//! assert!(json.contains("\"mos_evals\": 1000"));
//! let back = Trajectory::from_json(&json).unwrap();
//! assert_eq!(back.points[0].tiers[0].count(Counter::MatrixSolves), 1000);
//! assert_eq!(back.to_json(), json, "round-trips byte-identically");
//! ```

use mcml_obs::{json_escape, Counter};
use std::time::Instant;

/// Schema identifier written into every trajectory file.
pub const SCHEMA: &str = "mcml-bench-perf/3";

/// The SPICE counters a trajectory tier records, in the order its JSON
/// keys appear. A key is the counter's report name without its `spice.`
/// prefix (`Counter::NrIterations` → `nr_iterations`).
pub const TIER_COUNTERS: [Counter; 12] = [
    Counter::NrIterations,
    Counter::MatrixSolves,
    Counter::TranSteps,
    Counter::SymbolicReuse,
    Counter::NumericRefactor,
    Counter::LinearStampsSkipped,
    Counter::LteRejects,
    Counter::AdaptiveSteps,
    Counter::HGrowths,
    Counter::MosEvals,
    Counter::MosBypassed,
    Counter::LaneRefactors,
];

/// The work counters [`compare_points`] gates: thread- and
/// machine-invariant, so a rise beyond the tolerance is a solver-work
/// regression, not noise.
pub const GATED: [Counter; 4] = [
    Counter::NrIterations,
    Counter::MatrixSolves,
    Counter::TranSteps,
    Counter::MosEvals,
];

/// How far `perfcheck` lets a [`GATED`] counter rise above the baseline
/// before it fails: +10 %.
pub const COUNTER_TOLERANCE: f64 = 0.10;

/// How far `perfcheck` lets a tier's median wall time rise above the
/// baseline before it warns: +50 %. Shared runners are too noisy to fail
/// on wall time, so the band only warns.
pub const WALL_BAND: f64 = 0.50;

/// The JSON key of a trajectory counter.
fn key(c: Counter) -> &'static str {
    c.name()
        .strip_prefix("spice.")
        .expect("trajectory counters are SPICE counters")
}

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
    /// Delta of each [`TIER_COUNTERS`] entry over the tier, in that order
    /// (deterministic). A counter that postdates a point reads 0 there.
    pub counts: [u64; TIER_COUNTERS.len()],
    /// Linear solves per wall-clock second (machine-dependent).
    pub solves_per_sec: f64,
}

impl TierPerf {
    /// The recorded delta of `c` over the tier.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not one of the [`TIER_COUNTERS`].
    #[must_use]
    pub fn count(&self, c: Counter) -> u64 {
        let slot = TIER_COUNTERS
            .iter()
            .position(|&k| k == c)
            .unwrap_or_else(|| panic!("{} is not a trajectory counter", c.name()));
        self.counts[slot]
    }
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

impl PerfPoint {
    /// Check that every tier counted Newton iterations. Every tier runs
    /// SPICE, so a tier that reads 0 was measured with `mcml-obs`
    /// counting off, and its counters would pass any gate.
    ///
    /// # Errors
    ///
    /// Names the first tier that counted no Newton iteration.
    pub fn check_counted(&self) -> Result<(), String> {
        match self
            .tiers
            .iter()
            .find(|t| t.count(Counter::NrIterations) == 0)
        {
            Some(t) => Err(format!(
                "tier `{}` counted no Newton iterations: mcml-obs counting is off \
                 (MCML_OBS=off?); record a point with MCML_OBS=summary",
                t.tier
            )),
            None => Ok(()),
        }
    }
}

/// The whole perf trajectory: an append-only series of [`PerfPoint`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trajectory {
    /// Recorded points, oldest first.
    pub points: Vec<PerfPoint>,
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
/// warmup, then `reps` (min 1) timed repetitions. The characterisation
/// cache is cleared before the warmup and before every timed repetition,
/// *outside* the timed window, so every repetition starts cold and a tier
/// measures the same work whatever order the tiers run in.
///
/// `wall_s` is the median of the timed walls; `wall_min_s`/`wall_max_s`
/// bound the spread. Counters come from the first timed repetition; the
/// deltas are deterministic for a fixed workload, and a repetition that
/// disagrees trips a stderr warning (it means the workload itself is not
/// repetition-invariant, so the whole tier measurement is suspect).
/// Returns the last repetition's output.
pub fn measure_tier_reps<T>(tier: &str, reps: u32, mut f: impl FnMut() -> T) -> (TierPerf, T) {
    let reps = reps.max(1);
    // Untimed warmup: faults in code pages, fills model caches, and warms
    // the allocator so the timed repetitions measure steady state.
    mcml_char::cache::clear();
    let mut out = f();
    let mut walls = Vec::with_capacity(reps as usize);
    let mut first: Option<[u64; TIER_COUNTERS.len()]> = None;
    for rep in 0..reps {
        mcml_char::cache::clear();
        let before = TIER_COUNTERS.map(mcml_obs::total);
        let start = Instant::now();
        out = f();
        walls.push(start.elapsed().as_secs_f64());
        let after = TIER_COUNTERS.map(mcml_obs::total);
        let counts = std::array::from_fn(|i| after[i] - before[i]);
        match first {
            Some(c0) if c0 != counts => eprintln!(
                "warning: tier `{tier}` repetition {rep} solver counters diverge from \
                 repetition 0 — the workload is not repetition-invariant"
            ),
            Some(_) => {}
            None => first = Some(counts),
        }
    }
    walls.sort_by(f64::total_cmp);
    let mut tp = TierPerf {
        tier: tier.to_owned(),
        wall_s: median_sorted(&walls),
        wall_min_s: walls[0],
        wall_max_s: walls[walls.len() - 1],
        counts: first.expect("reps >= 1"),
        solves_per_sec: 0.0,
    };
    tp.solves_per_sec = tp.count(Counter::MatrixSolves) as f64 / tp.wall_s.max(1e-9);
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
                for (&c, n) in TIER_COUNTERS.iter().zip(&t.counts) {
                    s.push_str(&format!("          \"{}\": {n},\n", key(c)));
                }
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
                let mut counts = [0; TIER_COUNTERS.len()];
                for (n, &c) in counts.iter_mut().zip(&TIER_COUNTERS) {
                    *n = int(tobj, key(c))?;
                }
                tiers.push(TierPerf {
                    tier: get(tobj, "tier")?
                        .as_str()
                        .ok_or("`tier` must be a string")?
                        .to_owned(),
                    wall_s: num(tobj, "wall_s")?,
                    wall_min_s: num(tobj, "wall_min_s")?,
                    wall_max_s: num(tobj, "wall_max_s")?,
                    counts,
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

/// Compare a candidate point against a baseline point: every [`GATED`]
/// counter of every tier present in both must not exceed the baseline by
/// more than `tolerance` (e.g. `0.10` for +10 %). A baseline that reads 0
/// is gated like any other value. Returns the list of violations, empty
/// when the candidate passes.
#[must_use]
pub fn compare_points(baseline: &PerfPoint, candidate: &PerfPoint, tolerance: f64) -> Vec<String> {
    let mut violations = Vec::new();
    for base_tier in &baseline.tiers {
        let Some(cand_tier) = candidate.tiers.iter().find(|t| t.tier == base_tier.tier) else {
            violations.push(format!("tier `{}` missing from candidate", base_tier.tier));
            continue;
        };
        for c in GATED {
            let (base, cand) = (base_tier.count(c), cand_tier.count(c));
            let limit = (base as f64 * (1.0 + tolerance)).ceil() as u64;
            if cand > limit {
                violations.push(format!(
                    "tier `{}`: {} regressed {base} -> {cand} (limit {limit})",
                    base_tier.tier,
                    key(c)
                ));
            }
        }
    }
    violations
}

/// Compare wall-clock medians against a noise band: every tier present in
/// both points must not exceed the baseline's `wall_s` by more than
/// `band` (e.g. `0.30` for +30 %). Wall time is machine- and load-
/// dependent, so `perfcheck` reports these as warnings only.
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
            // A distinct multiple of `nr` per counter, so a value written
            // under the wrong key shows.
            counts: std::array::from_fn(|i| nr * (i as u64 + 1)),
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
        assert!(json.contains("\"mos_evals\": 1000"));
        assert!(json.contains("\"mos_bypassed\": 1100"));
        assert!(json.contains("\"lane_refactors\": 1200"));
        for dead in [
            "ensemble_lanes",
            "partition_blocks",
            "block_solves",
            "block_skips",
        ] {
            assert!(!json.contains(dead), "schema 3 records no `{dead}`");
        }
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
        let (t, _) = measure_tier_reps("toy", 4, || {
            calls += 1;
            // Make later repetitions measurably slower so min/median/max
            // separate without relying on scheduler noise.
            std::thread::sleep(std::time::Duration::from_millis(u64::from(calls) * 2));
        });
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
        assert_eq!(t.points[0].tiers[0].count(Counter::NrIterations), 2);
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
