//! The committed perf trajectory (`BENCH_spice.json`) reads back through
//! the strict schema-3 reader and re-serialises byte for byte, so every
//! committed point stays readable and a hand edit the writer would not
//! reproduce fails here. Its latest point is the baseline `perfcheck`
//! gates against, and each gated counter fires on its own against it.

use std::path::Path;

use mcml_bench::perf::{compare_points, Trajectory, COUNTER_TOLERANCE, GATED, TIER_COUNTERS};
use mcml_obs::Counter;

fn committed() -> (Trajectory, String) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_spice.json");
    let traj = Trajectory::load_required(&path).expect("committed trajectory parses");
    let text = std::fs::read_to_string(&path).expect("read trajectory");
    (traj, text)
}

#[test]
fn committed_trajectory_round_trips_byte_for_byte() {
    let (traj, text) = committed();
    assert!(!traj.points.is_empty(), "trajectory has points");
    let written = traj.to_json();
    let first_diff = text
        .lines()
        .zip(written.lines())
        .enumerate()
        .find(|(_, (committed, rewritten))| committed != rewritten)
        .map(|(i, pair)| (i + 1, pair));
    assert!(
        written == text,
        "the writer does not reproduce BENCH_spice.json ({} vs {} lines); first differing line \
         (committed, rewritten): {first_diff:?}",
        text.lines().count(),
        written.lines().count()
    );
}

#[test]
fn each_gated_counter_fires_alone_against_the_committed_baseline() {
    assert_eq!(
        GATED,
        [
            Counter::NrIterations,
            Counter::MatrixSolves,
            Counter::TranSteps,
            Counter::MosEvals
        ],
        "the CI gate keeps its four counters"
    );
    let (traj, _) = committed();
    let base = traj.latest().expect("trajectory has points");
    for (ti, tier) in base.tiers.iter().enumerate() {
        for (slot, &c) in TIER_COUNTERS.iter().enumerate() {
            let value = tier.counts[slot];
            let with = |v: u64| {
                let mut cand = base.clone();
                cand.tiers[ti].counts[slot] = v;
                compare_points(base, &cand, COUNTER_TOLERANCE)
            };
            if GATED.contains(&c) {
                assert!(value > 0, "{}: {} reads 0", tier.tier, c.name());
                let limit = (value as f64 * (1.0 + COUNTER_TOLERANCE)).ceil() as u64;
                assert_eq!(
                    with(limit),
                    Vec::<String>::new(),
                    "{}: {}",
                    tier.tier,
                    c.name()
                );
                let over = with(limit + 1);
                let key = c.name().trim_start_matches("spice.");
                assert_eq!(over.len(), 1, "{}: {}: {over:?}", tier.tier, c.name());
                assert!(
                    over[0].contains(&format!("tier `{}`: {key} regressed", tier.tier)),
                    "{over:?}"
                );
            } else {
                assert!(
                    with(value.max(1) * 10).is_empty(),
                    "{}: ungated {} fired",
                    tier.tier,
                    c.name()
                );
            }
        }
    }
}
