//! The committed perf trajectory (`BENCH_spice.json`) reads back through
//! the strict schema-2 reader and re-serialises byte for byte, so every
//! committed point stays readable and a hand edit the writer would not
//! reproduce fails here.

use std::path::Path;

use mcml_bench::perf::Trajectory;

#[test]
fn committed_trajectory_round_trips_byte_for_byte() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_spice.json");
    let traj = Trajectory::load_required(&path).expect("committed trajectory parses");
    assert!(!traj.points.is_empty(), "trajectory has points");
    let text = std::fs::read_to_string(&path).expect("read trajectory");
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
