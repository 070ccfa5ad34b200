//! `spiceperf` records no point without counters: with `mcml-obs`
//! counting off every counter reads 0, and such a point passes every
//! `perfcheck` gate.

use std::path::Path;
use std::process::Command;

use mcml_bench::perf::Trajectory;
use mcml_obs::Counter;

#[test]
fn spiceperf_exits_non_zero_and_writes_nothing_with_counting_off() {
    let out = std::env::temp_dir().join(format!("spiceperf-off-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_spiceperf"))
        .args(["--reps", "1", "--out"])
        .arg(&out)
        .env("MCML_OBS", "off")
        .output()
        .expect("spiceperf runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(!run.status.success(), "exit status {:?}", run.status);
    assert!(
        stderr.contains("MCML_OBS"),
        "message names MCML_OBS: {stderr}"
    );
    assert!(!out.exists(), "no point written to {}", out.display());
}

#[test]
fn a_tier_that_counted_no_newton_iteration_is_refused() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_spice.json");
    let traj = Trajectory::load_required(&path).expect("committed trajectory parses");
    let mut point = traj.latest().expect("trajectory has points").clone();
    assert_eq!(point.check_counted(), Ok(()), "the committed point counted");
    let slot = mcml_bench::perf::TIER_COUNTERS
        .iter()
        .position(|&c| c == Counter::NrIterations)
        .expect("nr_iterations is a trajectory counter");
    point.tiers[3].counts[slot] = 0;
    let err = point.check_counted().expect_err("refused");
    assert!(
        err.contains(&format!("`{}`", point.tiers[3].tier)) && err.contains("MCML_OBS"),
        "{err}"
    );
}
