//! CI regression gate over the SPICE perf trajectory.
//!
//! Usage: `cargo run --release -p mcml-bench --bin perfcheck --
//! <baseline.json> <candidate.json>`
//!
//! Compares the *latest* point of the candidate trajectory against the
//! latest point of the committed baseline, with two very different
//! standards of evidence:
//!
//! - **Deterministic work counters** (`perf::GATED`: `nr_iterations`,
//!   `matrix_solves`, `tran_steps`, `mos_evals`) are thread- and
//!   machine-invariant, so they are gated **strictly**: any tier
//!   exceeding the baseline by more than `perf::COUNTER_TOLERANCE`
//!   (10 %) fails the check.
//! - **Wall-clock medians** are machine- and load-dependent, so they
//!   are compared against the `perf::WALL_BAND` noise band (50 %) and
//!   only *warn* when exceeded.
//!
//! Both trajectory files are *required*: a missing file, truncated
//! JSON, or an unknown schema version is a clear, non-zero-exit error —
//! never a parse panic, and never a silent vacuous pass.

use mcml_bench::perf::{
    compare_points, compare_wall, Trajectory, COUNTER_TOLERANCE, GATED, WALL_BAND,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, candidate_path] = args.as_slice() else {
        return Err("usage: perfcheck <baseline.json> <candidate.json>".into());
    };

    // `load_required` fails loudly on a missing file, truncated JSON, or
    // an unknown schema — a gate that silently passed on an unreadable
    // baseline would be worse than no gate.
    let baseline = Trajectory::load_required(std::path::Path::new(baseline_path))
        .map_err(|e| format!("baseline: {e}"))?;
    let candidate = Trajectory::load_required(std::path::Path::new(candidate_path))
        .map_err(|e| format!("candidate: {e}"))?;
    let base = baseline
        .latest()
        .ok_or(format!("baseline {baseline_path} has no points"))?;
    let cand = candidate
        .latest()
        .ok_or(format!("candidate {candidate_path} has no points"))?;

    println!(
        "perfcheck: `{}` (baseline) vs `{}` (candidate), counter tolerance {:.0} %, \
         wall band {:.0} % (warn-only)",
        base.label,
        cand.label,
        COUNTER_TOLERANCE * 100.0,
        WALL_BAND * 100.0,
    );
    for t in &base.tiers {
        if let Some(c) = cand.tiers.iter().find(|c| c.tier == t.tier) {
            let counters: String = GATED
                .iter()
                .map(|&g| format!("  {} {} -> {}", g.name(), t.count(g), c.count(g)))
                .collect();
            println!(
                "  {:<14}{counters}  wall {:.3}s -> {:.3}s",
                t.tier, t.wall_s, c.wall_s
            );
        }
    }

    let violations = compare_points(base, cand, COUNTER_TOLERANCE);
    for n in compare_wall(base, cand, WALL_BAND) {
        eprintln!("WALL (warn-only): {n}");
    }
    if violations.is_empty() {
        println!("OK: no solver-work regression beyond tolerance");
        Ok(())
    } else {
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        Err(format!("{} perf regression(s)", violations.len()).into())
    }
}
