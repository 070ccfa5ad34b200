//! CI regression gate over the SPICE perf trajectory.
//!
//! Usage: `cargo run --release -p mcml-bench --bin perfcheck --
//! <baseline.json> <candidate.json> [tolerance] [--wall-band <frac>]
//! [--wall-strict]`
//!
//! Compares the *latest* point of the candidate trajectory against the
//! latest point of the committed baseline, with two very different
//! standards of evidence:
//!
//! - **Deterministic work counters** (`nr_iterations`, `matrix_solves`,
//!   `tran_steps`, and `mos_evals` and `block_solves` once a baseline
//!   records them) are thread- and machine-invariant, so they are gated
//!   **strictly**: any tier exceeding the baseline by more than the
//!   tolerance (default 10 %) fails the check.
//! - **Wall-clock medians** are machine- and load-dependent, so they
//!   are compared against a configurable **noise band** (`--wall-band`,
//!   default 30 %) and only *warn* when exceeded — unless
//!   `--wall-strict` is given, in which case band violations fail too.
//!
//! Both trajectory files are *required*: a missing file, truncated
//! JSON, or an unknown schema version is a clear, non-zero-exit error —
//! never a parse panic, and never a silent vacuous pass.

use mcml_bench::perf::{compare_points, compare_wall, Trajectory};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut positional: Vec<String> = Vec::new();
    let mut wall_band = 0.30f64;
    let mut wall_strict = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--wall-band" => {
                wall_band = args
                    .next()
                    .ok_or("--wall-band needs a value (e.g. 0.30 for +30 %)")?
                    .parse()
                    .map_err(|e| format!("--wall-band: {e}"))?;
                if !wall_band.is_finite() || wall_band < 0.0 {
                    return Err("--wall-band must be a finite fraction >= 0".into());
                }
            }
            "--wall-strict" => wall_strict = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`").into());
            }
            other => positional.push(other.to_owned()),
        }
    }
    let (baseline_path, candidate_path) = match positional.as_slice() {
        [b, c] | [b, c, _] => (b.clone(), c.clone()),
        _ => {
            return Err(
                "usage: perfcheck <baseline.json> <candidate.json> [tolerance] \
                        [--wall-band <frac>] [--wall-strict]"
                    .into(),
            )
        }
    };
    let tolerance: f64 = positional
        .get(2)
        .map_or(Ok(0.10), |t| t.parse())
        .map_err(|e| format!("tolerance: {e}"))?;

    // `load_required` fails loudly on a missing file, truncated JSON, or
    // an unknown schema — a gate that silently passed on an unreadable
    // baseline would be worse than no gate.
    let baseline = Trajectory::load_required(std::path::Path::new(&baseline_path))
        .map_err(|e| format!("baseline: {e}"))?;
    let candidate = Trajectory::load_required(std::path::Path::new(&candidate_path))
        .map_err(|e| format!("candidate: {e}"))?;
    let base = baseline
        .latest()
        .ok_or(format!("baseline {baseline_path} has no points"))?;
    let cand = candidate
        .latest()
        .ok_or(format!("candidate {candidate_path} has no points"))?;

    println!(
        "perfcheck: `{}` (baseline) vs `{}` (candidate), counter tolerance {:.0} %, \
         wall band {:.0} % ({})",
        base.label,
        cand.label,
        tolerance * 100.0,
        wall_band * 100.0,
        if wall_strict { "strict" } else { "warn-only" }
    );
    for t in &base.tiers {
        if let Some(c) = cand.tiers.iter().find(|c| c.tier == t.tier) {
            println!(
                "  {:<14} NR {:>9} -> {:>9}  solves {:>9} -> {:>9}  steps {:>8} -> {:>8}  wall {:>7.3}s -> {:>7.3}s",
                t.tier,
                t.nr_iterations,
                c.nr_iterations,
                t.matrix_solves,
                c.matrix_solves,
                t.tran_steps,
                c.tran_steps,
                t.wall_s,
                c.wall_s,
            );
        }
    }

    let mut violations = compare_points(base, cand, tolerance);
    let wall_notes = compare_wall(base, cand, wall_band);
    if wall_strict {
        violations.extend(wall_notes.iter().cloned());
    } else {
        for n in &wall_notes {
            eprintln!("WALL (warn-only): {n}");
        }
    }
    if violations.is_empty() {
        println!("OK: no solver-work regression beyond tolerance");
        if !wall_notes.is_empty() && !wall_strict {
            println!(
                "note: {} wall-clock band note(s) above — informational, wall time is \
                 machine-dependent (use --wall-strict to enforce)",
                wall_notes.len()
            );
        }
        Ok(())
    } else {
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        Err(format!("{} perf regression(s)", violations.len()).into())
    }
}
