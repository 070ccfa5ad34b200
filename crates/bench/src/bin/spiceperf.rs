//! Timing-mode benchmark of the SPICE inner loop: runs the
//! solver-dominated tiers (fig. 6 transistor transient, 16-cell library
//! characterisation, fig. 3 bias sweep) and records one labelled point of
//! the machine-readable perf trajectory (`BENCH_spice.json`, schema
//! `mcml-bench-perf/3`).
//!
//! Usage: `cargo run --release -p mcml-bench --bin spiceperf --
//! [--label <name>] [--out <path>] [--reps <n>]`
//!
//! # Honest wall-clock numbers
//!
//! Every tier runs one **untimed warmup** followed by `--reps` (default
//! 5) timed repetitions; the recorded `wall_s` is the **median**, with
//! `wall_min_s`/`wall_max_s` bounding the observed spread and a host
//! block (cores, `MCML_THREADS`, build profile, rustc) recording the
//! environment the numbers came from. The deterministic counters in the
//! emitted point (`perf::TIER_COUNTERS`) are thread- and
//! machine-invariant; the `perfcheck` binary gates CI on them strictly
//! and treats wall time as a noise band.
//!
//! # Per-tier cache / warm state
//!
//! Every tier starts each repetition, warmup included, from a cleared
//! characterisation cache (see `perf::measure_tier_reps`), so a tier
//! measures the same work whatever order the tiers run in.

use mcml_bench::perf::{measure_tier_reps, HostInfo, PerfPoint, TierPerf, Trajectory, SCHEMA};
use mcml_cells::{CellParams, LogicStyle};
use mcml_obs::Counter;
use pg_mcml::experiments::{
    aes_tran_options, aes_tran_params, aes_tran_tier, fig3, fig6_transistor_par,
};
use pg_mcml::Parallelism;

fn print_tier(t: &TierPerf, trailer: &str) {
    println!(
        "{:<12} {:>8.2} s  (min {:.2} / max {:.2})  {:>9} NR iters  {:>9} solves  {:>7.0} solves/s  {trailer}",
        t.tier,
        t.wall_s,
        t.wall_min_s,
        t.wall_max_s,
        t.count(Counter::NrIterations),
        t.count(Counter::MatrixSolves),
        t.solves_per_sec,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut label = "local".to_owned();
    let mut out = "BENCH_spice.json".to_owned();
    let mut reps: u32 = 5;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--label" => label = args.next().ok_or("--label needs a value")?,
            "--out" => out = args.next().ok_or("--out needs a value")?,
            "--reps" => {
                reps = args
                    .next()
                    .ok_or("--reps needs a value")?
                    .parse()
                    .map_err(|e| format!("--reps: {e}"))?;
                if reps == 0 {
                    return Err("--reps must be >= 1".into());
                }
            }
            other => return Err(format!("unknown argument `{other}`").into()),
        }
    }

    let params = CellParams::default();
    let host = HostInfo::capture();
    println!(
        "spiceperf — SPICE inner-loop timing (label `{label}`, median of {reps} reps, \
         {} cores, MCML_THREADS={}, {} build)\n",
        host.cores, host.mcml_threads, host.profile
    );

    // Tier 1: the fig. 6 transistor-level transient — the reduced-AES
    // testbench whose full-SPICE transients dominate the security tier.
    let plaintexts: Vec<u8> = (0..6).collect();
    let (fig6_tier, fig6_res) = measure_tier_reps("fig6_tran", reps, || {
        fig6_transistor_par(
            &params,
            0xb,
            LogicStyle::PgMcml,
            &plaintexts,
            Parallelism::Serial,
        )
    });
    let (row, _) = fig6_res?;
    print_tier(&fig6_tier, &format!("(CPA rank {})", row.rank));
    println!(
        "             adaptive: {} accepted steps, {} LTE rejects, {} step growths",
        fig6_tier.count(Counter::AdaptiveSteps),
        fig6_tier.count(Counter::LteRejects),
        fig6_tier.count(Counter::HGrowths)
    );
    let (evals, bypassed) = (
        fig6_tier.count(Counter::MosEvals),
        fig6_tier.count(Counter::MosBypassed),
    );
    println!(
        "             bypass:   {} MOS evals, {} bypassed ({:.1} % skipped)",
        evals,
        bypassed,
        100.0 * bypassed as f64 / (evals + bypassed).max(1) as f64
    );

    // Tier 1b: the campaign's real acquisition unit — all 16 plaintext
    // base waveforms, one transient each with the `fig6_tran` options,
    // then the two-pass CPA over them. The tier keeps the name it had
    // when the 16 plaintexts marched as one lockstep ensemble, so the
    // trajectory stays comparable.
    let ens_plaintexts: Vec<u8> = (0..16).collect();
    let (ens_tier, ens_res) = measure_tier_reps("fig6_ensemble", reps, || {
        fig6_transistor_par(
            &params,
            0xb,
            LogicStyle::PgMcml,
            &ens_plaintexts,
            Parallelism::Serial,
        )
    });
    let (ens_row, _) = ens_res?;
    print_tier(&ens_tier, &format!("(CPA rank {})", ens_row.rank));
    let scalar_per_trace = fig6_tier.wall_s / plaintexts.len() as f64;
    let ens_per_trace = ens_tier.wall_s / ens_plaintexts.len() as f64;
    println!(
        "             campaign: {} traces, {} refactors, {:.0} ms/trace ({:.0} ms/trace in \
         fig6_tran)",
        ens_plaintexts.len(),
        ens_tier.count(Counter::LaneRefactors),
        1e3 * ens_per_trace,
        1e3 * scalar_per_trace,
    );

    // Tier 1c: the multi-cell transient — the combinational reduced-AES
    // S-box on a fixed 10 ps grid with the bypass, parasitics off. The
    // tier keeps the name it had beside the deleted partitioned twin, so
    // the trajectory stays comparable.
    let aes_params = aes_tran_params();
    let aes_plaintexts: Vec<u8> = (0..8).collect();
    let (aes_mono_tier, aes_mono_res) = measure_tier_reps("aes_tran_mono", reps, || {
        aes_tran_tier(
            &aes_params,
            0xb,
            LogicStyle::PgMcml,
            &aes_plaintexts,
            &aes_tran_options(false),
        )
    });
    let aes_rows = aes_mono_res?;
    print_tier(&aes_mono_tier, &format!("({} traces)", aes_rows.len()));

    // Tier 2: the table 2/3 characterisation workload — every cell of the
    // PG-MCML library on a cold cache (DCs and transients on the replayed
    // dense LU). Without the cache clear before every repetition,
    // repetition 2+ would measure cache hits instead of SPICE work.
    let (char_tier, lib) = measure_tier_reps("table3_char", reps, || {
        mcml_char::build_library_par(&params, &[LogicStyle::PgMcml], Parallelism::from_env())
    });
    let lib = lib?;
    print_tier(&char_tier, &format!("({} cells)", lib.len()));

    // Tier 3: the fig. 3 tail-current design-space sweep (DC-heavy).
    let (fig3_tier, sweep) = measure_tier_reps("fig3_sweep", reps, || {
        fig3(&params, &[10e-6, 50e-6, 150e-6], Parallelism::from_env())
    });
    let sweep = sweep?;
    print_tier(&fig3_tier, &format!("({} points)", sweep.len()));

    let point = PerfPoint {
        label,
        reps,
        host: Some(host),
        tiers: vec![fig6_tier, ens_tier, aes_mono_tier, char_tier, fig3_tier],
    };
    let path = std::path::PathBuf::from(&out);
    Trajectory::load(&path)?.append_and_save(point, &path)?;
    println!("\ntrajectory point recorded in {out} (schema {SCHEMA})");
    mcml_obs::finish("spiceperf", 1);
    Ok(())
}
