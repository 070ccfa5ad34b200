//! Golden parity for the partitioned (block-scheduled) solve path.
//!
//! Three claims, mirroring the bypass/adaptive contracts in
//! `golden_fig6.rs`:
//!
//! 1. The fig. 6 tier is **bitwise** unaffected by `with_partitioning()`
//!    — its default parameters attach gate-overlap parasitics, which
//!    bridge every stage into one block, so the single-block guard falls
//!    back to the monolithic lane. The committed golden supply pins
//!    therefore did not move.
//! 2. The `aes_tran` tier (fixed grid, parasitics off) genuinely
//!    partitions — multiple blocks, nonzero skips — and its supply
//!    trace stays inside the acquisition-resolution band of the
//!    monolithic reference.
//! 3. A CPA attack over traces acquired with partitioning on recovers
//!    the same best key guess as one over monolithic traces: the
//!    optimisation does not move the security verdict.

use mcml_cells::{CellParams, LogicStyle};
use mcml_obs::Counter;
use pg_mcml::experiments::{
    aes_tran_options, aes_tran_params, aes_tran_trace, fig6_supply_trace_with, fig6_tran_options,
};
use pg_mcml::prelude::{cpa_attack, HammingWeight, ReducedAes, TraceSet};

const KEY: u8 = 0xb;

fn aes_trace(params: &CellParams, p: u8, partition: bool) -> Vec<f64> {
    aes_tran_trace(
        params,
        KEY,
        LogicStyle::PgMcml,
        p,
        &aes_tran_options(partition),
    )
    .expect("aes_tran trace")
}

#[test]
fn fig6_tier_is_bitwise_identical_with_partitioning_on() {
    let params = CellParams::default();
    let off = fig6_supply_trace_with(&params, KEY, LogicStyle::PgMcml, 0x3, &fig6_tran_options())
        .expect("partition-off trace");
    let blocks_before = mcml_obs::total(Counter::PartitionBlocks);
    let on = fig6_supply_trace_with(
        &params,
        KEY,
        LogicStyle::PgMcml,
        0x3,
        &fig6_tran_options().with_partitioning(),
    )
    .expect("partition-on trace");
    assert_eq!(
        mcml_obs::total(Counter::PartitionBlocks),
        blocks_before,
        "fig. 6 options must fall back to the monolithic path"
    );
    assert_eq!(off, on, "fallback must be bitwise");
}

#[test]
fn aes_tran_partitions_and_stays_in_acquisition_band() {
    // Same bound rationale as the fig. 6 ensemble contract: the paper's
    // 1 µA acquisition resolution on the ~2 mA tail current, plus the
    // golden pins' relative tolerance. The skip freeze perturbs settled
    // boundary nodes by at most the 10 µV skip tolerance — orders of
    // magnitude below this band.
    const ABS_TOL: f64 = 1.0e-6;
    const REL_TOL: f64 = 1e-4;

    let params = aes_tran_params();
    let mono = aes_trace(&params, 0x3, false);
    let blocks_before = mcml_obs::total(Counter::PartitionBlocks);
    let skips_before = mcml_obs::total(Counter::BlockSkips);
    let part = aes_trace(&params, 0x3, true);
    let blocks = mcml_obs::total(Counter::PartitionBlocks) - blocks_before;
    let skips = mcml_obs::total(Counter::BlockSkips) - skips_before;
    assert!(
        blocks > 1,
        "aes_tran must decompose into blocks, got {blocks}"
    );
    assert!(
        skips > 0,
        "event-driven scheduling must skip settled blocks"
    );
    assert_eq!(mono.len(), part.len());
    for (j, (m, p)) in mono.iter().zip(&part).enumerate() {
        let tol = ABS_TOL + REL_TOL * m.abs();
        assert!(
            (p - m).abs() <= tol,
            "sample {j}: partitioned {p:e} vs monolithic {m:e} (tol {tol:e})"
        );
    }
}

#[test]
fn cpa_best_guess_unchanged_by_partitioning() {
    let params = aes_tran_params();
    let reduced = ReducedAes::new(4);
    let model = HammingWeight::new(|x| reduced.sbox(x), 4);
    let attack = |partition: bool| {
        let mut ts = TraceSet::new(60);
        for p in 0..16u8 {
            ts.push(p, &aes_trace(&params, p, partition));
        }
        cpa_attack(&ts, &model)
    };
    let mono = attack(false);
    let part = attack(true);
    assert_eq!(
        mono.best_guess(),
        part.best_guess(),
        "partitioning must not move the CPA verdict"
    );
}
