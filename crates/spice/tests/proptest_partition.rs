//! Property-based equivalence of the partitioned MNA solve.
//!
//! With partitioning enabled, the node graph splits at the rail nodes
//! into independently factored solve blocks scheduled along the
//! gate-coupling DAG, and settled blocks with unmoved boundary inputs
//! replay their cached solution. None of that may be visible in the
//! physics: over random farms of rail-coupled inverter islands the
//! partitioned transient has to match the monolithic one to well within
//! the Newton tolerances — node voltages *and* the reconstructed supply
//! currents — on the identical time grid with the identical accepted
//! step count. Circuits that do not split (one block, floating source)
//! must fall back to the monolithic path bit for bit.
//!
//! The obs counters are process-global, so every test that runs a
//! partitioned transient serializes on one lock; the counter-identity
//! test reads clean deltas under the same lock.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use mcml_device::{MosParams, Mosfet};
use mcml_spice::{partition_report, Circuit, ElementId, NodeId, SourceWave, TranOptions};

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A farm of `islands` independent CMOS inverter chains sharing one
/// supply rail, each driven by its own step source with a staggered
/// edge. Every stage output is its own solve block (stages couple only
/// through gates), so the farm exercises multi-block scheduling, the
/// topological sweep, and — once an island's edge has passed — block
/// skipping on the quiet islands.
fn island_farm(
    islands: usize,
    stages: usize,
    w_n: f64,
    c_load: f64,
    edge0: f64,
    spread: f64,
) -> (Circuit, ElementId, Vec<NodeId>) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vdd_src = c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
    let mut outs = Vec::new();
    for isl in 0..islands {
        let vin = c.node(&format!("in{isl}"));
        c.vsource(
            &format!("VIN{isl}"),
            vin,
            Circuit::GND,
            SourceWave::step(0.0, 1.2, edge0 + spread * isl as f64),
        );
        let mut prev = vin;
        for k in 0..stages {
            let out = c.node(&format!("i{isl}o{k}"));
            c.mosfet(
                &format!("MP{isl}_{k}"),
                out,
                prev,
                vdd,
                vdd,
                Mosfet::pmos(MosParams::pmos_lvt_90(), 2.0 * w_n, 0.1e-6),
            );
            c.mosfet(
                &format!("MN{isl}_{k}"),
                out,
                prev,
                Circuit::GND,
                Circuit::GND,
                Mosfet::nmos(MosParams::nmos_lvt_90(), w_n, 0.1e-6),
            );
            c.capacitor(&format!("CL{isl}_{k}"), out, Circuit::GND, c_load);
            outs.push(out);
            prev = out;
        }
    }
    (c, vdd_src, outs)
}

/// Max absolute deviation between two waveforms on the same grid.
fn max_dev(a: &mcml_spice::Waveform, b: &mcml_spice::Waveform) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|((_, x), (_, y))| (x - y).abs())
        .fold(0.0f64, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Partitioned ≡ monolithic on random island farms: identical grid
    /// and step count, node voltages within the Newton tolerance scale,
    /// and the reconstructed rail current within the conductance-scaled
    /// equivalent of that bound.
    #[test]
    fn partition_matches_monolithic_on_island_farms(
        islands in 2usize..4,
        stages in 1usize..3,
        w_n in 0.5e-6f64..4e-6,
        c_load in 2e-15f64..50e-15,
        edge0 in 0.4e-9f64..0.8e-9,
        spread in 0.2e-9f64..0.6e-9,
    ) {
        let _g = lock();
        let (c, vdd_src, outs) = island_farm(islands, stages, w_n, c_load, edge0, spread);
        let report = partition_report(&c, false);
        prop_assert_eq!(report.blocks, islands * stages, "one block per stage");

        let base = TranOptions::new(4e-9, 5e-12);
        let mono = c.transient(&base).unwrap();
        let part = c.transient(&base.with_partitioning()).unwrap();

        prop_assert_eq!(mono.times(), part.times(), "partitioning must not change the grid");
        prop_assert_eq!(
            mono.steps_taken(),
            part.steps_taken(),
            "partitioning must not change the accepted step count"
        );
        // Both paths start from the very same DC operating point.
        let (s0m, s0p) = (mono.voltage(outs[0]), part.voltage(outs[0]));
        prop_assert!(s0m.values()[0].to_bits() == s0p.values()[0].to_bits());

        for &out in &outs {
            let dev = max_dev(&mono.voltage(out), &part.voltage(out));
            // Block interface voltages are exact to the solver tolerance
            // and skips only freeze voltages that moved < vtol, so the
            // same 10 µV ceiling as the bypass equivalence suite holds.
            prop_assert!(dev <= 10e-6, "output deviates by {dev}");
        }
        let im = mono.supply_current(vdd_src).unwrap();
        let ip = part.supply_current(vdd_src).unwrap();
        let dev = max_dev(&im, &ip);
        // The reconstruction is KCL-exact given the block solutions;
        // what survives is the solver tolerance through device
        // conductances (mS · 10 µV ≪ 1 µA).
        prop_assert!(dev <= 2e-6, "supply current deviates by {dev} A");
    }

    /// Partitioning composes with the quiescent-MOS bypass: both
    /// accelerations on together still match the plain monolithic
    /// reference within the same waveform ceiling.
    #[test]
    fn partition_composes_with_bypass(
        islands in 2usize..4,
        w_n in 0.5e-6f64..4e-6,
        c_load in 2e-15f64..50e-15,
        tol_uv in 1.0f64..50.0,
    ) {
        let _g = lock();
        let (c, vdd_src, outs) = island_farm(islands, 2, w_n, c_load, 0.6e-9, 0.4e-9);
        let base = TranOptions::new(4e-9, 5e-12);
        let mono = c.transient(&base).unwrap();
        let fast = c
            .transient(&base.with_partitioning().with_bypass(tol_uv * 1e-6))
            .unwrap();
        prop_assert_eq!(mono.times(), fast.times());
        // The block-skip freeze is zeroth order in the skip tolerance
        // (the bypass tolerance doubles as both here), so unlike the
        // second-order bypass extrapolation the ceiling scales with the
        // tolerance: a settled block's boundary may sit up to `tol` off,
        // amplified by the (near-rail, well below unity — budget 5×)
        // small-signal gain of the stage.
        let ceiling = 10e-6 + 5.0 * tol_uv * 1e-6;
        for &out in &outs {
            let dev = max_dev(&mono.voltage(out), &fast.voltage(out));
            prop_assert!(dev <= ceiling, "output deviates by {dev} (ceiling {ceiling})");
        }
        let dev = max_dev(
            &mono.supply_current(vdd_src).unwrap(),
            &fast.supply_current(vdd_src).unwrap(),
        );
        prop_assert!(dev <= 2e-6 + tol_uv * 1e-6, "supply current deviates by {dev} A");
    }

    /// A circuit that does not split (every stage resistively bridged
    /// into one component) must take the monolithic path bit for bit
    /// even with partitioning requested.
    #[test]
    fn single_block_falls_back_bitwise(
        w_n in 0.5e-6f64..4e-6,
        c_load in 2e-15f64..50e-15,
    ) {
        let _g = lock();
        let (mut c, vdd_src, outs) = island_farm(2, 2, w_n, c_load, 0.8e-9, 0.3e-9);
        // Bridge every output into one resistive component.
        for (i, w) in outs.windows(2).enumerate() {
            c.resistor(&format!("RB{i}"), w[0], w[1], 1e6);
        }
        prop_assert_eq!(partition_report(&c, false).blocks, 1);
        let base = TranOptions::new(3e-9, 5e-12);
        let mono = c.transient(&base).unwrap();
        let part = c.transient(&base.with_partitioning()).unwrap();
        for &out in &outs {
            for ((_, x), (_, y)) in mono.voltage(out).iter().zip(part.voltage(out).iter()) {
                prop_assert!(x.to_bits() == y.to_bits(), "{x} != {y}");
            }
        }
        let im = mono.supply_current(vdd_src).unwrap();
        let ip = part.supply_current(vdd_src).unwrap();
        for ((_, x), (_, y)) in im.iter().zip(ip.iter()) {
            prop_assert!(x.to_bits() == y.to_bits(), "{x} != {y}");
        }
    }
}

/// PG-MCML-style stacked rails: the islands hang off a virtual rail
/// pinned *through* the main supply (vdd → sleep drop → vvdd), so the
/// branch-current reconstruction has to sweep a two-deep pinning chain
/// for both sources.
#[test]
fn stacked_rail_supply_currents_match() {
    let _g = lock();
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vvdd = c.node("vvdd");
    let vdd_src = c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
    let slp_src = c.vsource("VSLP", vdd, vvdd, SourceWave::dc(0.05));
    for isl in 0..3 {
        let vin = c.node(&format!("in{isl}"));
        c.vsource(
            &format!("VIN{isl}"),
            vin,
            Circuit::GND,
            SourceWave::step(0.0, 1.2, 0.5e-9 + 0.4e-9 * isl as f64),
        );
        let out = c.node(&format!("out{isl}"));
        c.mosfet(
            &format!("MP{isl}"),
            out,
            vin,
            vvdd,
            vvdd,
            Mosfet::pmos(MosParams::pmos_lvt_90(), 2.0e-6, 0.1e-6),
        );
        c.mosfet(
            &format!("MN{isl}"),
            out,
            vin,
            Circuit::GND,
            Circuit::GND,
            Mosfet::nmos(MosParams::nmos_lvt_90(), 1.0e-6, 0.1e-6),
        );
        c.capacitor(&format!("CL{isl}"), out, Circuit::GND, 10e-15);
    }
    assert_eq!(partition_report(&c, false).blocks, 3);

    let base = TranOptions::new(4e-9, 5e-12);
    let mono = c.transient(&base).unwrap();
    let part = c.transient(&base.with_partitioning()).unwrap();
    assert_eq!(mono.times(), part.times());
    for src in [vdd_src, slp_src] {
        let im = mono.supply_current(src).unwrap();
        let ip = part.supply_current(src).unwrap();
        let dev = im
            .iter()
            .zip(ip.iter())
            .map(|((_, x), (_, y))| (x - y).abs())
            .fold(0.0f64, f64::max);
        assert!(
            dev <= 2e-6,
            "stacked-rail supply current deviates by {dev} A"
        );
    }
}

/// The partition counters obey the identity
/// `block_solves + block_skips == blocks × committed sub-steps`, and a
/// farm with staggered edges and a long quiet tail actually skips.
#[test]
fn counter_identity_and_skips() {
    let _g = lock();
    let (c, _, _) = island_farm(3, 2, 1.0e-6, 10e-15, 0.3e-9, 0.2e-9);
    let blocks = partition_report(&c, false).blocks as u64;
    assert_eq!(blocks, 6);

    let before_blocks = mcml_obs::total(mcml_obs::Counter::PartitionBlocks);
    let before_solves = mcml_obs::total(mcml_obs::Counter::BlockSolves);
    let before_skips = mcml_obs::total(mcml_obs::Counter::BlockSkips);

    // Long quiet tail after the last edge: plenty of room to skip.
    // The 10 µV skip tolerance comes from the bypass setting.
    let res = c
        .transient(
            &TranOptions::new(6e-9, 5e-12)
                .with_partitioning()
                .with_bypass(10e-6),
        )
        .unwrap();

    let d_blocks = mcml_obs::total(mcml_obs::Counter::PartitionBlocks) - before_blocks;
    let d_solves = mcml_obs::total(mcml_obs::Counter::BlockSolves) - before_solves;
    let d_skips = mcml_obs::total(mcml_obs::Counter::BlockSkips) - before_skips;

    assert_eq!(d_blocks, blocks);
    assert_eq!(
        d_solves + d_skips,
        blocks * res.steps_taken() as u64,
        "identity: every block is either solved or skipped each sub-step"
    );
    assert!(d_skips > 0, "quiet tail must produce skips");
    assert!(d_solves > 0, "edges must produce solves");
}

/// Partitioned lanes run through the same march as monolithic ones, so
/// grid-aligned adaptive leaps apply to them too: the partitioned run
/// really partitions, leaps the quiet tail, and tracks the monolithic
/// run with the same controller.
#[test]
fn aligned_adaptive_partitions_like_monolithic() {
    let _g = lock();
    let (c, vdd_src, outs) = island_farm(2, 2, 1.0e-6, 8e-15, 0.6e-9, 0.4e-9);
    let base = TranOptions::new(4e-9, 5e-12).adaptive_grid_aligned(1e-4, 200e-12);
    let mono = c.transient(&base).unwrap();
    let blocks_before = mcml_obs::total(mcml_obs::Counter::PartitionBlocks);
    let part = c.transient(&base.with_partitioning()).unwrap();
    let blocks = mcml_obs::total(mcml_obs::Counter::PartitionBlocks) - blocks_before;
    assert_eq!(blocks, 4, "one block per stage");
    assert_eq!(mono.times(), part.times());
    assert_eq!(mono.steps_taken(), part.steps_taken(), "same leaps");
    assert!(
        part.steps_taken() * 4 < part.len(),
        "quiet regions must be leapt: {} solves for {} grid points",
        part.steps_taken(),
        part.len()
    );
    // The same ceilings as the fixed-grid equivalence property above.
    for &out in &outs {
        let dev = max_dev(&mono.voltage(out), &part.voltage(out));
        assert!(dev <= 10e-6, "output deviates by {dev}");
    }
    let dev = max_dev(
        &mono.supply_current(vdd_src).unwrap(),
        &part.supply_current(vdd_src).unwrap(),
    );
    assert!(dev <= 2e-6, "supply current deviates by {dev} A");
}
