//! Golden-waveform regression for the fig. 6 transistor tier.
//!
//! Pins two plaintexts' supply-current traces (PG-MCML, key 0xb with
//! plaintext 0x3, and key 0x3 with plaintext 0xf) against samples
//! captured from the reference solver path. Solver-level changes —
//! assembly reordering, factorisation strategy, step-size handling — may
//! shift samples only within the tolerances of `common`; anything larger is a
//! physics change, not an optimisation.

mod common;

use common::{benchmark_golden, ABS_TOL, REL_TOL};
use mcml_cells::{CellParams, LogicStyle};
use mcml_spice::TranOptions;
use pg_mcml::experiments::{
    fig6_base_waveforms, fig6_supply_trace, fig6_supply_trace_with, fig6_tran_options,
};
use pg_mcml::Parallelism;

/// Captured from the reference implementation (legacy full-restamp
/// assembly + per-iteration factorisation): every 6th of the 60 samples
/// of the resampled Vdd current (A).
const GOLDEN_STRIDE: usize = 6;
const GOLDEN_SAMPLES: [f64; 10] = [
    1.997807770513804e-3,
    1.9912301692238733e-3,
    2.000289957344394e-3,
    1.998945213251309e-3,
    1.9985504824845796e-3,
    1.998425244737777e-3,
    1.9983534146545173e-3,
    1.9982955312894423e-3,
    1.998244929338689e-3,
    1.9982008252221618e-3,
];

/// Check one fig. 6 PG-MCML trace against its pinned samples
/// (`perfbench/golden.json` holds the same every-6th-sample pins for
/// every key/plaintext pair).
fn assert_trace_matches(key: u8, plaintext: u8, golden: &[f64]) {
    let trace = fig6_supply_trace(&CellParams::default(), key, LogicStyle::PgMcml, plaintext)
        .expect("transistor-tier trace");
    assert_eq!(trace.len(), 60, "capture window sampling");
    let picked: Vec<f64> = trace.iter().copied().step_by(GOLDEN_STRIDE).collect();
    assert_eq!(picked.len(), golden.len());
    for (i, (got, want)) in picked.iter().zip(golden).enumerate() {
        let tol = ABS_TOL + REL_TOL * want.abs();
        assert!(
            (got - want).abs() <= tol,
            "key {key:#x} plaintext {plaintext:#x} sample {}: got {got:e}, golden {want:e} \
             (tol {tol:e})",
            i * GOLDEN_STRIDE
        );
    }
}

#[test]
fn fig6_pg_mcml_trace_matches_golden() {
    assert_trace_matches(0xb, 0x3, &GOLDEN_SAMPLES);
}

/// The registered netlist's DC operating point leaves the slave latches
/// at their metastable balance point, so the LU rounding of `dc_op`
/// picks which basin the transient starts from (SOLVER.md §2). Factoring
/// the DC in the transient's minimum-degree column order moves this
/// pair outside its tolerance, while key 0xb, plaintext 0x3 above still
/// passes.
#[test]
fn fig6_pg_mcml_dc_basin_sensitive_trace_matches_golden() {
    assert_trace_matches(0x3, 0xf, &benchmark_golden("fig6_scalar/k3/p15"));
}

/// The fig. 6 tier runs with grid-aligned adaptive stepping
/// (`fig6_tran_options`); this proves the policy drifts no more than
/// 0.01 % from the fixed-step reference at *every* one of the 60
/// samples — not just the ten pinned above — so the golden values did
/// not need re-pinning when adaptive stepping was enabled.
/// The quiescent-device bypass (enabled at `BYPASS_VTOL` = 10 µV in
/// `fig6_tran_options`) must be an *optimisation*, not a physics
/// change: re-running the tier with the bypass disabled has to land
/// within the pin tolerance at every sample, and the enabled run has
/// to actually skip model evaluations (otherwise the knob is dead and
/// this test is vacuous).
#[test]
fn fig6_bypass_drift_vs_exact_below_pin_tolerance() {
    use mcml_obs::Counter;
    let params = CellParams::default();
    let exact = fig6_supply_trace_with(
        &params,
        0xb,
        LogicStyle::PgMcml,
        0x3,
        &TranOptions::new(3.6e-9, 10e-12).adaptive(),
    )
    .expect("bypass-off trace");
    let bypassed_before = mcml_obs::total(Counter::MosBypassed);
    let bypassing =
        fig6_supply_trace_with(&params, 0xb, LogicStyle::PgMcml, 0x3, &fig6_tran_options())
            .expect("bypass-on trace");
    let skipped = mcml_obs::total(Counter::MosBypassed) - bypassed_before;
    assert!(skipped > 0, "bypass enabled but no evaluations skipped");
    assert_eq!(exact.len(), bypassing.len());
    let mut worst = 0.0f64;
    for (e, b) in exact.iter().zip(&bypassing) {
        worst = worst.max((b - e).abs() / e.abs().max(ABS_TOL));
    }
    assert!(worst <= REL_TOL, "worst bypass-vs-exact drift {worst:e}");
}

/// The campaign acquisition runs the scalar path's options, so its 16
/// base waveforms (every plaintext nibble, one transient each) are
/// bitwise copies of the scalar `fig6_supply_trace` traces. The golden
/// plaintext has to land its supply pins, and every pinned sample of
/// every row the benchmark's `fig6_scalar` golden for its plaintext,
/// inside the exact-path tolerance. Every row also has to stay within
/// the acquisition-resolution band of the benchmark's `fig6_ensemble`
/// golden for the key and of the fixed-step physics anchor for its
/// plaintext.
#[test]
fn fig6_campaign_waveforms_match_goldens() {
    // Band for the `fig6_ensemble` goldens and the fixed-step anchor.
    // Against the anchor, drift concentrates on the one or two samples
    // riding the clock-edge transient, where the adaptive policy's grid
    // interpolates the fast edge differently per plaintext: measured
    // worst is 1.86 µA (plaintext 0x1) and 1.80 µA (0x7), every other
    // row ≤ 0.82 µA. The committed `fig6_ensemble` goldens were written
    // by an acquisition that reused a lagged Newton Jacobian, so they
    // sit off the scalar path by solver noise: at most 0.69 of this
    // band. Bound at 2.5× the paper's 1 µA acquisition resolution on
    // the ~2 mA tail, plus the pin's relative tolerance; the benchmark
    // holds its `fig6_ensemble` goldens to the same band.
    const EDGE_ABS_TOL: f64 = 2.5e-6;

    let params = CellParams::default();
    let rows = fig6_base_waveforms(&params, 0xb, LogicStyle::PgMcml, 16, Parallelism::Serial)
        .expect("campaign acquisition");
    assert_eq!(rows.len(), 16, "one row per plaintext nibble");

    // Plaintext 0x3 against the committed golden samples.
    let picked: Vec<f64> = rows[0x3].iter().copied().step_by(GOLDEN_STRIDE).collect();
    for (i, (got, want)) in picked.iter().zip(GOLDEN_SAMPLES).enumerate() {
        let tol = ABS_TOL + REL_TOL * want.abs();
        assert!(
            (got - want).abs() <= tol,
            "plaintext 0x3 sample {}: got {got:e}, golden {want:e} (tol {tol:e})",
            i * GOLDEN_STRIDE
        );
    }

    // Every pinned sample of every row against the benchmark's scalar
    // golden for key 11 and its plaintext, at the exact-path tolerance.
    for (p, row) in rows.iter().enumerate() {
        let golden = benchmark_golden(&format!("fig6_scalar/k11/p{p}"));
        let picked: Vec<f64> = row.iter().copied().step_by(GOLDEN_STRIDE).collect();
        assert_eq!(picked.len(), golden.len(), "10 pins per plaintext");
        for (i, (got, want)) in picked.iter().zip(&golden).enumerate() {
            let tol = ABS_TOL + REL_TOL * want.abs();
            assert!(
                (got - want).abs() <= tol,
                "plaintext {p:#x} sample {}: got {got:e}, scalar golden {want:e} (tol {tol:e})",
                i * GOLDEN_STRIDE
            );
        }
    }

    // Every pinned sample of every row against the benchmark's campaign
    // golden for key 11, which holds the rows in plaintext order.
    let golden = benchmark_golden("fig6_ensemble/k11");
    let pinned: Vec<f64> = rows
        .iter()
        .flat_map(|row| row.iter().copied().step_by(GOLDEN_STRIDE))
        .collect();
    assert_eq!(pinned.len(), golden.len(), "10 pins per plaintext");
    for (i, (got, want)) in pinned.iter().zip(&golden).enumerate() {
        let tol = EDGE_ABS_TOL + REL_TOL * want.abs();
        assert!(
            (got - want).abs() <= tol,
            "plaintext {:#x} sample {}: got {got:e}, benchmark golden {want:e} (tol {tol:e})",
            i / 10,
            (i % 10) * GOLDEN_STRIDE
        );
    }

    // Every row against the fixed-step physics anchor for its own
    // plaintext (bound rationale at EDGE_ABS_TOL above).
    for (p, row) in rows.iter().enumerate() {
        let anchor = fig6_supply_trace_with(
            &params,
            0xb,
            LogicStyle::PgMcml,
            p as u8,
            &TranOptions::new(3.6e-9, 10e-12),
        )
        .expect("fixed-step reference trace");
        for (j, (e, f)) in row.iter().zip(&anchor).enumerate() {
            let tol = EDGE_ABS_TOL + REL_TOL * f.abs();
            assert!(
                (e - f).abs() <= tol,
                "plaintext {p:#x} sample {j}: campaign {e:e} vs fixed-step {f:e} (tol {tol:e})"
            );
        }
    }
}

#[test]
fn fig6_adaptive_drift_vs_fixed_below_pin_tolerance() {
    let params = CellParams::default();
    let fixed = fig6_supply_trace_with(
        &params,
        0xb,
        LogicStyle::PgMcml,
        0x3,
        &TranOptions::new(3.6e-9, 10e-12),
    )
    .expect("fixed-step trace");
    let adaptive =
        fig6_supply_trace_with(&params, 0xb, LogicStyle::PgMcml, 0x3, &fig6_tran_options())
            .expect("adaptive trace");
    assert_eq!(fixed.len(), adaptive.len());
    let mut worst = 0.0f64;
    for (f, a) in fixed.iter().zip(&adaptive) {
        worst = worst.max((a - f).abs() / f.abs().max(ABS_TOL));
    }
    assert!(worst <= REL_TOL, "worst adaptive-vs-fixed drift {worst:e}");
}
