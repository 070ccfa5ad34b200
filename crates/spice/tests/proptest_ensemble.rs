//! Property-based degeneracy of the ensemble transient.
//!
//! `transient` and `ensemble_transient` run the same lane march, so a
//! one-lane ensemble *is* the scalar path. The property left to pin is
//! the multi-lane degeneracy: lanes of *identical* circuits march
//! through identical states, so every lane reproduces the scalar
//! waveform to solver precision — under every stepping policy (fixed,
//! grid-aligned adaptive, grid-aligned with demand-driven Jacobian
//! refactorisation).

use proptest::prelude::*;

use mcml_spice::{ensemble_transient, Circuit, SourceWave, TranOptions};

/// The three stepping/solver policies under test, built over a common
/// base. The last one layers the demand-driven refactorisation (chord)
/// policy on the grid-aligned controller — the exact combination the
/// ensemble campaign runs.
fn policy(base: &TranOptions, which: u8) -> TranOptions {
    match which % 3 {
        0 => *base,
        1 => base.adaptive_grid_aligned(1e-4, 1e-9),
        _ => base.adaptive_grid_aligned(1e-4, 1e-9).with_jacobian_reuse(),
    }
}

/// Driven RC ladder: `stages` sections of series R and shunt C.
fn rc_ladder(
    stages: usize,
    rs: &[f64],
    cs: &[f64],
    wave: &SourceWave,
) -> (Circuit, Vec<mcml_spice::NodeId>) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    c.vsource("V", vin, Circuit::GND, wave.clone());
    let mut prev = vin;
    let mut taps = Vec::new();
    for k in 0..stages {
        let n = c.node(&format!("n{k}"));
        c.resistor(&format!("R{k}"), prev, n, rs[k]);
        c.capacitor(&format!("C{k}"), n, Circuit::GND, cs[k]);
        taps.push(n);
        prev = n;
    }
    (c, taps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lanes of *identical* circuits march through identical states:
    /// every lane of a k-wide ensemble reproduces the scalar waveform
    /// to solver precision (the shared step decisions are degenerate —
    /// all lanes demand the same step).
    #[test]
    fn identical_lanes_reproduce_scalar(
        n_lanes in 2usize..5,
        rs in collection::vec(0.5e3f64..20e3, 4),
        cs in collection::vec(0.2e-12f64..2e-12, 4),
        edge_at in 0.5e-9f64..2e-9,
        v_hi in 0.5f64..1.5,
        which_policy in 0u8..3,
    ) {
        let wave = SourceWave::step(0.0, v_hi, edge_at);
        let (c, taps) = rc_ladder(3, &rs, &cs, &wave);
        let opts = policy(&TranOptions::new(10e-9, 10e-12), which_policy);
        let scalar = c.transient(&opts).unwrap();
        let ckts: Vec<Circuit> = (0..n_lanes).map(|_| c.clone()).collect();
        let lanes = ensemble_transient(&ckts, &opts).unwrap();
        prop_assert_eq!(lanes.len(), n_lanes);
        for (l, lane) in lanes.iter().enumerate() {
            prop_assert_eq!(scalar.times(), lane.times(), "lane {} grid", l);
            for &tap in &taps {
                let (ws, wl) = (scalar.voltage(tap), lane.voltage(tap));
                for ((_, s), (_, v)) in ws.iter().zip(wl.iter()) {
                    // Lanes beyond 0 run through factors adopted from
                    // lane 0 (same pivot order, identical values here),
                    // so agreement is exact in practice — but the
                    // contract is solver precision, not bit equality.
                    prop_assert!(
                        (s - v).abs() <= 1e-9,
                        "lane {} deviates: {:e} vs {:e}", l, s, v
                    );
                }
            }
        }
    }
}
