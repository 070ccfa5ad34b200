//! Property-based equivalence of adaptive and fixed-step transients.
//!
//! The grid-aligned LTE controller must reproduce the fixed-step
//! reference within the LTE budget — over random RC ladders and MOS
//! inverter stages — on the bitwise-identical recorded grid, and never
//! take more steps than the fixed grid.

use proptest::prelude::*;

use mcml_device::{MosParams, Mosfet};
use mcml_spice::{Circuit, SourceWave, TranOptions};

/// Worst absolute difference between two results' node voltage at the
/// shared recorded grid.
fn worst_dev(
    a: &mcml_spice::TranResult,
    b: &mcml_spice::TranResult,
    node: mcml_spice::NodeId,
) -> f64 {
    let (wa, wb) = (a.voltage(node), b.voltage(node));
    wa.iter()
        .zip(wb.iter())
        .map(|((_, x), (_, y))| (x - y).abs())
        .fold(0.0f64, f64::max)
}

/// Driven RC ladder: `stages` sections of series R and shunt C.
fn rc_ladder(
    stages: usize,
    rs: &[f64],
    cs: &[f64],
    wave: SourceWave,
) -> (Circuit, Vec<mcml_spice::NodeId>) {
    let mut c = Circuit::new();
    let vin = c.node("in");
    c.vsource("V", vin, Circuit::GND, wave);
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

    /// Grid-aligned adaptive ≡ fixed on random RC ladders.
    #[test]
    fn adaptive_matches_fixed_on_rc_ladders(
        stages in 1usize..4,
        rs in collection::vec(0.5e3f64..20e3, 4),
        cs in collection::vec(0.2e-12f64..2e-12, 4),
        edge_at in 0.5e-9f64..2e-9,
        v_hi in 0.5f64..1.5,
    ) {
        let wave = SourceWave::step(0.0, v_hi, edge_at);
        let (c, taps) = rc_ladder(stages, &rs, &cs, wave);
        let base = TranOptions::new(10e-9, 10e-12);
        let fixed = c.transient(&base).unwrap();
        let adap = c.transient(&base.adaptive()).unwrap();
        prop_assert_eq!(fixed.times(), adap.times(), "leaps keep the grid");
        for &tap in &taps {
            let dev = worst_dev(&fixed, &adap, tap);
            // Per-step LTE reltol 1e-6 against a <=1.5 V swing; the global
            // budget accumulated over the trace stays well under 1 %.
            prop_assert!(dev < 0.01 * v_hi, "tap deviates by {dev}");
        }
        prop_assert!(
            adap.steps_taken() <= fixed.steps_taken(),
            "controller must not take more steps than the fixed grid ({} vs {})",
            adap.steps_taken(),
            fixed.steps_taken()
        );
    }

    /// Grid-aligned adaptive ≡ fixed on a MOS inverter driving a random
    /// load.
    #[test]
    fn adaptive_matches_fixed_on_mos_inverter(
        w_n in 0.5e-6f64..4e-6,
        c_load in 2e-15f64..50e-15,
        edge_at in 0.5e-9f64..1.5e-9,
    ) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
        c.vsource("VIN", vin, Circuit::GND, SourceWave::step(0.0, 1.2, edge_at));
        c.mosfet(
            "MP",
            out,
            vin,
            vdd,
            vdd,
            Mosfet::pmos(MosParams::pmos_lvt_90(), 2.0 * w_n, 0.1e-6),
        );
        c.mosfet(
            "MN",
            out,
            vin,
            Circuit::GND,
            Circuit::GND,
            Mosfet::nmos(MosParams::nmos_lvt_90(), w_n, 0.1e-6),
        );
        c.capacitor("CL", out, Circuit::GND, c_load);
        let base = TranOptions::new(4e-9, 5e-12);
        let fixed = c.transient(&base).unwrap();
        let adap = c.transient(&base.adaptive()).unwrap();
        prop_assert_eq!(fixed.times(), adap.times());
        // Around the switching instant a leap that lands just before
        // the output moves shifts the edge by a fraction of a cell, which
        // shows up as a full-swing pointwise difference; the edge window
        // is compared modulo a ±10 ps shift, while the quiet/settled
        // regions must agree tightly.
        let (wf, wa) = (fixed.voltage(out), adap.voltage(out));
        let mut edge_dev = 0.0f64;
        let mut calm_dev = 0.0f64;
        for ((t, x), (_, y)) in wf.iter().zip(wa.iter()) {
            if t > edge_at - 10e-12 && t < edge_at + 1.5e-9 {
                let d = (-4i32..=4)
                    .map(|k| (x - wa.sample(t + f64::from(k) * 2.5e-12)).abs())
                    .fold(f64::INFINITY, f64::min);
                edge_dev = edge_dev.max(d);
            } else {
                calm_dev = calm_dev.max((x - y).abs());
            }
        }
        prop_assert!(calm_dev < 5e-3, "settled region deviates by {calm_dev}");
        prop_assert!(edge_dev < 0.25, "edge region deviates by {edge_dev}");
        prop_assert!(
            adap.steps_taken() <= fixed.steps_taken(),
            "controller must not take more steps than the fixed grid ({} vs {})",
            adap.steps_taken(),
            fixed.steps_taken()
        );
    }
}
