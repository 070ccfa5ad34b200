//! Property-based equivalence of the quiescent-device bypass.
//!
//! With the bypass enabled, a converged MOSFET whose terminal voltages
//! stay within `BYPASS_VTOL` of the cached evaluation point reuses the
//! cached linearization instead of calling the device model. That reuse
//! must be invisible in the waveforms: over random MOS inverter chains
//! and random load/drive conditions, the bypassed transient has to
//! match the exact one to well within the Newton tolerances, on the
//! identical time grid with the identical accepted step count (a bypass
//! that destabilised Newton would show up as failed-step retries).

use proptest::prelude::*;

use mcml_device::{MosParams, Mosfet};
use mcml_spice::{Circuit, SourceWave, TranOptions};

/// Inverter chain: `stages` CMOS inverters between random capacitive
/// loads, driven by a step. Most devices sit quiescent for most of the
/// trace, so the bypass gets real work to do.
fn inverter_chain(
    stages: usize,
    w_n: f64,
    c_load: f64,
    edge_at: f64,
) -> (Circuit, Vec<mcml_spice::NodeId>) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
    c.vsource(
        "VIN",
        vin,
        Circuit::GND,
        SourceWave::step(0.0, 1.2, edge_at),
    );
    let mut prev = vin;
    let mut outs = Vec::new();
    for k in 0..stages {
        let out = c.node(&format!("o{k}"));
        c.mosfet(
            &format!("MP{k}"),
            out,
            prev,
            vdd,
            vdd,
            Mosfet::pmos(MosParams::pmos_lvt_90(), 2.0 * w_n, 0.1e-6),
        );
        c.mosfet(
            &format!("MN{k}"),
            out,
            prev,
            Circuit::GND,
            Circuit::GND,
            Mosfet::nmos(MosParams::nmos_lvt_90(), w_n, 0.1e-6),
        );
        c.capacitor(&format!("CL{k}"), out, Circuit::GND, c_load);
        outs.push(out);
        prev = out;
    }
    (c, outs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bypassed ≡ exact on random inverter chains: waveform deviation
    /// stays far below the Newton voltage tolerance scale, and the
    /// bypass never costs extra Newton iterations.
    #[test]
    fn bypass_matches_exact_on_inverter_chains(
        stages in 1usize..4,
        w_n in 0.5e-6f64..4e-6,
        c_load in 2e-15f64..50e-15,
        edge_at in 0.5e-9f64..1.5e-9,
    ) {
        let (c, outs) = inverter_chain(stages, w_n, c_load, edge_at);
        let base = TranOptions::new(4e-9, 5e-12);
        let exact = c.transient(&base).unwrap();
        let fast = c.transient(&base.bypass()).unwrap();
        prop_assert_eq!(exact.times(), fast.times(), "bypass must not change the grid");
        for &out in &outs {
            let (we, wf) = (exact.voltage(out), fast.voltage(out));
            let dev = we
                .iter()
                .zip(wf.iter())
                .map(|((_, x), (_, y))| (x - y).abs())
                .fold(0.0f64, f64::max);
            // The reused linearization is exact to second order in the
            // bypass tolerance; at 10 µV that is sub-nV. What survives
            // into the solution is bounded by Newton's own vtol, so a
            // 10 µV ceiling proves the bypass adds nothing observable.
            prop_assert!(dev <= 10e-6, "output deviates by {dev}");
        }
        prop_assert_eq!(
            fast.steps_taken(),
            exact.steps_taken(),
            "bypass must not change the accepted step count"
        );
    }
}
