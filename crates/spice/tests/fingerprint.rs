//! Bitwise fingerprints of transients.
//!
//! Every recorded sample of every policy below — node voltages, source
//! branch currents, the recorded grid, the accepted step count and the
//! end time — is folded into one FNV-1a hash per (circuit, policy) pair
//! and compared against a committed value. A refactor of the transient
//! march that claims "same numbers" must leave every hash unchanged; a
//! change that legitimately moves numbers updates exactly the hashes it
//! names.
//!
//! Covered: the quiescent-MOS bypass on and off, and grid-aligned
//! adaptive leaps, alone and combined with the bypass as the fig. 6
//! campaign runs them. A policy hashes one copy of its circuit, or
//! (`_x3`) several copies with staggered input edges, each marched by
//! its own transient. The circuits are an RC ladder, a MOS inverter and
//! two inverters coupled only through a gate, which factor on the dense
//! LU, and two 96-inverter chains, which factor on the sparse LU. The
//! second chain adds a gate–drain capacitor per stage, so its DC matrix
//! holds 96 slots that only a capacitor stamps: the (gate row, drain
//! column) entry of each stage, which no MOS stamp shares.

use mcml_device::{MosParams, Mosfet};
use mcml_spice::{Circuit, ElementId, NodeId, SourceWave, TranOptions, TranResult};

/// A circuit plus every node and voltage source it declares, so the
/// hash can walk the whole recorded state through the public API.
struct Probe {
    ckt: Circuit,
    nodes: Vec<NodeId>,
    sources: Vec<ElementId>,
}

/// Four-section RC ladder driven by a step whose edge is `edge` seconds.
fn rc_ladder(edge: f64) -> Probe {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let src = c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, edge));
    let mut nodes = vec![vin];
    let mut prev = vin;
    for k in 0..4 {
        let n = c.node(&format!("n{k}"));
        c.resistor(&format!("R{k}"), prev, n, 1.0e3 * (k + 1) as f64);
        c.capacitor(&format!("C{k}"), n, Circuit::GND, 0.3e-12);
        nodes.push(n);
        prev = n;
    }
    Probe {
        ckt: c,
        nodes,
        sources: vec![src],
    }
}

fn inverter(c: &mut Circuit, name: &str, vdd: NodeId, input: NodeId, out: NodeId) {
    c.mosfet(
        &format!("MP{name}"),
        out,
        input,
        vdd,
        vdd,
        Mosfet::pmos(MosParams::pmos_lvt_90(), 2.0e-6, 0.1e-6),
    );
    c.mosfet(
        &format!("MN{name}"),
        out,
        input,
        Circuit::GND,
        Circuit::GND,
        Mosfet::nmos(MosParams::nmos_lvt_90(), 1.0e-6, 0.1e-6),
    );
    c.capacitor(&format!("CL{name}"), out, Circuit::GND, 10e-15);
}

/// The input pulse: up at `edge`, back down 1 ns later.
fn pulse(edge: f64) -> SourceWave {
    SourceWave::Pwl(vec![
        (0.0, 0.0),
        (edge, 0.0),
        (edge + 20e-12, 1.2),
        (edge + 1e-9, 1.2),
        (edge + 1.02e-9, 0.0),
    ])
}

/// One CMOS inverter with a load capacitor.
fn mos_inverter(edge: f64) -> Probe {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    let out = c.node("out");
    let s_vdd = c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
    let s_in = c.vsource("VIN", vin, Circuit::GND, pulse(edge));
    inverter(&mut c, "", vdd, vin, out);
    Probe {
        ckt: c,
        nodes: vec![vdd, vin, out],
        sources: vec![s_vdd, s_in],
    }
}

/// Two inverters in a chain, coupled only through the second one's
/// gate.
fn two_islands(edge: f64) -> Probe {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    let a = c.node("a");
    let b = c.node("b");
    let s_vdd = c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
    let s_in = c.vsource("VIN", vin, Circuit::GND, pulse(edge));
    inverter(&mut c, "a", vdd, vin, a);
    inverter(&mut c, "b", vdd, a, b);
    Probe {
        ckt: c,
        nodes: vec![vdd, vin, a, b],
        sources: vec![s_vdd, s_in],
    }
}

/// A 96-inverter chain: 100 unknowns, so every policy factors on the
/// sparse LU (the three circuits above factor on the dense one).
fn long_chain(edge: f64) -> Probe {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let vin = c.node("in");
    let s_vdd = c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
    let s_in = c.vsource("VIN", vin, Circuit::GND, pulse(edge));
    let mut nodes = vec![vdd, vin];
    for k in 0..96 {
        let out = c.node(&format!("o{k}"));
        inverter(&mut c, &format!("{k}"), vdd, nodes[nodes.len() - 1], out);
        nodes.push(out);
    }
    Probe {
        ckt: c,
        nodes,
        sources: vec![s_vdd, s_in],
    }
}

/// The 96-inverter chain with a gate–drain (Miller) capacitor per
/// stage, as the fig. 6 cells' gate-overlap parasitics couple them.
fn miller_chain(edge: f64) -> Probe {
    let mut p = long_chain(edge);
    for k in 0..96 {
        let (gate, drain) = (p.nodes[k + 1], p.nodes[k + 2]);
        p.ckt.capacitor(&format!("CGD{k}"), gate, drain, 2e-15);
    }
    p
}

/// FNV-1a over the recorded grid, every node voltage and source branch
/// current at every recorded point, the step count and the end time.
fn fingerprint(p: &Probe, res: &TranResult, h: &mut u64) {
    let mut eat = |w: u64| *h = (*h ^ w).wrapping_mul(0x0100_0000_01b3);
    for &t in res.times() {
        eat(t.to_bits());
    }
    for &n in &p.nodes {
        for (_, v) in res.voltage(n).iter() {
            eat(v.to_bits());
        }
    }
    for &s in &p.sources {
        for (_, i) in res.branch_current(s).expect("voltage source").iter() {
            eat(i.to_bits());
        }
    }
    eat(res.steps_taken() as u64);
    eat(res.end_time().to_bits());
}

/// A circuit family, built with its input edge at the given time.
type Build = fn(f64) -> Probe;

/// Hash one policy on one circuit family: `copies` copies whose input
/// edges are staggered by 0.2 ns, each through its own `transient`.
fn run(build: Build, opts: &TranOptions, copies: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for c in 0..copies {
        let p = build(0.5e-9 + 0.2e-9 * c as f64);
        let res = p.ckt.transient(opts).expect("transient");
        fingerprint(&p, &res, &mut h);
    }
    h
}

/// `(name, options, copies)` for every pinned policy.
fn policies() -> Vec<(&'static str, TranOptions, usize)> {
    let base = TranOptions::new(3e-9, 10e-12);
    let bypass = base.bypass();
    vec![
        ("be", base, 1),
        ("bypass", bypass, 1),
        ("ensemble_x3", base, 3),
        ("bypass_x3", bypass, 3),
        ("adaptive", base.adaptive(), 1),
        ("adaptive_bypass_x3", bypass.adaptive(), 3),
    ]
}

/// Committed fingerprints, `circuit/policy`.
const EXPECTED: &[(&str, u64)] = &[
    ("rc_ladder/be", 0xa4c3_8b59_08d7_2f11),
    ("rc_ladder/bypass", 0xa4c3_8b59_08d7_2f11),
    ("rc_ladder/ensemble_x3", 0x2f2b_5f01_a782_e6f5),
    ("rc_ladder/bypass_x3", 0x2f2b_5f01_a782_e6f5),
    ("rc_ladder/adaptive", 0xa43e_b159_0866_0be2),
    ("rc_ladder/adaptive_bypass_x3", 0xfb2f_bd67_3d17_9fe2),
    ("mos_inverter/be", 0xb507_0e19_4089_d584),
    ("mos_inverter/bypass", 0xa99a_1128_3093_bf25),
    ("mos_inverter/ensemble_x3", 0xc3a1_7f14_b219_60f1),
    ("mos_inverter/bypass_x3", 0xa134_6fe4_5d90_abb1),
    ("mos_inverter/adaptive", 0xf30a_8c11_a9b4_36f6),
    ("mos_inverter/adaptive_bypass_x3", 0x97da_c200_b928_82dc),
    ("two_islands/be", 0x2f36_bc08_6120_7fb1),
    ("two_islands/bypass", 0x2b3b_95bb_7f17_7421),
    ("two_islands/ensemble_x3", 0xf630_255a_3533_9901),
    ("two_islands/bypass_x3", 0xee49_f4dd_f713_ae68),
    ("two_islands/adaptive", 0x786b_4401_1ca6_7e8a),
    ("two_islands/adaptive_bypass_x3", 0x2f3d_8f9a_45b5_b87a),
    ("long_chain/be", 0x0b73_cc8c_6f85_1e24),
    ("long_chain/bypass", 0xa5b7_1cb3_c5d5_f545),
    ("long_chain/ensemble_x3", 0x0840_edb7_b552_efcd),
    ("long_chain/bypass_x3", 0xd9b6_93be_b9f7_9521),
    ("long_chain/adaptive", 0xea72_bc2c_744c_edc9),
    ("long_chain/adaptive_bypass_x3", 0x0872_acfe_32c2_0b40),
    ("miller_chain/be", 0x6ed5_5770_52fc_068a),
    ("miller_chain/bypass", 0xbd2a_e04e_dd9f_23ec),
    ("miller_chain/ensemble_x3", 0x8a71_51d7_a266_ec16),
    ("miller_chain/bypass_x3", 0xea67_b25d_51e9_420f),
    ("miller_chain/adaptive", 0x0e97_05d8_cd9b_b8ea),
    ("miller_chain/adaptive_bypass_x3", 0x3dac_f869_d15b_0059),
];

#[test]
fn fixed_grid_transients_match_committed_fingerprints() {
    let circuits: [(&str, Build); 5] = [
        ("rc_ladder", rc_ladder),
        ("mos_inverter", mos_inverter),
        ("two_islands", two_islands),
        ("long_chain", long_chain),
        ("miller_chain", miller_chain),
    ];
    let mut got = Vec::new();
    for (cname, build) in circuits {
        for (pname, opts, copies) in policies() {
            got.push((format!("{cname}/{pname}"), run(build, &opts, copies)));
        }
    }
    let table: String = got
        .iter()
        .map(|(k, h)| format!("    (\"{k}\", {h:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = EXPECTED.iter().map(|&(k, h)| (k.to_owned(), h)).collect();
    assert_eq!(got, expected, "fingerprints moved; current table:\n{table}");
}
