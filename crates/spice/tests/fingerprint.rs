//! Bitwise fingerprints of fixed-grid transients.
//!
//! Every recorded sample of every policy below — node voltages, source
//! branch currents, the recorded grid, the accepted step count and the
//! end time — is folded into one FNV-1a hash per (circuit, policy) pair
//! and compared against a committed value. A refactor of the transient
//! march that claims "same numbers" must leave every hash unchanged; a
//! change that legitimately moves numbers updates exactly the hashes it
//! names.
//!
//! Covered: backward Euler and trapezoidal, quiescent-MOS bypass on and
//! off, chord (demand-driven refactorisation) with the bypass, the dense
//! solver, partitioning at one and two lanes, and a 3-lane ensemble — on
//! an RC ladder, a MOS inverter and a two-island inverter chain (the one
//! circuit that actually partitions).

use mcml_device::{MosParams, Mosfet};
use mcml_spice::matrix::SolverKind;
use mcml_spice::{
    ensemble_transient, Circuit, ElementId, Integrator, NodeId, SourceWave, TranOptions, TranResult,
};

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

/// Two inverters in a chain: the gate edge between them splits the
/// circuit into two solve blocks under partitioning.
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

/// Hash one policy on one circuit family: `lanes` copies whose input
/// edges are staggered by 0.2 ns, through `transient` at one lane and
/// `ensemble_transient` above.
fn run(build: Build, opts: &TranOptions, lanes: usize) -> u64 {
    let probes: Vec<Probe> = (0..lanes)
        .map(|l| build(0.5e-9 + 0.2e-9 * l as f64))
        .collect();
    let results = if lanes == 1 {
        vec![probes[0].ckt.transient(opts).expect("transient")]
    } else {
        let ckts: Vec<Circuit> = probes.iter().map(|p| p.ckt.clone()).collect();
        ensemble_transient(&ckts, opts).expect("ensemble transient")
    };
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for (p, res) in probes.iter().zip(&results) {
        fingerprint(p, res, &mut h);
    }
    h
}

/// `(name, options, lanes)` for every pinned policy.
fn policies() -> Vec<(&'static str, TranOptions, usize)> {
    let mut base = TranOptions::new(3e-9, 10e-12);
    base.solver = SolverKind::Sparse;
    let bypass = base.with_bypass(10e-6);
    vec![
        ("be", base, 1),
        ("trap", base.with_integrator(Integrator::Trapezoidal), 1),
        ("bypass", bypass, 1),
        ("chord", bypass.with_jacobian_reuse(), 1),
        (
            "dense",
            TranOptions {
                solver: SolverKind::Dense,
                ..base
            },
            1,
        ),
        ("partition", bypass.with_partitioning(), 1),
        ("partition_x2", bypass.with_partitioning(), 2),
        ("ensemble_x3", base, 3),
        ("ensemble_x3_chord", bypass.with_jacobian_reuse(), 3),
    ]
}

/// Committed fingerprints, `circuit/policy`.
const EXPECTED: &[(&str, u64)] = &[
    ("rc_ladder/be", 0xfe0f_525d_09aa_5498),
    ("rc_ladder/trap", 0xe97b_915c_4f2d_ddc4),
    ("rc_ladder/bypass", 0xfe0f_525d_09aa_5498),
    ("rc_ladder/chord", 0x8ac0_b588_3471_7e07),
    ("rc_ladder/dense", 0xa4c3_8b59_08d7_2f11),
    ("rc_ladder/partition", 0xfe0f_525d_09aa_5498),
    ("rc_ladder/partition_x2", 0x8d6a_2ff9_f39c_ca2e),
    ("rc_ladder/ensemble_x3", 0xd466_c26c_f081_dc3e),
    ("rc_ladder/ensemble_x3_chord", 0x95c8_7b16_59c1_6f32),
    ("mos_inverter/be", 0xb507_0e19_4089_d584),
    ("mos_inverter/trap", 0x6571_b698_906d_2aa3),
    ("mos_inverter/bypass", 0xa99a_1128_3093_bf25),
    ("mos_inverter/chord", 0xb3ea_7777_69e7_29ac),
    ("mos_inverter/dense", 0xb507_0e19_4089_d584),
    ("mos_inverter/partition", 0xa99a_1128_3093_bf25),
    ("mos_inverter/partition_x2", 0x8cc4_a19a_a366_85b3),
    ("mos_inverter/ensemble_x3", 0xc3a1_7f14_b219_60f1),
    ("mos_inverter/ensemble_x3_chord", 0xf617_a273_32cf_62c0),
    ("two_islands/be", 0xb101_a52a_0d62_ea8a),
    ("two_islands/trap", 0x07c3_4fcf_c57b_ffd4),
    ("two_islands/bypass", 0x6dd4_63f7_9ef2_97b2),
    ("two_islands/chord", 0xc4a0_1a72_bade_4b8b),
    ("two_islands/dense", 0x2f36_bc08_6120_7fb1),
    ("two_islands/partition", 0xf5be_2eab_a2c0_25e6),
    ("two_islands/partition_x2", 0x7447_f100_77bb_af36),
    ("two_islands/ensemble_x3", 0x25b4_8798_abdd_e039),
    ("two_islands/ensemble_x3_chord", 0x0dd9_e6eb_1e4f_77cd),
];

#[test]
fn fixed_grid_transients_match_committed_fingerprints() {
    let circuits: [(&str, Build); 3] = [
        ("rc_ladder", rc_ladder),
        ("mos_inverter", mos_inverter),
        ("two_islands", two_islands),
    ];
    let mut got = Vec::new();
    for (cname, build) in circuits {
        for (pname, opts, lanes) in policies() {
            got.push((format!("{cname}/{pname}"), run(build, &opts, lanes)));
        }
    }
    let table: String = got
        .iter()
        .map(|(k, h)| format!("    (\"{k}\", {h:#018x}),\n"))
        .collect();
    let expected: Vec<(String, u64)> = EXPECTED.iter().map(|&(k, h)| (k.to_owned(), h)).collect();
    assert_eq!(got, expected, "fingerprints moved; current table:\n{table}");
}
