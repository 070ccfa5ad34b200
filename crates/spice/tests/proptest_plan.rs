//! Property-based equivalence of the two MNA assembly paths.
//!
//! The stamp-plan fast path must produce, at any state, the same Jacobian
//! and residual as the legacy full-restamp reference path — over random
//! circuit topologies (resistors, capacitors, sources, MOSFETs, with
//! terminals free to coincide or sit on ground), random states, and both
//! DC and companion-model (transient) assembly.

use proptest::prelude::*;

use mcml_device::{MosParams, Mosfet};
use mcml_spice::testing::assemble_both_dense;
use mcml_spice::{Circuit, SourceWave};

/// One randomly generated element, with node picks as indices into the
/// circuit's node list (0 = ground).
#[derive(Debug, Clone)]
enum ElemSpec {
    Resistor(usize, usize, f64),
    Capacitor(usize, usize, f64),
    Vsource(usize, usize, f64),
    Isource(usize, usize, f64),
    Mos(usize, usize, usize, usize, bool, f64),
}

fn elem_spec(n_nodes: usize) -> impl Strategy<Value = ElemSpec> {
    let node = 0..=n_nodes; // 0 is ground
    prop_oneof![
        (node.clone(), node.clone(), 10.0f64..1e5)
            .prop_map(|(a, b, r)| ElemSpec::Resistor(a, b, r)),
        (node.clone(), node.clone(), 1e-15f64..1e-11)
            .prop_map(|(a, b, c)| ElemSpec::Capacitor(a, b, c)),
        (node.clone(), node.clone(), -2.0f64..2.0).prop_map(|(p, n, v)| ElemSpec::Vsource(p, n, v)),
        (node.clone(), node.clone(), -1e-3f64..1e-3)
            .prop_map(|(p, n, i)| ElemSpec::Isource(p, n, i)),
        (
            node.clone(),
            node.clone(),
            node.clone(),
            node,
            any::<bool>(),
            0.2e-6f64..5e-6
        )
            .prop_map(|(d, g, s, b, nmos, w)| ElemSpec::Mos(d, g, s, b, nmos, w)),
    ]
}

fn build_circuit(n_nodes: usize, specs: &[ElemSpec]) -> Circuit {
    let mut c = Circuit::new();
    let mut nodes = vec![Circuit::GND];
    for i in 1..=n_nodes {
        nodes.push(c.node(&format!("n{i}")));
    }
    for (k, spec) in specs.iter().enumerate() {
        match *spec {
            ElemSpec::Resistor(a, b, r) => {
                c.resistor(&format!("R{k}"), nodes[a], nodes[b], r);
            }
            ElemSpec::Capacitor(a, b, f) => {
                c.capacitor(&format!("C{k}"), nodes[a], nodes[b], f);
            }
            ElemSpec::Vsource(p, n, v) => {
                c.vsource(&format!("V{k}"), nodes[p], nodes[n], SourceWave::dc(v));
            }
            ElemSpec::Isource(p, n, i) => {
                c.isource(&format!("I{k}"), nodes[p], nodes[n], SourceWave::dc(i));
            }
            ElemSpec::Mos(d, g, s, b, nmos, w) => {
                let dev = if nmos {
                    Mosfet::nmos(MosParams::nmos_lvt_90(), w, 0.1e-6)
                } else {
                    Mosfet::pmos(MosParams::pmos_lvt_90(), w, 0.1e-6)
                };
                c.mosfet(
                    &format!("M{k}"),
                    nodes[d],
                    nodes[g],
                    nodes[s],
                    nodes[b],
                    dev,
                );
            }
        }
    }
    c
}

/// Per-entry agreement: tiny absolute floor plus 1e-12 relative slack for
/// summation-order differences between the two paths.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-15 + 1e-12 * a.abs().max(b.abs())
}

fn check_equivalence(
    n_nodes: usize,
    specs: &[ElemSpec],
    raw_x: &[f64],
    t: f64,
    companion: Option<f64>,
    gmin: f64,
    src_scale: f64,
) -> Result<(), String> {
    let ckt = build_circuit(n_nodes, specs);
    let n = ckt.unknown_count();
    prop_assume!(n > 0);
    let x: Vec<f64> = (0..n).map(|i| raw_x[i % raw_x.len()]).collect();
    let comp = companion.map(|h| (h, x.as_slice()));
    let ((a_ref, f_ref), (a_plan, f_plan)) =
        assemble_both_dense(&ckt, &x, t, comp, gmin, src_scale);
    for (i, (r, p)) in a_ref.iter().zip(&a_plan).enumerate() {
        prop_assert!(
            close(*r, *p),
            "matrix entry ({}, {}): reference {r} vs plan {p}",
            i / n,
            i % n
        );
    }
    for (i, (r, p)) in f_ref.iter().zip(&f_plan).enumerate() {
        prop_assert!(close(*r, *p), "residual row {i}: reference {r} vs plan {p}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// DC assembly (no companion models) agrees on random circuits.
    #[test]
    fn plan_matches_reference_dc(
        n_nodes in 1usize..5,
        specs in collection::vec(elem_spec(4), 1..12),
        raw_x in collection::vec(-2.0f64..2.0, 8),
        src_scale in 0.05f64..1.0,
    ) {
        // Node picks above n_nodes fold back into range.
        let specs: Vec<ElemSpec> = specs
            .iter()
            .map(|s| fold_nodes(s, n_nodes))
            .collect();
        check_equivalence(n_nodes, &specs, &raw_x, 0.0, None, 1e-12, src_scale)?;
    }

    /// Transient assembly (backward-Euler companions) agrees on random
    /// circuits.
    #[test]
    fn plan_matches_reference_companion(
        n_nodes in 1usize..5,
        specs in collection::vec(elem_spec(4), 1..12),
        raw_x in collection::vec(-2.0f64..2.0, 8),
        h in 1e-13f64..1e-9,
    ) {
        let specs: Vec<ElemSpec> = specs
            .iter()
            .map(|s| fold_nodes(s, n_nodes))
            .collect();
        check_equivalence(n_nodes, &specs, &raw_x, 1e-10, Some(h), 1e-12, 1.0)?;
    }
}

/// Clamp a spec's node indices into `0..=n_nodes`.
fn fold_nodes(spec: &ElemSpec, n_nodes: usize) -> ElemSpec {
    let f = |i: usize| i % (n_nodes + 1);
    match *spec {
        ElemSpec::Resistor(a, b, r) => ElemSpec::Resistor(f(a), f(b), r),
        ElemSpec::Capacitor(a, b, c) => ElemSpec::Capacitor(f(a), f(b), c),
        ElemSpec::Vsource(p, n, v) => ElemSpec::Vsource(f(p), f(n), v),
        ElemSpec::Isource(p, n, i) => ElemSpec::Isource(f(p), f(n), i),
        ElemSpec::Mos(d, g, s, b, nmos, w) => ElemSpec::Mos(f(d), f(g), f(s), f(b), nmos, w),
    }
}
