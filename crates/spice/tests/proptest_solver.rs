//! Property-based tests of the linear solvers and waveform utilities.

use std::sync::Arc;

use proptest::prelude::*;

use mcml_spice::matrix::dense::solve_dense;
use mcml_spice::matrix::order::min_degree_order;
use mcml_spice::matrix::sparse::{solve_sparse, SparseLu};
use mcml_spice::matrix::{CscPattern, SystemMatrix};
use mcml_spice::{Circuit, SourceWave, TranOptions, Waveform};

/// A strictly diagonally dominant random system (guaranteed solvable).
fn dominant_system(n: usize) -> impl Strategy<Value = (Vec<(usize, usize, f64)>, Vec<f64>)> {
    let entries = collection::vec((0..n, 0..n, -1.0f64..1.0), n..(4 * n));
    let rhs = collection::vec(-10.0f64..10.0, n);
    (entries, rhs).prop_map(move |(mut es, b)| {
        // Strong diagonal on top of whatever landed there.
        for i in 0..n {
            es.push((i, i, 8.0));
        }
        (es, b)
    })
}

/// Node unknowns of the MNA-shaped systems below.
const MNA_NODES: usize = 24;
/// Conductance draws per MNA pattern: one factorisation plus at least
/// ten refactorisations.
const MNA_DRAWS: usize = 11;

/// Structure of an MNA Jacobian: `MNA_NODES` node unknowns, each with a
/// leak to ground, coupled by conductance `edges`; one voltage-source
/// branch row per distinct node in `sources` (the ±1 incidence pair and
/// a zero diagonal — the structure that forces off-diagonal pivots); and
/// last, an isolated pair of nodes coupled by unit transconductances
/// whose diagonal can be made to degrade a fixed pivot.
#[derive(Debug, Clone)]
struct Mna {
    edges: Vec<(usize, usize)>,
    sources: Vec<usize>,
}

impl Mna {
    fn dim(&self) -> usize {
        MNA_NODES + self.sources.len() + 2
    }

    /// Stamp sites, in the order [`Mna::values`] fills them.
    fn sites(&self) -> Vec<(usize, usize)> {
        let mut s: Vec<(usize, usize)> = (0..MNA_NODES).map(|i| (i, i)).collect();
        for &(a, b) in &self.edges {
            s.extend([(a, a), (b, b), (a, b), (b, a)]);
        }
        for (k, &node) in self.sources.iter().enumerate() {
            let row = MNA_NODES + k;
            s.extend([(node, row), (row, node)]);
        }
        let (u, w) = (self.dim() - 2, self.dim() - 1);
        s.extend([(u, u), (w, w), (u, w), (w, u)]);
        s
    }

    /// Site values for one conductance draw `g`; `pair_diag` is the
    /// isolated pair's self-conductance (healthy ≫ 1, degraded ≪ 1e-3).
    fn values(&self, g: &[f64], pair_diag: f64) -> Vec<f64> {
        let mut v = g[..MNA_NODES].to_vec();
        for (e, _) in self.edges.iter().enumerate() {
            let ge = g[MNA_NODES + e];
            v.extend([ge, ge, -ge, -ge]);
        }
        v.extend(self.sources.iter().flat_map(|_| [1.0, 1.0]));
        v.extend([pair_diag, pair_diag, 1.0, 1.0]);
        v
    }

    /// The pattern plus `vals` (from [`Mna::values`]) in its slot order.
    fn to_csc(&self, vals: &[f64]) -> (CscPattern, Vec<f64>) {
        let sites = self.sites();
        let (pattern, slots) = CscPattern::from_sites(self.dim(), &sites);
        let mut csc = vec![0.0; pattern.nnz()];
        for (&slot, v) in slots.iter().zip(vals) {
            csc[slot] += v;
        }
        (pattern, csc)
    }

    fn dense_solve(&self, vals: &[f64], b: &[f64]) -> Vec<f64> {
        let mut m = SystemMatrix::new(self.dim());
        for (&(r, c), &v) in self.sites().iter().zip(vals) {
            m.add(r, c, v);
        }
        m.consolidate();
        solve_dense(&m, b).expect("MNA system is regular")
    }
}

fn mna() -> impl Strategy<Value = Mna> {
    (
        collection::vec((0..MNA_NODES, 0..MNA_NODES), MNA_NODES..3 * MNA_NODES),
        collection::vec(0..MNA_NODES, 1..8),
    )
        .prop_map(|(edges, mut sources)| {
            sources.sort_unstable();
            sources.dedup();
            Mna {
                edges: edges.into_iter().filter(|(a, b)| a != b).collect(),
                sources,
            }
        })
}

/// `MNA_DRAWS` conductance draws spanning three decades (leaks, then
/// edges), long enough for any [`mna`] structure.
fn conductance_draws() -> impl Strategy<Value = Vec<Vec<f64>>> {
    collection::vec(collection::vec(1e-5f64..1e-2, 4 * MNA_NODES), MNA_DRAWS)
}

/// Raw right-hand side, long enough for the largest [`mna`] system.
fn mna_rhs() -> impl Strategy<Value = Vec<f64>> {
    collection::vec(-1.0f64..1.0, MNA_NODES + 9)
}

/// Node currents of up to a mA and source voltages of up to a volt.
fn rhs_for(mna: &Mna, raw: &[f64]) -> Vec<f64> {
    (0..mna.dim())
        .map(|i| if i < MNA_NODES { 1e-3 * raw[i] } else { raw[i] })
        .collect()
}

fn assert_close(got: &[f64], want: &[f64], what: &str) -> Result<(), String> {
    let scale = want.iter().fold(1e-12f64, |m, v| m.max(v.abs()));
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!((g - w).abs() <= 1e-9 * scale, "{what}: x[{i}] = {g} vs {w}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The minimum-degree-ordered factor solves MNA systems exactly as
    /// the dense partial-pivoting LU does.
    #[test]
    fn mna_ordered_factor_equals_dense(mna in mna(), g in conductance_draws(), raw in mna_rhs()) {
        let vals = mna.values(&g[0], 4.0);
        let b = rhs_for(&mna, &raw);
        let (pattern, csc) = mna.to_csc(&vals);
        let order: Arc<[usize]> = min_degree_order(&pattern).into();
        let lu = SparseLu::factor_ordered(&pattern, &csc, order).expect("regular");
        assert_close(&lu.solve(&b), &mna.dense_solve(&vals, &b), "ordered vs dense")?;
    }

    /// Numeric-only refactorisation on one ordered pattern agrees with a
    /// fresh ordered factorisation for every later conductance draw.
    #[test]
    fn mna_refactor_equals_fresh_factor(mna in mna(), g in conductance_draws(), raw in mna_rhs()) {
        let b = rhs_for(&mna, &raw);
        let (pattern, csc) = mna.to_csc(&mna.values(&g[0], 4.0));
        let order: Arc<[usize]> = min_degree_order(&pattern).into();
        let mut lu = SparseLu::factor_ordered(&pattern, &csc, Arc::clone(&order)).expect("regular");
        for draw in &g[1..] {
            let (_, csc) = mna.to_csc(&mna.values(draw, 4.0));
            lu.refactor(&pattern, &csc).map_err(|e| format!("refactor: {e}"))?;
            let fresh = SparseLu::factor_ordered(&pattern, &csc, Arc::clone(&order)).expect("regular");
            assert_close(&lu.solve(&b), &fresh.solve(&b), "refactor vs fresh")?;
        }
    }

    /// A degraded fixed pivot makes `refactor` fail; the fallback
    /// `repivot` then searches new pivots in the very same column order
    /// (the shared order, not a recomputed one) and solves correctly.
    #[test]
    fn mna_repivot_keeps_the_column_order(mna in mna(), g in conductance_draws(), raw in mna_rhs()) {
        let b = rhs_for(&mna, &raw);
        let (pattern, csc) = mna.to_csc(&mna.values(&g[0], 4.0));
        let order: Arc<[usize]> = min_degree_order(&pattern).into();
        let mut lu = SparseLu::factor_ordered(&pattern, &csc, Arc::clone(&order)).expect("regular");
        let degraded = mna.values(&g[1], 1e-9);
        let (_, csc) = mna.to_csc(&degraded);
        prop_assert!(lu.refactor(&pattern, &csc).is_err(), "degraded pivot accepted");
        lu.repivot(&pattern, &csc).map_err(|e| format!("repivot: {e}"))?;
        prop_assert!(std::ptr::eq(lu.col_order(), &order[..]), "order recomputed or copied");
        assert_close(&lu.solve(&b), &mna.dense_solve(&degraded, &b), "repivot vs dense")?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sparse Gilbert–Peierls LU and dense partial-pivot LU agree.
    #[test]
    fn sparse_equals_dense((entries, b) in dominant_system(24)) {
        let mut m = SystemMatrix::new(24);
        for &(r, c, v) in &entries {
            m.add(r, c, v);
        }
        m.consolidate();
        let xd = solve_dense(&m, &b).unwrap();
        let xs = solve_sparse(&m, &b).unwrap();
        for (d, s) in xd.iter().zip(&xs) {
            prop_assert!((d - s).abs() < 1e-8, "dense {d} vs sparse {s}");
        }
    }

    /// The solution actually satisfies A·x = b.
    #[test]
    fn residual_is_small((entries, b) in dominant_system(16)) {
        let mut m = SystemMatrix::new(16);
        let mut dense = vec![0.0f64; 16 * 16];
        for &(r, c, v) in &entries {
            m.add(r, c, v);
            dense[r * 16 + c] += v;
        }
        m.consolidate();
        let x = solve_dense(&m, &b).unwrap();
        for r in 0..16 {
            let acc: f64 = (0..16).map(|c| dense[r * 16 + c] * x[c]).sum();
            prop_assert!((acc - b[r]).abs() < 1e-7, "row {r}: {acc} vs {}", b[r]);
        }
    }

    /// Waveform sampling stays within the sample extremes, and the
    /// integral over [a,c] splits additively at any interior b.
    #[test]
    fn waveform_invariants(values in collection::vec(-5.0f64..5.0, 3..40),
                           split in 0.1f64..0.9) {
        let n = values.len();
        let t: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let w = Waveform::new(t, values.clone());
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for k in 0..20 {
            let ts = (n - 1) as f64 * k as f64 / 19.0;
            let v = w.sample(ts);
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
        }
        let b = (n - 1) as f64 * split;
        let total = w.integral_between(0.0, (n - 1) as f64);
        let parts = w.integral_between(0.0, b) + w.integral_between(b, (n - 1) as f64);
        prop_assert!((total - parts).abs() < 1e-9 * (1.0 + total.abs()));
    }

    /// RC transient matches the analytic exponential for random R, C.
    #[test]
    fn rc_matches_analytic(r_kohm in 0.5f64..20.0, c_ff in 100.0f64..5000.0) {
        let r = r_kohm * 1e3;
        let c = c_ff * 1e-15;
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 0.0));
        ckt.resistor("R", vin, out, r);
        ckt.capacitor("C", out, Circuit::GND, c);
        let t_stop = 5.0 * tau;
        let res = ckt.transient(&TranOptions::new(t_stop, tau / 200.0)).unwrap();
        let w = res.voltage(out);
        for frac in [0.5, 1.0, 2.0, 4.0] {
            let t = frac * tau;
            let expect = 1.0 - (-t / tau).exp();
            let got = w.sample(t);
            prop_assert!((got - expect).abs() < 0.02, "v({frac}·tau) = {got} vs {expect}");
        }
    }

    /// Superposition: doubling every independent source doubles every
    /// node voltage of a linear (R-only) network.
    #[test]
    fn linear_superposition(r1 in 1.0f64..100.0, r2 in 1.0f64..100.0, v in 0.1f64..5.0) {
        let build = |scale: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            ckt.vsource("V", a, Circuit::GND, SourceWave::dc(v * scale));
            ckt.resistor("R1", a, b, r1 * 1e3);
            ckt.resistor("R2", b, Circuit::GND, r2 * 1e3);
            let op = ckt.dc_op().unwrap();
            op.voltage(b)
        };
        let v1 = build(1.0);
        let v2 = build(2.0);
        prop_assert!((v2 - 2.0 * v1).abs() < 1e-9 * (1.0 + v2.abs()));
    }
}
