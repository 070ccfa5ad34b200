//! Cross-validation of the static leakage predictor against the fig6
//! event-simulation tier: on the CMOS reduced AES the per-net static
//! score must rank the nets the CPA attack actually exploits at the
//! top, and on PG-MCML the predictor must report a clean design.
//!
//! "Measured" per-net leakage is key-dependence of switched energy, in
//! the leakage-assessment (TVLA) sense: simulate the full 16-key ×
//! 16-plaintext grid and take, per net, the characterised per-toggle
//! energy times the plaintext-averaged standard deviation of the
//! toggle count across keys. A net whose activity never varies with
//! the key — whatever the plaintext — measures exactly zero; that is
//! the same predicate the taint analysis decides statically, and the
//! energy × activity amplitude is what the static score bounds.
//! Sweeping the key matters: at a fixed key every net is deterministic
//! in the plaintext, so even public nets would look "leaky".

use mcml_lint::dataflow::{self, score};
use pg_mcml::prelude::*;

fn pearson(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx == 0.0 || syy == 0.0 {
        return 0.0;
    }
    sxy / (sxx * syy).sqrt()
}

/// Average ranks (ties share their mean rank), the Spearman transform.
fn ranks(x: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..x.len()).collect();
    idx.sort_by(|&a, &b| x[a].partial_cmp(&x[b]).expect("finite"));
    let mut out = vec![0.0; x.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && x[idx[j + 1]] == x[idx[i]] {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0;
        for &k in &idx[i..=j] {
            out[k] = mean_rank;
        }
        i = j + 1;
    }
    out
}

fn spearman(x: &[f64], y: &[f64]) -> f64 {
    pearson(&ranks(x), &ranks(y))
}

/// Population standard deviation.
fn std_dev(x: &[f64]) -> f64 {
    let n = x.len() as f64;
    let m = x.iter().sum::<f64>() / n;
    (x.iter().map(|&a| (a - m) * (a - m)).sum::<f64>() / n).sqrt()
}

/// Event-sim toggle counts per net over the full key × plaintext grid
/// (key-major: trace index = key * 16 + plaintext).
fn simulate(flow: &mut DesignFlow, nl: &Netlist) -> Vec<Vec<usize>> {
    flow.library_for(nl).expect("library characterises");
    let lib = flow.library();
    // Two-phase drive: settle the cone on the all-zero operand first
    // (the X → 0 wave is not a counted toggle), then apply the real
    // operands so the combinational transition — glitches included —
    // lands in the toggle counts, and finally clock the registers.
    let t_op = 1.0e-9;
    let t_edge = 2.2e-9;
    let mut toggles = Vec::new();
    for key in 0..16u8 {
        for p in 0..16u8 {
            let mut st = Stimulus::new();
            st.at(0.0, "clk", false);
            st.at(t_edge, "clk", true);
            for b in 0..4 {
                st.at(0.0, &format!("k{b}"), false);
                st.at(0.0, &format!("p{b}"), false);
                st.at(t_op, &format!("k{b}"), (key >> b) & 1 == 1);
                st.at(t_op, &format!("p{b}"), (p >> b) & 1 == 1);
            }
            let trace = EventSim::new(nl, lib).run(&st, 3.6e-9);
            toggles.push(trace.toggle_counts());
        }
    }
    toggles
}

#[test]
fn cmos_static_scores_rank_the_simulated_leakage() {
    let mut flow = DesignFlow::new(CellParams::default());
    let nl: Netlist = ReducedAes::new(4).build_registered_netlist(LogicStyle::Cmos);
    let toggles = simulate(&mut flow, &nl);
    let lib = flow.library();

    let r = dataflow::analyze(&nl, Some(lib)).expect("acyclic");
    let driver = nl.driver_map();

    // Per-net measured leakage: switched energy times the plaintext-
    // averaged spread of the toggle count across keys.
    let measured: Vec<f64> = (0..nl.net_count())
        .map(|ni| {
            let Some(gi) = driver[ni] else { return 0.0 };
            let e = score::driver_energy_j(nl.gates()[gi].kind, nl.style, Some(lib));
            let spread: f64 = (0..16)
                .map(|p| {
                    let across_keys: Vec<f64> =
                        (0..16).map(|k| toggles[k * 16 + p][ni] as f64).collect();
                    std_dev(&across_keys)
                })
                .sum::<f64>()
                / 16.0;
            e * spread
        })
        .collect();

    // Every net the CPA attack exploits — the register outputs that
    // capture S(p ⊕ k) — is tainted with a top-quartile static score.
    let quartile = r.top_quartile_score_j();
    assert!(quartile > 0.0);
    for b in 0..4 {
        let ni = (0..nl.net_count())
            .find(|&i| nl.net_name(mcml_netlist::NetId::from_index(i)) == format!("y{b}_q"))
            .expect("register output net");
        assert!(r.taint[ni], "y{b}_q must be tainted");
        assert!(
            r.score_j[ni] >= quartile,
            "y{b}_q static score {:.3e} below the top quartile {quartile:.3e}",
            r.score_j[ni]
        );
        assert!(measured[ni] > 0.0, "y{b}_q must leak in simulation");
    }

    // Rank agreement between predictor and simulation across every
    // driven net. The static model is a bound, not a simulator, so
    // perfect correlation is not expected — but the ordering must agree
    // strongly, far beyond chance.
    let driven: Vec<usize> = (0..nl.net_count())
        .filter(|&ni| driver[ni].is_some())
        .collect();
    let s: Vec<f64> = driven.iter().map(|&ni| r.score_j[ni]).collect();
    let m: Vec<f64> = driven.iter().map(|&ni| measured[ni]).collect();
    // Deterministic: measures 0.897 on the shipped cell parameters.
    let rho = spearman(&s, &m);
    assert!(
        rho > 0.85,
        "Spearman(static score, simulated leakage) = {rho:.3} over {} nets",
        driven.len()
    );
}

#[test]
fn pg_mcml_static_predictor_reports_clean() {
    let mut flow = DesignFlow::new(CellParams::default());
    let nl: Netlist = ReducedAes::new(4).build_registered_netlist(LogicStyle::PgMcml);
    flow.library_for(&nl).expect("library characterises");

    // The flow's lint (library wired in) raises no dataflow findings.
    let report = flow.lint_netlist(&nl, None);
    assert!(
        report
            .diagnostics
            .iter()
            .all(|d| !d.rule_id.starts_with("dataflow-")),
        "{report:?}"
    );

    // The key still flows — taint is present — but every static score
    // is zero: constant-current cells have no energy asymmetry for the
    // score to weight, which is the paper's claim in static form.
    let r = dataflow::analyze(&nl, Some(flow.library())).expect("acyclic");
    assert!(r.tainted_count() > 0, "the key datapath is tainted");
    assert!(
        r.score_j.iter().all(|&s| s == 0.0),
        "PG-MCML must score clean"
    );
    assert_eq!(r.top_quartile_score_j(), 0.0);
}
