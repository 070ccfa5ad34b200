//! Bitwise fingerprints of fig. 6 transistor-tier traces.
//!
//! `golden_fig6.rs` pins fig. 6 samples within a tolerance; this file
//! pins whole traces bit for bit. Every sample of `fig6_supply_trace`
//! is folded into one FNV-1a hash per case, and a failing call folds in
//! its error instead. A solver change that claims "same numbers" must
//! leave every hash unchanged.
//!
//! Each case runs the registered 4-bit design's DC operating point,
//! which factors on the sparse LU in raw MNA order (SOLVER.md §2), and
//! then its transient. Covered: key 0xb, plaintext 0x3 in PG-MCML and
//! MCML; key 0x3, plaintext 0xf in PG-MCML, whose DC basin follows the
//! LU rounding; and key 0x0, plaintext 0xc in CMOS, whose DC fails every
//! rung of the continuation ladder.

use mcml_cells::{CellParams, LogicStyle};
use mcml_spice::SpiceError;
use pg_mcml::experiments::fig6_supply_trace;

/// FNV-1a over every sample's bits, or over the bytes of the error's
/// `Debug` form (which spells out the failing analysis, time and
/// iteration count).
fn trace_hash(run: &Result<Vec<f64>, SpiceError>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    let mut eat = |w: u64| h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    match run {
        Ok(trace) => trace.iter().for_each(|v| eat(v.to_bits())),
        Err(e) => format!("{e:?}").bytes().for_each(|b| eat(u64::from(b))),
    }
    h
}

/// Committed fingerprints: `(key, style, plaintext, hash)`. The CMOS
/// case pins a failure, not a trace.
const EXPECTED: &[(u8, LogicStyle, u8, u64)] = &[
    (0xb, LogicStyle::PgMcml, 0x3, 0x51ff_58e4_01b4_0f51),
    (0xb, LogicStyle::Mcml, 0x3, 0x67a4_75f1_cf8a_bd3f),
    (0x3, LogicStyle::PgMcml, 0xf, 0x1974_c7c8_17ec_a8c8),
    (0x0, LogicStyle::Cmos, 0xc, 0xa805_9721_e274_6707),
];

#[test]
fn fig6_traces_match_committed_fingerprints() {
    let runs: Vec<_> = EXPECTED
        .iter()
        .map(|&(key, style, p, _)| fig6_supply_trace(&CellParams::default(), key, style, p))
        .collect();
    assert!(
        matches!(
            runs[3],
            Err(SpiceError::NoConvergence {
                analysis: "dc",
                iterations: 150,
                ..
            })
        ),
        "the CMOS case's DC fails every rung: {:?}",
        runs[3]
    );
    let got: Vec<_> = EXPECTED
        .iter()
        .zip(&runs)
        .map(|(&(key, style, p, _), run)| (key, style, p, trace_hash(run)))
        .collect();
    let table: String = got
        .iter()
        .map(|(k, s, p, h)| format!("    ({k:#x}, LogicStyle::{s:?}, {p:#x}, {h:#018x}),\n"))
        .collect();
    assert_eq!(got, EXPECTED, "fingerprints moved; current table:\n{table}");
}
