//! Cross-crate security integration: the Fig. 6 pipeline end to end at
//! both tiers — current-template CPA on the 8-bit reduced AES and
//! transistor-level CPA on the 4-bit reduced AES.

use pg_mcml::experiments::{fig6_template, fig6_transistor_par};
use pg_mcml::prelude::*;

#[test]
fn template_cpa_full_verdicts() {
    let mut flow = DesignFlow::new(CellParams::default());
    let key = 0xc4;
    let rows = fig6_template(
        &mut flow,
        key,
        0.01,
        42,
        &[LogicStyle::Cmos, LogicStyle::Mcml, LogicStyle::PgMcml],
    )
    .unwrap();
    let cmos = &rows[0].0;
    assert_eq!(cmos.rank, 0, "CMOS must fall to CPA: {cmos:?}");
    assert!(cmos.margin > 1.2, "CMOS distinguishable: {cmos:?}");
    for (row, _) in &rows[1..] {
        assert!(
            row.rank > 0 || row.margin < 1.05,
            "{}: must resist CPA: {row:?}",
            row.style
        );
        assert!(
            row.peak_correct < cmos.peak_correct / 2.0,
            "{}: correlation should collapse vs CMOS ({} vs {})",
            row.style,
            row.peak_correct,
            cmos.peak_correct
        );
    }
}

#[test]
fn template_cpa_succeeds_for_several_keys_on_cmos() {
    // "we repeatedly attacked all the implementations" — sample a few
    // keys rather than one lucky value.
    let mut flow = DesignFlow::new(CellParams::default());
    for key in [0x00u8, 0x7f, 0xe1] {
        let rows = fig6_template(
            &mut flow,
            key,
            0.01,
            1000 + u64::from(key),
            &[LogicStyle::Cmos],
        )
        .unwrap();
        assert_eq!(rows[0].0.rank, 0, "key {key:#04x}: {:?}", rows[0].0);
    }
}

#[test]
fn transistor_cpa_breaks_cmos() {
    // Tier 1: genuine SPICE traces, 4-bit reduced AES, all 16 plaintexts.
    let params = CellParams::default();
    let plaintexts: Vec<u8> = (0..16).collect();
    let (row, _) = fig6_transistor_par(
        &params,
        0xb,
        LogicStyle::Cmos,
        &plaintexts,
        Parallelism::from_env(),
    )
    .unwrap();
    assert_eq!(row.rank, 0, "transistor-level CMOS CPA: {row:?}");
}

#[test]
fn transistor_cpa_fails_on_pg_mcml() {
    let params = CellParams::default();
    let plaintexts: Vec<u8> = (0..16).collect();
    let (row, _) = fig6_transistor_par(
        &params,
        0xb,
        LogicStyle::PgMcml,
        &plaintexts,
        Parallelism::from_env(),
    )
    .unwrap();
    assert!(
        row.rank > 0 || row.margin < 1.05,
        "PG-MCML must resist at transistor level: {row:?}"
    );
}

#[test]
fn tvla_flags_cmos_far_above_mcml() {
    // Model-free leakage assessment: the CMOS implementation separates
    // fixed from random plaintexts overwhelmingly; the MCML styles sit
    // orders of magnitude lower.
    let mut flow = DesignFlow::new(CellParams::default());
    let t_cmos =
        pg_mcml::experiments::tvla_assessment(&mut flow, LogicStyle::Cmos, 0x52, 100, 0.01, 5)
            .unwrap();
    let t_pg =
        pg_mcml::experiments::tvla_assessment(&mut flow, LogicStyle::PgMcml, 0x52, 100, 0.01, 5)
            .unwrap();
    assert!(t_cmos.leaks(), "CMOS max |t| = {}", t_cmos.max_abs_t);
    assert!(
        t_cmos.max_abs_t > 5.0 * t_pg.max_abs_t,
        "CMOS t {} should dwarf PG-MCML t {}",
        t_cmos.max_abs_t,
        t_pg.max_abs_t
    );
}
