//! The sequential cells' characterisation pinned to the benchmark's
//! goldens.
//!
//! A storage cell's DC operating point sits at its latch's metastable
//! balance, and the LU rounding of the DC picks the basin the
//! characterisation transients start from (SOLVER.md §2). A change to
//! the DC's linear solve can therefore flip a basin and move a Table 2
//! row far outside tolerance while every combinational cell holds. This
//! test characterises the four sequential cells in every style and
//! checks the seven values against `library_char/<style>/<cell>` in
//! `perfbench/golden.json`, read-only, under the benchmark's exact-path
//! tolerance (`common`).

mod common;

use common::{benchmark_golden, ABS_TOL, REL_TOL};
use mcml_cells::{CellKind, CellParams, LogicStyle};
use mcml_char::characterize_cell_uncached;

#[test]
fn sequential_cells_match_benchmark_goldens() {
    let params = CellParams::default();
    let mut failures = Vec::new();
    for style in LogicStyle::ALL {
        for kind in [
            CellKind::DLatch,
            CellKind::Dff,
            CellKind::Dffr,
            CellKind::Edff,
        ] {
            let key = format!("library_char/{style}/{}", kind.table_name());
            let t = characterize_cell_uncached(kind, style, &params)
                .unwrap_or_else(|e| panic!("{key}: {e}"));
            let got = [
                t.area_um2,
                t.delay_fo1_ps,
                t.delay_fo4_ps,
                t.input_cap_ff,
                t.static_power_w,
                t.leakage_sleep_w,
                t.toggle_energy_j,
            ];
            let want = benchmark_golden(&key);
            assert_eq!(want.len(), got.len(), "{key}: golden length");
            // A non-finite value fails outright (`f64::max` would drop a NaN).
            let worst = got.iter().zip(&want).fold(0.0f64, |worst, (&g, &w)| {
                let r = if g.is_finite() {
                    (g - w).abs() / (ABS_TOL + REL_TOL * w.abs())
                } else {
                    f64::INFINITY
                };
                worst.max(r)
            });
            if worst > 1.0 {
                failures.push(format!("{key}: error ratio {worst:.3e}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
