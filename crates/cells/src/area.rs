//! Layout-area model.
//!
//! All cells share the fixed row height of the Badel et al. differential
//! standard-cell template (10 routing tracks ≈ 2.8 µm in this 90 nm
//! technology); a cell's area is its height times its width in layout
//! quanta.
//!
//! * **PG-MCML** widths come from the library's layout templates, i.e. the
//!   widths published for the paper's own cells (Tables 1 and 2 quantise
//!   exactly to a 1.4896 µm² unit — 5 units for the buffer, 24 for the
//!   full adder, …), recorded in the cell catalog
//!   ([`CellSpec::pg_width_units`](crate::kind::CellSpec::pg_width_units)).
//!   Delays and powers are *simulated* in this reproduction; areas are
//!   layout data, exactly as a shipped `.lib` would carry them.
//! * **MCML** (no sleep transistor): the sleep device shares the current
//!   source's diffusion, and removing it shrinks every cell by the same
//!   one-column fraction — the uniform ≈5.6 % of Table 1.
//! * **CMOS** areas are computed from the structural transistor count of
//!   the [`crate::cmos`] generators (a catalog column, checked against the
//!   generator in tests) at one layout pitch per device.

use crate::kind::{CellKind, DriveStrength};
use crate::style::LogicStyle;

/// Standard-cell row height (µm).
pub const CELL_HEIGHT_UM: f64 = 2.8;

/// PG-MCML layout width quantum (µm² of cell area per width unit).
pub const PG_WIDTH_UNIT_UM2: f64 = 1.4896;

/// CMOS layout area per transistor (µm²): one M1 pitch (0.28 µm) of width
/// per device at full row height.
pub const CMOS_UM2_PER_TRANSISTOR: f64 = 0.28 * CELL_HEIGHT_UM;

/// Fraction of a PG-MCML cell's width occupied by the sleep-transistor
/// column (Table 1: PG-MCML cells are uniformly 19/18 ≈ 1.056× their MCML
/// counterparts).
pub const SLEEP_COLUMN_FRACTION: f64 = 1.0 / 19.0;

/// Area growth of the X4 drive variant. The X4 layout of Fig. 4 folds the
/// wider devices over shared diffusion, so it is well below 4×.
pub const X4_AREA_FACTOR: f64 = 1.8;

/// Silicon area of a cell (µm²).
///
/// ```
/// use mcml_cells::{cell_area_um2, CellKind, DriveStrength, LogicStyle};
///
/// let pg = cell_area_um2(CellKind::Buffer, LogicStyle::PgMcml, DriveStrength::X1);
/// assert!((pg - 7.448).abs() < 1e-9, "paper Table 2 buffer area");
/// let mcml = cell_area_um2(CellKind::Buffer, LogicStyle::Mcml, DriveStrength::X1);
/// assert!(pg > mcml, "the sleep transistor costs area");
/// ```
#[must_use]
pub fn cell_area_um2(kind: CellKind, style: LogicStyle, drive: DriveStrength) -> f64 {
    let drive_factor = match drive {
        DriveStrength::X1 => 1.0,
        DriveStrength::X4 => X4_AREA_FACTOR,
    };
    let spec = kind.spec();
    let pg_width = f64::from(spec.pg_width_units);
    match style {
        LogicStyle::PgMcml => pg_width * PG_WIDTH_UNIT_UM2 * drive_factor,
        LogicStyle::Mcml => {
            pg_width * PG_WIDTH_UNIT_UM2 * (1.0 - SLEEP_COLUMN_FRACTION) * drive_factor
        }
        LogicStyle::Cmos => spec.cmos_transistors as f64 * CMOS_UM2_PER_TRANSISTOR * drive_factor,
    }
}

/// Area ratio of the PG-MCML cell to its CMOS equivalent (the last column
/// of the paper's Table 2).
#[must_use]
pub fn mcml_to_cmos_ratio(kind: CellKind) -> f64 {
    cell_area_um2(kind, LogicStyle::PgMcml, DriveStrength::X1)
        / cell_area_um2(kind, LogicStyle::Cmos, DriveStrength::X1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_pg_areas_reproduced() {
        // (cell, paper area in µm²)
        let expected = [
            (CellKind::Buffer, 7.448),
            (CellKind::Diff2Single, 8.9376),
            (CellKind::And2, 8.9376),
            (CellKind::And3, 13.4064),
            (CellKind::And4, 17.8752),
            (CellKind::Mux2, 8.9376),
            (CellKind::Mux4, 20.8544),
            (CellKind::Maj32, 17.8752),
            (CellKind::Xor2, 8.9376),
            (CellKind::Xor3, 17.8752),
            (CellKind::Xor4, 20.8544),
            (CellKind::DLatch, 8.9376),
            (CellKind::Dff, 17.8752),
            (CellKind::Dffr, 26.8128),
            (CellKind::Edff, 23.8336),
            (CellKind::FullAdder, 35.7504),
        ];
        for (kind, paper) in expected {
            let got = cell_area_um2(kind, LogicStyle::PgMcml, DriveStrength::X1);
            assert!(
                (got - paper).abs() / paper < 2e-3,
                "{kind}: {got} vs paper {paper}"
            );
        }
    }

    #[test]
    fn table1_sleep_overhead_about_six_percent() {
        for kind in [
            CellKind::Buffer,
            CellKind::Mux4,
            CellKind::And4,
            CellKind::DLatch,
        ] {
            let pg = cell_area_um2(kind, LogicStyle::PgMcml, DriveStrength::X1);
            let plain = cell_area_um2(kind, LogicStyle::Mcml, DriveStrength::X1);
            let overhead = pg / plain - 1.0;
            assert!(
                overhead > 0.04 && overhead < 0.08,
                "{kind}: overhead {overhead}"
            );
        }
    }

    #[test]
    fn table1_mcml_areas_close_to_paper() {
        let expected = [
            (CellKind::Buffer, 7.056),
            (CellKind::Mux4, 19.7568),
            (CellKind::And4, 16.9344),
            (CellKind::DLatch, 8.4672),
        ];
        for (kind, paper) in expected {
            let got = cell_area_um2(kind, LogicStyle::Mcml, DriveStrength::X1);
            assert!(
                (got - paper).abs() / paper < 0.01,
                "{kind}: {got} vs paper {paper}"
            );
        }
    }

    #[test]
    fn average_cmos_ratio_near_paper() {
        // The paper reports PG-MCML ≈1.6× CMOS on average over the cells
        // that have a commercial equivalent; our structural CMOS model
        // lands in the same band.
        let cells = [
            CellKind::Buffer,
            CellKind::And2,
            CellKind::And3,
            CellKind::And4,
            CellKind::Mux2,
            CellKind::Mux4,
            CellKind::Xor2,
            CellKind::Xor3,
            CellKind::Xor4,
            CellKind::DLatch,
            CellKind::Dff,
            CellKind::Dffr,
            CellKind::Edff,
            CellKind::FullAdder,
        ];
        let avg: f64 =
            cells.iter().map(|&k| mcml_to_cmos_ratio(k)).sum::<f64>() / cells.len() as f64;
        assert!(avg > 1.1 && avg < 2.2, "average PG/CMOS ratio {avg}");
    }

    #[test]
    fn x4_larger_but_sublinear() {
        let x1 = cell_area_um2(CellKind::Buffer, LogicStyle::PgMcml, DriveStrength::X1);
        let x4 = cell_area_um2(CellKind::Buffer, LogicStyle::PgMcml, DriveStrength::X4);
        assert!(x4 > x1 && x4 < 4.0 * x1);
    }
}
