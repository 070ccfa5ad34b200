//! The 16 cells of the PG-MCML library (paper Table 2): their static
//! facts, declared once as the `CATALOG` table behind
//! [`CellKind::spec`], and their logic semantics.

use serde::{Deserialize, Serialize};

/// Drive strength variants provided by the library (the paper's Fig. 4
/// shows X1 and X4 buffer layouts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum DriveStrength {
    /// Unit drive.
    #[default]
    X1,
    /// Quadruple drive: 4× tail current and 4× device widths.
    X4,
}

impl DriveStrength {
    /// Width/current multiplier.
    #[must_use]
    pub fn multiplier(self) -> f64 {
        match self {
            DriveStrength::X1 => 1.0,
            DriveStrength::X4 => 4.0,
        }
    }

    /// Suffix used in library cell names (`X1`, `X4`).
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            DriveStrength::X1 => "X1",
            DriveStrength::X4 => "X4",
        }
    }
}

/// A cell of the library.
///
/// Input ordering conventions (used by [`CellKind::eval_comb`] and every
/// generator):
///
/// * gates: `a, b, c, d` in declaration order;
/// * muxes: data inputs first (`d0…`), then selects (`s0` is the LSB);
/// * latch/flops: `d`, then `clk`, then `rst`/`en` where applicable;
/// * full adder: `a, b, ci`, outputs `s, co`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Differential buffer / inverter (inversion is free by swapping
    /// rails).
    Buffer,
    /// Differential-to-single-ended converter (interfaces an MCML macro to
    /// the CMOS host circuit).
    Diff2Single,
    /// 2-input AND.
    And2,
    /// 3-input AND.
    And3,
    /// 4-input AND.
    And4,
    /// 2-to-1 multiplexer.
    Mux2,
    /// 4-to-1 multiplexer.
    Mux4,
    /// 3-input majority gate.
    Maj32,
    /// 2-input XOR.
    Xor2,
    /// 3-input XOR.
    Xor3,
    /// 4-input XOR.
    Xor4,
    /// Transparent-high D latch.
    DLatch,
    /// Rising-edge D flip-flop.
    Dff,
    /// Rising-edge D flip-flop with synchronous reset.
    Dffr,
    /// Rising-edge D flip-flop with enable.
    Edff,
    /// Full adder.
    FullAdder,
}

/// Static facts of one library cell: its row of the catalog.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// The cell the row describes.
    pub kind: CellKind,
    /// Name as printed in the paper's Table 2.
    pub table_name: &'static str,
    /// Library cell-name stem; the drive suffix completes it (Table 1's
    /// `BUFX1`, `DLX1`, …).
    pub stem: &'static str,
    /// Input ports in evaluation order (conventions on [`CellKind`]).
    pub inputs: &'static [&'static str],
    /// Output ports.
    pub outputs: &'static [&'static str],
    /// PG-MCML layout width at X1 drive, in
    /// [`PG_WIDTH_UNIT_UM2`](crate::area::PG_WIDTH_UNIT_UM2) quanta:
    /// the published cell areas (Tables 1 and 2) quantise exactly to it.
    pub pg_width_units: u32,
    /// Transistors in the static CMOS implementation ([`crate::cmos`]),
    /// the basis of the CMOS area model.
    pub cmos_transistors: usize,
    /// Whether the commercial CMOS library has a counterpart, so the
    /// paper's Table 2 gives a PG-MCML/CMOS area ratio.
    pub cmos_counterpart: bool,
    // Whether `inputs` has `clk`, worked out once by `row`: per-gate
    // loops ask `is_sequential` on every event.
    sequential: bool,
}

/// A catalog row from positional columns, so each cell fits on one
/// line of the table.
#[allow(clippy::too_many_arguments)]
const fn row(
    kind: CellKind,
    table_name: &'static str,
    stem: &'static str,
    inputs: &'static [&'static str],
    outputs: &'static [&'static str],
    pg_width_units: u32,
    cmos_transistors: usize,
    cmos_counterpart: bool,
) -> CellSpec {
    CellSpec {
        kind,
        table_name,
        stem,
        inputs,
        outputs,
        pg_width_units,
        cmos_transistors,
        cmos_counterpart,
        sequential: has_clk(inputs),
    }
}

const fn has_clk(pins: &[&str]) -> bool {
    let mut i = 0;
    while i < pins.len() {
        if matches!(pins[i].as_bytes(), b"clk") {
            return true;
        }
        i += 1;
    }
    false
}

/// The library: one row per cell, in the paper's Table 2 order.
#[rustfmt::skip]
static CATALOG: [CellSpec; 16] = {
    use CellKind::*;
    [
        //  kind         Table 2        stem     inputs                                 outputs       width cmos  ratio
        row(Buffer,      "Buffer",      "BUF",   &["a"],                                &["q"],         5,    4, true),
        row(Diff2Single, "Diff2Single", "D2S",   &["a"],                                &["q"],         6,    4, false),
        row(And2,        "AND2",        "AND2",  &["a", "b"],                           &["q"],         6,    6, true),
        row(And3,        "AND3",        "AND3",  &["a", "b", "c"],                      &["q"],         9,    8, true),
        row(And4,        "AND4",        "AND4",  &["a", "b", "c", "d"],                 &["q"],        12,   10, true),
        row(Mux2,        "MUX2",        "MUX2",  &["d0", "d1", "s"],                    &["q"],         6,   12, true),
        row(Mux4,        "MUX4",        "MUX4",  &["d0", "d1", "d2", "d3", "s0", "s1"], &["q"],        14,   36, true),
        row(Maj32,       "MAJ32",       "MAJ32", &["a", "b", "c"],                      &["q"],        12,   14, false),
        row(Xor2,        "XOR2",        "XOR2",  &["a", "b"],                           &["q"],         6,   12, true),
        row(Xor3,        "XOR3",        "XOR3",  &["a", "b", "c"],                      &["q"],        12,   24, true),
        row(Xor4,        "XOR4",        "XOR4",  &["a", "b", "c", "d"],                 &["q"],        14,   36, true),
        row(DLatch,      "D-Latch",     "DL",    &["d", "clk"],                         &["q"],         6,   12, true),
        row(Dff,         "DFF",         "DFF",   &["d", "clk"],                         &["q"],        12,   26, true),
        row(Dffr,        "DFFR",        "DFFR",  &["d", "clk", "rst"],                  &["q"],        18,   34, true),
        row(Edff,        "EDFF",        "EDFF",  &["d", "clk", "en"],                   &["q"],        16,   38, false),
        row(FullAdder,   "FA",          "FA",    &["a", "b", "ci"],                     &["s", "co"],  24,   38, true),
    ]
};

impl CellKind {
    /// All 16 cells, in the paper's Table 2 order.
    pub const ALL: [CellKind; 16] = {
        let mut all = [CellKind::Buffer; 16];
        let mut i = 0;
        while i < CATALOG.len() {
            // `spec` indexes the catalog by discriminant.
            assert!(
                CATALOG[i].kind as usize == i,
                "CATALOG follows the CellKind order"
            );
            all[i] = CATALOG[i].kind;
            i += 1;
        }
        all
    };

    /// The cell's row of the catalog.
    #[must_use]
    pub fn spec(self) -> &'static CellSpec {
        &CATALOG[self as usize]
    }

    /// Human-readable name as printed in the paper's Table 2.
    #[must_use]
    pub fn table_name(self) -> &'static str {
        self.spec().table_name
    }

    /// Library cell name with drive suffix, as in the paper's Table 1
    /// (`BUFX1`, `MUX4X1`, `AND4X1`, `DLX1`, …).
    #[must_use]
    pub fn lib_name(self, drive: DriveStrength) -> String {
        format!("{}{}", self.spec().stem, drive.suffix())
    }

    /// Input port names, in evaluation order.
    #[must_use]
    pub fn input_names(self) -> &'static [&'static str] {
        self.spec().inputs
    }

    /// Output port names.
    #[must_use]
    pub fn output_names(self) -> &'static [&'static str] {
        self.spec().outputs
    }

    /// Whether the cell holds state (latch or flip-flop): the cells with
    /// a `clk` input.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        self.spec().sequential
    }

    /// Number of inputs, `clk`, `rst` and `en` included (a `Dff` has 2):
    /// the arity of [`CellKind::eval_comb`], [`CellKind::next_state`] and
    /// a gate's input list.
    #[must_use]
    pub fn input_count(self) -> usize {
        self.input_names().len()
    }

    /// Evaluate a **combinational** cell.
    ///
    /// Returns `None` for sequential cells — their semantics live in the
    /// event-driven simulator, which tracks state.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong arity.
    #[must_use]
    pub fn eval_comb(self, inputs: &[bool]) -> Option<Vec<bool>> {
        if self.is_sequential() {
            return None;
        }
        assert_eq!(
            inputs.len(),
            self.input_count(),
            "{}: expected {} inputs, got {}",
            self.table_name(),
            self.input_count(),
            inputs.len()
        );
        let out = match self {
            CellKind::Buffer | CellKind::Diff2Single => vec![inputs[0]],
            CellKind::And2 | CellKind::And3 | CellKind::And4 => {
                vec![inputs.iter().all(|&b| b)]
            }
            CellKind::Xor2 | CellKind::Xor3 | CellKind::Xor4 => {
                vec![inputs.iter().fold(false, |acc, &b| acc ^ b)]
            }
            CellKind::Mux2 => vec![if inputs[2] { inputs[1] } else { inputs[0] }],
            CellKind::Mux4 => {
                let sel = usize::from(inputs[4]) | (usize::from(inputs[5]) << 1);
                vec![inputs[sel]]
            }
            CellKind::Maj32 => {
                let n = inputs.iter().filter(|&&b| b).count();
                vec![n >= 2]
            }
            CellKind::FullAdder => {
                let (a, b, ci) = (inputs[0], inputs[1], inputs[2]);
                vec![a ^ b ^ ci, (a && b) || (ci && (a ^ b))]
            }
            CellKind::DLatch | CellKind::Dff | CellKind::Dffr | CellKind::Edff => unreachable!(),
        };
        Some(out)
    }

    /// Next state of a **sequential** cell given its current state,
    /// evaluated at the active clock condition (rising edge for flops,
    /// transparent phase for the latch).
    ///
    /// Returns `None` for combinational cells.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong arity.
    #[must_use]
    pub fn next_state(self, state: bool, inputs: &[bool]) -> Option<bool> {
        if !self.is_sequential() {
            return None;
        }
        assert_eq!(inputs.len(), self.input_count(), "sequential input arity");
        Some(match self {
            CellKind::DLatch | CellKind::Dff => inputs[0],
            CellKind::Dffr => inputs[0] && !inputs[2],
            CellKind::Edff => {
                if inputs[2] {
                    inputs[0]
                } else {
                    state
                }
            }
            _ => unreachable!(),
        })
    }
}

impl std::fmt::Display for CellKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.table_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_cells_as_in_table_2() {
        assert_eq!(CellKind::ALL.len(), 16);
    }

    #[test]
    fn table1_lib_names() {
        assert_eq!(CellKind::Buffer.lib_name(DriveStrength::X1), "BUFX1");
        assert_eq!(CellKind::Mux4.lib_name(DriveStrength::X1), "MUX4X1");
        assert_eq!(CellKind::And4.lib_name(DriveStrength::X1), "AND4X1");
        assert_eq!(CellKind::DLatch.lib_name(DriveStrength::X1), "DLX1");
        assert_eq!(CellKind::Buffer.lib_name(DriveStrength::X4), "BUFX4");
    }

    #[test]
    fn and_gates_truth() {
        assert_eq!(CellKind::And2.eval_comb(&[true, true]), Some(vec![true]));
        assert_eq!(CellKind::And2.eval_comb(&[true, false]), Some(vec![false]));
        assert_eq!(
            CellKind::And4.eval_comb(&[true, true, true, false]),
            Some(vec![false])
        );
    }

    #[test]
    fn xor_gates_truth() {
        assert_eq!(
            CellKind::Xor3.eval_comb(&[true, true, true]),
            Some(vec![true])
        );
        assert_eq!(
            CellKind::Xor4.eval_comb(&[true, false, true, false]),
            Some(vec![false])
        );
    }

    #[test]
    fn mux_selection() {
        // Mux2: q = s ? d1 : d0.
        assert_eq!(
            CellKind::Mux2.eval_comb(&[true, false, false]),
            Some(vec![true])
        );
        assert_eq!(
            CellKind::Mux2.eval_comb(&[true, false, true]),
            Some(vec![false])
        );
        // Mux4: inputs d0..d3, s0 (lsb), s1.
        let mut inputs = [false; 6];
        inputs[2] = true; // d2
        inputs[5] = true; // s1 -> sel = 2
        assert_eq!(CellKind::Mux4.eval_comb(&inputs), Some(vec![true]));
    }

    #[test]
    fn majority_gate() {
        assert_eq!(
            CellKind::Maj32.eval_comb(&[true, true, false]),
            Some(vec![true])
        );
        assert_eq!(
            CellKind::Maj32.eval_comb(&[true, false, false]),
            Some(vec![false])
        );
    }

    #[test]
    fn full_adder_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                for ci in [false, true] {
                    let out = CellKind::FullAdder.eval_comb(&[a, b, ci]).unwrap();
                    let total = usize::from(a) + usize::from(b) + usize::from(ci);
                    assert_eq!(out[0], total % 2 == 1, "sum at {a},{b},{ci}");
                    assert_eq!(out[1], total >= 2, "carry at {a},{b},{ci}");
                }
            }
        }
    }

    #[test]
    fn sequential_cells_have_no_comb_eval() {
        assert!(CellKind::Dff.eval_comb(&[true, true]).is_none());
        assert!(CellKind::DLatch.eval_comb(&[true, true]).is_none());
    }

    #[test]
    fn next_state_semantics() {
        assert_eq!(CellKind::Dff.next_state(false, &[true, true]), Some(true));
        assert_eq!(
            CellKind::Dffr.next_state(true, &[true, true, true]),
            Some(false),
            "reset dominates"
        );
        assert_eq!(
            CellKind::Edff.next_state(true, &[false, true, false]),
            Some(true),
            "disabled flop holds"
        );
        assert_eq!(CellKind::And2.next_state(false, &[true, true]), None);
    }

    #[test]
    fn catalog_matches_generators() {
        use crate::{build_cell, CellParams, LogicStyle};
        let params = CellParams::default();
        let supply_bias_sleep = ["vdd", "vn", "vp", "sleep", "sleep_b"];
        for kind in CellKind::ALL {
            let pins = kind.input_names().iter().map(|&p| (p, false));
            let pins = pins.chain(kind.output_names().iter().map(|&p| (p, true)));
            for style in LogicStyle::ALL {
                let cell = build_cell(kind, style, &params);
                let mut ports = Vec::new();
                for (pin, is_output) in pins.clone() {
                    // The converter's output leaves the differential
                    // domain: one full-swing wire.
                    let diff =
                        style.is_differential() && !(is_output && kind == CellKind::Diff2Single);
                    if diff {
                        ports.extend([format!("{pin}_p"), format!("{pin}_n")]);
                    } else {
                        ports.push(pin.to_owned());
                    }
                }
                for port in &ports {
                    assert!(cell.ports.contains_key(port), "{kind} {style}: no {port}");
                }
                for port in cell.ports.keys() {
                    assert!(
                        ports.contains(port) || supply_bias_sleep.contains(&port.as_str()),
                        "{kind} {style}: {port} is not in the catalog"
                    );
                }
            }
        }

        // `to_liberty` names cells by `lib_name`, Table 2 by `table_name`.
        for column in [|s: &CellSpec| s.table_name, |s: &CellSpec| s.stem] {
            let mut names: Vec<&str> = CATALOG.iter().map(column).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), CATALOG.len(), "duplicate name in {names:?}");
        }

        let sequential: Vec<CellKind> = CellKind::ALL
            .into_iter()
            .filter(|k| k.input_names().contains(&"clk"))
            .collect();
        assert_eq!(
            sequential,
            [
                CellKind::DLatch,
                CellKind::Dff,
                CellKind::Dffr,
                CellKind::Edff
            ]
        );
        for kind in CellKind::ALL {
            assert_eq!(kind.is_sequential(), sequential.contains(&kind), "{kind}");
        }
    }

    #[test]
    fn drive_multipliers() {
        assert_eq!(DriveStrength::X1.multiplier(), 1.0);
        assert_eq!(DriveStrength::X4.multiplier(), 4.0);
    }
}
