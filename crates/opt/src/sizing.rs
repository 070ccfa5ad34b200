//! The cell-sizing objective: search vector → [`CellParams`] →
//! feasibility oracle → cached characterisation → scalar cost.
//!
//! The paper picks its 50 µA tail current by reading the Fig. 3 (b)
//! area–delay curve by eye. [`SizingObjective::buffer_bias`] encodes the
//! same trade-off as a one-dimensional objective so a solver can
//! re-derive the design point; [`SizingObjective::per_cell`] generalises
//! it to every cell of the Table 2 catalog in all three logic styles.
//!
//! Candidates are snapped to a coarse grid before anything is built
//! ([`SizingObjective::decode`]), so repeated near-identical samples —
//! which population optimizers produce in abundance once they converge —
//! collapse onto the single-flight characterisation cache instead of
//! re-running SPICE.
//!
//! Infeasible candidates never reach the simulator. The oracle rejects,
//! in order: parameters that fail [`CellParams::validate`], effective
//! tail currents above the library budget, differential sizings whose
//! bias network has no solution ([`mcml_cells::try_solve_bias`]), and
//! netlists that trip any deny-severity `mcml-lint` rule (differential
//! symmetry, sleep-transistor topology, transistor-level ERC). Each
//! rejection costs a deterministic [`INFEASIBLE_PENALTY`] scaled by the
//! violation count and increments the `opt.infeasible` counter.

use mcml_cells::{build_cell, cell_area_um2, try_solve_bias, CellKind, CellParams, LogicStyle};
use mcml_char::characterize_cell;
use mcml_lint::{LintEngine, LintReport};

use crate::solver::Objective;

/// Cost charged per feasibility violation. Large and finite (never NaN),
/// so infeasible candidates rank strictly worse than any real
/// measurement but still sort deterministically among themselves.
pub const INFEASIBLE_PENALTY: f64 = 1.0e12;

/// Aggregate tail-current budget for a single cell (A). A sizing whose
/// effective `Iss` exceeds this is rejected before simulation — it is
/// the same 400 µA ceiling the paper's Fig. 3 sweep tops out at.
const ISS_BUDGET_A: f64 = 400e-6;

/// Quantisation grids: tail current, output swing, CMOS width scale.
const ISS_GRID_A: f64 = 2.5e-6;
const VSWING_GRID_V: f64 = 0.01;
const WSCALE_GRID: f64 = 0.05;

/// What the optimizer minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizingMetric {
    /// Area–delay product (µm² · ps at fan-out 4) — the Fig. 3 (b) curve
    /// whose minimum sets the library's 50 µA design point.
    AreaDelay,
    /// Power–delay product (J at fan-out 4), with dynamic energy charged
    /// at a 1 GHz toggle rate so CMOS cells are not free.
    PowerDelay,
}

/// Which knobs the search vector controls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SearchSpace {
    /// 1-D: tail current only (the Fig. 3 sweep axis).
    BiasCurrent,
    /// 2-D: tail current and differential output swing.
    BiasAndSwing,
    /// 1-D: uniform device-width scale (CMOS cells have no tail).
    WidthScale,
}

/// A decoded candidate: one cell, one style, fully specified parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSizing {
    /// Which cell.
    pub kind: CellKind,
    /// Which logic style.
    pub style: LogicStyle,
    /// The sizing under evaluation.
    pub params: CellParams,
}

impl CellSizing {
    /// Run the default `mcml-lint` rule packs over this sizing's netlist.
    #[must_use]
    pub fn lint_report(&self) -> LintReport {
        LintEngine::with_default_rules().lint_cell(&build_cell(self.kind, self.style, &self.params))
    }
}

/// A box-constrained sizing problem for one cell in one style.
#[derive(Debug, Clone)]
pub struct SizingObjective {
    kind: CellKind,
    style: LogicStyle,
    metric: SizingMetric,
    space: SearchSpace,
    base: CellParams,
}

impl SizingObjective {
    /// The Fig. 3 (b) problem: minimise the PG-MCML buffer's area–delay
    /// product over tail current alone. The known answer is ≈50 µA.
    #[must_use]
    pub fn buffer_bias() -> Self {
        Self {
            kind: CellKind::Buffer,
            style: LogicStyle::PgMcml,
            metric: SizingMetric::AreaDelay,
            space: SearchSpace::BiasCurrent,
            base: CellParams::new(),
        }
    }

    /// Per-cell sizing for the catalog run: differential styles search
    /// `(Iss, Vswing)`, CMOS searches a uniform width scale.
    #[must_use]
    pub fn per_cell(kind: CellKind, style: LogicStyle, metric: SizingMetric) -> Self {
        let space = if style.is_differential() {
            SearchSpace::BiasAndSwing
        } else {
            SearchSpace::WidthScale
        };
        Self {
            kind,
            style,
            metric,
            space,
            base: CellParams::new(),
        }
    }

    /// The cell this objective sizes.
    #[must_use]
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The logic style this objective sizes.
    #[must_use]
    pub fn style(&self) -> LogicStyle {
        self.style
    }

    /// The metric being minimised.
    #[must_use]
    pub fn metric(&self) -> SizingMetric {
        self.metric
    }

    /// Map a point in problem units (the solver's `best_x`) to a
    /// concrete, grid-snapped sizing. `eval` goes through exactly this
    /// decode, so the returned sizing is what was actually measured.
    #[must_use]
    pub fn decode(&self, x: &[f64]) -> CellSizing {
        assert_eq!(x.len(), self.dim(), "decode: wrong dimensionality");
        let params = match self.space {
            SearchSpace::BiasCurrent => self.base.with_iss(snap(x[0], ISS_GRID_A)),
            SearchSpace::BiasAndSwing => CellParams {
                vswing: snap(x[1], VSWING_GRID_V),
                ..self.base.with_iss(snap(x[0], ISS_GRID_A))
            },
            SearchSpace::WidthScale => {
                let s = snap(x[0], WSCALE_GRID);
                CellParams {
                    w_pair: self.base.w_pair * s,
                    w_load: self.base.w_load * s,
                    ..self.base.clone()
                }
            }
        };
        CellSizing {
            kind: self.kind,
            style: self.style,
            params,
        }
    }

    /// Count feasibility violations without running any simulation.
    fn violations(&self, sizing: &CellSizing) -> usize {
        let mut bad = 0;
        if sizing.params.validate().is_err() {
            // Degenerate geometry would panic inside the device model;
            // nothing downstream is checkable.
            return 1;
        }
        if sizing.params.iss_effective() > ISS_BUDGET_A {
            bad += 1;
        }
        if self.style.is_differential() && try_solve_bias(&sizing.params).is_err() {
            // No bias solution means no netlist worth linting.
            return bad + 1;
        }
        if !sizing.lint_report().is_clean() {
            bad += 1;
        }
        bad
    }

    /// Area model for the metric: the current-carrying diffusion columns
    /// scale with `Iss` (differential) or the width scale (CMOS); wells,
    /// rails and routing are fixed. Anchored at the 50 µA / 1.0× layout.
    fn area_um2(&self, sizing: &CellSizing) -> f64 {
        let base = cell_area_um2(self.kind, self.style, sizing.params.drive);
        let growth = match self.space {
            SearchSpace::WidthScale => sizing.params.w_pair / self.base.w_pair,
            SearchSpace::BiasCurrent | SearchSpace::BiasAndSwing => sizing.params.iss / 50e-6,
        };
        base * (0.75 + 0.25 * growth)
    }
}

/// Snap to the nearest grid point (grid-aligned bounds stay in bounds).
fn snap(v: f64, grid: f64) -> f64 {
    (v / grid).round() * grid
}

impl Objective for SizingObjective {
    fn dim(&self) -> usize {
        match self.space {
            SearchSpace::BiasCurrent | SearchSpace::WidthScale => 1,
            SearchSpace::BiasAndSwing => 2,
        }
    }

    fn bounds(&self) -> Vec<(f64, f64)> {
        match self.space {
            SearchSpace::BiasCurrent => vec![(5e-6, 400e-6)],
            SearchSpace::BiasAndSwing => vec![(5e-6, 400e-6), (0.25, 0.55)],
            SearchSpace::WidthScale => vec![(0.6, 3.0)],
        }
    }

    fn eval(&self, x: &[f64]) -> f64 {
        let sizing = self.decode(x);
        let bad = self.violations(&sizing);
        if bad > 0 {
            mcml_obs::incr(mcml_obs::Counter::OptInfeasible);
            return INFEASIBLE_PENALTY * bad as f64;
        }
        let Ok(timing) = characterize_cell(self.kind, self.style, &sizing.params) else {
            // The simulator refused a candidate the oracle let through —
            // a convergence failure, not a panic. Penalise and move on.
            mcml_obs::incr(mcml_obs::Counter::OptInfeasible);
            return INFEASIBLE_PENALTY;
        };
        match self.metric {
            SizingMetric::AreaDelay => self.area_um2(&sizing) * timing.delay_fo4_ps,
            SizingMetric::PowerDelay => {
                let power_w = timing.static_power_w + timing.toggle_energy_j * 1e9;
                power_w * timing.delay_fo4_ps * 1e-12
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_snaps_to_grid() {
        let obj = SizingObjective::buffer_bias();
        let s = obj.decode(&[51.2e-6]);
        assert!((s.params.iss - 50e-6).abs() < 1e-12, "iss {}", s.params.iss);
        let s2 = obj.decode(&[51.3e-6]);
        assert!((s2.params.iss - 52.5e-6).abs() < 1e-12);
    }

    #[test]
    fn default_sizing_is_feasible_and_measurable() {
        let obj = SizingObjective::buffer_bias();
        let cost = obj.eval(&[50e-6]);
        assert!(
            cost.is_finite() && cost > 0.0 && cost < INFEASIBLE_PENALTY,
            "cost {cost:e}"
        );
    }

    #[test]
    fn over_budget_current_is_penalised_without_simulation() {
        let obj =
            SizingObjective::per_cell(CellKind::Buffer, LogicStyle::Mcml, SizingMetric::AreaDelay);
        // 600 µA exceeds the 400 µA budget (bounds clamp would normally
        // prevent this; eval must still survive a raw out-of-box point).
        let cost = obj.eval(&[600e-6, 0.4]);
        assert!(cost >= INFEASIBLE_PENALTY, "cost {cost:e}");
    }

    #[test]
    fn degenerate_swing_is_penalised() {
        let obj = SizingObjective::per_cell(
            CellKind::Buffer,
            LogicStyle::PgMcml,
            SizingMetric::AreaDelay,
        );
        let cost = obj.eval(&[50e-6, 0.0]);
        assert!(cost >= INFEASIBLE_PENALTY);
    }

    #[test]
    fn cmos_width_scale_decodes_both_devices() {
        let obj =
            SizingObjective::per_cell(CellKind::Xor2, LogicStyle::Cmos, SizingMetric::PowerDelay);
        let base = CellParams::new();
        let s = obj.decode(&[2.0]);
        assert!((s.params.w_pair - base.w_pair * 2.0).abs() < 1e-18);
        assert!((s.params.w_load - base.w_load * 2.0).abs() < 1e-18);
    }
}
