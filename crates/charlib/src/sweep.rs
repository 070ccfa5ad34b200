//! The Fig. 3 bias-current design-space sweep.
//!
//! Fig. 3 (a): buffer delay vs tail current for FO1 and FO4 loads — delay
//! falls with `Iss` but saturates above ≈250 µA. Fig. 3 (b): power–delay
//! and area–delay products vs `Iss` — the area–delay product has its
//! minimum near 50 µA, which the library adopts as its design point.

use mcml_cells::{cell_area_um2, CellKind, CellParams, DriveStrength, LogicStyle};
use mcml_exec::Parallelism;
use serde::{Deserialize, Serialize};

use crate::measure::measure_delay;
use crate::Result;

/// One point of the bias sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BiasSweepPoint {
    /// Tail current (A).
    pub iss: f64,
    /// Buffer FO1 delay (ps).
    pub delay_fo1_ps: f64,
    /// Buffer FO4 delay (ps).
    pub delay_fo4_ps: f64,
    /// Static power `Vdd · Iss` (W).
    pub power_w: f64,
    /// Power–delay product at FO4 (J).
    pub pdp_j: f64,
    /// Area–delay product at FO4 (µm²·ps).
    pub adp_um2_ps: f64,
}

/// Estimated buffer area as a function of tail current (µm²). Only the
/// current-carrying diffusion columns (tail, sleep, pairs — about a
/// quarter of the buffer layout) scale with `Iss`; the loads, wells,
/// routing channels and rails are fixed. Anchored to the published
/// layout at the 50 µA design point.
#[must_use]
pub fn area_vs_iss_um2(iss: f64) -> f64 {
    let base = cell_area_um2(CellKind::Buffer, LogicStyle::PgMcml, DriveStrength::X1);
    base * (0.75 + 0.25 * iss / 50e-6)
}

/// Run the Fig. 3 sweep at the given tail currents. Each bias point is an
/// independent pair of delay transients; points are computed across
/// `par`'s worker pool and returned in the input current order, identical
/// to the serial loop.
///
/// # Errors
///
/// Propagates simulator errors from the delay measurements; a sweep
/// current that is not finite and positive is rejected as
/// [`mcml_spice::SpiceError::InvalidParameter`] before any simulation
/// runs (the optimizer feeds machine-generated currents through here).
pub fn bias_sweep_par(
    params: &CellParams,
    currents: &[f64],
    par: Parallelism,
) -> Result<Vec<BiasSweepPoint>> {
    let _span = mcml_obs::span(mcml_obs::Stage::BiasSweep);
    if let Some(bad) = currents.iter().find(|i| !(i.is_finite() && **i > 0.0)) {
        return Err(mcml_spice::SpiceError::InvalidParameter {
            element: "bias sweep".to_owned(),
            reason: format!("sweep current must be finite and positive, got {bad:e}"),
        });
    }
    mcml_obs::add(mcml_obs::Counter::SweepPoints, currents.len() as u64);
    mcml_exec::parallel_map_items(par, currents, |&iss| {
        let p = params.with_iss(iss);
        let d1 = measure_delay(CellKind::Buffer, LogicStyle::PgMcml, &p, 1)?;
        let d4 = measure_delay(CellKind::Buffer, LogicStyle::PgMcml, &p, 4)?;
        let power = p.tech.vdd * iss;
        let delay4 = d4.avg();
        Ok(BiasSweepPoint {
            iss,
            delay_fo1_ps: d1.avg_ps(),
            delay_fo4_ps: d4.avg_ps(),
            power_w: power,
            pdp_j: power * delay4,
            adp_um2_ps: area_vs_iss_um2(iss) * d4.avg_ps(),
        })
    })
    .into_iter()
    .collect()
}

/// Default sweep currents (A) covering the paper's 10–400 µA range.
#[must_use]
pub fn default_sweep_currents() -> Vec<f64> {
    [10.0, 20.0, 35.0, 50.0, 75.0, 100.0, 150.0, 250.0, 400.0]
        .iter()
        .map(|u| u * 1e-6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_decreases_with_iss_and_saturates() {
        let params = CellParams::default();
        let pts = bias_sweep_par(
            &params,
            &[10e-6, 50e-6, 250e-6, 400e-6],
            Parallelism::from_env(),
        )
        .unwrap();
        // Monotone decreasing FO4 delay.
        for w in pts.windows(2) {
            assert!(
                w[1].delay_fo4_ps < w[0].delay_fo4_ps * 1.02,
                "delay should not grow with Iss: {} -> {}",
                w[0].delay_fo4_ps,
                w[1].delay_fo4_ps
            );
        }
        // Saturation: the 250→400 µA gain is a small fraction of the
        // 10→50 µA gain.
        let early = pts[0].delay_fo4_ps - pts[1].delay_fo4_ps;
        let late = pts[2].delay_fo4_ps - pts[3].delay_fo4_ps;
        assert!(
            late < 0.35 * early,
            "speed-up saturates: early {early} ps vs late {late} ps"
        );
    }

    #[test]
    fn fo4_slower_than_fo1_everywhere() {
        let params = CellParams::default();
        let pts = bias_sweep_par(&params, &[20e-6, 100e-6], Parallelism::from_env()).unwrap();
        for p in &pts {
            assert!(p.delay_fo4_ps > p.delay_fo1_ps);
        }
    }

    #[test]
    fn adp_has_interior_minimum_near_50ua() {
        let params = CellParams::default();
        let currents = [10e-6, 25e-6, 50e-6, 100e-6, 250e-6];
        let pts = bias_sweep_par(&params, &currents, Parallelism::from_env()).unwrap();
        let min_idx = pts
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.adp_um2_ps.partial_cmp(&b.1.adp_um2_ps).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx != 0 && min_idx != pts.len() - 1,
            "ADP minimum must be interior, got index {min_idx}: {:?}",
            pts.iter().map(|p| p.adp_um2_ps).collect::<Vec<_>>()
        );
        let i_opt = pts[min_idx].iss;
        assert!(
            (2e-5..=1.2e-4).contains(&i_opt),
            "optimum {i_opt} should be near 50 µA"
        );
    }

    #[test]
    fn area_model_monotone() {
        assert!(area_vs_iss_um2(100e-6) > area_vs_iss_um2(50e-6));
        let a50 = area_vs_iss_um2(50e-6);
        let table = cell_area_um2(CellKind::Buffer, LogicStyle::PgMcml, DriveStrength::X1);
        assert!((a50 - table).abs() < 1e-9, "anchored at the 50 µA layout");
    }
}

/// Characterise the buffer across global process corners in the given
/// style: returns `(corner, FO4 delay ps, static power W)` rows. Corners
/// are independent bias solves + transients on `par`'s worker pool; rows
/// come back in `Corner::ALL` order regardless of scheduling.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn corner_sweep_par(
    params: &CellParams,
    style: LogicStyle,
    par: Parallelism,
) -> Result<Vec<(mcml_cells::Corner, f64, f64)>> {
    use mcml_cells::Corner;
    let _span = mcml_obs::span(mcml_obs::Stage::CornerSweep);
    let corners: Vec<Corner> = Corner::ALL.into_iter().collect();
    mcml_obs::add(mcml_obs::Counter::SweepPoints, corners.len() as u64);
    mcml_exec::parallel_map_items(par, &corners, |&corner| {
        let p = CellParams {
            corner,
            ..params.clone()
        };
        let d = measure_delay(CellKind::Buffer, style, &p, 4)?;
        let s = crate::measure::measure_static_power(CellKind::Buffer, style, &p, &[true])?;
        Ok((corner, d.avg_ps(), s))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod corner_tests {
    use super::*;
    use mcml_cells::Corner;

    #[test]
    fn cmos_corners_order_ff_fastest_ss_slowest() {
        let rows = corner_sweep_par(
            &CellParams::default(),
            LogicStyle::Cmos,
            Parallelism::from_env(),
        )
        .unwrap();
        let get = |c: Corner| rows.iter().find(|r| r.0 == c).unwrap().1;
        let (ff, tt, ss) = (get(Corner::Ff), get(Corner::Tt), get(Corner::Ss));
        assert!(ff < tt && tt < ss, "CMOS: FF {ff} < TT {tt} < SS {ss}");
    }

    #[test]
    fn mcml_delay_is_corner_compensated() {
        // The differential style's known robustness (Tanabe et al.,
        // cited by the paper): re-solving Vn/Vp per corner pins the tail
        // current, so delay barely moves across corners while the CMOS
        // baseline swings much further.
        let pg = corner_sweep_par(
            &CellParams::default(),
            LogicStyle::PgMcml,
            Parallelism::from_env(),
        )
        .unwrap();
        let spread = |rows: &[(Corner, f64, f64)]| {
            let d: Vec<f64> = rows.iter().map(|r| r.1).collect();
            let max = d.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let min = d.iter().cloned().fold(f64::INFINITY, f64::min);
            (max - min) / ((max + min) / 2.0)
        };
        let pg_spread = spread(&pg);
        assert!(pg_spread < 0.15, "PG-MCML corner spread {pg_spread}");
        let cmos = corner_sweep_par(
            &CellParams::default(),
            LogicStyle::Cmos,
            Parallelism::from_env(),
        )
        .unwrap();
        assert!(
            spread(&cmos) > pg_spread,
            "CMOS spreads wider: {} vs {}",
            spread(&cmos),
            pg_spread
        );
        // Bias compensation also pins the static power near Vdd·Iss.
        for (c, _, p) in &pg {
            assert!(
                (*p - 60e-6).abs() < 15e-6,
                "{c}: static power {p} stays near Vdd·Iss"
            );
        }
    }
}
