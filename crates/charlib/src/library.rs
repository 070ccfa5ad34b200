//! The characterised timing library (a `.lib` equivalent).

use mcml_cells::{build_cell, cell_area_um2, CellKind, CellParams, DriveStrength, LogicStyle};
use mcml_exec::Parallelism;
use mcml_spice::Element;
use serde::{Deserialize, Serialize};

use crate::cache::{get_or_characterize, CharKey};

use crate::measure::{measure_delay, measure_sleep_leakage, measure_static_power, ToggleRun};
use crate::Result;

/// Characterised data for one cell in one style.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTiming {
    /// Which cell.
    pub kind: CellKind,
    /// Which style.
    pub style: LogicStyle,
    /// Drive strength.
    pub drive: DriveStrength,
    /// Layout area (µm²).
    pub area_um2: f64,
    /// Propagation delay at fan-out 1 (ps).
    pub delay_fo1_ps: f64,
    /// Propagation delay at fan-out 4 (ps).
    pub delay_fo4_ps: f64,
    /// Average input pin capacitance (fF).
    pub input_cap_ff: f64,
    /// Static supply power, awake and idle (W).
    pub static_power_w: f64,
    /// Sleep-mode leakage power (W); equals `static_power_w` for styles
    /// without a sleep pin.
    pub leakage_sleep_w: f64,
    /// Dynamic energy per output toggle (J); dominated by the load for
    /// CMOS, near zero marginal for MCML (constant-current operation).
    pub toggle_energy_j: f64,
}

impl CellTiming {
    /// Delay interpolated linearly in fan-out (ps).
    #[must_use]
    pub fn delay_ps(&self, fanout: f64) -> f64 {
        let slope = (self.delay_fo4_ps - self.delay_fo1_ps) / 3.0;
        (self.delay_fo1_ps + slope * (fanout - 1.0)).max(0.0)
    }
}

/// A characterised library over cells × styles.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimingLibrary {
    entries: Vec<CellTiming>,
}

impl TimingLibrary {
    /// Empty library.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) an entry.
    pub fn insert(&mut self, t: CellTiming) {
        self.entries
            .retain(|e| !(e.kind == t.kind && e.style == t.style && e.drive == t.drive));
        self.entries.push(t);
    }

    /// Look up a cell (X1 drive).
    #[must_use]
    pub fn get(&self, kind: CellKind, style: LogicStyle) -> Option<&CellTiming> {
        self.entries
            .iter()
            .find(|e| e.kind == kind && e.style == style && e.drive == DriveStrength::X1)
    }

    /// All entries.
    #[must_use]
    pub fn entries(&self) -> &[CellTiming] {
        &self.entries
    }

    /// Number of characterised entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the library is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Estimated input capacitance of a cell (average over input pins, F):
/// the sum of capacitor elements hanging off each input node, which with
/// parasitics enabled are exactly the device gate capacitances.
#[must_use]
pub fn input_capacitance(kind: CellKind, style: LogicStyle, params: &CellParams) -> f64 {
    let cell = build_cell(kind, style, params);
    let mut total = 0.0;
    let mut pins = 0usize;
    for name in kind.input_names() {
        let nodes: Vec<_> = if style.is_differential() {
            vec![
                cell.port(&format!("{name}_p")),
                cell.port(&format!("{name}_n")),
            ]
        } else {
            vec![cell.port(name)]
        };
        for node in nodes {
            pins += 1;
            for (_, _, e) in cell.circuit.elements() {
                if let Element::Capacitor { a, b, farads } = e {
                    if *a == node || *b == node {
                        total += farads;
                    }
                }
            }
        }
    }
    if pins == 0 {
        0.0
    } else {
        total / pins as f64
    }
}

/// Characterise one cell in one style (X1 drive, FO1 and FO4).
///
/// Results are memoised in the process-wide [`crate::cache`]: repeated
/// calls with a bit-identical `(kind, style, params)` triple — including
/// the corner carried inside `params` — return the cached [`CellTiming`]
/// without re-running any SPICE transient.
///
/// # Errors
///
/// Propagates simulator errors from any of the measurements.
pub fn characterize_cell(
    kind: CellKind,
    style: LogicStyle,
    params: &CellParams,
) -> Result<CellTiming> {
    get_or_characterize(CharKey::new(kind, style, params), || {
        characterize_cell_uncached(kind, style, params)
    })
}

/// Characterise one cell, bypassing (and not populating) the cache for
/// it. A sequential CMOS cell still reads the CMOS buffer's toggle
/// energy through [`characterize_cell`], which caches the buffer.
///
/// # Errors
///
/// Propagates simulator errors from any of the measurements.
pub fn characterize_cell_uncached(
    kind: CellKind,
    style: LogicStyle,
    params: &CellParams,
) -> Result<CellTiming> {
    let _span = mcml_obs::span(mcml_obs::Stage::Characterize);
    mcml_obs::incr(mcml_obs::Counter::CellsCharacterized);
    // A combinational cell's FO1 delay transient is also the CMOS
    // toggle-energy testbench, so the energy is read from it here, and
    // the run freed, before the next transient; an error in it surfaces
    // where the energy is used below.
    let (d1, fo1_energy) = if kind.is_sequential() {
        (measure_delay(kind, style, params, 1)?, None)
    } else {
        let run = ToggleRun::new(kind, style, params, 1)?;
        let energy = (style == LogicStyle::Cmos).then(|| run.dynamic_energy(params));
        (run.delay()?, energy)
    };
    let d4 = measure_delay(kind, style, params, 4)?;
    let idle_inputs = vec![true; kind.input_count()];
    let static_power = measure_static_power(kind, style, params, &idle_inputs)?;
    let leakage = if style.is_power_gated() {
        measure_sleep_leakage(kind, style, params)?
    } else {
        static_power
    };
    let toggle_energy = match (style, fo1_energy) {
        (LogicStyle::Cmos, Some(energy)) => energy?,
        // Sequential: approximate with the buffer's toggle energy scaled
        // by area; the event-driven power model only needs an order of
        // magnitude for sequential CMOS cells. The buffer's energy comes
        // from its cached characterisation, whose FO1 run already
        // measured it, so no toggle transient repeats here. The cache
        // computes outside its lock and waits on a buffer already in
        // flight, and a buffer never looks up a sequential cell, so the
        // nested lookup cannot deadlock.
        (LogicStyle::Cmos, None) => {
            characterize_cell(CellKind::Buffer, style, params)?.toggle_energy_j
                * (cell_area_um2(kind, style, DriveStrength::X1)
                    / cell_area_um2(CellKind::Buffer, style, DriveStrength::X1))
        }
        // MCML cells draw Iss regardless of switching; the marginal
        // switching energy is the load swing charge, tiny by comparison
        // and data-independent.
        _ => 0.0,
    };
    Ok(CellTiming {
        kind,
        style,
        drive: params.drive,
        area_um2: cell_area_um2(kind, style, params.drive),
        delay_fo1_ps: d1.avg_ps(),
        delay_fo4_ps: d4.avg_ps(),
        input_cap_ff: input_capacitance(kind, style, params) * 1e15,
        static_power_w: static_power,
        leakage_sleep_w: leakage,
        toggle_energy_j: toggle_energy,
    })
}

/// Characterise the full library: every cell in every requested style,
/// fanning independent cells across `par`'s worker pool.
///
/// Each `(style, cell)` pair is an independent set of SPICE runs, so they
/// are distributed over the worker pool; results are merged back in the
/// serial loop's style-major order, so the resulting [`TimingLibrary`] is
/// identical for any thread count.
///
/// # Errors
///
/// Propagates the first measurement failure (in deterministic
/// style-major, cell-minor order, matching the serial loop).
pub fn build_library_par(
    params: &CellParams,
    styles: &[LogicStyle],
    par: Parallelism,
) -> Result<TimingLibrary> {
    let jobs: Vec<(LogicStyle, CellKind)> = styles
        .iter()
        .flat_map(|&style| CellKind::ALL.into_iter().map(move |kind| (style, kind)))
        .collect();
    let results = mcml_exec::parallel_map_items(par, &jobs, |&(style, kind)| {
        characterize_cell(kind, style, params)
    });
    let mut lib = TimingLibrary::new();
    for timing in results {
        lib.insert(timing?);
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characterize_buffer_all_styles() {
        let params = CellParams::default();
        for style in LogicStyle::ALL {
            let t = characterize_cell(CellKind::Buffer, style, &params).unwrap();
            assert!(t.delay_fo1_ps > 0.0, "{style}: delay positive");
            assert!(t.delay_fo4_ps > t.delay_fo1_ps, "{style}: FO4 slower");
            assert!(t.area_um2 > 0.0);
            assert!(t.input_cap_ff > 0.01, "{style}: cap {}", t.input_cap_ff);
        }
    }

    #[test]
    fn pg_mcml_static_vs_leakage_headline() {
        // The paper's whole point: awake PG-MCML burns Vdd·Iss like MCML,
        // asleep it leaks orders of magnitude less.
        let params = CellParams::default();
        let t = characterize_cell(CellKind::Xor2, LogicStyle::PgMcml, &params).unwrap();
        assert!(t.static_power_w > 1e-5, "awake ≈ Vdd·Iss");
        assert!(
            t.leakage_sleep_w < t.static_power_w / 1e3,
            "asleep {} vs awake {}",
            t.leakage_sleep_w,
            t.static_power_w
        );
    }

    #[test]
    fn library_insert_and_lookup() {
        let params = CellParams::default();
        let t = characterize_cell(CellKind::Buffer, LogicStyle::Mcml, &params).unwrap();
        let mut lib = TimingLibrary::new();
        lib.insert(t.clone());
        lib.insert(t); // replace, not duplicate
        assert_eq!(lib.len(), 1);
        assert!(lib.get(CellKind::Buffer, LogicStyle::Mcml).is_some());
        assert!(lib.get(CellKind::Xor2, LogicStyle::Mcml).is_none());
    }

    #[test]
    fn delay_interpolation() {
        let t = CellTiming {
            kind: CellKind::Buffer,
            style: LogicStyle::PgMcml,
            drive: DriveStrength::X1,
            area_um2: 7.4,
            delay_fo1_ps: 20.0,
            delay_fo4_ps: 50.0,
            input_cap_ff: 1.0,
            static_power_w: 6e-5,
            leakage_sleep_w: 1e-9,
            toggle_energy_j: 0.0,
        };
        assert!((t.delay_ps(1.0) - 20.0).abs() < 1e-9);
        assert!((t.delay_ps(4.0) - 50.0).abs() < 1e-9);
        assert!((t.delay_ps(2.5) - 35.0).abs() < 1e-9);
    }

    #[test]
    fn input_cap_scales_with_drive() {
        let params = CellParams::default();
        let c1 = input_capacitance(CellKind::Buffer, LogicStyle::PgMcml, &params);
        let x4 = CellParams {
            drive: DriveStrength::X4,
            ..params
        };
        let c4 = input_capacitance(CellKind::Buffer, LogicStyle::PgMcml, &x4);
        assert!(c4 > 2.0 * c1, "X4 input cap {c4} vs X1 {c1}");
    }
}
