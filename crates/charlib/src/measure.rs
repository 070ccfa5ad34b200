//! Delay, power, leakage and wake-up measurements.

use mcml_cells::{CellKind, CellParams, LogicStyle};
use mcml_spice::{SpiceError, TranResult};

use crate::harness::{sensitizing_inputs, BuiltTestbench, LogicWave, Testbench};
use crate::Result;

/// A measured propagation delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayMeasurement {
    /// Output-rising propagation delay (s).
    pub rise: f64,
    /// Output-falling propagation delay (s).
    pub fall: f64,
}

impl DelayMeasurement {
    /// Average of rise and fall delays (s).
    #[must_use]
    pub fn avg(&self) -> f64 {
        0.5 * (self.rise + self.fall)
    }

    /// Average in picoseconds.
    #[must_use]
    pub fn avg_ps(&self) -> f64 {
        self.avg() * 1e12
    }
}

/// Measure propagation delay of a cell at the given fan-out.
///
/// Combinational cells: the first sensitisable input is pulsed and the
/// 50 %-to-50 % (differential zero-crossing) delay extracted for both
/// edges. Sequential cells: clock-to-Q via a two-edge capture script.
///
/// # Errors
///
/// Propagates simulator errors; reports [`SpiceError::InvalidCircuit`] if
/// no crossing could be extracted.
pub fn measure_delay(
    kind: CellKind,
    style: LogicStyle,
    params: &CellParams,
    fanout: usize,
) -> Result<DelayMeasurement> {
    if kind.is_sequential() {
        measure_clk_to_q(kind, style, params, fanout)
    } else {
        ToggleRun::new(kind, style, params, fanout)?.delay()
    }
}

fn missing(what: &str) -> SpiceError {
    SpiceError::InvalidCircuit(format!("measurement failed: {what}"))
}

/// The toggle testbench shared by the combinational delay and the CMOS
/// dynamic energy: the first sensitisable input pulses up at
/// [`ToggleRun::T_RISE`] and down at [`ToggleRun::T_FALL`] while the
/// others hold their sensitising values, and the output drives `fanout`
/// loads.
pub(crate) struct ToggleRun {
    kind: CellKind,
    active: usize,
    inverting: bool,
    built: BuiltTestbench,
    res: TranResult,
}

impl ToggleRun {
    const T_RISE: f64 = 1.0e-9;
    const T_FALL: f64 = 2.5e-9;

    /// Build and simulate the testbench.
    pub(crate) fn new(
        kind: CellKind,
        style: LogicStyle,
        params: &CellParams,
        fanout: usize,
    ) -> Result<Self> {
        let (active, statics) = (0..kind.input_count())
            .find_map(|i| sensitizing_inputs(kind, i).map(|s| (i, s)))
            .ok_or_else(|| missing("no sensitisable input"))?;
        // Non-inverting sensitisation guaranteed preferred; detect polarity.
        let mut probe = statics.clone();
        probe[active] = true;
        let inverting = !kind.eval_comb(&probe).expect("combinational")[0];

        let mut tb = Testbench::new(kind, style, params);
        for (i, &v) in statics.iter().enumerate() {
            tb.set_input(i, v);
        }
        tb.set_input_wave(active, LogicWave::pulse(Self::T_RISE, Self::T_FALL));
        tb.set_fanout(fanout);
        let (built, res) = tb.run(4.0e-9, 4.0e-12)?;
        Ok(Self {
            kind,
            active,
            inverting,
            built,
            res,
        })
    }

    /// The 50 %-to-50 % (differential zero-crossing) delay of both
    /// output edges.
    pub(crate) fn delay(&self) -> Result<DelayMeasurement> {
        let (kind, built, res) = (self.kind, &self.built, &self.res);
        let (t_rise, t_fall) = (Self::T_RISE, Self::T_FALL);
        let inp = built.signal(res, kind.input_names()[self.active]);
        let out = built.signal(res, kind.output_names()[0]);
        let lvl_in = built.switch_level_for(kind.input_names()[self.active]);
        let lvl_out = built.switch_level_for(kind.output_names()[0]);

        let t_in_rise = inp
            .first_crossing_after(lvl_in, true, t_rise - 0.2e-9)
            .ok_or_else(|| missing("input rise crossing"))?;
        let t_in_fall = inp
            .first_crossing_after(lvl_in, false, t_fall - 0.2e-9)
            .ok_or_else(|| missing("input fall crossing"))?;
        let (out_dir_first, out_dir_second) = if self.inverting {
            (false, true)
        } else {
            (true, false)
        };
        let t_out_1 = out
            .first_crossing_after(lvl_out, out_dir_first, t_in_rise)
            .ok_or_else(|| missing("output first crossing"))?;
        let t_out_2 = out
            .first_crossing_after(lvl_out, out_dir_second, t_in_fall)
            .ok_or_else(|| missing("output second crossing"))?;

        // `rise` = delay of the output-rising transition.
        let (rise, fall) = if self.inverting {
            (t_out_2 - t_in_fall, t_out_1 - t_in_rise)
        } else {
            (t_out_1 - t_in_rise, t_out_2 - t_in_fall)
        };
        Ok(DelayMeasurement { rise, fall })
    }

    /// Supply charge of the input pulse times Vdd (J), with the quiet
    /// pre-edge baseline subtracted.
    pub(crate) fn dynamic_energy(&self, params: &CellParams) -> Result<f64> {
        let (t_rise, t_fall) = (Self::T_RISE, Self::T_FALL);
        let i = self.built.supply_current(&self.res);
        // Baseline: average current in the quiet pre-edge window.
        let baseline = i.try_mean_between(0.2e-9, 0.8e-9)?;
        let window = i.try_integral_between(t_rise - 0.1e-9, t_fall - 0.1e-9)?
            - baseline * (t_fall - t_rise);
        Ok((window * params.tech.vdd).abs())
    }
}

fn measure_clk_to_q(
    kind: CellKind,
    style: LogicStyle,
    params: &CellParams,
    fanout: usize,
) -> Result<DelayMeasurement> {
    // Clock script: edge 1 captures 0, edge 2 captures 1 (rise
    // measurement), edge 3 captures 0 again (fall measurement).
    let clk = LogicWave::script(
        false,
        vec![
            (1.0e-9, true),
            (1.8e-9, false),
            (2.6e-9, true),
            (3.4e-9, false),
            (4.2e-9, true),
            (5.0e-9, false),
        ],
    );
    let d = LogicWave::script(false, vec![(2.1e-9, true), (3.7e-9, false)]);

    let names = kind.input_names();
    let clk_idx = names
        .iter()
        .position(|&n| n == "clk")
        .ok_or_else(|| missing("no clk input"))?;
    let d_idx = names
        .iter()
        .position(|&n| n == "d")
        .ok_or_else(|| missing("no d input"))?;

    let mut tb = Testbench::new(kind, style, params);
    tb.set_input_wave(clk_idx, clk);
    tb.set_input_wave(d_idx, d);
    // Reset inactive, enable active where present.
    if let Some(r) = names.iter().position(|&n| n == "rst") {
        tb.set_input(r, false);
    }
    if let Some(e) = names.iter().position(|&n| n == "en") {
        tb.set_input(e, true);
    }
    tb.set_fanout(fanout);
    let (built, res) = tb.run(5.5e-9, 4.0e-12)?;

    let clk_sig = built.signal(&res, "clk");
    let q = built.signal(&res, "q");
    let lvl = built.switch_level_for("clk");
    let lvl_q = built.switch_level_for("q");

    let clk_edge2 = clk_sig
        .first_crossing_after(lvl, true, 2.4e-9)
        .ok_or_else(|| missing("clk edge 2"))?;
    let q_rise = q
        .first_crossing_after(lvl_q, true, clk_edge2)
        .ok_or_else(|| missing("q rise"))?;
    let clk_edge3 = clk_sig
        .first_crossing_after(lvl, true, 4.0e-9)
        .ok_or_else(|| missing("clk edge 3"))?;
    let q_fall = q
        .first_crossing_after(lvl_q, false, clk_edge3)
        .ok_or_else(|| missing("q fall"))?;

    Ok(DelayMeasurement {
        rise: q_rise - clk_edge2,
        fall: q_fall - clk_edge3,
    })
}

/// Static (idle) supply power with the given constant inputs, awake (W).
///
/// Sequential cells are *settled through a clock edge first*: their DC
/// operating point sits at the metastable midpoint of the storage loop
/// (a huge, fictitious shoot-through current in CMOS), so the idle power
/// is read from the tail of a short transient instead.
///
/// # Errors
///
/// Propagates simulator convergence failures.
pub fn measure_static_power(
    kind: CellKind,
    style: LogicStyle,
    params: &CellParams,
    inputs: &[bool],
) -> Result<f64> {
    let mut tb = Testbench::new(kind, style, params);
    for (i, &v) in inputs.iter().enumerate() {
        tb.set_input(i, v);
    }
    if kind.is_sequential() {
        let clk_idx = kind
            .input_names()
            .iter()
            .position(|&n| n == "clk")
            .ok_or_else(|| missing("sequential cell has no clk pin"))?;
        tb.set_input_wave(
            clk_idx,
            LogicWave::script(false, vec![(0.5e-9, true), (1.5e-9, false)]),
        );
        let (built, res) = tb.run(4.0e-9, 5.0e-12)?;
        let i = built
            .supply_current(&res)
            .try_mean_between(3.0e-9, 4.0e-9)?;
        return Ok(i * params.tech.vdd);
    }
    let built = tb.build()?;
    let op = built.ckt.dc_op()?;
    let i = op
        .supply_current(built.vdd_src)
        .ok_or_else(|| missing("no vdd supply current"))?;
    Ok(i * params.tech.vdd)
}

/// Sleep-mode leakage power of a power-gated cell (W). Only meaningful
/// for `LogicStyle::PgMcml` (other styles have no sleep pin — the
/// function then returns the same value as static power).
///
/// # Errors
///
/// Propagates DC convergence failures.
pub fn measure_sleep_leakage(
    kind: CellKind,
    style: LogicStyle,
    params: &CellParams,
) -> Result<f64> {
    let mut tb = Testbench::new(kind, style, params);
    tb.set_sleep(LogicWave::constant(false));
    let built = tb.build()?;
    let op = built.ckt.dc_op()?;
    let i = op
        .supply_current(built.vdd_src)
        .ok_or_else(|| missing("no vdd supply current"))?;
    Ok(i * params.tech.vdd)
}

/// Wake-up time of a power-gated cell (s): sleep asserted at t=0, the
/// sleep pin rises at `t_wake`, and we measure until the output
/// differential reaches 90 % of its final value.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn measure_wakeup(kind: CellKind, params: &CellParams) -> Result<f64> {
    let t_wake = 1.0e-9;
    let mut tb = Testbench::new(kind, LogicStyle::PgMcml, params);
    // Drive logical 1 so the awake output is well-defined.
    for i in 0..kind.input_count() {
        tb.set_input(i, true);
    }
    tb.set_sleep(LogicWave::script(false, vec![(t_wake, true)]));
    let (built, res) = tb.run(4.0e-9, 4.0e-12)?;
    let out = built.signal(&res, kind.output_names()[0]);
    let v_final = out.last_value();
    let target = 0.9 * v_final;
    let t = out
        .first_crossing_after(target, v_final > 0.0, t_wake)
        .ok_or_else(|| missing("output never settled after wake"))?;
    Ok(t - t_wake)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pg_buffer_delay_in_expected_band() {
        let params = CellParams::default();
        let d = measure_delay(CellKind::Buffer, LogicStyle::PgMcml, &params, 1).unwrap();
        let ps = d.avg_ps();
        assert!(ps > 3.0 && ps < 200.0, "buffer FO1 delay {ps} ps");
    }

    #[test]
    fn fanout_increases_delay() {
        let params = CellParams::default();
        let d1 = measure_delay(CellKind::Buffer, LogicStyle::PgMcml, &params, 1)
            .unwrap()
            .avg();
        let d4 = measure_delay(CellKind::Buffer, LogicStyle::PgMcml, &params, 4)
            .unwrap()
            .avg();
        assert!(d4 > d1, "FO4 {d4} vs FO1 {d1}");
    }

    #[test]
    fn cmos_buffer_delay_measurable() {
        let params = CellParams::default();
        let d = measure_delay(CellKind::Buffer, LogicStyle::Cmos, &params, 1).unwrap();
        assert!(d.avg_ps() > 1.0 && d.avg_ps() < 300.0, "{} ps", d.avg_ps());
    }

    #[test]
    fn xor2_delay_exceeds_buffer() {
        let params = CellParams::default();
        let db = measure_delay(CellKind::Buffer, LogicStyle::PgMcml, &params, 1)
            .unwrap()
            .avg();
        let dx = measure_delay(CellKind::Xor2, LogicStyle::PgMcml, &params, 1)
            .unwrap()
            .avg();
        assert!(dx > db, "XOR2 {dx} vs buffer {db}");
    }

    #[test]
    fn dff_clk_to_q() {
        let params = CellParams::default();
        let d = measure_delay(CellKind::Dff, LogicStyle::PgMcml, &params, 1).unwrap();
        assert!(
            d.avg_ps() > 5.0 && d.avg_ps() < 400.0,
            "DFF clk-to-q {} ps",
            d.avg_ps()
        );
    }

    #[test]
    fn mcml_static_power_near_vdd_times_iss() {
        let params = CellParams::default();
        let p = measure_static_power(CellKind::Buffer, LogicStyle::Mcml, &params, &[true]).unwrap();
        let expect = params.tech.vdd * params.iss;
        assert!(
            p > 0.5 * expect && p < 2.0 * expect,
            "static {p} vs Vdd*Iss {expect}"
        );
    }

    #[test]
    fn pg_sleep_leakage_orders_below_static() {
        let params = CellParams::default();
        let awake =
            measure_static_power(CellKind::Buffer, LogicStyle::PgMcml, &params, &[true]).unwrap();
        let asleep = measure_sleep_leakage(CellKind::Buffer, LogicStyle::PgMcml, &params).unwrap();
        assert!(
            asleep < awake / 100.0,
            "sleep leakage {asleep} vs awake {awake}"
        );
    }

    #[test]
    fn cmos_static_power_is_leakage_only() {
        let params = CellParams::default();
        let p = measure_static_power(CellKind::Buffer, LogicStyle::Cmos, &params, &[true]).unwrap();
        let mcml =
            measure_static_power(CellKind::Buffer, LogicStyle::Mcml, &params, &[true]).unwrap();
        assert!(p < mcml / 50.0, "CMOS static {p} vs MCML {mcml}");
    }

    #[test]
    fn wakeup_time_sub_nanosecond() {
        let params = CellParams::default();
        let t = measure_wakeup(CellKind::Buffer, &params).unwrap();
        assert!(
            t > 1.0e-12 && t < 1.5e-9,
            "buffer wake-up {t} s should be a fraction of a cycle"
        );
    }

    #[test]
    fn cmos_dynamic_energy_positive() {
        let params = CellParams::default();
        let run = ToggleRun::new(CellKind::Buffer, LogicStyle::Cmos, &params, 1).unwrap();
        let e = run.dynamic_energy(&params).unwrap();
        assert!(e > 1e-18 && e < 1e-12, "toggle energy {e} J");
    }
}
