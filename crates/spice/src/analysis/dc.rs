//! DC operating-point analysis with gmin and source stepping.

use crate::analysis::engine::Engine;
use crate::circuit::{Circuit, ElementId, NodeId};
use crate::element::Element;
use crate::Result;

/// A solved DC operating point.
#[derive(Debug, Clone)]
pub struct OpPoint {
    pub(crate) x: Vec<f64>,
    pub(crate) n_node_unk: usize,
    pub(crate) branch_of_elem: Vec<Option<usize>>,
}

impl OpPoint {
    /// Node voltage (V).
    #[must_use]
    pub fn voltage(&self, node: NodeId) -> f64 {
        if node.is_ground() {
            0.0
        } else {
            self.x[node.index() - 1]
        }
    }

    /// Branch current of a voltage source (A), defined flowing from the
    /// positive terminal through the source; `None` for other elements.
    #[must_use]
    pub fn branch_current(&self, elem: ElementId) -> Option<f64> {
        self.branch_of_elem
            .get(elem.index())
            .copied()
            .flatten()
            .map(|b| self.x[self.n_node_unk + b])
    }

    /// Current delivered by a voltage source into the circuit (A): the
    /// negated branch current. For a supply rail this is the number the
    /// paper plots in Fig. 5.
    #[must_use]
    pub fn supply_current(&self, elem: ElementId) -> Option<f64> {
        self.branch_current(elem).map(|i| -i)
    }

    /// Raw solution vector (node voltages then branch currents).
    #[must_use]
    pub fn state(&self) -> &[f64] {
        &self.x
    }
}

pub(crate) fn branch_map(ckt: &Circuit) -> Vec<Option<usize>> {
    ckt.elements()
        .map(|(_, _, e)| match e {
            Element::Vsource { branch, .. } => Some(*branch),
            _ => None,
        })
        .collect()
}

/// Solve the DC operating point.
///
/// Tries plain Newton first, then gmin stepping, then source stepping —
/// the same continuation ladder real SPICE implementations use. The
/// Newton tolerances and budget are fixed for every analysis; sources
/// are evaluated at `t = 0`.
///
/// # Errors
///
/// Returns [`crate::SpiceError::NoConvergence`] if all strategies fail, or
/// [`crate::SpiceError::InvalidCircuit`] for an empty circuit.
pub fn dc_op(ckt: &Circuit) -> Result<OpPoint> {
    ckt.validate()?;
    let _span = mcml_obs::span(mcml_obs::Stage::DcOp);
    mcml_obs::incr(mcml_obs::Counter::DcSolves);
    // The dense LU up to `DENSE_LIMIT` unknowns, the sparse LU in natural
    // column order above it: bit for bit the factors the DC has always
    // used, because on bistable netlists the rounding picks the basin
    // (SOLVER.md §2).
    let mut engine = Engine::new_natural_order(ckt);
    // DC continuation sweeps voltages deliberately; the quiescent-device
    // bypass is a transient-only optimisation, so every solve passes a
    // zero bypass tolerance.
    // Sources at the transient's start time.
    let t = 0.0;

    let n_node_unk = engine.n_node_unk;
    let finish = |x: Vec<f64>| OpPoint {
        x,
        n_node_unk,
        branch_of_elem: branch_map(ckt),
    };

    // 1. Plain Newton from zero.
    let mut x = vec![0.0; engine.n_unk];
    if engine
        .solve_nr(&mut x, t, None, ckt.gmin, 1.0, 0.0, "dc")
        .is_ok()
    {
        return Ok(finish(x));
    }

    // 2. gmin stepping: sweep a large shunt conductance down to gmin.
    let mut x = vec![0.0; engine.n_unk];
    let mut ladder_ok = true;
    let mut g = 1e-3;
    while g > ckt.gmin {
        if engine.solve_nr(&mut x, t, None, g, 1.0, 0.0, "dc").is_err() {
            ladder_ok = false;
            break;
        }
        g /= 10.0;
    }
    if ladder_ok
        && engine
            .solve_nr(&mut x, t, None, ckt.gmin, 1.0, 0.0, "dc")
            .is_ok()
    {
        return Ok(finish(x));
    }

    // 3. Source stepping: ramp all independent sources from 0 to 100 %.
    let mut x = vec![0.0; engine.n_unk];
    let steps = 20;
    for k in 1..=steps {
        let scale = f64::from(k) / f64::from(steps);
        // Keep a mild gmin during the ramp for robustness.
        let g = if k < steps { 1e-9 } else { ckt.gmin };
        engine.solve_nr(&mut x, t, None, g, scale, 0.0, "dc")?;
    }
    Ok(finish(x))
}

impl Circuit {
    /// Solve the DC operating point.
    ///
    /// # Errors
    ///
    /// See [`dc_op`].
    pub fn dc_op(&self) -> Result<OpPoint> {
        dc_op(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWave;
    use mcml_device::{MosParams, Mosfet};

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.vsource("V", vin, Circuit::GND, SourceWave::dc(3.0));
        c.resistor("R1", vin, mid, 1.0e3);
        c.resistor("R2", mid, Circuit::GND, 2.0e3);
        let op = c.dc_op().unwrap();
        assert!((op.voltage(mid) - 2.0).abs() < 1e-6);
        assert!((op.voltage(vin) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn source_branch_current() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let v = c.vsource("V", vin, Circuit::GND, SourceWave::dc(1.0));
        c.resistor("R", vin, Circuit::GND, 1.0e3);
        let op = c.dc_op().unwrap();
        // 1 mA drawn: branch current (p through source to n) is −1 mA.
        assert!((op.branch_current(v).unwrap() + 1.0e-3).abs() < 1e-9);
        assert!((op.supply_current(v).unwrap() - 1.0e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        let n1 = c.node("n1");
        // 1 mA pushed from ground into n1.
        c.isource("I", Circuit::GND, n1, SourceWave::dc(1.0e-3));
        c.resistor("R", n1, Circuit::GND, 1.0e3);
        let op = c.dc_op().unwrap();
        assert!((op.voltage(n1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn nmos_diode_connected_operating_point() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
        c.resistor("R", vdd, d, 10.0e3);
        // Diode-connected NMOS: gate tied to drain.
        let m = Mosfet::nmos(MosParams::nmos_hvt_90(), 1.0e-6, 0.1e-6);
        c.mosfet("M1", d, d, Circuit::GND, Circuit::GND, m);
        let op = c.dc_op().unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.2 && vd < 1.0, "diode drop {vd}");
    }

    /// Static CMOS inverter with its input held at `vin`; returns the
    /// circuit and the output node.
    fn cmos_inverter(vin: f64) -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let input = c.node("in");
        let out = c.node("out");
        c.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(1.2));
        c.vsource("VIN", input, Circuit::GND, SourceWave::dc(vin));
        let n = Mosfet::nmos(MosParams::nmos_lvt_90(), 1.0e-6, 0.1e-6);
        let p = Mosfet::pmos(MosParams::pmos_lvt_90(), 2.0e-6, 0.1e-6);
        c.mosfet("MN", out, input, Circuit::GND, Circuit::GND, n);
        c.mosfet("MP", out, input, vdd, vdd, p);
        (c, out)
    }

    #[test]
    fn cmos_inverter_transfer_points() {
        // Static CMOS inverter: output inverts the rail.
        let (c_low, out) = cmos_inverter(0.0);
        let op = c_low.dc_op().unwrap();
        assert!(
            op.voltage(out) > 1.1,
            "low in -> high out: {}",
            op.voltage(out)
        );
        let (c_high, out) = cmos_inverter(1.2);
        let op = c_high.dc_op().unwrap();
        assert!(
            op.voltage(out) < 0.1,
            "high in -> low out: {}",
            op.voltage(out)
        );
    }

    #[test]
    fn inverter_vtc_has_gain_above_one() {
        // The voltage transfer curve, one operating point per input
        // level across the rail, must swing rail to rail, fall
        // monotonically and reach |gain| > 1.5 at the switching
        // threshold.
        let vin: Vec<f64> = (0..49).map(|k| 1.2 * f64::from(k) / 48.0).collect();
        let vout: Vec<f64> = vin
            .iter()
            .map(|&v| {
                let (c, out) = cmos_inverter(v);
                c.dc_op().unwrap().voltage(out)
            })
            .collect();
        assert!(vout[0] > 1.1, "output high at Vin=0");
        assert!(vout[48] < 0.1, "output low at Vin=Vdd");
        let gain = vin
            .windows(2)
            .zip(vout.windows(2))
            .map(|(x, y)| ((y[1] - y[0]) / (x[1] - x[0])).abs())
            .fold(0.0f64, f64::max);
        assert!(gain > 1.5, "regenerative gain {gain}");
        assert!(vout.windows(2).all(|p| p[1] <= p[0] + 1e-6), "monotone");
    }

    #[test]
    fn floating_node_held_by_gmin() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V", a, Circuit::GND, SourceWave::dc(1.0));
        c.resistor("R", a, b, 1.0e3);
        // `b` only connects through R; gmin to ground defines it.
        let op = c.dc_op().unwrap();
        assert!((op.voltage(b) - 1.0).abs() < 1e-3);
    }

    #[test]
    fn empty_circuit_rejected() {
        let c = Circuit::new();
        assert!(c.dc_op().is_err());
    }

    #[test]
    fn branch_current_none_for_non_source() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let r = c.resistor("R", a, Circuit::GND, 1.0);
        c.vsource("V", a, Circuit::GND, SourceWave::dc(1.0));
        let op = c.dc_op().unwrap();
        assert!(op.branch_current(r).is_none());
    }
}
