//! Transistor-level characterisation testbench.
//!
//! Wraps a generated cell with everything a measurement needs: supply,
//! solved bias rails, complementary input drivers at MCML or CMOS levels,
//! a sleep driver, and fan-out loads built from real buffer cells of the
//! same style (so FO4 means what it means on silicon).

use mcml_cells::{bias::try_solve_bias, build_cell, BiasPoint, CellKind, CellParams, LogicStyle};
use mcml_spice::{
    Circuit, ElementId, NodeId, SourceWave, SpiceError, TranOptions, TranResult, Waveform,
};

use crate::Result;

/// Edge time used for all digital drivers (s).
pub const DRIVER_EDGE: f64 = 20e-12;

/// A logic-level waveform: an initial value plus timed transitions. The
/// harness renders it at the correct electrical levels for each style
/// (and renders the complement for differential inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct LogicWave {
    initial: bool,
    transitions: Vec<(f64, bool)>,
}

impl LogicWave {
    /// Constant level.
    #[must_use]
    pub fn constant(value: bool) -> Self {
        Self {
            initial: value,
            transitions: Vec::new(),
        }
    }

    /// A single 0→1→0 pulse.
    ///
    /// # Panics
    ///
    /// Panics unless `rise < fall`.
    #[must_use]
    pub fn pulse(rise: f64, fall: f64) -> Self {
        assert!(rise < fall, "pulse must rise before it falls");
        Self {
            initial: false,
            transitions: vec![(rise, true), (fall, false)],
        }
    }

    /// An explicit transition script; times must be increasing.
    ///
    /// # Panics
    ///
    /// Panics if times are not strictly increasing.
    #[must_use]
    pub fn script(initial: bool, transitions: Vec<(f64, bool)>) -> Self {
        assert!(
            transitions.windows(2).all(|w| w[0].0 < w[1].0),
            "transition times must increase"
        );
        Self {
            initial,
            transitions,
        }
    }

    /// A clock starting low, with the first rising edge at `first_rise`
    /// and the given period, for `cycles` cycles.
    #[must_use]
    pub fn clock(first_rise: f64, period: f64, cycles: usize) -> Self {
        let mut transitions = Vec::with_capacity(cycles * 2);
        for c in 0..cycles {
            let t = first_rise + period * c as f64;
            transitions.push((t, true));
            transitions.push((t + period / 2.0, false));
        }
        Self {
            initial: false,
            transitions,
        }
    }

    /// Logical value at time `t`.
    #[must_use]
    pub fn value_at(&self, t: f64) -> bool {
        let mut v = self.initial;
        for &(tt, nv) in &self.transitions {
            if tt <= t {
                v = nv;
            } else {
                break;
            }
        }
        v
    }

    /// Render as a voltage source waveform between `v_lo` and `v_hi`;
    /// `invert` renders the complement.
    #[must_use]
    pub fn to_source(&self, v_lo: f64, v_hi: f64, invert: bool) -> SourceWave {
        let level = |b: bool| {
            if b != invert {
                v_hi
            } else {
                v_lo
            }
        };
        if self.transitions.is_empty() {
            return SourceWave::dc(level(self.initial));
        }
        let mut points = vec![(0.0, level(self.initial))];
        let mut prev = self.initial;
        for &(t, v) in &self.transitions {
            if v == prev {
                continue;
            }
            points.push((t, level(prev)));
            points.push((t + DRIVER_EDGE, level(v)));
            prev = v;
        }
        SourceWave::Pwl(points)
    }
}

/// Testbench configuration for one cell.
#[derive(Debug, Clone)]
pub struct Testbench {
    /// Cell under test.
    pub kind: CellKind,
    /// Logic style under test.
    pub style: LogicStyle,
    /// Electrical parameters (shared with the generated cell).
    pub params: CellParams,
    /// Per-input drive waveforms (indexed like
    /// [`CellKind::input_names`]).
    pub inputs: Vec<LogicWave>,
    /// Sleep-pin waveform (PG styles only; `true` = awake).
    pub sleep: LogicWave,
    /// Number of same-style buffer cells loading the first output.
    pub fanout: usize,
    /// Fixed interconnect capacitance on each output rail (F), modelling
    /// the routing every placed cell drives. Unlike the gate loads this
    /// does **not** scale with the cell's bias current — it is what makes
    /// low-Iss cells slow in Fig. 3 (a).
    pub wire_cap: f64,
}

/// Default output wiring load: ≈8 µm of minimum-pitch route per rail.
pub const DEFAULT_WIRE_CAP: f64 = 1.6e-15;

/// A constructed testbench ready for analysis.
pub struct BuiltTestbench {
    /// Complete circuit (cell + drivers + loads).
    pub ckt: Circuit,
    /// The embedded cell (for port lookup — its nodes are remapped, use
    /// [`BuiltTestbench::port`]).
    cell_ports: std::collections::HashMap<String, NodeId>,
    /// Supply source handle, for current probing.
    pub vdd_src: ElementId,
    /// Solved bias point (MCML styles).
    pub bias: Option<BiasPoint>,
    style: LogicStyle,
    v_lo: f64,
    v_hi: f64,
}

impl Testbench {
    /// A testbench with all inputs constant-low, sleep ON, no fan-out.
    #[must_use]
    pub fn new(kind: CellKind, style: LogicStyle, params: &CellParams) -> Self {
        let n = kind.input_count();
        Self {
            kind,
            style,
            params: params.clone(),
            inputs: vec![LogicWave::constant(false); n],
            sleep: LogicWave::constant(true),
            fanout: 0,
            wire_cap: DEFAULT_WIRE_CAP,
        }
    }

    /// Set a constant input value.
    pub fn set_input(&mut self, idx: usize, value: bool) -> &mut Self {
        self.inputs[idx] = LogicWave::constant(value);
        self
    }

    /// Set an input waveform.
    pub fn set_input_wave(&mut self, idx: usize, wave: LogicWave) -> &mut Self {
        self.inputs[idx] = wave;
        self
    }

    /// Set the sleep waveform.
    pub fn set_sleep(&mut self, wave: LogicWave) -> &mut Self {
        self.sleep = wave;
        self
    }

    /// Set the fan-out load (buffer cells of the same style).
    pub fn set_fanout(&mut self, n: usize) -> &mut Self {
        self.fanout = n;
        self
    }

    /// Logic levels `(v_lo, v_hi)` for this style's inputs.
    #[must_use]
    pub fn levels(&self) -> (f64, f64) {
        match self.style {
            LogicStyle::Cmos => (0.0, self.params.tech.vdd),
            _ => (self.params.v_low(), self.params.tech.vdd),
        }
    }

    /// Construct the simulation circuit.
    ///
    /// # Panics
    ///
    /// Panics on parameters that cannot be built or biased; use
    /// [`Testbench::try_build`] for machine-generated candidates.
    #[must_use]
    pub fn build(&self) -> BuiltTestbench {
        match self.try_build() {
            Ok(tb) => tb,
            Err(e) => panic!("testbench build failed: {e}"),
        }
    }

    /// Fallible [`Testbench::build`]: degenerate parameters (non-positive
    /// geometry, swing outside the supply, a tail current the sized
    /// devices cannot deliver) surface as
    /// [`SpiceError::InvalidParameter`] instead of a panic, so one
    /// infeasible candidate cannot kill a whole population evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::InvalidParameter`] when validation or the
    /// bias solve rejects the parameters.
    pub fn try_build(&self) -> Result<BuiltTestbench> {
        self.params
            .validate()
            .map_err(|reason| SpiceError::InvalidParameter {
                element: format!("{}/{}", self.kind, self.style),
                reason,
            })?;
        let cell = build_cell(self.kind, self.style, &self.params);
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vdd_v = self.params.tech.vdd;
        let vdd_src = ckt.vsource("VDD", vdd, Circuit::GND, SourceWave::dc(vdd_v));

        // Map the cell in, sharing the supply node.
        let mut connections = vec![(cell.port("vdd"), vdd)];
        let bias = if self.style.is_differential() {
            let b = try_solve_bias(&self.params).map_err(|e| SpiceError::InvalidParameter {
                element: format!("{}/{}", self.kind, self.style),
                reason: e.to_string(),
            })?;
            let vn = ckt.node("vn");
            let vp = ckt.node("vp");
            ckt.vsource("VN", vn, Circuit::GND, SourceWave::dc(b.vn));
            ckt.vsource("VP", vp, Circuit::GND, SourceWave::dc(b.vp));
            connections.push((cell.port("vn"), vn));
            connections.push((cell.port("vp"), vp));
            Some(b)
        } else {
            None
        };
        // Sleep pins (true = awake -> sleep node high).
        if cell.ports.contains_key("sleep") {
            let s = ckt.node("sleep");
            ckt.vsource(
                "VSLP",
                s,
                Circuit::GND,
                self.sleep.to_source(0.0, vdd_v, false),
            );
            connections.push((cell.port("sleep"), s));
        }
        if cell.ports.contains_key("sleep_b") {
            let sb = ckt.node("sleep_b");
            ckt.vsource(
                "VSLPB",
                sb,
                Circuit::GND,
                self.sleep.to_source(0.0, vdd_v, true),
            );
            connections.push((cell.port("sleep_b"), sb));
        }

        let node_map = ckt.instantiate("dut", &cell.circuit, &connections);
        let mapped = |n: NodeId| node_map[n.index()];
        let cell_ports: std::collections::HashMap<String, NodeId> = cell
            .ports
            .iter()
            .map(|(k, &v)| (k.clone(), mapped(v)))
            .collect();

        // Input drivers.
        let (v_lo, v_hi) = self.levels();
        for (i, name) in self.kind.input_names().iter().enumerate() {
            let wave = &self.inputs[i];
            if self.style.is_differential() {
                ckt.vsource(
                    &format!("VI_{name}_p"),
                    cell_ports[&format!("{name}_p")],
                    Circuit::GND,
                    wave.to_source(v_lo, v_hi, false),
                );
                ckt.vsource(
                    &format!("VI_{name}_n"),
                    cell_ports[&format!("{name}_n")],
                    Circuit::GND,
                    wave.to_source(v_lo, v_hi, true),
                );
            } else {
                ckt.vsource(
                    &format!("VI_{name}"),
                    cell_ports[*name],
                    Circuit::GND,
                    wave.to_source(0.0, vdd_v, false),
                );
            }
        }

        // Fan-out loads: real buffers of the same style. A single-ended
        // output on a differential cell (the Diff2Single converter) is by
        // construction headed for the CMOS host logic, so it gets CMOS
        // buffer loads.
        let out0 = self.kind.output_names()[0];
        let out_is_diff =
            self.style.is_differential() && cell_ports.contains_key(&format!("{out0}_p"));
        for f in 0..self.fanout {
            let load_style = if out_is_diff {
                self.style
            } else {
                LogicStyle::Cmos
            };
            let load = build_cell(CellKind::Buffer, load_style, &self.params);
            let mut conns = vec![(load.port("vdd"), ckt.node("vdd"))];
            if out_is_diff {
                conns.push((load.port("vn"), ckt.node("vn")));
                conns.push((load.port("vp"), ckt.node("vp")));
                conns.push((load.port("a_p"), cell_ports[&format!("{out0}_p")]));
                conns.push((load.port("a_n"), cell_ports[&format!("{out0}_n")]));
                if load.ports.contains_key("sleep") {
                    conns.push((load.port("sleep"), ckt.node("sleep")));
                }
                if load.ports.contains_key("sleep_b") {
                    conns.push((load.port("sleep_b"), ckt.node("sleep_b")));
                }
            } else {
                conns.push((load.port("a"), cell_ports[out0]));
            }
            ckt.instantiate(&format!("load{f}"), &load.circuit, &conns);
        }

        // Fixed interconnect load on every output rail.
        if self.wire_cap > 0.0 {
            for name in self.kind.output_names() {
                if self.style.is_differential() && cell_ports.contains_key(&format!("{name}_p")) {
                    for rail in ["p", "n"] {
                        ckt.capacitor(
                            &format!("CW_{name}_{rail}"),
                            cell_ports[&format!("{name}_{rail}")],
                            Circuit::GND,
                            self.wire_cap,
                        );
                    }
                } else {
                    ckt.capacitor(
                        &format!("CW_{name}"),
                        cell_ports[*name],
                        Circuit::GND,
                        self.wire_cap,
                    );
                }
            }
        }

        Ok(BuiltTestbench {
            ckt,
            cell_ports,
            vdd_src,
            bias,
            style: self.style,
            v_lo,
            v_hi,
        })
    }

    /// Build and run a transient analysis.
    ///
    /// # Errors
    ///
    /// Propagates simulator convergence errors and
    /// [`SpiceError::InvalidParameter`] from [`Testbench::try_build`].
    pub fn run(&self, t_stop: f64, dt: f64) -> Result<(BuiltTestbench, TranResult)> {
        let tb = self.try_build()?;
        let res = tb.ckt.transient(&TranOptions::new(t_stop, dt))?;
        Ok((tb, res))
    }
}

impl BuiltTestbench {
    /// Node of a cell port (post-instantiation).
    ///
    /// # Panics
    ///
    /// Panics for unknown ports.
    #[must_use]
    pub fn port(&self, name: &str) -> NodeId {
        *self
            .cell_ports
            .get(name)
            .unwrap_or_else(|| panic!("no cell port `{name}`"))
    }

    /// Logical signal waveform of a named cell pin: differential voltage
    /// `v_p − v_n` for MCML styles, node voltage for CMOS.
    #[must_use]
    pub fn signal(&self, res: &TranResult, name: &str) -> Waveform {
        if self.style.is_differential() && self.cell_ports.contains_key(&format!("{name}_p")) {
            let p = res.voltage(self.port(&format!("{name}_p")));
            let n = res.voltage(self.port(&format!("{name}_n")));
            p.add(&n.scaled(-1.0))
        } else {
            res.voltage(self.port(name))
        }
    }

    /// Switch threshold of a specific named pin: the differential zero
    /// when the pin is a rail pair, mid-rail for single-ended pins (e.g.
    /// the `Diff2Single` converter's full-swing output).
    #[must_use]
    pub fn switch_level_for(&self, name: &str) -> f64 {
        if self.style.is_differential() && self.cell_ports.contains_key(&format!("{name}_p")) {
            0.0
        } else if self.style.is_differential() {
            // Full-swing single-ended pin on a differential cell.
            0.5 * self.v_hi
        } else {
            0.5 * (self.v_lo + self.v_hi)
        }
    }

    /// Supply-current waveform (A, positive into the circuit).
    ///
    /// # Panics
    ///
    /// Panics if the supply element is missing (impossible for built
    /// testbenches).
    #[must_use]
    pub fn supply_current(&self, res: &TranResult) -> Waveform {
        res.supply_current(self.vdd_src).expect("vdd is a source")
    }
}

/// Find constant values for the non-active inputs such that toggling
/// input `active` toggles output 0, preferring the non-inverting
/// sensitisation. Returns `None` if the input cannot be sensitised.
#[must_use]
pub fn sensitizing_inputs(kind: CellKind, active: usize) -> Option<Vec<bool>> {
    let n = kind.input_count();
    let mut fallback = None;
    for pattern in 0..(1u32 << n) {
        let mut inputs: Vec<bool> = (0..n).map(|i| (pattern >> i) & 1 == 1).collect();
        inputs[active] = false;
        let f0 = kind.eval_comb(&inputs)?[0];
        inputs[active] = true;
        let f1 = kind.eval_comb(&inputs)?[0];
        if f0 != f1 {
            if f1 {
                return Some(inputs);
            }
            fallback.get_or_insert(inputs);
        }
    }
    fallback
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logic_wave_rendering() {
        let w = LogicWave::pulse(1e-9, 2e-9);
        let s = w.to_source(0.8, 1.2, false);
        assert_eq!(s.value(0.0), 0.8);
        assert_eq!(s.value(1.5e-9), 1.2);
        assert_eq!(s.value(3e-9), 0.8);
        let sc = w.to_source(0.8, 1.2, true);
        assert_eq!(sc.value(1.5e-9), 0.8, "complement");
        assert!(w.value_at(1.5e-9));
        assert!(!w.value_at(0.5e-9));
    }

    #[test]
    fn clock_wave_cycles() {
        let c = LogicWave::clock(1e-9, 2e-9, 2);
        assert!(!c.value_at(0.5e-9));
        assert!(c.value_at(1.5e-9));
        assert!(!c.value_at(2.5e-9));
        assert!(c.value_at(3.5e-9));
    }

    #[test]
    fn sensitization_and2() {
        // Toggling input 0 of AND2 needs b = 1.
        let s = sensitizing_inputs(CellKind::And2, 0).unwrap();
        assert!(s[1]);
        let s = sensitizing_inputs(CellKind::Mux2, 0).unwrap();
        assert!(!s[2], "select must choose d0");
    }

    #[test]
    fn sensitization_prefers_noninverting() {
        // XOR2 with b = 0 keeps q = a.
        let s = sensitizing_inputs(CellKind::Xor2, 0).unwrap();
        assert!(!s[1]);
    }

    #[test]
    fn sequential_has_no_sensitization() {
        assert!(sensitizing_inputs(CellKind::Dff, 0).is_none());
    }

    #[test]
    fn build_cmos_buffer_tb() {
        let params = CellParams::default();
        let tb = Testbench::new(CellKind::Buffer, LogicStyle::Cmos, &params);
        let built = tb.build();
        let op = built.ckt.dc_op().expect("tb converges");
        // Input low -> output low (non-inverting buffer).
        assert!(op.voltage(built.port("q")) < 0.1);
    }

    #[test]
    fn build_pg_buffer_tb_with_fanout() {
        let params = CellParams::default();
        let mut tb = Testbench::new(CellKind::Buffer, LogicStyle::PgMcml, &params);
        tb.set_input(0, true).set_fanout(4);
        let built = tb.build();
        assert!(built.bias.is_some());
        let op = built.ckt.dc_op().expect("tb converges");
        let q = op.voltage(built.port("q_p")) - op.voltage(built.port("q_n"));
        assert!(q > 0.2, "fanout-loaded buffer still swings: {q}");
    }

    #[test]
    #[should_panic(expected = "pulse must rise before it falls")]
    fn bad_pulse_panics() {
        let _ = LogicWave::pulse(2e-9, 1e-9);
    }
}
