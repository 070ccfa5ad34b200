//! Per-style supply-current templates composed over switching activity.
//!
//! This is the fast "Nanosim tier" used for circuits too large for
//! transistor-level simulation (the full S-box ISE of Fig. 5 / Table 3,
//! and the 256×256-pair CPA sweep of Fig. 6). Each gate contributes a
//! current shaped by its characterised data and its style's physics:
//!
//! * **CMOS** — leakage floor plus a charge pulse on every output-rising
//!   toggle (plus a small short-circuit pulse on falling edges): strongly
//!   **data-dependent**, which is what CPA exploits;
//! * **MCML** — the constant `Iss` of every stage regardless of activity,
//!   plus a small toggle ripple whose magnitude is data-independent and a
//!   tiny residual mismatch asymmetry (the second-order effect that keeps
//!   real MCML only *almost* perfectly flat);
//! * **PG-MCML** — the MCML template multiplied by the sleep envelope:
//!   leakage floor asleep, exponential wake-up with an inrush pulse while
//!   the internal nodes recharge.
//!
//! ## Measuring the returned waveform
//!
//! [`circuit_current`] always returns a [`Waveform`] with at least two
//! samples, so the infallible `Waveform` measurements (`mean`, `max`,
//! `sample`, `integral_between`) are safe on it directly. Code that
//! first slices or resamples the trace (e.g. isolating one sleep
//! window) should use the fallible `Waveform::try_*` variants, which
//! return [`mcml_spice::SpiceError::EmptyWaveform`] instead of
//! panicking when the selection comes up empty.

use mcml_cells::{CellKind, LogicStyle, Technology};
use mcml_char::{CellTiming, TimingLibrary};
use mcml_netlist::{GateKind, Netlist};
use mcml_spice::Waveform;
use serde::{Deserialize, Serialize};

use crate::event::{Logic, SimTrace};

/// A sleep-signal waveform for the power model (`true` = awake).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SleepWave {
    /// Value before the first transition.
    pub initial: bool,
    /// Timed transitions.
    pub transitions: Vec<(f64, bool)>,
}

impl SleepWave {
    /// Always awake.
    #[must_use]
    pub fn always_on() -> Self {
        Self {
            initial: true,
            transitions: Vec::new(),
        }
    }

    /// Asleep except inside the given windows.
    #[must_use]
    pub fn awake_windows(windows: &[(f64, f64)]) -> Self {
        let mut transitions = Vec::new();
        for &(a, b) in windows {
            transitions.push((a, true));
            transitions.push((b, false));
        }
        transitions.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
        Self {
            initial: false,
            transitions,
        }
    }

    /// Value at time `t`.
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
}

/// Output sample interval of the composed current waveform (s).
pub const SAMPLE_DT: f64 = 10e-12;

/// Width of CMOS switching-current pulses (s).
const CMOS_PULSE_WIDTH: f64 = 60e-12;

/// Fraction of a rising-edge charge drawn as short-circuit current on
/// falling edges (CMOS).
const CMOS_SHORT_CIRCUIT: f64 = 0.15;

/// MCML toggle ripple, relative to the gate's bias current.
const MCML_RIPPLE: f64 = 0.02;

/// MCML residual data-dependent asymmetry (mismatch), relative to the
/// gate's bias current. Orders of magnitude below the CMOS signal.
const MCML_IMBALANCE: f64 = 0.002;

/// PG-MCML wake-up settling time constant (s).
const WAKE_TAU: f64 = 0.25e-9;

/// PG-MCML wake-up inrush charge, in units of `Iss · WAKE_TAU`.
const INRUSH: f64 = 0.8;

/// Slots of a per-gate-kind table: the 16 cells by discriminant, then
/// [`GateKind::Inv`].
pub(crate) const GATE_KINDS: usize = CellKind::ALL.len() + 1;

/// A gate kind's slot in a per-kind table.
pub(crate) fn kind_slot(kind: GateKind) -> usize {
    match kind {
        GateKind::Lib(k) => k as usize,
        GateKind::Inv => CellKind::ALL.len(),
    }
}

/// Each gate kind's library entry, looked up once per netlist instead of
/// once per gate or per event: the cells in the netlist's style, and the
/// CMOS buffer that times [`GateKind::Inv`].
pub(crate) struct KindTimings<'l>([Option<&'l CellTiming>; GATE_KINDS]);

impl<'l> KindTimings<'l> {
    pub(crate) fn new(lib: &'l TimingLibrary, style: LogicStyle) -> Self {
        let mut t = [None; GATE_KINDS];
        for k in CellKind::ALL {
            t[kind_slot(GateKind::Lib(k))] = lib.get(k, style);
        }
        t[kind_slot(GateKind::Inv)] = lib.get(CellKind::Buffer, LogicStyle::Cmos);
        Self(t)
    }

    pub(crate) fn get(&self, kind: GateKind) -> Option<&'l CellTiming> {
        self.0[kind_slot(kind)]
    }
}

/// Compose the circuit-level supply-current waveform for a simulated
/// activity trace.
///
/// `sleep` applies only to PG-MCML netlists (ignored otherwise); `None`
/// means always awake. Characterised powers and energies become currents
/// over the 90 nm supply, [`Technology::cmos90`]'s `vdd`.
///
/// The result spans `[0, trace.t_stop)` on a uniform [`SAMPLE_DT`] grid
/// with at least two samples, so the infallible [`Waveform`]
/// measurements can be applied to it directly; derived selections
/// (resampling, windowed integrals over possibly-empty ranges) should
/// go through the `Waveform::try_*` APIs, which report
/// [`mcml_spice::SpiceError::EmptyWaveform`] rather than panicking.
///
/// # Panics
///
/// Panics if a gate kind is missing from the library.
#[must_use]
pub fn circuit_current(
    nl: &Netlist,
    trace: &SimTrace,
    lib: &TimingLibrary,
    sleep: Option<&SleepWave>,
) -> Waveform {
    let _span = mcml_obs::span(mcml_obs::Stage::PowerModel);
    let vdd = Technology::cmos90().vdd;
    let n = ((trace.t_stop / SAMPLE_DT).ceil() as usize).max(2);
    let times: Vec<f64> = (0..n).map(|i| i as f64 * SAMPLE_DT).collect();
    let mut samples = vec![0.0f64; n];
    let style = nl.style;

    // --- static / envelope component -------------------------------
    let timings = KindTimings::new(lib, style);
    let mut static_current = 0.0; // awake
    let mut leak_current = 0.0; // asleep (PG) or same as static
    for g in nl.gates() {
        let t = timings
            .get(g.kind)
            .unwrap_or_else(|| panic!("library misses {} in {style}", g.kind));
        static_current += t.static_power_w / vdd;
        leak_current += t.leakage_sleep_w / vdd;
    }

    let default_sleep = SleepWave::always_on();
    let sleep = if style == LogicStyle::PgMcml {
        sleep.unwrap_or(&default_sleep)
    } else {
        &default_sleep
    };

    // Envelope: exponential approach to the awake/asleep level.
    if style.is_differential() {
        let mut level = if sleep.initial {
            static_current
        } else {
            leak_current
        };
        let mut target = level;
        let mut next_tr = 0usize;
        let alpha = 1.0 - (-SAMPLE_DT / WAKE_TAU).exp();
        for (i, &t) in times.iter().enumerate() {
            while next_tr < sleep.transitions.len() && sleep.transitions[next_tr].0 <= t {
                target = if sleep.transitions[next_tr].1 {
                    static_current
                } else {
                    leak_current
                };
                next_tr += 1;
            }
            level += (target - level) * alpha;
            samples[i] += level;
        }
        // Inrush pulses at wake edges.
        for &(tw, on) in &sleep.transitions {
            if on {
                let charge = INRUSH * static_current * WAKE_TAU;
                add_pulse(&mut samples, SAMPLE_DT, tw, 2.0 * WAKE_TAU, charge);
            }
        }
    } else {
        for s in &mut samples {
            *s += static_current;
        }
    }

    // --- switching component ----------------------------------------
    let driver = nl.driver_map();
    let mut last: Vec<Logic> = vec![Logic::X; trace.net_count];
    for tr in &trace.transitions {
        let net = tr.net as usize;
        let old = last[net];
        last[net] = tr.value;
        let (Some(gi), Some(old_b), Some(new_b)) = (
            driver.get(net).copied().flatten(),
            old.to_bool(),
            tr.value.to_bool(),
        ) else {
            continue;
        };
        if old_b == new_b {
            continue;
        }
        let timing = timings.get(nl.gates()[gi].kind).expect("checked above");
        match style {
            LogicStyle::Cmos => {
                let q_rise = timing.toggle_energy_j / vdd;
                let charge = if new_b {
                    q_rise
                } else {
                    q_rise * CMOS_SHORT_CIRCUIT
                };
                add_pulse(&mut samples, SAMPLE_DT, tr.time, CMOS_PULSE_WIDTH, charge);
            }
            LogicStyle::Mcml | LogicStyle::PgMcml => {
                // Skip switching detail while asleep — no bias current.
                if style == LogicStyle::PgMcml && !sleep.value_at(tr.time) {
                    continue;
                }
                let i_gate = timing.static_power_w / vdd;
                let width = (timing.delay_fo1_ps * 1e-12).max(SAMPLE_DT);
                // Data-independent ripple plus the tiny mismatch
                // asymmetry signed by the toggle direction.
                let ripple = MCML_RIPPLE * i_gate;
                let imbalance = MCML_IMBALANCE * i_gate * if new_b { 1.0 } else { -1.0 };
                add_pulse(
                    &mut samples,
                    SAMPLE_DT,
                    tr.time,
                    width,
                    (ripple + imbalance) * width,
                );
            }
        }
    }

    Waveform::new(times, samples)
}

/// Spread `charge` (A·s) as a rectangular pulse starting at `t0`.
fn add_pulse(samples: &mut [f64], dt: f64, t0: f64, width: f64, charge: f64) {
    if width <= 0.0 {
        return;
    }
    let height = charge / width;
    let start = (t0 / dt).floor().max(0.0) as usize;
    let end = (((t0 + width) / dt).ceil() as usize).min(samples.len());
    for i in start..end.min(samples.len()) {
        let bin_start = i as f64 * dt;
        let bin_end = bin_start + dt;
        let overlap = (bin_end.min(t0 + width) - bin_start.max(t0)).max(0.0);
        samples[i] += height * overlap / dt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventSim, Stimulus};
    use mcml_cells::DriveStrength;
    use mcml_netlist::{Conn, GateKind};

    fn test_lib(style: LogicStyle) -> TimingLibrary {
        let mut lib = TimingLibrary::new();
        for kind in CellKind::ALL {
            lib.insert(CellTiming {
                kind,
                style,
                drive: DriveStrength::X1,
                area_um2: 10.0,
                delay_fo1_ps: 40.0,
                delay_fo4_ps: 80.0,
                input_cap_ff: 1.0,
                static_power_w: match style {
                    LogicStyle::Cmos => 2e-9,
                    _ => 60e-6,
                },
                leakage_sleep_w: match style {
                    LogicStyle::PgMcml => 5e-9,
                    LogicStyle::Cmos => 2e-9,
                    LogicStyle::Mcml => 60e-6,
                },
                toggle_energy_j: 2e-15,
            });
        }
        // CMOS buffer needed for Inv timing lookups.
        if style != LogicStyle::Cmos {
            lib.insert(CellTiming {
                kind: CellKind::Buffer,
                style: LogicStyle::Cmos,
                drive: DriveStrength::X1,
                area_um2: 3.0,
                delay_fo1_ps: 25.0,
                delay_fo4_ps: 60.0,
                input_cap_ff: 1.0,
                static_power_w: 2e-9,
                leakage_sleep_w: 2e-9,
                toggle_energy_j: 2e-15,
            });
        }
        lib
    }

    fn xor_netlist(style: LogicStyle) -> Netlist {
        let mut nl = Netlist::new("x", style);
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let q = nl.add_net("q");
        nl.add_gate(
            "u",
            GateKind::Lib(CellKind::Xor2),
            vec![Conn::plain(a), Conn::plain(b)],
            vec![q],
        );
        nl.set_output("q", Conn::plain(q));
        nl
    }

    fn toggling_trace(style: LogicStyle, toggles: usize) -> (Netlist, SimTrace, TimingLibrary) {
        let nl = xor_netlist(style);
        let lib = test_lib(style);
        let sim = EventSim::new(&nl, &lib);
        let mut st = Stimulus::new();
        st.at(0.0, "a", false).at(0.0, "b", false);
        for i in 0..toggles {
            st.at(1e-9 + i as f64 * 1e-9, "a", i % 2 == 0);
        }
        let trace = sim.run(&st, 10e-9);
        (nl, trace, lib)
    }

    #[test]
    fn cmos_pulses_on_toggles() {
        let (nl, trace, lib) = toggling_trace(LogicStyle::Cmos, 4);
        let i = circuit_current(&nl, &trace, &lib, None);
        // Quiet baseline ≈ leakage.
        let leak = 2e-9 / 1.2;
        assert!((i.sample(0.5e-9) - leak).abs() < leak, "baseline near leak");
        // Peak during toggles far above leakage.
        assert!(i.max() > 100.0 * leak, "switching peak {}", i.max());
    }

    #[test]
    fn cmos_average_scales_with_activity() {
        let (nl, t2, lib) = toggling_trace(LogicStyle::Cmos, 2);
        let (_, t8, _) = toggling_trace(LogicStyle::Cmos, 8);
        let i2 = circuit_current(&nl, &t2, &lib, None).mean();
        let i8 = circuit_current(&nl, &t8, &lib, None).mean();
        assert!(i8 > 2.0 * i2, "more toggles, more average current");
    }

    #[test]
    fn mcml_current_is_nearly_flat() {
        let (nl, trace, lib) = toggling_trace(LogicStyle::Mcml, 6);
        let i = circuit_current(&nl, &trace, &lib, None);
        let mean = i.mean();
        let expect = 60e-6 / 1.2;
        assert!(
            (mean / expect - 1.0).abs() < 0.05,
            "mean {mean} vs Iss {expect}"
        );
        // Fluctuation bounded by the ripple model.
        assert!(
            i.max() / mean < 1.1,
            "flat-ish: max/mean {}",
            i.max() / mean
        );
        assert!(i.min() / mean > 0.9);
    }

    #[test]
    fn pg_mcml_sleeps_and_wakes() {
        let (nl, trace, lib) = toggling_trace(LogicStyle::PgMcml, 4);
        let sleep = SleepWave::awake_windows(&[(4e-9, 7e-9)]);
        let i = circuit_current(&nl, &trace, &lib, Some(&sleep));
        let awake = 60e-6 / 1.2;
        let asleep = 5e-9 / 1.2;
        assert!(i.sample(2e-9) < 20.0 * asleep, "asleep: {}", i.sample(2e-9));
        assert!(
            i.sample(6e-9) > 0.8 * awake,
            "awake plateau: {}",
            i.sample(6e-9)
        );
        assert!(i.sample(9.5e-9) < 0.1 * awake, "back asleep");
        // The wake edge shows the inrush + settle within ~1 ns.
        assert!(
            i.sample(4.2e-9) > 0.3 * awake,
            "waking at 4.2 ns: {}",
            i.sample(4.2e-9)
        );
    }

    #[test]
    fn mcml_vs_cmos_data_dependence() {
        // The defining property: CMOS current depends on the data,
        // MCML's barely does. Compare current when the XOR toggles
        // against when it stays put.
        for (style, expect_ratio) in [(LogicStyle::Cmos, 5.0), (LogicStyle::Mcml, 1.05)] {
            let nl = xor_netlist(style);
            let lib = test_lib(style);
            let sim = EventSim::new(&nl, &lib);
            // Case 1: output toggles.
            let mut st1 = Stimulus::new();
            st1.at(0.0, "a", false).at(0.0, "b", false);
            st1.at(2e-9, "a", true);
            let tr1 = sim.run(&st1, 4e-9);
            // Case 2: both inputs toggle together; output stays 0 (but
            // input nets still switch).
            let mut st2 = Stimulus::new();
            st2.at(0.0, "a", false).at(0.0, "b", false);
            let tr2 = sim.run(&st2, 4e-9);
            let e1 = circuit_current(&nl, &tr1, &lib, None).integral_between(1.9e-9, 2.5e-9);
            let e2 = circuit_current(&nl, &tr2, &lib, None).integral_between(1.9e-9, 2.5e-9);
            let ratio = e1 / e2.max(1e-18);
            if style == LogicStyle::Cmos {
                assert!(ratio > expect_ratio, "{style}: ratio {ratio}");
            } else {
                assert!(ratio < expect_ratio, "{style}: ratio {ratio}");
            }
        }
    }

    #[test]
    fn add_pulse_conserves_charge() {
        let mut s = vec![0.0; 100];
        let dt = 1e-12;
        add_pulse(&mut s, dt, 10.3e-12, 5e-12, 2e-15);
        let total: f64 = s.iter().map(|x| x * dt).sum();
        assert!((total - 2e-15).abs() < 1e-20, "charge {total}");
    }

    #[test]
    fn sleep_wave_windows() {
        let w = SleepWave::awake_windows(&[(1.0, 2.0), (5.0, 6.0)]);
        assert!(!w.value_at(0.5));
        assert!(w.value_at(1.5));
        assert!(!w.value_at(3.0));
        assert!(w.value_at(5.5));
        assert!(!w.value_at(7.0));
    }
}
