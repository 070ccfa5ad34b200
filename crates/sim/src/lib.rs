//! # mcml-sim — event-driven gate simulation and current-template power
//!
//! The logic-simulation slice of the paper's flow: `ModelSim` runs the post-
//! P&R netlist with SDF back-annotation to produce the switching activity
//! (VCD), which then drives a fast transistor-level current estimation
//! (Nanosim). This crate mirrors both tiers, handing the activity over
//! in memory as a [`SimTrace`] instead of a VCD file:
//!
//! * [`event`] — a 3-valued event-driven simulator, compiled once per
//!   [`mcml_netlist::Netlist`], with per-output delays back-annotated
//!   from a characterised [`mcml_char::TimingLibrary`] (the SDF role);
//! * [`power`] — per-style supply-current templates composed over the
//!   activity trace: CMOS draws data-dependent charge pulses per toggle,
//!   MCML draws its constant `Iss` with small toggle ripple, PG-MCML
//!   additionally follows the sleep signal with leakage floors and
//!   wake-up transients — the fast equivalent of the paper's Fig. 5
//!   measurement.
//!
//! Simulate an XOR gate and check the event trace:
//!
//! ```
//! use mcml_cells::{CellKind, DriveStrength, LogicStyle};
//! use mcml_char::{CellTiming, TimingLibrary};
//! use mcml_netlist::{Conn, GateKind, Netlist};
//! use mcml_sim::{EventSim, Logic, Stimulus};
//!
//! let mut nl = Netlist::new("x", LogicStyle::Mcml);
//! let (a, b) = (nl.add_input("a"), nl.add_input("b"));
//! let q = nl.add_net("q");
//! nl.add_gate("u", GateKind::Lib(CellKind::Xor2),
//!             vec![Conn::plain(a), Conn::plain(b)], vec![q]);
//! nl.set_output("q", Conn::plain(q));
//!
//! let mut lib = TimingLibrary::new();
//! lib.insert(CellTiming {
//!     kind: CellKind::Xor2, style: LogicStyle::Mcml, drive: DriveStrength::X1,
//!     area_um2: 10.0, delay_fo1_ps: 40.0, delay_fo4_ps: 80.0, input_cap_ff: 1.0,
//!     static_power_w: 60e-6, leakage_sleep_w: 60e-6, toggle_energy_j: 2e-15,
//! });
//!
//! let sim = EventSim::new(&nl, &lib);
//! let mut st = Stimulus::new();
//! st.at(0.0, "a", false).at(0.0, "b", false).at(1e-9, "a", true);
//! let trace = sim.run(&st, 2e-9);
//! assert_eq!(trace.value_at(q, 2e-9), Logic::L1); // XOR(1, 0), 40 ps later
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod power;

pub use event::{EventSim, Logic, SimTrace, Stimulus};
pub use power::circuit_current;
