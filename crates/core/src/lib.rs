//! # pg-mcml — Power-Gated MOS Current Mode Logic
//!
//! Top-level crate of the PG-MCML reproduction (Cevrero et al., DAC
//! 2011): a power-aware, DPA-resistant standard cell library and the
//! complete evaluation flow around it.
//!
//! The crate ties the substrates together behind a single façade:
//!
//! * [`flow::DesignFlow`] — synthesise → map → characterise → simulate →
//!   measure, with a cached [`mcml_char::TimingLibrary`];
//! * [`elaborate`] — expand a mapped gate-level netlist to a flat
//!   transistor-level circuit (differential fat wires included) for
//!   SPICE-grade simulation, as used by the transistor-level CPA tier;
//! * [`experiments`] — one driver per table/figure of the paper (Table 1,
//!   Table 2, Table 3, Fig. 3, Fig. 5, Fig. 6), shared by the examples
//!   and the benchmark binaries.
//!
//! # Quick start
//!
//! ```no_run
//! use pg_mcml::prelude::*;
//!
//! // Characterise the PG-MCML buffer and inspect the headline numbers.
//! let params = CellParams::default();
//! let t = mcml_char::characterize_cell(CellKind::Buffer, LogicStyle::PgMcml, &params)?;
//! println!("delay {:.1} ps, awake {:.1} µW, asleep {:.3} nW",
//!          t.delay_fo1_ps, t.static_power_w * 1e6, t.leakage_sleep_w * 1e9);
//! # Ok::<(), mcml_spice::SpiceError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod elaborate;
pub mod experiments;
pub mod flow;

/// Convenient re-exports of the most used types across the workspace.
pub mod prelude {
    pub use mcml_aes::{Aes128, ReducedAes};
    pub use mcml_cells::{
        build_cell, cell_area_um2, BiasPoint, CellKind, CellParams, DriveStrength, LogicStyle,
        SleepTopology,
    };
    pub use mcml_char::{characterize_cell, CellTiming, TimingLibrary};
    pub use mcml_dpa::{cpa_attack_par, key_rank, HammingWeight, TraceSet};
    pub use mcml_netlist::{map_network, BoolNetwork, Netlist, TechmapOptions};
    pub use mcml_sim::{circuit_current, EventSim, Stimulus};
    pub use mcml_spice::{Circuit, SourceWave, TranOptions, Waveform};

    pub use crate::elaborate::{checked_elaborate, elaborate};
    pub use crate::flow::DesignFlow;
    pub use mcml_exec::Parallelism;
    pub use mcml_lint::{LintConfig, LintEngine, LintReport};
}

pub use flow::DesignFlow;
pub use mcml_exec::Parallelism;
