//! The design-flow façade: map, characterise (cached), simulate.

use mcml_cells::{CellKind, CellParams, LogicStyle};
use mcml_char::{characterize_cell, CellTiming, TimingLibrary};
use mcml_exec::Parallelism;
use mcml_lint::{LintEngine, LintReport};
use mcml_netlist::{
    build_sleep_tree, map_network, sleep_tree::SleepTreeOptions, BoolNetwork, GateKind, Netlist,
    SleepPlan, SleepTree, TechmapOptions,
};
use mcml_sim::power::SleepWave;
use mcml_sim::{circuit_current, EventSim, SimTrace, Stimulus};
use mcml_spice::Waveform;

/// Crate-level result alias.
pub type Result<T> = std::result::Result<T, mcml_spice::SpiceError>;

/// End-to-end flow driver with a lazily filled characterisation cache.
///
/// Characterising a cell runs several SPICE transients, so the flow
/// characterises each `(cell, style)` pair at most once and reuses the
/// result for mapping reports, event-simulation delays and power
/// templates.
pub struct DesignFlow {
    /// Electrical parameters for every generated cell.
    pub params: CellParams,
    /// Worker-pool size for characterisation and trace acquisition.
    /// Defaults to the `MCML_THREADS` environment setting (all cores when
    /// unset); every result is bit-identical whatever the value.
    pub parallelism: Parallelism,
    /// Static-analysis engine gating elaboration (set its `config`'s
    /// fan-out envelope or add waivers).
    pub lint: LintEngine,
    lib: TimingLibrary,
}

impl DesignFlow {
    /// A flow at the given cell parameters.
    #[must_use]
    pub fn new(params: CellParams) -> Self {
        Self {
            params,
            parallelism: Parallelism::from_env(),
            lint: LintEngine::with_default_rules(),
            lib: TimingLibrary::new(),
        }
    }

    /// The same flow restricted to the given worker-pool size.
    #[must_use]
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Insert an externally characterised timing into the flow's library.
    pub(crate) fn lib_insert(&mut self, t: CellTiming) {
        self.lib.insert(t);
    }

    /// Characterised timing of one cell (cached).
    ///
    /// # Errors
    ///
    /// Propagates simulator errors from characterisation.
    pub fn timing(&mut self, kind: CellKind, style: LogicStyle) -> Result<CellTiming> {
        if let Some(t) = self.lib.get(kind, style) {
            return Ok(t.clone());
        }
        let t = characterize_cell(kind, style, &self.params)?;
        self.lib.insert(t.clone());
        Ok(t)
    }

    /// Ensure every cell kind used by `nl` (plus the CMOS buffer, needed
    /// for inverter timing and sleep trees) is characterised; returns the
    /// library.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn library_for(&mut self, nl: &Netlist) -> Result<&TimingLibrary> {
        let mut kinds: Vec<CellKind> = nl
            .gates()
            .iter()
            .filter_map(|g| match g.kind {
                GateKind::Lib(k) => Some(k),
                GateKind::Inv => None,
            })
            .collect();
        kinds.sort_by_key(|k| k.table_name());
        kinds.dedup();
        let mut jobs: Vec<(CellKind, LogicStyle)> =
            kinds.into_iter().map(|k| (k, nl.style)).collect();
        jobs.push((CellKind::Buffer, LogicStyle::Cmos));
        jobs.retain(|&(k, s)| self.lib.get(k, s).is_none());
        // Independent cells fan out across the worker pool (each lands in
        // the process-wide characterization cache); inserts happen back on
        // this thread in job order, so the library contents are identical
        // to the serial loop's.
        let params = &self.params;
        let timings = mcml_exec::parallel_map_items(self.parallelism, &jobs, |&(k, s)| {
            characterize_cell(k, s, params)
        });
        for t in timings {
            self.lib.insert(t?);
        }
        Ok(&self.lib)
    }

    /// Access the characterisation cache.
    #[must_use]
    pub fn library(&self) -> &TimingLibrary {
        &self.lib
    }

    /// Map a boolean network onto the library in the given style, with
    /// the default mapper options.
    #[must_use]
    pub fn map(&self, bn: &BoolNetwork, style: LogicStyle) -> Netlist {
        map_network(bn, style, &TechmapOptions::default())
    }

    /// Lint a netlist with the flow's engine (pass the sleep plan when
    /// one exists to enable the sleep-domain rules). Whatever cells the
    /// flow has characterised so far feed the dataflow leakage score;
    /// uncharacterised cells fall back to the area proxy.
    #[must_use]
    pub fn lint_netlist(&self, nl: &Netlist, plan: Option<&SleepPlan>) -> LintReport {
        self.lint.lint_netlist_with_lib(nl, plan, &self.lib)
    }

    /// Elaborate a netlist to transistors behind the lint gate: a
    /// netlist with deny-severity diagnostics never reaches SPICE.
    ///
    /// # Errors
    ///
    /// [`mcml_spice::SpiceError::InvalidCircuit`] listing the deny
    /// diagnostics when the netlist fails lint.
    pub fn elaborate(&self, nl: &Netlist) -> Result<crate::elaborate::Elaborated> {
        crate::elaborate::checked_elaborate(nl, &self.params, &self.lint)
    }

    /// Event-simulate a netlist (characterising its cells on demand).
    ///
    /// # Errors
    ///
    /// [`mcml_spice::SpiceError::InvalidParameter`] when the stimulus
    /// drives a net that is not an input of `nl`, or `t_stop` or a
    /// stimulus time is NaN (checked before anything is characterised);
    /// otherwise propagates characterisation errors.
    pub fn simulate(&mut self, nl: &Netlist, stimulus: &Stimulus, t_stop: f64) -> Result<SimTrace> {
        if t_stop.is_nan() {
            return Err(mcml_spice::SpiceError::InvalidParameter {
                element: "t_stop".into(),
                reason: "is NaN".into(),
            });
        }
        stimulus.check(nl)?;
        self.library_for(nl)?;
        Ok(EventSim::new(nl, &self.lib).run(stimulus, t_stop))
    }

    /// Supply-current waveform for a simulated trace.
    ///
    /// # Errors
    ///
    /// Propagates characterisation errors.
    pub fn current(
        &mut self,
        nl: &Netlist,
        trace: &SimTrace,
        sleep: Option<&SleepWave>,
    ) -> Result<Waveform> {
        self.library_for(nl)?;
        Ok(circuit_current(nl, trace, &self.lib, sleep))
    }

    /// Synthesise the sleep distribution tree for a PG-MCML netlist.
    ///
    /// # Errors
    ///
    /// [`mcml_spice::SpiceError::InvalidParameter`] when `nl` is not
    /// power-gated (checked before anything is characterised); otherwise
    /// propagates characterisation errors (the tree uses the CMOS buffer
    /// timing).
    pub fn sleep_tree(&mut self, nl: &Netlist) -> Result<SleepTree> {
        if !nl.style.is_power_gated() {
            return Err(mcml_spice::SpiceError::InvalidParameter {
                element: "sleep tree".into(),
                reason: format!("a {} netlist is not power-gated", nl.style),
            });
        }
        self.timing(CellKind::Buffer, LogicStyle::Cmos)?;
        let _span = mcml_obs::span(mcml_obs::Stage::SleepTree);
        Ok(build_sleep_tree(
            nl.gate_count().max(1),
            &self.lib,
            &SleepTreeOptions::default(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_cached() {
        let mut flow = DesignFlow::new(CellParams::default());
        let t1 = flow.timing(CellKind::Buffer, LogicStyle::PgMcml).unwrap();
        let t2 = flow.timing(CellKind::Buffer, LogicStyle::PgMcml).unwrap();
        assert_eq!(t1, t2);
        assert_eq!(flow.library().len(), 1);
    }

    #[test]
    fn map_and_simulate_small_network() {
        let mut flow = DesignFlow::new(CellParams::default());
        let mut bn = BoolNetwork::new();
        let a = bn.input("a");
        let b = bn.input("b");
        let q = bn.xor(a, b);
        bn.set_output("q", q);
        let nl = flow.map(&bn, LogicStyle::PgMcml);
        let mut st = Stimulus::new();
        st.at(0.0, "a", false)
            .at(0.0, "b", false)
            .at(1e-9, "a", true);
        let trace = flow.simulate(&nl, &st, 3e-9).unwrap();
        assert!(!trace.transitions.is_empty());
        let i = flow.current(&nl, &trace, None).unwrap();
        assert!(i.mean() > 0.0, "PG-MCML netlist draws bias current");
        let tree = flow.sleep_tree(&nl).unwrap();
        assert!(tree.buffer_count() >= 1);
    }

    #[test]
    fn simulate_rejects_hostile_stimulus() {
        let mut flow = DesignFlow::new(CellParams::default());
        let mut bn = BoolNetwork::new();
        let a = bn.input("a");
        bn.set_output("q", a);
        let nl = flow.map(&bn, LogicStyle::Mcml);
        let rejected = |flow: &mut DesignFlow, st: &Stimulus, t_stop: f64| match flow
            .simulate(&nl, st, t_stop)
        {
            Err(mcml_spice::SpiceError::InvalidParameter { element, reason }) => {
                format!("{element}: {reason}")
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        };

        let mut unknown = Stimulus::new();
        unknown.at(0.0, "a", true).at(1e-9, "nope", true);
        let msg = rejected(&mut flow, &unknown, 2e-9);
        assert!(msg.contains("event 1") && msg.contains("`nope`"), "{msg}");

        let mut nan = Stimulus::new();
        nan.at(0.0, "a", true)
            .at(f64::NAN, "a", false)
            .at(1e-9, "a", true);
        let msg = rejected(&mut flow, &nan, 2e-9);
        assert!(msg.contains("event 1") && msg.contains("NaN"), "{msg}");

        let mut fine = Stimulus::new();
        fine.at(0.0, "a", true);
        let msg = rejected(&mut flow, &fine, f64::NAN);
        assert!(msg.starts_with("t_stop"), "{msg}");
        // Nothing was characterised for the rejected calls.
        assert!(flow.library().is_empty());
        assert!(flow.simulate(&nl, &fine, 2e-9).is_ok());
    }

    #[test]
    fn sleep_tree_rejects_a_netlist_without_power_gating() {
        let mut flow = DesignFlow::new(CellParams::default());
        let mut bn = BoolNetwork::new();
        let a = bn.input("a");
        bn.set_output("q", a);
        let nl = flow.map(&bn, LogicStyle::Cmos);
        match flow.sleep_tree(&nl) {
            Err(mcml_spice::SpiceError::InvalidParameter { element, .. }) => {
                assert_eq!(element, "sleep tree");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
        assert!(flow.library().is_empty(), "nothing was characterised");
    }
}
