//! The ISSUE's acceptance test: observability counter totals are
//! identical for `MCML_THREADS=1` and `MCML_THREADS=4` over the same
//! workload. Runs the `table2` pipeline (the acceptance criterion) and
//! the genuinely contended `build_library_par` fan-out, capturing a
//! [`RunReport`] after each and comparing the deterministic sections.
//!
//! Obs counters and the characterisation cache are process-global;
//! every test here serialises on one mutex and starts from a clean
//! slate (`cache::clear()` + `mcml_obs::reset()`).

use mcml_obs::{Counter, Mode, RunReport};
use pg_mcml::experiments::table2;
use pg_mcml::prelude::*;
use pg_mcml::Parallelism;
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run `work` from a cold cache and zeroed counters; return the report.
fn instrumented(run: &str, threads: usize, work: impl FnOnce()) -> RunReport {
    mcml_char::cache::clear();
    mcml_obs::set_mode(Mode::Summary);
    mcml_obs::reset();
    work();
    RunReport::capture(run, threads)
}

#[test]
fn table2_counters_equal_serial_vs_four_threads() {
    let _g = locked();
    let serial = instrumented("table2", 1, || {
        let mut flow = DesignFlow::new(CellParams::default()).with_parallelism(Parallelism::Serial);
        table2(&mut flow).expect("serial table2");
    });
    let parallel = instrumented("table2", 4, || {
        let mut flow =
            DesignFlow::new(CellParams::default()).with_parallelism(Parallelism::Threads(4));
        table2(&mut flow).expect("parallel table2");
    });

    assert_eq!(
        serial.deterministic_totals(),
        parallel.deterministic_totals(),
        "counter totals must not depend on MCML_THREADS"
    );
    // The acceptance criterion names these totals specifically; make sure
    // the workload actually exercised them rather than comparing zeros.
    for c in [
        Counter::CellsCharacterized,
        Counter::CacheLookups,
        Counter::NrIterations,
        Counter::MatrixSolves,
        Counter::Transients,
        Counter::TranSteps,
        Counter::DcSolves,
    ] {
        assert!(serial.counter(c) > 0, "{} should be nonzero", c.name());
    }
    // Accounting identities.
    assert_eq!(
        serial.counter(Counter::CacheHits) + serial.counter(Counter::CacheMisses),
        serial.counter(Counter::CacheLookups),
        "hits + misses = lookups"
    );
    // The JSON documents are identical except for threads and wall-clock.
    let strip = |r: &RunReport| {
        r.to_json()
            .lines()
            .filter(|l| !l.contains("\"threads\"") && !l.contains("elapsed_ns"))
            .take_while(|l| !l.contains("\"stages\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&serial), strip(&parallel));
}

#[test]
fn library_fanout_counters_equal_under_contention() {
    // build_library_par fans all (style, cell) jobs across workers at
    // once — the workload where a non-single-flight cache would count
    // duplicate misses and extra NR iterations.
    let _g = locked();
    let params = CellParams::default();
    let styles = [LogicStyle::Cmos, LogicStyle::Mcml, LogicStyle::PgMcml];
    let serial = instrumented("library", 1, || {
        mcml_char::build_library_par(&params, &styles, Parallelism::Serial)
            .expect("serial library");
    });
    let parallel = instrumented("library", 4, || {
        mcml_char::build_library_par(&params, &styles, Parallelism::Threads(4))
            .expect("parallel library");
    });

    assert_eq!(
        serial.deterministic_totals(),
        parallel.deterministic_totals()
    );
    assert!(serial.counter(Counter::CellsCharacterized) > 0);
    assert_eq!(
        serial.counter(Counter::CacheMisses),
        serial.counter(Counter::CellsCharacterized),
        "single-flight: misses = distinct cells characterised"
    );
}

#[test]
fn report_json_matches_schema_shape() {
    let _g = locked();
    mcml_char::cache::clear();
    mcml_obs::set_mode(Mode::Summary);
    mcml_obs::reset();
    let mut flow = DesignFlow::new(CellParams::default()).with_parallelism(Parallelism::Serial);
    flow.timing(CellKind::Buffer, LogicStyle::PgMcml)
        .expect("characterise buffer");
    let report = RunReport::capture("schema", 1);
    let json = report.to_json();
    assert!(json.contains("\"schema\": \"mcml-obs/1\""));
    // Every documented counter key is present (schema stability).
    for c in Counter::ALL {
        assert!(json.contains(&format!("\"{}\":", c.name())), "{}", c.name());
    }
    // The stages that ran appear with calls/busy_ns fields.
    assert!(json.contains("\"characterize\": { \"calls\":"));
}

#[test]
fn one_transient_opens_one_dc_op_span() {
    use mcml_obs::Stage;
    use mcml_spice::{Circuit, SourceWave, TranOptions};

    let _g = locked();
    let rc = || {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.vsource("V", vin, Circuit::GND, SourceWave::step(0.0, 1.0, 1e-9));
        c.resistor("R", vin, out, 1.0e3);
        c.capacitor("C", out, Circuit::GND, 1.0e-12);
        c
    };
    let opts = TranOptions::new(2e-9, 20e-12);
    let on = instrumented("dc_op", 1, || {
        rc().transient(&opts).expect("rc transient");
    });
    assert_eq!(on.stage(Stage::Transient).calls, 1);
    assert_eq!(on.stage(Stage::DcOp).calls, 1);
    assert_eq!(on.counter(Counter::DcSolves), 1);

    // `MCML_OBS=off` records nothing.
    mcml_obs::set_mode(Mode::Off);
    mcml_obs::reset();
    rc().transient(&opts).expect("rc transient");
    let off = RunReport::capture("dc_op_off", 1);
    mcml_obs::set_mode(Mode::Summary);
    assert_eq!(off.stage(Stage::Transient).calls, 0);
    assert_eq!(off.stage(Stage::DcOp).calls, 0);
    assert_eq!(off.counter(Counter::DcSolves), 0);
}

#[test]
fn power_model_counts_direct_and_flow_calls_once_each() {
    use mcml_obs::Stage;

    let _g = locked();
    let mut bn = BoolNetwork::new();
    let a = bn.input("a");
    let b = bn.input("b");
    let y = bn.xor(a, b);
    bn.set_output("y", y);
    let mut flow = DesignFlow::new(CellParams::default()).with_parallelism(Parallelism::Serial);
    let nl = flow.map(&bn, LogicStyle::PgMcml);
    let mut st = Stimulus::new();
    st.at(0.0, "a", false);
    st.at(0.0, "b", false);
    st.at(1e-9, "a", true);
    let trace = flow.simulate(&nl, &st, 3e-9).expect("simulate");

    mcml_obs::set_mode(Mode::Summary);
    mcml_obs::reset();
    let calls = || {
        RunReport::capture("power_model", 1)
            .stage(Stage::PowerModel)
            .calls
    };
    let _ = circuit_current(&nl, &trace, flow.library(), None);
    assert_eq!(
        calls(),
        1,
        "a direct circuit_current call is one power_model call"
    );
    flow.current(&nl, &trace, None).expect("flow current");
    assert_eq!(calls(), 2, "DesignFlow::current adds one call, not two");
}

#[test]
fn sequential_cmos_cell_reuses_the_cached_buffer_energy() {
    // With the CMOS buffer cached, a sequential CMOS cell reads the
    // buffer's toggle energy from the cache instead of re-running the
    // buffer's FO1 transient.
    let _g = locked();
    let params = CellParams::default();
    let report = instrumented("dff_cmos", 1, || {
        characterize_cell(CellKind::Buffer, LogicStyle::Cmos, &params).expect("buffer");
        mcml_obs::reset();
        characterize_cell(CellKind::Dff, LogicStyle::Cmos, &params).expect("dff");
    });
    assert_eq!(report.counter(Counter::CellsCharacterized), 1);
    assert_eq!(
        report.counter(Counter::CacheHits),
        1,
        "the nested buffer lookup"
    );
    // FO1 and FO4 delay plus the static-power clock-edge settle; the
    // buffer energy adds none.
    assert_eq!(report.counter(Counter::Transients), 3);
}

#[test]
fn serial_flow_keeps_fig6_mtd_on_one_worker() {
    // Every CPA of the disclosure ladder runs on the flow's worker pool:
    // on a serial flow each batch opens exactly one `worker_busy` span,
    // whatever `MCML_THREADS` says.
    use mcml_obs::Stage;

    let _g = locked();
    let mut flow = DesignFlow::new(CellParams::default()).with_parallelism(Parallelism::Serial);
    mcml_obs::set_mode(Mode::Summary);
    mcml_obs::reset();
    pg_mcml::experiments::fig6_mtd(&mut flow, LogicStyle::Cmos, 0x3b, 0.01, 0xFEED, &[16, 32])
        .expect("fig6_mtd");
    let report = RunReport::capture("fig6_mtd", 1);
    let batches = report.counter(Counter::ParallelBatches);
    assert!(
        batches > 2,
        "acquisition and two ladder CPAs dispatch batches: {batches}"
    );
    assert_eq!(
        report.stage(Stage::WorkerBusy).calls,
        batches,
        "one busy span per batch: no batch fanned out"
    );
}
