//! End-to-end checks of the benchmark itself: its names match
//! `BENCHMARK.json`, a seeded golden fault fails the iteration, and a
//! short traced `gate_level` run (no SPICE in its timed iterations)
//! reports every metric.

use std::sync::Mutex;

use mcml_perfbench::golden::Golden;
use mcml_perfbench::run::{run_workload, verdict, CHECKS, END_TO_END};
use mcml_perfbench::trace::{Tracer, PER_LAYER};
use mcml_perfbench::workload::Input;
use mcml_perfbench::{Options, Workload};

/// The workloads drive process-wide state (the characterisation cache,
/// the `mcml-obs` mode and counters), so tests that run them take turns.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn emitted_names_match_benchmark_json() {
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in("workloads"), workloads);
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in("end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in("per_layer"), layers);
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER).chain(&CHECKS) {
        assert!(is_name(name), "{name}");
        assert!(
            BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\""))
                || CHECKS.iter().any(|(n, _)| n == name),
            "{name} [{unit}] is not in BENCHMARK.json"
        );
    }
    for w in workloads {
        assert!(is_name(w), "{w}");
    }
}

#[test]
fn seeded_golden_fault_fails_the_iteration() {
    let _turn = GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let w = Workload::GateLevel;
    let mut golden = Golden::load().expect("committed golden.json");
    let mut tr = Tracer::new(false);
    let mut st = w.setup(&mut tr).expect("set-up");
    let out = w.run(&mut st, &Input::Preset(3), &mut tr);
    let clean = verdict(w, &out, &golden);
    assert_eq!((clean.ratio, clean.failure), (0.0, None));

    let key = "gate_level/preset3/table3";
    let mut values = golden.get(key).expect("golden key").to_vec();
    values[3] *= 1.0 + 5e-4; // CMOS average power, 5× its tolerance
    golden.insert(key.to_owned(), values);
    let faulty = verdict(w, &out, &golden);
    assert!(faulty.ratio > 1.0, "{faulty:?}");
    assert!(faulty.failure.expect("iteration fails").contains(key));
}

#[test]
fn gate_level_two_iteration_traced_smoke() {
    let _turn = GLOBAL_STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let w = Workload::GateLevel;
    let opts = Options {
        seed: 42,
        seconds: 1,
        trace: true,
    };
    assert_eq!(w.iterations(opts.seconds), 2);
    let r = run_workload(w, opts, false).expect("gate_level runs");
    assert_eq!((r.failed, r.golden_err_ratio), (0, 0.0), "{:?}", r.failures);
    assert_eq!(r.iter_s.len(), 2);
    assert_eq!(r.traced_iter_s.len(), 2);
    for (name, v) in r.end_to_end() {
        assert!(v.is_finite() && v > 0.0, "{name} = {v}");
    }
    let layer = |name: &str| {
        r.per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    };
    assert_eq!(r.per_layer.len(), PER_LAYER.len());
    assert_eq!(layer("spice.nr_iterations"), 0.0);
    assert_eq!(layer("charlib.cache_misses"), 0.0);
    assert!(layer("sim.event_runs") > 0.0);
    assert!(layer("lint.rules_run") > 0.0);
    assert!(layer("core.table3_s") > 0.0);
}
