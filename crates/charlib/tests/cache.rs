//! Characterization-cache behaviour: hit accounting, corner sensitivity,
//! and parallel/serial equivalence of the library builder.
//!
//! The cache and the `mcml-obs` counters are process-global, so
//! everything runs in a single `#[test]` to keep the accounting race-free.

use mcml_cells::{CellKind, CellParams, Corner, LogicStyle};
use mcml_char::{build_library_par, cache, characterize_cell};
use mcml_exec::Parallelism;
use mcml_obs::{Counter, Mode};

/// Cache hits and misses counted since the last `mcml_obs::reset`.
struct Tally {
    hits: u64,
    misses: u64,
}

fn tally() -> Tally {
    Tally {
        hits: mcml_obs::total(Counter::CacheHits),
        misses: mcml_obs::total(Counter::CacheMisses),
    }
}

#[test]
fn cache_hits_misses_and_parallel_equivalence() {
    // --- same key twice: exactly one SPICE characterization ---
    mcml_obs::set_mode(Mode::Summary);
    cache::clear();
    mcml_obs::reset();
    let params = CellParams::default();
    let first = characterize_cell(CellKind::Xor2, LogicStyle::PgMcml, &params).unwrap();
    let after_first = tally();
    assert_eq!(after_first.misses, 1, "cold call runs the measurements");
    assert_eq!(after_first.hits, 0);

    let second = characterize_cell(CellKind::Xor2, LogicStyle::PgMcml, &params).unwrap();
    let after_second = tally();
    assert_eq!(after_second.misses, 1, "repeat key must not re-simulate");
    assert_eq!(after_second.hits, 1, "repeat key served from cache");
    assert_eq!(first, second, "cached result identical to computed one");

    // --- different corner inside otherwise-identical params: a miss ---
    let ss = CellParams {
        corner: Corner::Ss,
        ..params.clone()
    };
    let slow = characterize_cell(CellKind::Xor2, LogicStyle::PgMcml, &ss).unwrap();
    let after_corner = tally();
    assert_eq!(after_corner.misses, 2, "corner is part of the key");
    assert_ne!(first, slow, "SS corner characterises differently");

    // --- a bit-level bias change is a different key too ---
    let tweaked = params.with_iss(50e-6 * (1.0 + f64::EPSILON));
    let _ = characterize_cell(CellKind::Xor2, LogicStyle::PgMcml, &tweaked).unwrap();
    assert_eq!(tally().misses, 3, "float keys compare bit-exactly");

    // --- parallel library build == serial library build, exactly ---
    cache::clear();
    let styles = [LogicStyle::PgMcml, LogicStyle::Cmos];
    let serial = build_library_par(&params, &styles, Parallelism::Serial).unwrap();
    cache::clear();
    let parallel = build_library_par(&params, &styles, Parallelism::Threads(4)).unwrap();
    assert_eq!(serial, parallel, "thread count must not change the library");

    // The parallel build populated the cache: rebuilding is all hits.
    let warm_before = tally();
    let rebuilt = build_library_par(&params, &styles, Parallelism::Threads(4)).unwrap();
    let warm_after = tally();
    assert_eq!(rebuilt, parallel);
    assert_eq!(
        warm_after.misses, warm_before.misses,
        "warm rebuild runs zero SPICE transients"
    );
    assert!(warm_after.hits >= warm_before.hits + serial.len() as u64);
}
