//! Process-wide characterization cache with single-flight computes.
//!
//! Every table and figure in the paper re-characterises the same handful of
//! cells: `table2` wants all three styles, `fig6` re-runs the PG-MCML cells
//! per plaintext batch, and the corner/bias sweeps revisit the buffer dozens
//! of times. A full [`characterize_cell`](crate::characterize_cell) call is
//! several SPICE transients, so repeated keys dominate wall-clock.
//!
//! The cache is a mutex-guarded map keyed by the *exact* bit patterns of
//! every field that influences a measurement:
//! `(CellKind, LogicStyle, CellParams, Corner)` — with every `f64` stored
//! via [`f64::to_bits`], so there is no lossy float hashing and no
//! collision between, say, 49.999 µA and 50 µA bias points.
//!
//! Computes are **single-flight**: the first worker to miss a key installs
//! an in-flight marker and characterises outside the lock; workers racing
//! on the same key block on a condvar and are served the finished result.
//! That makes the cache's accounting deterministic under any
//! `MCML_THREADS` — misses equal the number of *distinct* keys computed
//! and hits equal `lookups − misses`, exactly as in a serial run — which
//! the `mcml-obs` report-equality tests rely on (a racing duplicate
//! compute would also inflate the `spice.*` counters).
//!
//! Hits and misses count once, in `mcml-obs`'s [`Counter::CacheHits`] and
//! [`Counter::CacheMisses`]; [`clear`] drops the map so serial-vs-parallel
//! timing comparisons start cold.

use std::collections::HashMap;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use mcml_cells::{CellKind, CellParams, LogicStyle};
use mcml_obs::Counter;

use crate::library::CellTiming;

/// Exact-bit cache key for one characterization run.
///
/// Floats are stored as `to_bits()` patterns: two keys are equal iff every
/// parameter is bit-identical, which is precisely the condition under which
/// the deterministic simulator returns the same `CellTiming`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CharKey {
    kind: CellKind,
    style: LogicStyle,
    corner: mcml_cells::Corner,
    drive: mcml_cells::DriveStrength,
    sleep_topology: mcml_cells::SleepTopology,
    with_parasitics: bool,
    tech_name: String,
    cell_height_tracks: u32,
    /// Bit patterns of every `f64` field of `CellParams` and `Technology`,
    /// in declaration order.
    float_bits: [u64; 19],
}

impl CharKey {
    /// Build the key for `(kind, style, params)`; the corner rides inside
    /// `params`.
    #[must_use]
    pub fn new(kind: CellKind, style: LogicStyle, params: &CellParams) -> Self {
        let t = &params.tech;
        let float_bits = [
            params.iss.to_bits(),
            params.vswing.to_bits(),
            params.w_pair.to_bits(),
            params.w_tail.to_bits(),
            params.w_sleep.to_bits(),
            params.w_load.to_bits(),
            params.l.to_bits(),
            params.l_tail.to_bits(),
            t.vdd.to_bits(),
            t.l_min.to_bits(),
            t.w_min.to_bits(),
            t.cox.to_bits(),
            t.c_overlap.to_bits(),
            t.cj.to_bits(),
            t.cjsw.to_bits(),
            t.ld_diff.to_bits(),
            t.c_wire.to_bits(),
            t.r_wire.to_bits(),
            t.m1_pitch.to_bits(),
        ];
        CharKey {
            kind,
            style,
            corner: params.corner,
            drive: params.drive,
            sleep_topology: params.sleep_topology,
            with_parasitics: params.with_parasitics,
            tech_name: t.name.clone(),
            cell_height_tracks: t.cell_height_tracks,
            float_bits,
        }
    }
}

/// One cache entry: either a finished timing or a marker that some worker
/// is computing it right now.
#[derive(Debug, Clone)]
enum Slot {
    InFlight,
    Ready(CellTiming),
}

type CacheMap = Option<HashMap<CharKey, Slot>>;

static CACHE: Mutex<CacheMap> = Mutex::new(None);
static READY: Condvar = Condvar::new();

fn lock() -> MutexGuard<'static, CacheMap> {
    CACHE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Look up a cached characterization, or compute and insert it.
///
/// Single-flight: the first worker to miss a key computes *outside* the
/// lock while holding an in-flight marker; racers on the same key block
/// until the result is ready and count as hits (exactly what a serial run
/// would have recorded). If the owning compute fails, its marker is
/// removed, one blocked waiter retakes ownership and retries, and the
/// error propagates to the worker that observed it; errors are not cached.
///
/// # Errors
///
/// Propagates the compute closure's error.
pub fn get_or_characterize<E>(
    key: CharKey,
    compute: impl FnOnce() -> Result<CellTiming, E>,
) -> Result<CellTiming, E> {
    mcml_obs::incr(Counter::CacheLookups);
    let mut guard = lock();
    loop {
        match guard.get_or_insert_with(HashMap::new).get(&key) {
            Some(Slot::Ready(timing)) => {
                let timing = timing.clone();
                mcml_obs::incr(Counter::CacheHits);
                return Ok(timing);
            }
            Some(Slot::InFlight) => {
                guard = READY.wait(guard).unwrap_or_else(PoisonError::into_inner);
            }
            None => break,
        }
    }
    // This worker owns the compute for `key`.
    guard
        .get_or_insert_with(HashMap::new)
        .insert(key.clone(), Slot::InFlight);
    drop(guard);

    mcml_obs::incr(Counter::CacheMisses);
    let result = compute();

    let mut guard = lock();
    let map = guard.get_or_insert_with(HashMap::new);
    match &result {
        Ok(timing) => {
            map.insert(key, Slot::Ready(timing.clone()));
        }
        Err(_) => {
            // Unblock waiters; the first to wake retakes ownership.
            map.remove(&key);
        }
    }
    drop(guard);
    READY.notify_all();
    result
}

/// Drop every cached entry.
///
/// The benchmark binaries call this between their serial and parallel runs
/// so both start from a cold cache and the reported speedup is honest.
/// Must not be called while characterizations are in flight.
pub fn clear() {
    *lock() = None;
}
