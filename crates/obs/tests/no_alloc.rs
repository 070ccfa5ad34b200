//! `MCML_OBS=off` must be a true no-op: the counter and span hot paths
//! may not allocate. A counting global allocator wraps `System`; the
//! test exercises the hot paths with the counter frozen and asserts the
//! allocation count never moves. The count is per thread, so the test
//! harness's other threads (its main loop, output capture, a sibling
//! test waiting on the lock) cannot move it. Lives in its own test
//! binary so the global allocator doesn't slow the rest of the suite.

use mcml_obs::{Counter, Mode, Stage};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Const-initialised and
    /// drop-free, so reading it from inside the allocator never
    /// allocates or touches a destroyed slot.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates verbatim to `System`; only bumps a thread-local count.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

// Mode and counters are process-global; the two tests must not interleave.
static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn off_hot_path_does_not_allocate() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // Resolve the mode (may allocate: env read, mutex init) *before*
    // freezing the counter — first use is the cold path by design.
    mcml_obs::set_mode(Mode::Off);
    mcml_obs::reset();
    mcml_obs::add(Counter::NrIterations, 1);
    drop(mcml_obs::span(Stage::Cpa));

    let before = allocations();
    for _ in 0..100_000 {
        mcml_obs::incr(Counter::NrIterations);
        mcml_obs::add(Counter::MatrixSolves, 4);
        let guard = mcml_obs::span(Stage::Characterize);
        drop(guard);
    }
    let after = allocations();
    assert_eq!(before, after, "MCML_OBS=off hot path allocated");
    assert_eq!(mcml_obs::total(Counter::NrIterations), 0);
}

#[test]
fn on_hot_path_does_not_allocate_either() {
    let _g = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The "one relaxed fetch_add" claim: even when counting, the hot
    // path allocates nothing (spans read the clock but don't box).
    mcml_obs::set_mode(Mode::Summary);
    mcml_obs::add(Counter::NrIterations, 1);
    drop(mcml_obs::span(Stage::Cpa));

    let before = allocations();
    for _ in 0..100_000 {
        mcml_obs::incr(Counter::NrIterations);
        let guard = mcml_obs::span(Stage::Characterize);
        drop(guard);
    }
    let after = allocations();
    assert_eq!(before, after, "counting hot path allocated");
}
