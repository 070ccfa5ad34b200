//! Deterministic parallel execution layer for the PG-MCML evaluation stack.
//!
//! The characterization → trace-synthesis → CPA pipeline is embarrassingly
//! parallel at three grains (cells, plaintexts, key guesses), but the paper
//! tables must not depend on the machine they were produced on.  This crate
//! provides the two primitives the rest of the workspace builds on:
//!
//! * [`parallel_map`] / [`parallel_map_items`] — a scoped-thread runner that
//!   fans work items across cores.  Workers pull indices from a shared atomic
//!   counter (self-balancing, so a slow SPICE transient does not stall a
//!   whole stripe) and results are merged back **by original index**, so the
//!   output `Vec` is bit-identical to what the serial loop produces no matter
//!   how the scheduler interleaved the workers.
//! * [`parallel_fold_ordered`] — the streaming counterpart: workers compute
//!   items concurrently, but the caller's fold closure consumes them strictly
//!   in index order through a bounded reorder window, so an online
//!   accumulator (the chunked CPA/TVLA sums) rounds identically to the
//!   serial loop while memory stays `O(workers)` instead of `O(n)`.
//! * [`chunk_ranges`] / [`chunked_sum`] — fixed chunk boundaries for
//!   floating-point reductions.  Both the serial and the parallel paths fold
//!   per-chunk partial sums in chunk order, so the rounding profile (and
//!   therefore every downstream correlation coefficient) is identical in the
//!   two modes.
//!
//! Thread count is controlled by [`Parallelism`]; `Parallelism::from_env()`
//! honours the `MCML_THREADS` environment variable (`1` or `serial` forces
//! the serial path, any larger number caps the worker pool).
//!
//! Every batch reports to `mcml-obs`: `exec.tasks_run` and
//! `exec.parallel_batches` increment by the work dispatched (identically on
//! the serial and parallel paths, so totals are thread-count invariant), and
//! each worker's busy time accumulates into the `worker_busy` stage, from
//! which run summaries derive per-worker utilisation.
//!
//! ```
//! use mcml_exec::{chunked_sum, parallel_map, Parallelism};
//!
//! let squares = parallel_map(Parallelism::Threads(4), 5, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//!
//! // Chunk-ordered reduction: bit-identical for any thread count.
//! let serial = chunked_sum(Parallelism::Serial, 1000, |i| 1.0 / (i as f64 + 1.0));
//! let threaded = chunked_sum(Parallelism::Threads(4), 1000, |i| 1.0 / (i as f64 + 1.0));
//! assert_eq!(serial.to_bits(), threaded.to_bits());
//! ```

#![warn(missing_docs)]

use mcml_obs::{Counter, Stage};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How much hardware parallelism a pipeline stage may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run everything on the calling thread.
    Serial,
    /// Use at most this many worker threads (values <= 1 mean serial).
    Threads(usize),
    /// Use all available cores.
    #[default]
    Auto,
}

impl Parallelism {
    /// Resolve from the `MCML_THREADS` environment variable.
    ///
    /// * unset / unparsable → [`Parallelism::Auto`]
    /// * `serial`, `0`, `1` → [`Parallelism::Serial`]
    /// * `n > 1`            → [`Parallelism::Threads`]`(n)`
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var("MCML_THREADS") {
            Ok(v) if v.eq_ignore_ascii_case("serial") => Parallelism::Serial,
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n <= 1 => Parallelism::Serial,
                Ok(n) => Parallelism::Threads(n),
                Err(_) => Parallelism::Auto,
            },
            Err(_) => Parallelism::Auto,
        }
    }

    /// Number of worker threads this setting resolves to on this machine.
    #[must_use]
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            }
        }
    }
}

/// Map `f` over `0..n`, fanning across threads, returning results in index
/// order.
///
/// The output is element-for-element identical to
/// `(0..n).map(f).collect::<Vec<_>>()`: each item is computed by exactly one
/// worker with the same code path as the serial loop, and the merge is by
/// index, so scheduling cannot reorder or perturb anything.
///
/// Panics in `f` are propagated to the caller (the scope joins all workers
/// first, so no work item is silently dropped).
pub fn parallel_map<R, F>(par: Parallelism, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // Batch accounting is mode-independent: the same increments happen on
    // the serial fallback and the threaded path, so `exec.*` totals are
    // identical for any `MCML_THREADS`.
    mcml_obs::incr(Counter::ParallelBatches);
    mcml_obs::add(Counter::TasksRun, n as u64);
    let _dispatch = mcml_obs::span(Stage::ParallelMap);

    let workers = par.worker_count().min(n.max(1));
    if workers <= 1 || n <= 1 {
        let _busy = mcml_obs::span(Stage::WorkerBusy);
        return (0..n).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let slots_ptr = SendPtr(slots.as_mut_ptr());

    let result = crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let next = &next;
            let f = &f;
            s.spawn(move |_| {
                let _busy = mcml_obs::span(Stage::WorkerBusy);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i);
                    // SAFETY: each index in 0..n is handed to exactly one
                    // worker by the atomic counter, so no two threads write
                    // the same slot, and the scope joins every worker before
                    // `slots` is read or dropped.
                    unsafe { slots_ptr.write(i, r) };
                }
            });
        }
    });
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }

    slots
        .into_iter()
        .map(|slot| slot.expect("every index visited by exactly one worker"))
        .collect()
}

/// Map `f` over a slice, fanning across threads, preserving item order.
pub fn parallel_map_items<T, R, F>(par: Parallelism, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map(par, items.len(), |i| f(&items[i]))
}

/// Map `0..n` across threads and fold the results **in index order** on the
/// calling thread, without ever materialising the full result vector.
///
/// This is the streaming counterpart of [`parallel_map`]: workers compute
/// `map(i)` concurrently, but `fold(&mut acc, i, r)` runs on the caller's
/// thread strictly at `i = 0, 1, 2, …` — so a floating-point accumulator
/// (e.g. the chunked CPA sums in `mcml-dpa`) rounds bit-identically to the
/// serial loop for any thread count. A bounded reorder window provides
/// backpressure: a worker may run at most `2 × workers` items ahead of the
/// fold cursor, so peak buffered memory is `O(workers × sizeof(R))`,
/// independent of `n`. That is what lets a 10⁵-trace campaign stream
/// completed traces into an attack accumulator without ever holding the
/// trace matrix.
///
/// Panics in `map` or `fold` are propagated to the caller; in-flight workers
/// drain and join first, so no thread is leaked.
pub fn parallel_fold_ordered<R, A, M, F>(
    par: Parallelism,
    n: usize,
    init: A,
    map: M,
    mut fold: F,
) -> A
where
    R: Send,
    M: Fn(usize) -> R + Sync,
    F: FnMut(&mut A, usize, R),
{
    mcml_obs::incr(Counter::ParallelBatches);
    mcml_obs::add(Counter::TasksRun, n as u64);
    let _dispatch = mcml_obs::span(Stage::ParallelMap);

    let workers = par.worker_count().min(n.max(1));
    let mut acc = init;
    if workers <= 1 || n <= 1 {
        let _busy = mcml_obs::span(Stage::WorkerBusy);
        for i in 0..n {
            let r = map(i);
            fold(&mut acc, i, r);
        }
        return acc;
    }

    let window = 2 * workers;
    let shared: Mutex<Reorder<R>> = Mutex::new(Reorder {
        buf: BTreeMap::new(),
        next: 0,
    });
    // `ready`: a result the consumer may be waiting on has arrived (or a
    // thread is bailing out). `room`: the fold cursor advanced, so workers
    // blocked on the window may proceed.
    let ready = Condvar::new();
    let room = Condvar::new();
    let abort = AtomicBool::new(false);
    let counter = AtomicUsize::new(0);

    let result = crossbeam::thread::scope(|s| {
        for _ in 0..workers {
            let (shared, ready, room, abort, counter) = (&shared, &ready, &room, &abort, &counter);
            let map = &map;
            s.spawn(move |_| {
                let _busy = mcml_obs::span(Stage::WorkerBusy);
                let _wake = WakeOnExit { abort, ready, room };
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = counter.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    {
                        let mut g = shared.lock().expect("reorder lock");
                        while i >= g.next + window && !abort.load(Ordering::Relaxed) {
                            g = room.wait(g).expect("reorder lock");
                        }
                    }
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let r = map(i);
                    shared.lock().expect("reorder lock").buf.insert(i, r);
                    ready.notify_all();
                }
            });
        }

        // Consumer runs on the calling thread: pop index `folded` as soon as
        // it lands, fold it, advance the cursor, release window room.
        let _wake = WakeOnExit {
            abort: &abort,
            ready: &ready,
            room: &room,
        };
        let mut folded = 0usize;
        'drain: while folded < n {
            let r = {
                let mut g = shared.lock().expect("reorder lock");
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break 'drain;
                    }
                    if let Some(r) = g.buf.remove(&folded) {
                        g.next += 1;
                        room.notify_all();
                        break r;
                    }
                    g = ready.wait(g).expect("reorder lock");
                }
            };
            fold(&mut acc, folded, r);
            folded += 1;
        }
    });
    if let Err(panic) = result {
        std::panic::resume_unwind(panic);
    }
    acc
}

/// Reorder buffer for [`parallel_fold_ordered`]: completed-but-unfolded
/// results keyed by index, plus the fold cursor (`next` = first index not
/// yet folded).
struct Reorder<R> {
    buf: BTreeMap<usize, R>,
    next: usize,
}

/// On drop — normal exit or unwind — wake everyone parked on the reorder
/// buffer so no thread waits forever for a peer that is gone; on unwind,
/// also flag the shared abort so the remaining threads drain and exit.
struct WakeOnExit<'a> {
    abort: &'a AtomicBool,
    ready: &'a Condvar,
    room: &'a Condvar,
}

impl Drop for WakeOnExit<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.abort.store(true, Ordering::Relaxed);
        }
        self.ready.notify_all();
        self.room.notify_all();
    }
}

/// Raw pointer wrapper so disjoint slots can be written from scoped workers.
/// (A method rather than direct field access keeps edition-2021 closures
/// capturing the whole `Send` wrapper, not the bare pointer.)
struct SendPtr<R>(*mut Option<R>);

impl<R> Clone for SendPtr<R> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<R> Copy for SendPtr<R> {}

impl<R> SendPtr<R> {
    /// # Safety
    /// `i` must be in bounds and written by at most one thread.
    unsafe fn write(self, i: usize, value: R) {
        self.0.add(i).write(Some(value));
    }
}
// SAFETY: the pointer may cross threads because workers write disjoint
// indices only (enforced by the atomic work counter) and the owning Vec
// outlives the scope.
unsafe impl<R: Send> Send for SendPtr<R> {}
// SAFETY: shared references to SendPtr only copy the pointer; all writes go
// through `write`, whose caller contract keeps the slots disjoint.
unsafe impl<R: Send> Sync for SendPtr<R> {}

/// Fixed chunk size used for floating-point reductions across the workspace.
///
/// 256 doubles = 2 KiB per row chunk: small enough to stay L1-resident along
/// with the hypothesis vector, large enough to amortise loop overhead.
pub const REDUCTION_CHUNK: usize = 256;

/// Split `0..n` into fixed-size chunks (the last may be short).
///
/// Chunk boundaries depend only on `n`, never on the thread count, so
/// chunk-ordered folds give the same rounding in serial and parallel runs.
pub fn chunk_ranges(n: usize, chunk: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk)).map(move |c| {
        let lo = c * chunk;
        lo..(lo + chunk).min(n)
    })
}

/// Chunk-ordered sum of `f(i)` for `i in 0..n`.
///
/// Both serial and parallel callers use this so partial-sum boundaries (and
/// therefore rounding) match exactly: per-chunk partials are accumulated
/// sequentially within the chunk and folded in chunk-index order.
pub fn chunked_sum<F>(par: Parallelism, n: usize, f: F) -> f64
where
    F: Fn(usize) -> f64 + Sync,
{
    let chunks: Vec<std::ops::Range<usize>> = chunk_ranges(n, REDUCTION_CHUNK).collect();
    let partials = parallel_map_items(par, &chunks, |r| r.clone().map(&f).sum::<f64>());
    partials.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_matches_serial_order() {
        let serial: Vec<u64> = (0..1000).map(|i| (i as u64).wrapping_mul(31)).collect();
        let par = parallel_map(Parallelism::Threads(8), 1000, |i| {
            (i as u64).wrapping_mul(31)
        });
        assert_eq!(serial, par);
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = parallel_map(Parallelism::Auto, 0, |_| unreachable!());
        assert!(empty.is_empty());
        assert_eq!(parallel_map(Parallelism::Auto, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn parallel_map_items_preserves_order() {
        let items: Vec<f64> = (0..257).map(|i| f64::from(i) * 0.5).collect();
        let doubled = parallel_map_items(Parallelism::Threads(4), &items, |x| x * 2.0);
        let expect: Vec<f64> = items.iter().map(|x| x * 2.0).collect();
        assert_eq!(doubled, expect);
    }

    #[test]
    fn chunked_sum_is_thread_count_invariant() {
        // Values chosen so naive reordering changes the rounding; the chunked
        // fold must not.
        let f = |i: usize| 1.0 / (i as f64 + 1.0).powi(2);
        let serial = chunked_sum(Parallelism::Serial, 10_000, f);
        for threads in [2, 3, 8, 32] {
            let p = chunked_sum(Parallelism::Threads(threads), 10_000, f);
            assert_eq!(serial.to_bits(), p.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        let mut seen = vec![false; 1000];
        for r in chunk_ranges(1000, 64) {
            for i in r {
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Parallelism::Serial.worker_count(), 1);
        assert_eq!(Parallelism::Threads(0).worker_count(), 1);
        assert_eq!(Parallelism::Threads(6).worker_count(), 6);
        assert!(Parallelism::Auto.worker_count() >= 1);
    }

    #[test]
    fn fold_ordered_matches_serial_bit_for_bit() {
        // Non-associative accumulation: any reordering of the fold would
        // change the rounding, so bit-equality proves index-order folding.
        let map = |i: usize| 1.0 / (i as f64 + 1.0).powi(2);
        let fold = |acc: &mut f64, _i: usize, r: f64| *acc = (*acc + r) * 1.000_000_1;
        let serial = parallel_fold_ordered(Parallelism::Serial, 5_000, 0.0f64, map, fold);
        for threads in [2, 3, 8] {
            let p = parallel_fold_ordered(Parallelism::Threads(threads), 5_000, 0.0f64, map, fold);
            assert_eq!(serial.to_bits(), p.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn fold_ordered_visits_indices_in_order() {
        let order = parallel_fold_ordered(
            Parallelism::Threads(8),
            1000,
            Vec::new(),
            |i| i,
            |acc: &mut Vec<usize>, i, r| {
                assert_eq!(i, r);
                acc.push(i);
            },
        );
        let expect: Vec<usize> = (0..1000).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn fold_ordered_handles_empty_and_single() {
        let none = parallel_fold_ordered(Parallelism::Auto, 0, 0u32, |_| 1u32, |a, _, r| *a += r);
        assert_eq!(none, 0);
        let one = parallel_fold_ordered(Parallelism::Auto, 1, 0u32, |_| 5u32, |a, _, r| *a += r);
        assert_eq!(one, 5);
    }

    #[test]
    fn fold_ordered_propagates_map_panics() {
        let caught = std::panic::catch_unwind(|| {
            parallel_fold_ordered(
                Parallelism::Threads(4),
                200,
                0usize,
                |i| {
                    assert!(i != 123, "boom");
                    i
                },
                |a, _, r| *a += r,
            )
        });
        assert!(caught.is_err());
    }

    #[test]
    fn fold_ordered_propagates_fold_panics() {
        let caught = std::panic::catch_unwind(|| {
            parallel_fold_ordered(
                Parallelism::Threads(4),
                200,
                0usize,
                |i| i,
                |_a, i, _r| assert!(i != 150, "boom in fold"),
            )
        });
        assert!(caught.is_err());
    }

    #[test]
    fn parallel_map_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(Parallelism::Threads(4), 100, |i| {
                assert!(i != 57, "boom");
                i
            })
        });
        assert!(caught.is_err());
    }
}
