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
//!   whole stripe) and hand back `(index, result)` pairs, which the caller
//!   places **by original index** after the join, so the output `Vec` is
//!   bit-identical to what the serial loop produces no matter how the
//!   scheduler interleaved the workers.
//! * [`chunk_ranges`] / [`REDUCTION_CHUNK`] — fixed chunk boundaries for
//!   floating-point reductions.  The CPA and TVLA sums in `mcml-dpa` fold
//!   per-chunk partial sums in chunk order on the serial and the parallel
//!   path alike, so the rounding profile (and therefore every downstream
//!   correlation coefficient) is identical in the two modes.
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
//! use mcml_exec::{parallel_map, Parallelism};
//!
//! let squares = parallel_map(Parallelism::Threads(4), 5, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mcml_obs::{Counter, Stage};
use std::sync::atomic::{AtomicUsize, Ordering};

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
    let joined = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, f) = (&next, &f);
                s.spawn(move |_| {
                    let _busy = mcml_obs::span(Stage::WorkerBusy);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(crossbeam::thread::ScopedJoinHandle::join)
            .collect::<Vec<_>>()
    })
    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));

    // Each index in 0..n was handed to exactly one worker by the atomic
    // counter; place every result at its index.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for worker in joined {
        let done = worker.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        for (i, r) in done {
            slots[i] = Some(r);
        }
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
