//! The parallel sweep engine: a one-queue thread pool plus a concurrent
//! memo cache.
//!
//! The paper's evaluation is a large cross-product of configurations —
//! {Jikes, Kaffe} × four collectors × heap sizes × sixteen benchmarks —
//! and every cell is an independent, fully deterministic simulation. The
//! engine exploits that: a figure sweep submits its whole grid as one
//! batch, the [`SweepPool`] executes its tasks on however many worker
//! threads were requested, and the [`Memo`] guarantees each distinct
//! configuration is computed **at most once** no matter how many sweeps
//! or threads ask for it.
//!
//! # Determinism contract
//!
//! Thread count must never change results. The engine's side of the
//! contract:
//!
//! * **execution is order-free** — every cell is a pure function of its
//!   configuration (per-cell fault seeds are derived from the master seed
//!   and the cell key, never from shared RNG state), so cells may run in
//!   any order on any worker;
//! * **merging is ordered** — the supervised runner folds per-cell
//!   outcomes into figure rows and the campaign [`crate::RunReport`] in
//!   batch submission order, never completion order.
//!
//! Together these make a sweep's figure tables, `RunReport` JSON, and
//! fault ledgers bit-identical for `--jobs 1` and `--jobs N`
//! (`tests/parallel_determinism.rs` enforces this).

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};

use vmprobe_telemetry::{CounterId, Telemetry};

use crate::runner::panic_message;

/// Default worker count: the machine's available parallelism.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Lock a mutex, recovering from poisoning.
///
/// Every guarded section in this module is short take/insert/fold-only
/// code that cannot panic mid-invariant — tasks always run *outside* the
/// locks — so a poisoned mutex only means some worker panicked in its
/// *task*. That failure is surfaced separately (and with its cell key) as
/// [`SweepError::WorkerPanicked`]; recovering here lets the remaining
/// workers finish cleanly instead of cascading secondary panics.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// A sweep batch failed to complete.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepError {
    /// A task panicked on a pool worker. No further task is handed out,
    /// sibling results are discarded, and the panic with the *smallest
    /// submission index* is reported — the same cell the serial path
    /// would name — so the error is identical for every worker count.
    WorkerPanicked {
        /// Key of the panicking cell (the experiment cache key for
        /// supervised sweeps).
        key: String,
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::WorkerPanicked { key, message } => {
                write!(
                    f,
                    "sweep worker panicked while computing `{key}`: {message}"
                )
            }
        }
    }
}

impl std::error::Error for SweepError {}

// ---------------------------------------------------------------- sweep pool

/// A batch scheduler with one queue.
///
/// Every worker runs the same loop: take the next task from the batch's
/// one locked iterator, in submission order, and run it outside the lock.
/// A task is a whole heap ladder (milliseconds to seconds of simulation),
/// so a lock taken once per task is never a bottleneck.
#[derive(Debug, Clone)]
pub struct SweepPool {
    jobs: usize,
    telemetry: Telemetry,
}

impl SweepPool {
    /// A pool that runs batches on `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> Self {
        Self {
            jobs: jobs.max(1),
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle: each worker thread's run is recorded as
    /// a host span on its own `worker-N` track.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `task` over every item and return the results **in item
    /// order**, regardless of which worker executed what when.
    ///
    /// # Panics
    ///
    /// Panics (with the formatted [`SweepError`]) when any task panics;
    /// use [`SweepPool::try_run`] to get the typed error instead.
    pub fn run<I, T, F>(&self, items: Vec<I>, task: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        self.try_run(items, |i, _| format!("#{i}"), task)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`SweepPool::run`], but a panicking task surfaces
    /// [`SweepError::WorkerPanicked`] naming the cell — via `key_of`,
    /// which is evaluated *before* the task runs — instead of poisoning
    /// the pool or tearing the process down mid-sweep.
    ///
    /// With one worker (or one item) the loop runs inline on the calling
    /// thread; otherwise `min(jobs, items)` scoped threads run it and the
    /// caller only joins. After a task panics no further task is handed
    /// out (tasks already running finish), and the panic with the smallest
    /// submission index is reported. Tasks are handed out in submission
    /// order, so every task before the first panicking one has run: the
    /// reported cell, and how far the batch got, match the serial path
    /// for any `--jobs N`.
    pub fn try_run<I, T, K, F>(
        &self,
        items: Vec<I>,
        key_of: K,
        task: F,
    ) -> Result<Vec<T>, SweepError>
    where
        I: Send,
        T: Send,
        K: Fn(usize, &I) -> String + Sync,
        F: Fn(usize, I) -> T + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        // `None` once a task has panicked: nothing more is handed out.
        let queue = Mutex::new(Some(items.into_iter().enumerate()));
        let failure: Mutex<Option<(usize, SweepError)>> = Mutex::new(None);
        let work = || {
            // Reserved up front: growing it between tasks puts a fresh
            // allocation between two cells' VMs, which raised the peak
            // RSS of `vmprobe-run fig9 --jobs 1` from 56 to 62 MB under
            // glibc malloc on x86-64 Linux.
            let mut out = Vec::with_capacity(n);
            loop {
                let Some((i, item)) = lock_unpoisoned(&queue).as_mut().and_then(Iterator::next)
                else {
                    return out;
                };
                let key = key_of(i, &item);
                match catch_unwind(AssertUnwindSafe(|| task(i, item))) {
                    Ok(t) => out.push((i, t)),
                    Err(p) => {
                        *lock_unpoisoned(&queue) = None;
                        let mut slot = lock_unpoisoned(&failure);
                        if slot.as_ref().is_none_or(|(j, _)| i < *j) {
                            *slot = Some((
                                i,
                                SweepError::WorkerPanicked {
                                    key,
                                    message: panic_message(p.as_ref()),
                                },
                            ));
                        }
                    }
                }
            }
        };
        let mut done = if workers <= 1 {
            work()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let (work, telemetry) = (&work, &self.telemetry);
                        scope.spawn(move || {
                            let _drain = telemetry.host_span(&format!("worker-{w}"), "drain");
                            work()
                        })
                    })
                    .collect();
                // Workers catch task panics themselves, so a join failure
                // would be a bug in the pool, not in a task.
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("pool worker infrastructure panicked"))
                    .collect::<Vec<_>>()
            })
        };
        if let Some((_, e)) = lock_unpoisoned(&failure).take() {
            return Err(e);
        }
        done.sort_unstable_by_key(|&(i, _)| i);
        Ok(done.into_iter().map(|(_, t)| t).collect())
    }
}

// ---------------------------------------------------------------------- memo

#[derive(Debug)]
enum Slot<V> {
    /// Some thread claimed the key and is computing; waiters block on the
    /// memo's condvar.
    InFlight,
    /// The computed value.
    Ready(V),
}

/// A concurrent memo: at most one computation per key, ever.
///
/// `get_or_compute` claims a key under the one lock, computes **outside**
/// it, then publishes and wakes waiters — so two cells never serialize
/// their (multi-second) simulations, only their map accesses. This
/// replaces the supervised runner's former single-threaded
/// positive/negative `HashMap` caches.
#[derive(Debug)]
pub struct Memo<V> {
    map: Mutex<HashMap<String, Slot<V>>>,
    ready: Condvar,
    telemetry: Telemetry,
}

impl<V> Default for Memo<V> {
    fn default() -> Self {
        Self {
            map: Mutex::default(),
            ready: Condvar::new(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Removes an in-flight claim if the computing closure panics or
/// declines, so waiters wake and retry instead of deadlocking on a slot
/// no one will fill.
struct ClaimGuard<'a, V> {
    memo: &'a Memo<V>,
    key: &'a str,
    armed: bool,
}

impl<V> ClaimGuard<'_, V> {
    /// Publish `value` under the claimed key and wake its waiters.
    fn publish(mut self, value: V) {
        self.armed = false;
        lock_unpoisoned(&self.memo.map).insert(self.key.to_owned(), Slot::Ready(value));
        self.memo.ready.notify_all();
    }
}

impl<V> Drop for ClaimGuard<'_, V> {
    fn drop(&mut self) {
        if self.armed {
            lock_unpoisoned(&self.memo.map).remove(self.key);
            self.memo.ready.notify_all();
        }
    }
}

impl<V: Clone> Memo<V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a telemetry handle: blocking on another thread's in-flight
    /// computation bumps [`CounterId::MemoInFlightWaits`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The value for `key` if it is already published (`None` while absent
    /// or still in flight — never blocks).
    pub fn peek(&self, key: &str) -> Option<V> {
        match lock_unpoisoned(&self.map).get(key) {
            Some(Slot::Ready(v)) => Some(v.clone()),
            Some(Slot::InFlight) | None => None,
        }
    }

    /// Return the published value for `key`, or claim the key and compute
    /// it. Concurrent callers for the same key block until the computing
    /// thread publishes, then all observe the identical value; `compute`
    /// runs **at most once per key** across all threads for the lifetime
    /// of the memo.
    ///
    /// The boolean is `true` for the caller whose closure actually ran.
    pub fn get_or_compute<F>(&self, key: &str, compute: F) -> (V, bool)
    where
        F: FnOnce() -> V,
    {
        {
            let mut map = lock_unpoisoned(&self.map);
            loop {
                match map.get(key) {
                    Some(Slot::Ready(v)) => return (v.clone(), false),
                    Some(Slot::InFlight) => {
                        self.telemetry.count(CounterId::MemoInFlightWaits, 1);
                        map = self.ready.wait(map).unwrap_or_else(|p| p.into_inner());
                    }
                    None => {
                        map.insert(key.to_owned(), Slot::InFlight);
                        break;
                    }
                }
            }
        }
        let guard = ClaimGuard {
            memo: self,
            key,
            armed: true,
        };
        let value = compute();
        guard.publish(value.clone());
        (value, true)
    }

    /// [`Memo::get_or_compute`] that never waits: `None` at once while
    /// another thread has `key` in flight (not counted as an in-flight
    /// wait). A published value is returned as is; an absent key is
    /// claimed and `compute` runs. When it declines (`None`), the claim is
    /// released and nothing is published, so a later `get_or_compute`
    /// still computes the key.
    pub fn try_get_or_compute<F>(&self, key: &str, compute: F) -> Option<V>
    where
        F: FnOnce() -> Option<V>,
    {
        {
            let mut map = lock_unpoisoned(&self.map);
            match map.get(key) {
                Some(Slot::Ready(v)) => return Some(v.clone()),
                Some(Slot::InFlight) => return None,
                None => {
                    map.insert(key.to_owned(), Slot::InFlight);
                }
            }
        }
        let guard = ClaimGuard {
            memo: self,
            key,
            armed: true,
        };
        let value = compute()?;
        guard.publish(value.clone());
        Some(value)
    }

    /// Number of published values.
    pub fn len(&self) -> usize {
        self.count_matching(|_| true)
    }

    /// True when nothing is published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of published values matching a predicate (e.g. successful
    /// runs vs quarantined failures).
    pub fn count_matching<F>(&self, mut pred: F) -> usize
    where
        F: FnMut(&V) -> bool,
    {
        lock_unpoisoned(&self.map)
            .values()
            .filter(|v| matches!(v, Slot::Ready(v) if pred(v)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_preserves_item_order_in_results() {
        for jobs in [1, 2, 8] {
            let pool = SweepPool::new(jobs);
            let out = pool.run((0..100).collect(), |_, x: u64| x * 2);
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_clamps_zero_jobs_to_one() {
        assert_eq!(SweepPool::new(0).jobs(), 1);
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let counter = AtomicUsize::new(0);
        let pool = SweepPool::new(4);
        let out = pool.run((0..257).collect::<Vec<u32>>(), |i, x| {
            counter.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i as u32, x);
            x
        });
        assert_eq!(out.len(), 257);
        assert_eq!(counter.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn memo_computes_once_per_key() {
        let memo: Memo<u64> = Memo::new();
        let calls = AtomicUsize::new(0);
        let (a, computed_a) = memo.get_or_compute("k", || {
            calls.fetch_add(1, Ordering::Relaxed);
            7
        });
        let (b, computed_b) = memo.get_or_compute("k", || {
            calls.fetch_add(1, Ordering::Relaxed);
            99
        });
        assert_eq!((a, b), (7, 7));
        assert!(computed_a && !computed_b);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.peek("k"), Some(7));
        assert_eq!(memo.peek("absent"), None);
    }

    #[test]
    fn memo_is_once_per_key_under_contention() {
        let memo: Memo<usize> = Memo::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..200 {
                        let key = format!("key-{}", i % 50);
                        let (v, _) = memo.get_or_compute(&key, || {
                            calls.fetch_add(1, Ordering::Relaxed);
                            i % 50
                        });
                        assert_eq!(v, i % 50);
                    }
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 50, "a key was recomputed");
        assert_eq!(memo.len(), 50);
    }

    #[test]
    fn memo_claim_is_released_when_compute_panics() {
        let memo: Memo<u64> = Memo::new();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.get_or_compute("k", || panic!("boom"));
        }));
        assert!(attempt.is_err());
        // The key must be computable again, not deadlocked in flight.
        let (v, computed) = memo.get_or_compute("k", || 5);
        assert_eq!(v, 5);
        assert!(computed);
    }

    #[test]
    fn try_claim_returns_a_ready_value_without_computing() {
        let memo: Memo<u64> = Memo::new();
        memo.get_or_compute("k", || 7);
        let v = memo.try_get_or_compute("k", || -> Option<u64> { panic!("must not run") });
        assert_eq!(v, Some(7));
        // An absent key is claimed, computed and published.
        assert_eq!(memo.try_get_or_compute("fresh", || Some(3)), Some(3));
        assert_eq!(memo.peek("fresh"), Some(3));
    }

    #[test]
    fn try_claim_returns_at_once_on_an_in_flight_key() {
        let mut memo: Memo<u64> = Memo::new();
        let telemetry = Telemetry::counters_only();
        memo.set_telemetry(telemetry.clone());
        let claimed = std::sync::Barrier::new(2);
        let probed = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                memo.get_or_compute("k", || {
                    claimed.wait();
                    // Held in flight until the other thread has probed.
                    probed.wait();
                    7
                });
            });
            claimed.wait();
            let v = memo.try_get_or_compute("k", || -> Option<u64> { panic!("must not run") });
            assert_eq!(v, None, "an in-flight key is not waited for");
            probed.wait();
        });
        assert_eq!(telemetry.counter(CounterId::MemoInFlightWaits), 0);
        assert_eq!(memo.peek("k"), Some(7));
    }

    #[test]
    fn declined_try_claim_releases_the_key() {
        let memo: Memo<u64> = Memo::new();
        assert_eq!(memo.try_get_or_compute("k", || None), None);
        assert_eq!(memo.peek("k"), None, "nothing published");
        assert!(memo.is_empty());
        let (v, computed) = memo.get_or_compute("k", || 5);
        assert_eq!(v, 5);
        assert!(computed, "the declined claim left the key computable");
    }

    #[test]
    fn panicking_try_claim_releases_the_key() {
        let memo: Memo<u64> = Memo::new();
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.try_get_or_compute("k", || -> Option<u64> { panic!("boom") });
        }));
        assert!(attempt.is_err());
        let (v, computed) = memo.get_or_compute("k", || 5);
        assert_eq!(v, 5);
        assert!(computed);
    }

    #[test]
    fn try_run_surfaces_panicking_cell_key() {
        for jobs in [1, 4] {
            let pool = SweepPool::new(jobs);
            let err = pool
                .try_run(
                    (0..16).collect::<Vec<u32>>(),
                    |_, x| format!("cell-{x}"),
                    |_, x| {
                        if x == 7 {
                            panic!("injected task failure");
                        }
                        x * 2
                    },
                )
                .unwrap_err();
            let SweepError::WorkerPanicked { key, message } = err;
            assert_eq!(key, "cell-7");
            assert!(message.contains("injected task failure"));
        }
    }

    #[test]
    fn pool_is_usable_after_a_panicked_batch() {
        let pool = SweepPool::new(4);
        let first = pool.try_run(
            vec![1u32],
            |_, _| "k".into(),
            |_, _| -> u32 { panic!("boom") },
        );
        assert!(first.is_err());
        let second = pool.try_run((0..32).collect(), |i, _| format!("#{i}"), |_, x: u32| x + 1);
        assert_eq!(second.unwrap(), (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_panics_report_smallest_submission_index() {
        // Every task panics; whichever workers hit them, the reported cell
        // must always be the first submitted one.
        for _ in 0..8 {
            let pool = SweepPool::new(8);
            let err = pool
                .try_run(
                    (0..64).collect::<Vec<u32>>(),
                    |i, _| format!("cell-{i}"),
                    |_, _| -> u32 { panic!("all fail") },
                )
                .unwrap_err();
            let SweepError::WorkerPanicked { key, .. } = err;
            assert_eq!(key, "cell-0");
        }
    }

    #[test]
    fn a_panic_stops_the_hand_out_at_every_worker_count() {
        for jobs in [1, 2, 4] {
            let ran = AtomicUsize::new(0);
            let err = SweepPool::new(jobs)
                .try_run(
                    (0..200).collect::<Vec<u32>>(),
                    |i, _| format!("cell-{i}"),
                    |_, x| {
                        if x == 0 {
                            // `resume_unwind` skips the panic hook, so the
                            // stop is not delayed by printing a message.
                            std::panic::resume_unwind(Box::new("task 0 failed"));
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                        ran.fetch_add(1, Ordering::Relaxed);
                    },
                )
                .unwrap_err();
            let SweepError::WorkerPanicked { key, message } = err;
            assert_eq!(key, "cell-0", "jobs={jobs}");
            assert_eq!(message, "task 0 failed");
            let ran = ran.load(Ordering::Relaxed);
            assert!(ran < 10, "jobs={jobs}: {ran} tasks ran after the panic");
        }
    }

    #[test]
    fn memo_counts_in_flight_waits() {
        let mut memo: Memo<u64> = Memo::new();
        let telemetry = Telemetry::counters_only();
        memo.set_telemetry(telemetry.clone());
        let started = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                memo.get_or_compute("k", || {
                    started.store(true, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    7
                });
            });
            while !started.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            let (v, computed) = memo.get_or_compute("k", || 99);
            assert_eq!(v, 7);
            assert!(!computed);
        });
        assert!(telemetry.counter(CounterId::MemoInFlightWaits) >= 1);
    }

    #[test]
    fn count_matching_filters_values() {
        let memo: Memo<u64> = Memo::new();
        for i in 0..10u64 {
            memo.get_or_compute(&format!("k{i}"), || i);
        }
        assert_eq!(memo.count_matching(|v| v % 2 == 0), 5);
        assert!(!memo.is_empty());
    }
}
