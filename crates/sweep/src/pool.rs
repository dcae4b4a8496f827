//! A deterministic scoped-thread work pool.
//!
//! The pool exists to make *fan-out over independent work items* fast
//! without ever letting scheduling order leak into results. The rules
//! that guarantee this (the crate-level determinism contract):
//!
//! * every work item is identified by its **index** in the input slice,
//!   and whatever randomness it needs must derive from that index (or
//!   from data reachable through it) — never from thread identity,
//!   timing, or a shared mutable counter;
//! * results are written **by slot**: worker threads hand back
//!   `(index, result)` pairs and the pool reassembles them into index
//!   order, so the caller observes the same `Vec` no matter which
//!   worker ran which item or in which order items finished.
//!
//! Under those rules `WorkPool::new(1)`, `WorkPool::new(8)` and any
//! other worker count produce bit-identical outputs, which is what the
//! determinism test-suite (`tests/determinism.rs`) pins forever.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Once};

thread_local! {
    /// Set for the lifetime of a pool worker thread. Nested fan-out
    /// (e.g. the decomposed LP engine's block solves running *inside* a
    /// campaign point that the pool is already parallelizing) checks
    /// this and degrades to serial execution instead of oversubscribing
    /// the machine with pools-inside-pools.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };

    /// The cancellation flag of the [`WorkPool::run`] call this worker
    /// thread belongs to, raised by the pool's panic hook.
    static CANCEL_ON_PANIC: RefCell<Option<Arc<AtomicBool>>> = const { RefCell::new(None) };
}

/// Installs, once per process, a panic hook that raises the panicking
/// worker's [`CANCEL_ON_PANIC`] flag and then calls the hook installed
/// before it. A panic hook runs on the panicking thread *before* the
/// unwind reaches `catch_unwind`, and the default one can be slow (under
/// `RUST_BACKTRACE=1` it resolves and prints a backtrace); raising the
/// flag first keeps the other workers from claiming items meanwhile.
/// A hook set after this one replaces it, and cancellation then waits
/// for the unwind as before.
fn install_cancel_hook() {
    static INSTALL: Once = Once::new();
    // `take_hook` panics on a panicking thread; such a caller simply
    // runs without the early signal.
    if std::thread::panicking() {
        return;
    }
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = CANCEL_ON_PANIC.try_with(|flag| {
                if let Some(flag) = flag.borrow().as_ref() {
                    flag.store(true, Ordering::Release);
                }
            });
            previous(info);
        }));
    });
}

/// A fixed-width pool of scoped worker threads (std-only, no
/// dependencies; threads live only for the duration of one call).
#[derive(Debug, Clone)]
pub struct WorkPool {
    workers: usize,
}

impl WorkPool {
    /// A pool running `workers` concurrent jobs (`1` = run everything on
    /// the calling thread).
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        WorkPool { workers }
    }

    /// A single-worker pool (serial execution on the calling thread).
    pub fn serial() -> Self {
        WorkPool::new(1)
    }

    /// A pool sized to the machine's available parallelism (falls back
    /// to one worker when that cannot be determined).
    pub fn available() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        WorkPool::new(n)
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Evaluates `job(0), …, job(n-1)` across the pool's workers and
    /// returns the results in index order.
    ///
    /// Items are claimed from a shared atomic counter (so workers stay
    /// busy even when item costs are skewed) but results are reduced by
    /// slot, never by completion order.
    ///
    /// # Panics
    ///
    /// If any job panics, one of the panics is re-raised on the calling
    /// thread (the lowest-spawn-order worker that panicked — *which*
    /// job that is can depend on scheduling). A panicking job also
    /// raises a cancellation flag that every worker checks before
    /// claiming its next item, so a failing campaign stops promptly:
    /// items claimed *after* the panic are bounded by the worker count
    /// (each surviving worker finishes at most the item it is already
    /// running plus one claimed in the race window), not by the queue
    /// length. The flag is raised from a panic hook the pool installs
    /// once per process, ahead of the hook that was there before, so
    /// the bound does not depend on how long that hook takes (under
    /// `RUST_BACKTRACE=1` the default hook resolves a backtrace).
    pub fn run<R, F>(&self, n: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers == 1 || n <= 1 {
            return (0..n).map(job).collect();
        }
        install_cancel_hook();
        let next = AtomicUsize::new(0);
        let cancelled = Arc::new(AtomicBool::new(false));
        let threads = self.workers.min(n);
        let mut buckets: Vec<Vec<(usize, R)>> = Vec::with_capacity(threads);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        IN_POOL.with(|flag| flag.set(true));
                        CANCEL_ON_PANIC.with(|flag| *flag.borrow_mut() = Some(cancelled.clone()));
                        let mut done: Vec<(usize, R)> = Vec::new();
                        while !cancelled.load(Ordering::Acquire) {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            // `job` is only required to be Sync (shared
                            // by reference), so catching here cannot
                            // corrupt caller state the caller could
                            // otherwise observe: the panic is re-raised
                            // verbatim below and `run` never returns.
                            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i)))
                            {
                                Ok(r) => done.push((i, r)),
                                Err(panic) => {
                                    cancelled.store(true, Ordering::Release);
                                    std::panic::resume_unwind(panic);
                                }
                            }
                        }
                        done
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(done) => buckets.push(done),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in buckets.into_iter().flatten() {
            debug_assert!(slots[i].is_none(), "item {i} ran twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index claimed exactly once"))
            .collect()
    }

    /// The chunked scheduler every campaign runs on (the decomposed LP
    /// engine's block solves go through the pool's
    /// [`socbuf_core::SolveExecutor`] impl, over [`WorkPool::run`]):
    /// evaluates `job` once per explicit range across the pool's
    /// workers and hands each result to `consume` **strictly in range
    /// order** on the calling thread — chunk `c`'s result is consumed
    /// before chunk `c+1`'s, no matter which worker finished first.
    /// This is what lets a campaign stream points into a sink while
    /// keeping the worker-count byte-identity contract: consumption
    /// order is range order, which is index order, which scheduling
    /// cannot touch.
    ///
    /// Memory is bounded: a worker that races ahead parks its finished
    /// chunk and then refuses to *claim* chunk `c` until
    /// `c < next_unconsumed + 2·workers`, so at most `2·workers` chunks
    /// are ever parked awaiting consumption (plus one in flight per
    /// worker). The gate cannot deadlock — chunks are claimed in order,
    /// so the claimer of `next_unconsumed` itself is never gated.
    ///
    /// `consume` errors cancel the remaining work (workers finish at
    /// most the chunk they are running) and the first error is
    /// returned; because consumption is ordered, "first" means lowest
    /// range index, matching what a batch collect-then-scan would
    /// select.
    ///
    /// # Panics
    ///
    /// Job panics propagate as in [`WorkPool::run`].
    pub fn run_ranges_ordered<R, E, F, C>(
        &self,
        ranges: &[std::ops::Range<usize>],
        job: F,
        mut consume: C,
    ) -> Result<OrderedRun, E>
    where
        R: Send,
        F: Fn(std::ops::Range<usize>) -> R + Sync,
        C: FnMut(usize, R) -> Result<(), E>,
    {
        let n = ranges.len();
        if self.workers == 1 || n <= 1 {
            for (c, range) in ranges.iter().enumerate() {
                consume(c, job(range.clone()))?;
            }
            return Ok(OrderedRun {
                chunks: n,
                peak_parked: 0,
            });
        }

        struct Shared<R> {
            parked: std::collections::BTreeMap<usize, R>,
            next: usize,
            abort: bool,
            peak: usize,
        }
        let threads = self.workers.min(n);
        let window = 2 * threads;
        let claim = AtomicUsize::new(0);
        let shared = std::sync::Mutex::new(Shared::<R> {
            parked: std::collections::BTreeMap::new(),
            next: 0,
            abort: false,
            peak: 0,
        });
        let turnstile = std::sync::Condvar::new();

        let mut outcome: Result<OrderedRun, E> = Ok(OrderedRun {
            chunks: n,
            peak_parked: 0,
        });
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        IN_POOL.with(|flag| flag.set(true));
                        loop {
                            let c = claim.fetch_add(1, Ordering::Relaxed);
                            if c >= n {
                                return;
                            }
                            {
                                let mut g = shared.lock().expect("pool state poisoned");
                                while !g.abort && c >= g.next + window {
                                    g = turnstile.wait(g).expect("pool state poisoned");
                                }
                                if g.abort {
                                    return;
                                }
                            }
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    job(ranges[c].clone())
                                }));
                            let mut g = shared.lock().expect("pool state poisoned");
                            match result {
                                Ok(r) => {
                                    if g.abort {
                                        return;
                                    }
                                    g.parked.insert(c, r);
                                    g.peak = g.peak.max(g.parked.len());
                                    turnstile.notify_all();
                                }
                                Err(panic) => {
                                    g.abort = true;
                                    turnstile.notify_all();
                                    drop(g);
                                    std::panic::resume_unwind(panic);
                                }
                            }
                        }
                    })
                })
                .collect();

            // The calling thread is the consumer: drain parked chunks in
            // strict range order, running `consume` outside the lock.
            let mut err: Option<E> = None;
            let mut drained = 0;
            while drained < n {
                let chunk = {
                    let mut g = shared.lock().expect("pool state poisoned");
                    loop {
                        if g.abort {
                            break None;
                        }
                        if let Some(r) = g.parked.remove(&drained) {
                            break Some(r);
                        }
                        g = turnstile.wait(g).expect("pool state poisoned");
                    }
                };
                let Some(chunk) = chunk else {
                    break; // a worker panicked; joined below
                };
                match consume(drained, chunk) {
                    Ok(()) => {
                        drained += 1;
                        let mut g = shared.lock().expect("pool state poisoned");
                        g.next = drained;
                        turnstile.notify_all();
                    }
                    Err(e) => {
                        let mut g = shared.lock().expect("pool state poisoned");
                        g.abort = true;
                        turnstile.notify_all();
                        err = Some(e);
                        break;
                    }
                }
            }
            for handle in handles {
                if let Err(panic) = handle.join() {
                    std::panic::resume_unwind(panic);
                }
            }
            outcome = match err {
                Some(e) => Err(e),
                None => Ok(OrderedRun {
                    chunks: n,
                    peak_parked: shared.lock().expect("pool state poisoned").peak,
                }),
            };
        });
        outcome
    }
}

/// Counters returned by [`WorkPool::run_ranges_ordered`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderedRun {
    /// Ranges executed and consumed.
    pub chunks: usize,
    /// Largest number of finished chunks ever parked awaiting ordered
    /// consumption — bounded by `2·workers` by the claim gate.
    pub peak_parked: usize,
}

/// The decomposed LP engine's block-solve hook: attaching a pool to
/// `SizingConfig::executor` fans the independent per-block solves of
/// each multiplier iteration over the pool's workers. When the call
/// arrives from *inside* one of this pool's own workers — a campaign
/// already parallelized over points, each point solving its LP — the
/// blocks run serially on that worker instead, so campaign-level and
/// block-level parallelism share one width budget. Either way the
/// results are bit-identical: executors change wall time, never bytes.
impl socbuf_core::SolveExecutor for WorkPool {
    fn run_indexed(&self, n: usize, job: &(dyn Fn(usize) + Sync)) {
        if IN_POOL.with(|flag| flag.get()) {
            for i in 0..n {
                job(i);
            }
            return;
        }
        self.run(n, job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_for_any_worker_count() {
        // Skewed costs: early items are the slowest, so completion order
        // inverts index order under parallel execution.
        let job = |i: usize| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(8 - 2 * i as u64));
            }
            i * i
        };
        let expect: Vec<usize> = (0..32).map(job).collect();
        for workers in [1, 2, 3, 8] {
            let got = WorkPool::new(workers).run(32, job);
            assert_eq!(got, expect, "worker count {workers} reordered results");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkPool::new(8);
        assert_eq!(pool.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let calls = AtomicUsize::new(0);
        let got = WorkPool::new(4).run(100, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "job 13 exploded")]
    fn job_panics_propagate_to_the_caller() {
        WorkPool::new(4).run(32, |i| {
            if i == 13 {
                panic!("job 13 exploded");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_is_rejected() {
        WorkPool::new(0);
    }

    #[test]
    fn items_claimed_after_a_panic_are_bounded_by_worker_count() {
        // Item 0 panics almost immediately while the other workers are
        // parked inside slow items; without claim-time cancellation the
        // survivors would then drain the whole 512-item queue before the
        // panic reaches the caller.
        const WORKERS: usize = 4;
        const ITEMS: usize = 512;
        let started = AtomicUsize::new(0);
        let panicked_after = AtomicUsize::new(usize::MAX);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            WorkPool::new(WORKERS).run(ITEMS, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    panicked_after.store(started.load(Ordering::SeqCst), Ordering::SeqCst);
                    panic!("item 0 exploded");
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                i
            })
        }));
        assert!(result.is_err(), "the panic must reach the caller");
        let at_panic = panicked_after.load(Ordering::SeqCst);
        let total = started.load(Ordering::SeqCst);
        assert_ne!(at_panic, usize::MAX, "item 0 must have run");
        assert!(
            total - at_panic <= WORKERS,
            "{} items started after the panic (at_panic {at_panic}, total {total}); \
             cancellation must bound this by the worker count",
            total - at_panic
        );
        assert!(
            total < ITEMS / 2,
            "{total} of {ITEMS} items ran; the queue should not drain after a panic"
        );
    }

    #[test]
    fn cancellation_does_not_wait_for_the_panic_hook() {
        // A hook stacked on top of the pool's sleeps 100 ms after the
        // hooks below it return, on the panicking thread and before the
        // unwind starts: a stand-in for a slow backtrace-printing hook.
        // Survivors with 10 ms items must not keep claiming through it.
        const MESSAGE: &str = "item 0 exploded under a slow hook";
        install_cancel_hook();
        type Hook = dyn Fn(&std::panic::PanicHookInfo<'_>) + Send + Sync;
        let below: Arc<Hook> = Arc::from(std::panic::take_hook());
        let inner = Arc::clone(&below);
        std::panic::set_hook(Box::new(move |info| {
            inner(info);
            if info.payload().downcast_ref::<&str>() == Some(&MESSAGE) {
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
        }));
        const WORKERS: usize = 4;
        const ITEMS: usize = 512;
        let started = AtomicUsize::new(0);
        let panicked_after = AtomicUsize::new(usize::MAX);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            WorkPool::new(WORKERS).run(ITEMS, |i| {
                started.fetch_add(1, Ordering::SeqCst);
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    panicked_after.store(started.load(Ordering::SeqCst), Ordering::SeqCst);
                    std::panic::panic_any(MESSAGE);
                }
                std::thread::sleep(std::time::Duration::from_millis(10));
                i
            })
        }));
        drop(std::panic::take_hook());
        std::panic::set_hook(Box::new(move |info| below(info)));
        assert!(result.is_err(), "the panic must reach the caller");
        let at_panic = panicked_after.load(Ordering::SeqCst);
        let total = started.load(Ordering::SeqCst);
        assert_ne!(at_panic, usize::MAX, "item 0 must have run");
        assert!(
            total - at_panic <= WORKERS,
            "{} items started while the panic hook ran (at_panic {at_panic}, total {total})",
            total - at_panic
        );
    }

    fn ranges(n: usize, width: usize) -> Vec<std::ops::Range<usize>> {
        (0..n).map(|c| c * width..(c + 1) * width).collect()
    }

    #[test]
    fn ordered_ranges_consume_in_range_order_for_any_worker_count() {
        // Skewed costs: early chunks are slowest, so completion order
        // inverts range order under parallel execution.
        let job = |r: std::ops::Range<usize>| {
            if r.start < 8 {
                std::thread::sleep(std::time::Duration::from_millis(8 - r.start as u64));
            }
            r.start
        };
        for workers in [1, 2, 3, 8] {
            let mut seen = Vec::new();
            let run = WorkPool::new(workers)
                .run_ranges_ordered::<_, (), _, _>(&ranges(24, 2), job, |c, start| {
                    assert_eq!(start, c * 2);
                    seen.push(c);
                    Ok(())
                })
                .unwrap();
            assert_eq!(seen, (0..24).collect::<Vec<_>>(), "{workers} workers");
            assert_eq!(run.chunks, 24);
            assert!(
                run.peak_parked <= 2 * workers,
                "{workers} workers parked {} chunks",
                run.peak_parked
            );
        }
    }

    #[test]
    fn ordered_ranges_bound_parked_chunks_when_chunk_zero_stalls() {
        // Chunk 0 sleeps while the other workers race ahead; the claim
        // gate must stop them at the window instead of parking the
        // whole queue.
        const WORKERS: usize = 4;
        let job = |r: std::ops::Range<usize>| {
            if r.start == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            r.start
        };
        let run = WorkPool::new(WORKERS)
            .run_ranges_ordered::<_, (), _, _>(&ranges(64, 1), job, |_, _| Ok(()))
            .unwrap();
        assert!(
            run.peak_parked <= 2 * WORKERS,
            "parked {} chunks; the claim window must bound this",
            run.peak_parked
        );
    }

    #[test]
    fn ordered_ranges_return_the_lowest_index_error_and_cancel() {
        let executed = AtomicUsize::new(0);
        let got = WorkPool::new(4).run_ranges_ordered(
            &ranges(256, 1),
            |r| {
                executed.fetch_add(1, Ordering::SeqCst);
                r.start
            },
            |c, _| {
                if c == 3 {
                    Err(format!("chunk {c}"))
                } else {
                    Ok(())
                }
            },
        );
        assert_eq!(got.unwrap_err(), "chunk 3");
        // Cancellation: workers stop claiming once the consumer aborts.
        assert!(
            executed.load(Ordering::SeqCst) < 256,
            "the queue should not drain after a consume error"
        );
    }

    #[test]
    #[should_panic(expected = "chunk 5 exploded")]
    fn ordered_ranges_propagate_job_panics() {
        let _ = WorkPool::new(4).run_ranges_ordered::<_, (), _, _>(
            &ranges(32, 1),
            |r| {
                if r.start == 5 {
                    panic!("chunk 5 exploded");
                }
                r.start
            },
            |_, _| Ok(()),
        );
    }
}
