//! # prmsel-par — persistent-pool data-parallelism for the workspace
//!
//! A dependency-free fork/join layer over a process-wide pool of parked
//! worker threads. The workspace builds offline with stand-in crates, so
//! rayon is not an option; this crate provides the small subset the
//! estimation stack actually needs:
//!
//! * [`map`] — apply a function to every element of a slice, in parallel,
//!   returning results **in input order**;
//! * [`chunks`] — split an index range `0..n` into one contiguous chunk
//!   per worker and collect the per-chunk results **in chunk order**
//!   (the building block for partitioned scans with thread-local
//!   accumulators merged by the caller);
//! * [`chunks_with`] — same, with an explicit worker count.
//!
//! ## The pool
//!
//! Workers are spawned once, on first use, and then park on a condvar
//! waiting for jobs — a parallel region costs one enqueue + wakeup
//! (~µs) instead of `t` thread spawns (~100 µs), which is what made
//! small `estimate_batch` calls scale flat. The caller always executes
//! chunk 0 itself and then *helps* drain the queue while waiting for its
//! remaining chunks, so nested parallel regions make progress even when
//! every pool worker is busy (no deadlock by construction) and a region
//! never blocks on a parked thread being available. Worker panics are
//! caught, carried back, and re-raised on the calling thread.
//!
//! ## Degree of parallelism
//!
//! [`threads`] resolves the worker count: a process-wide programmatic
//! override ([`set_threads`], used by benches and determinism tests)
//! wins over the `PRMSEL_THREADS` environment variable, which wins over
//! [`std::thread::available_parallelism`]. With one worker every entry
//! point runs inline on the caller's thread — no dispatch, same code
//! path, so `PRMSEL_THREADS=1` behaves exactly like the pre-parallel
//! code.
//!
//! ## Determinism
//!
//! Work is split by *position*, never by completion order: chunk
//! boundaries depend only on `(n, threads)` and results are joined in
//! chunk order. Callers that fold per-chunk partials therefore see the
//! same sequence of partials for a given thread count, and callers whose
//! merge is order-insensitive (integer count merges, stable best-move
//! scans) produce bit-identical output for *every* thread count.
//!
//! ## Telemetry
//!
//! Every parallel region records into the process-global [`obs`]
//! registry: `par.pool.tasks` (counter, tasks dispatched),
//! `par.pool.threads` (gauge, workers used by the most recent region),
//! `par.task.ns` (histogram, per-task wall clock) and
//! `par.pool.dispatch.ns` (histogram, enqueue→dequeue latency per job —
//! the cost the persistent pool exists to keep small).

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// `0` = no override; anything else is the forced worker count.
static OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Forces the worker count process-wide (`None` restores the
/// `PRMSEL_THREADS` / `available_parallelism` resolution). Intended for
/// benches and determinism tests; parallel regions already in flight are
/// unaffected.
pub fn set_threads(n: Option<usize>) {
    OVERRIDE.store(n.unwrap_or(0), Ordering::Relaxed);
}

/// The worker count parallel regions will use: [`set_threads`] override,
/// else `PRMSEL_THREADS` (a positive integer), else
/// [`std::thread::available_parallelism`].
pub fn threads() -> usize {
    let forced = OVERRIDE.load(Ordering::Relaxed);
    if forced > 0 {
        return forced;
    }
    std::env::var("PRMSEL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        })
}

// ---------------------------------------------------------------------------
// The persistent worker pool.
// ---------------------------------------------------------------------------

/// A unit of work queued to the pool. The closure owns its own panic
/// handling and completion signalling; `enqueued` feeds the
/// `par.pool.dispatch.ns` histogram when the job is dequeued.
struct Job {
    run: Box<dyn FnOnce() + Send + 'static>,
    enqueued: Instant,
}

/// State shared between the callers and the parked workers.
struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
}

impl PoolShared {
    fn try_pop(&self) -> Option<Job> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner).pop_front()
    }
}

/// The process-wide pool, spawned on first parallel region. One worker
/// fewer than the hardware thread count (the caller always runs a chunk
/// itself), and at least one so single-core machines still drain queues.
fn pool() -> &'static Arc<PoolShared> {
    static POOL: OnceLock<Arc<PoolShared>> = OnceLock::new();
    POOL.get_or_init(|| {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        });
        let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        for i in 0..hw.saturating_sub(1).max(1) {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("prmsel-par-{i}"))
                .spawn(move || worker_loop(&s))
                .expect("spawn pool worker");
        }
        shared
    })
}

/// Park on the condvar; run jobs as they arrive. Workers live for the
/// whole process — job closures catch their own panics, so the loop
/// never unwinds.
fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(j) = q.pop_front() {
                    break j;
                }
                q = shared.work_ready.wait(q).unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(job);
    }
}

fn run_job(job: Job) {
    obs::histogram!("par.pool.dispatch.ns").record_duration(job.enqueued.elapsed());
    (job.run)();
}

/// Completion latch for one parallel region: counts outstanding pool
/// jobs and carries the first worker panic back to the caller.
struct Latch {
    remaining: AtomicUsize,
    mutex: Mutex<()>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(n),
            mutex: Mutex::new(()),
            done_cv: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn arrive(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = self.mutex.lock().unwrap_or_else(PoisonError::into_inner);
            self.done_cv.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::Acquire) == 0
    }

    fn record_panic(&self, payload: Box<dyn Any + Send + 'static>) {
        let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Blocks until every job arrived — but *helps* by running queued
    /// jobs (from any region) instead of sleeping while work is
    /// available. This is what makes nested parallel regions
    /// deadlock-free: a caller whose jobs are stuck behind busy workers
    /// simply executes them itself.
    fn wait_helping(&self, shared: &PoolShared) {
        while !self.is_done() {
            match shared.try_pop() {
                Some(job) => run_job(job),
                None => {
                    let g = self.mutex.lock().unwrap_or_else(PoisonError::into_inner);
                    if self.is_done() {
                        return;
                    }
                    // Timeout keeps the help loop live if a job is queued
                    // between the try_pop miss and the wait.
                    let _ = self
                        .done_cv
                        .wait_timeout(g, Duration::from_millis(1))
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }
}

/// A `*mut` that may cross threads; used for disjoint-index result slots
/// whose writes are ordered by the latch.
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Splits `0..n` into `threads` contiguous chunks (sizes differing by at
/// most one), runs `f` on each chunk — chunk 0 on the calling thread,
/// the rest on the persistent pool — and returns the per-chunk results
/// in chunk order. With one worker (or one element) `f` runs inline on
/// the caller's thread. `n == 0` returns an empty vector without calling
/// `f`.
pub fn chunks_with<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let t = threads.max(1).min(n);
    obs::gauge!("par.pool.threads").set(t as f64);
    obs::counter!("par.pool.tasks").add(t as u64);
    if t == 1 {
        let start = Instant::now();
        let out = f(0..n);
        obs::histogram!("par.task.ns").record_duration(start.elapsed());
        return vec![out];
    }
    // Balanced partition: the first `n % t` chunks get one extra element.
    let base = n / t;
    let extra = n % t;
    let mut ranges = Vec::with_capacity(t);
    let mut lo = 0usize;
    for i in 0..t {
        let hi = lo + base + usize::from(i < extra);
        ranges.push(lo..hi);
        lo = hi;
    }

    let shared = pool();
    // Shared, not borrowed: the last job still locks and notifies the
    // latch after the count it decremented lets the caller return, so
    // each job keeps its own handle alive.
    let latch = Arc::new(Latch::new(t - 1));
    let mut results: Vec<Option<R>> = Vec::with_capacity(t);
    results.resize_with(t, || None);
    let out0;
    {
        let f = &f;
        let slots = SendPtr(results.as_mut_ptr());
        {
            let mut q = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            for (i, range) in ranges.iter().cloned().enumerate().skip(1) {
                let latch = Arc::clone(&latch);
                let job = move || {
                    // Capture the `SendPtr` wrapper, not its raw field.
                    let slots = slots;
                    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        let start = Instant::now();
                        let out = f(range);
                        obs::histogram!("par.task.ns").record_duration(start.elapsed());
                        out
                    }));
                    match outcome {
                        // SAFETY: each job writes only its own slot `i`,
                        // the caller reads the slots only after the latch
                        // reports every job arrived (AcqRel/Acquire on
                        // `remaining` orders the writes), and the
                        // wait-guard below keeps the vector alive until
                        // then.
                        Ok(v) => unsafe { *slots.0.add(i) = Some(v) },
                        Err(payload) => latch.record_panic(payload),
                    }
                    latch.arrive();
                };
                let run: Box<dyn FnOnce() + Send + '_> = Box::new(job);
                // SAFETY: extends the closure's borrows (of `f` and the
                // result slots) to 'static so it can sit in the
                // process-wide queue. The wait-guard below does not
                // return — even on panic — until every job has arrived,
                // and a job touches neither borrow after arriving, so no
                // borrow outlives its referent.
                let run: Box<dyn FnOnce() + Send + 'static> =
                    unsafe { std::mem::transmute(run) };
                q.push_back(Job { run, enqueued: Instant::now() });
            }
            shared.work_ready.notify_all();
        }
        // Run chunk 0 inline; the guard waits out the pool jobs even if
        // `f` panics here, so queued borrows never dangle.
        struct WaitGuard<'a>(&'a Latch, &'a PoolShared);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.0.wait_helping(self.1);
            }
        }
        let guard = WaitGuard(&latch, shared);
        let start = Instant::now();
        out0 = f(ranges[0].clone());
        obs::histogram!("par.task.ns").record_duration(start.elapsed());
        drop(guard);
    }
    results[0] = Some(out0);
    if let Some(payload) =
        latch.panic.lock().unwrap_or_else(PoisonError::into_inner).take()
    {
        std::panic::resume_unwind(payload);
    }
    results.into_iter().map(|r| r.expect("par worker panicked")).collect()
}

/// [`chunks_with`] at the ambient worker count ([`threads`]).
pub fn chunks<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    chunks_with(threads(), n, f)
}

/// Applies `f` to every element of `items` across the pool and returns
/// the results in input order.
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let parts =
        chunks(items.len(), |range| items[range].iter().map(&f).collect::<Vec<R>>());
    let mut out = Vec::with_capacity(items.len());
    for part in parts {
        out.extend(part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests mutate the process-wide override; serialize them.
    fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        set_threads(Some(n));
        let out = f();
        set_threads(None);
        out
    }

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for t in [1, 3, 8] {
            let out = with_threads(t, || map(&items, |&x| x * 2));
            assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>(), "t={t}");
        }
    }

    #[test]
    fn chunks_partition_exactly_in_order() {
        for (n, t) in [(10, 3), (7, 7), (5, 8), (1, 4), (100, 1)] {
            let ranges = chunks_with(t, n, |r| r);
            assert_eq!(ranges.len(), t.min(n));
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "n={n} t={t}");
                assert!(!w[1].is_empty());
            }
            // Balanced: sizes differ by at most one.
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "n={n} t={t} sizes={sizes:?}");
        }
    }

    #[test]
    fn empty_input_never_calls_the_closure() {
        let out = chunks_with(4, 0, |_| panic!("must not be called"));
        assert!(out.is_empty());
        let mapped: Vec<u32> = map(&[] as &[u32], |_| panic!("must not be called"));
        assert!(mapped.is_empty());
    }

    #[test]
    fn override_wins_and_resets() {
        with_threads(3, || assert_eq!(threads(), 3));
        // After reset, the count is whatever env/hardware dictates — just
        // check it is sane.
        assert!(threads() >= 1);
    }

    #[test]
    fn parallel_sum_matches_serial() {
        let data: Vec<u64> = (0..10_000).map(|i| i % 97).collect();
        let serial: u64 = data.iter().sum();
        for t in [2, 5, 16] {
            let partials =
                with_threads(t, || chunks(data.len(), |r| data[r].iter().sum::<u64>()));
            assert_eq!(partials.iter().sum::<u64>(), serial, "t={t}");
        }
    }

    #[test]
    fn pool_metrics_are_recorded() {
        with_threads(2, || {
            let before = obs::counter!("par.pool.tasks").get();
            let _ = chunks(8, |r| r.len());
            assert_eq!(obs::counter!("par.pool.tasks").get(), before + 2);
            assert_eq!(obs::registry().snapshot().gauge("par.pool.threads"), Some(2.0));
        });
    }

    #[test]
    fn nested_regions_do_not_deadlock() {
        // An inner parallel region inside a pool job must complete even when
        // every worker is busy — callers help drain the queue while waiting.
        let out = chunks_with(4, 8, |outer| {
            let inner = chunks_with(4, 8, |r| r.len());
            outer.len() + inner.iter().sum::<usize>()
        });
        assert_eq!(out.iter().sum::<usize>(), 8 + 4 * 8);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let caught = std::panic::catch_unwind(|| {
            chunks_with(4, 8, |r| {
                if r.start > 0 {
                    panic!("boom in worker");
                }
                r.len()
            })
        });
        let payload = caught.expect_err("worker panic must reach the caller");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "boom in worker");
    }

    #[test]
    fn dispatch_latency_is_recorded_for_pool_jobs() {
        let before = obs::registry()
            .snapshot()
            .histogram("par.pool.dispatch.ns")
            .map_or(0, |h| h.count);
        let _ = chunks_with(2, 8, |r| r.len());
        let after = obs::registry()
            .snapshot()
            .histogram("par.pool.dispatch.ns")
            .map_or(0, |h| h.count);
        assert!(after > before, "pool dispatch should record enqueue→dequeue latency");
    }
}
