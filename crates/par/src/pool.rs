//! The process-wide persistent worker pool.
//!
//! Workers (`gp-worker-N`) are OS threads spawned lazily — up to the
//! largest *extra* worker count any call has requested — and parked on a
//! condvar between jobs. A job is one `par_map` call: the submitter
//! publishes a type-erased [`Task`] plus a participant count, wakes the
//! pool, **claims worker slot 0 itself**, and blocks until every
//! participant has decremented the active counter. Caller participation
//! matters twice over: a 2-thread call needs only one condvar wake-up
//! instead of two, and the submitting thread — already hot, already
//! scheduled — starts claiming items immediately, so in the worst case
//! (pool threads scheduled late) the call degenerates to inline speed
//! instead of paying wake-up latency on the critical path. Because the
//! submitter cannot return before the job completes, the task may borrow
//! the caller's stack (items, closures, claim results) without `'static`
//! bounds — that is the invariant the `unsafe` below leans on.
//!
//! There is exactly one job slot: concurrent top-level `par_map` calls
//! serialize on it, and a nested call from inside a worker runs inline
//! (see [`in_worker`]) since waiting for the slot from a worker would
//! deadlock the pool against itself.

#![allow(unsafe_code)]

use dpr_telemetry::log;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Raw per-worker samples for one job, all relative to the call's entry
/// instant. Converted into `dpr_prof::WorkerStats` by the caller.
#[derive(Debug, Clone, Default)]
pub(crate) struct RawWorker {
    /// Microseconds from call entry to the worker picking up the job.
    pub(crate) enter_us: u64,
    /// Microseconds from call entry to the worker finishing the job.
    pub(crate) exit_us: u64,
    /// Microseconds inside the mapped function.
    pub(crate) busy_us: u64,
    /// Microseconds claiming items and storing claim results.
    pub(crate) wait_us: u64,
    /// Claims taken.
    pub(crate) chunks: u64,
    /// Items mapped.
    pub(crate) items: u64,
    /// Allocations made on this thread during the job (cumulative-delta
    /// from the counting allocator; zero when it is off or absent).
    pub(crate) allocs: u64,
    /// Bytes requested by those allocations.
    pub(crate) alloc_bytes: u64,
}

/// Everything a worker needs to execute one `par_map` call, borrowed
/// from the submitting frame.
pub(crate) struct Ctx<'a, T, R, F> {
    pub(crate) items: &'a [T],
    pub(crate) f: &'a F,
    /// Participant count; with `items.len()` it fixes every claim's
    /// length (see [`crate::claim_len`]).
    pub(crate) workers: usize,
    /// The next unclaimed item index.
    pub(crate) cursor: &'a AtomicUsize,
    /// One `(start, results)` entry per finished claim, in completion
    /// order; the caller sorts them by `start` to reassemble.
    pub(crate) claims: &'a Mutex<Vec<(usize, Vec<R>)>>,
    pub(crate) stats: &'a Mutex<Vec<RawWorker>>,
    pub(crate) started: Instant,
}

/// What `run_job` hands back to the caller.
pub(crate) struct JobOutcome {
    /// OS threads this call spawned (0 once the pool is warm).
    pub(crate) spawned: u64,
    /// The first worker panic, if any; the caller resumes it after
    /// recording the call profile.
    pub(crate) panic: Option<Box<dyn Any + Send>>,
}

/// A type-erased pointer to a [`Ctx`] on the submitter's stack plus its
/// monomorphized runner.
///
/// SAFETY: `data` is only dereferenced by `run` (which casts it back to
/// the exact `Ctx` type it was erased from), only between job publish
/// and the submitter observing `active == 0` — a window during which
/// the submitter is blocked and the `Ctx` borrow is live. `Send`/`Sync`
/// are sound because `run_job` requires `T: Sync`, `R: Send`, and
/// `Sync` closures, making the pointed-to `Ctx` shareable.
#[derive(Clone, Copy)]
struct Task {
    data: *const (),
    run: unsafe fn(*const (), usize),
}

unsafe impl Send for Task {}
unsafe impl Sync for Task {}

#[derive(Clone)]
struct Job {
    task: Task,
    workers: usize,
    epoch: u64,
    registry: Arc<dpr_telemetry::Registry>,
    /// The submitter's correlation context (`job_id`, `req_id`), carried
    /// onto pool workers so their log records join the same story.
    log_context: Arc<Vec<(&'static str, String)>>,
    panic: Arc<Mutex<Option<Box<dyn Any + Send>>>>,
}

#[derive(Default)]
struct State {
    job: Option<Job>,
    epoch: u64,
    active: usize,
    spawned: usize,
}

struct Shared {
    state: Mutex<State>,
    /// Workers wait here for the next job.
    work: Condvar,
    /// Submitters wait here for job completion / slot availability.
    done: Condvar,
}

static SHARED: OnceLock<Arc<Shared>> = OnceLock::new();

fn shared() -> &'static Arc<Shared> {
    SHARED.get_or_init(|| {
        Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        })
    })
}

fn lock(shared: &Shared) -> MutexGuard<'_, State> {
    shared.state.lock().unwrap_or_else(|e| e.into_inner())
}

fn wait<'a>(cv: &Condvar, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// True on pool worker threads; nested `par_map` calls check this and
/// run inline instead of re-entering the single job slot.
pub(crate) fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Sets the thread's in-worker flag for a scope, restoring it on drop
/// (including across an unwinding panic in the caller's claim loop).
struct WorkerScope {
    prev: bool,
}

impl WorkerScope {
    fn enter() -> WorkerScope {
        let prev = IN_WORKER.with(Cell::get);
        IN_WORKER.with(|flag| flag.set(true));
        WorkerScope { prev }
    }
}

impl Drop for WorkerScope {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_WORKER.with(|flag| flag.set(prev));
    }
}

/// Publishes `ctx` as one job for `workers` participants and blocks
/// until all of them finish. The submitter itself takes worker slot 0;
/// only `workers - 1` pool threads are woken. Returns the spawn count
/// and any panic.
pub(crate) fn run_job<T, R, F>(ctx: &Ctx<'_, T, R, F>, workers: usize) -> JobOutcome
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let shared = shared();
    let registry = dpr_telemetry::registry();
    let panic_slot: Arc<Mutex<Option<Box<dyn Any + Send>>>> = Arc::new(Mutex::new(None));
    let task = Task {
        data: (ctx as *const Ctx<'_, T, R, F>).cast(),
        run: run_erased::<T, R, F>,
    };
    // The caller is participant 0; the pool contributes the rest.
    let extras = workers - 1;
    let mut spawned = 0u64;
    {
        let mut st = lock(shared);
        while st.job.is_some() {
            st = wait(&shared.done, st);
        }
        while st.spawned < extras {
            let index = st.spawned;
            st.spawned += 1;
            spawned += 1;
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                // Named so trace exporters label each pool row.
                .name(format!("gp-worker-{index}"))
                .spawn(move || worker_loop(shared, index))
                .expect("spawn dpr-par worker");
        }
        st.epoch += 1;
        st.job = Some(Job {
            task,
            workers: extras,
            epoch: st.epoch,
            registry,
            log_context: Arc::new(log::context_snapshot()),
            panic: Arc::clone(&panic_slot),
        });
        st.active = extras;
    }
    if extras > 0 {
        shared.work.notify_all();
    }
    // Claim slot 0 on the submitting thread while the pool wakes. The
    // in-worker flag makes any nested par_map inside the mapped function
    // run inline rather than deadlock on the job slot we hold.
    let caller_panic = {
        let _scope = WorkerScope::enter();
        // SAFETY: `ctx` is a live borrow on this very stack frame.
        catch_unwind(AssertUnwindSafe(|| run_typed(ctx, 0))).err()
    };
    {
        let mut st = lock(shared);
        while st.active > 0 {
            st = wait(&shared.done, st);
        }
        st.job = None;
    }
    // Free the job slot for any queued submitter.
    shared.done.notify_all();
    let mut panic = panic_slot.lock().unwrap_or_else(|e| e.into_inner()).take();
    if panic.is_none() {
        panic = caller_panic;
    }
    JobOutcome { spawned, panic }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    IN_WORKER.with(|flag| flag.set(true));
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared);
            loop {
                let mut claimed = None;
                if let Some(job) = &st.job {
                    if job.epoch > last_epoch {
                        // Mark the job seen even when we sit it out, so a
                        // non-participant never re-examines the same job.
                        last_epoch = job.epoch;
                        if index < job.workers {
                            claimed = Some(job.clone());
                        }
                    }
                }
                if let Some(job) = claimed {
                    break job;
                }
                st = wait(&shared.work, st);
            }
        };
        // Re-enter the caller's telemetry registry and log context for the
        // job's duration: both are thread-local, so without this hand-off
        // every span, counter, or log record emitted inside the mapped
        // function would lose its run attribution. The panic is caught
        // *inside* the scope so `scoped` always unwinds its stack cleanly.
        log::with_context(&job.log_context, || dpr_telemetry::scoped(Arc::clone(&job.registry), || {
            // SAFETY: the submitter blocks until we decrement `active`
            // below, so the `Ctx` behind `task.data` is still alive. The
            // caller holds stats slot 0, so pool thread N records as
            // worker N + 1.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe {
                (job.task.run)(job.task.data, index + 1)
            }));
            if let Err(payload) = result {
                let mut slot = job.panic.lock().unwrap_or_else(|e| e.into_inner());
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }));
        let mut st = lock(&shared);
        st.active -= 1;
        let finished = st.active == 0;
        drop(st);
        if finished {
            shared.done.notify_all();
        }
    }
}

/// Monomorphized trampoline: recovers the concrete `Ctx` type and runs
/// the worker body.
///
/// SAFETY: called only with a `data` pointer produced from the same
/// `Ctx<'_, T, R, F>` instantiation in `run_job`, while that `Ctx` is
/// alive (the submitter is blocked).
unsafe fn run_erased<T, R, F>(data: *const (), worker: usize)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let ctx = &*data.cast::<Ctx<'_, T, R, F>>();
    run_typed(ctx, worker);
}

/// Takes the next claim off the item cursor: `start..start + claim_len`,
/// or `None` once every item is claimed. The length is a function of
/// `start` alone, so the compare-exchange retries until this worker wins
/// the cursor at some `start` and then owns exactly that claim.
fn claim(cursor: &AtomicUsize, n: usize, workers: usize) -> Option<Range<usize>> {
    let mut start = cursor.load(Ordering::Relaxed);
    loop {
        if start >= n {
            return None;
        }
        let end = start + crate::claim_len(n, start, workers);
        match cursor.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(start..end),
            Err(current) => start = current,
        }
    }
}

/// One worker's share of a job: take claims off the cursor until none
/// remain, timing every phase. `wait` is cursor-claim plus result-store
/// time; `busy` is the mapped function.
fn run_typed<T, R, F>(ctx: &Ctx<'_, T, R, F>, worker: usize)
where
    F: Fn(&T) -> R,
{
    let enter_us = ctx.started.elapsed().as_micros() as u64;
    let alloc_before = dpr_prof::alloc::thread_alloc_stats();
    let mut busy = Duration::ZERO;
    let mut wait_t = Duration::ZERO;
    let mut chunks = 0u64;
    let mut items = 0u64;

    loop {
        let claim_start = Instant::now();
        let Some(range) = claim(ctx.cursor, ctx.items.len(), ctx.workers) else {
            wait_t += claim_start.elapsed();
            break;
        };
        let claimed = Instant::now();
        wait_t += claimed - claim_start;
        let start = range.start;
        items += range.len() as u64;
        let out: Vec<R> = {
            let _span = dpr_telemetry::Span::enter("par.chunk");
            ctx.items[range]
                .iter()
                .map(ctx.f)
                .collect()
        };
        let mapped = Instant::now();
        busy += mapped - claimed;
        ctx.claims
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((start, out));
        wait_t += mapped.elapsed();
        chunks += 1;
    }

    let alloc = dpr_prof::alloc::thread_alloc_stats().since(alloc_before);
    let exit_us = ctx.started.elapsed().as_micros() as u64;
    let mut stats = ctx.stats.lock().unwrap_or_else(|e| e.into_inner());
    stats[worker] = RawWorker {
        enter_us,
        exit_us,
        busy_us: busy.as_micros() as u64,
        wait_us: wait_t.as_micros() as u64,
        chunks,
        items,
        allocs: alloc.allocs,
        alloc_bytes: alloc.bytes,
    };
}
