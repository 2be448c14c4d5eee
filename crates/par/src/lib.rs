//! Deterministic data parallelism for the DP-Reverser stack.
//!
//! A std-only scoped fork-join fan-out with a rayon-shaped [`par_map`] API.
//! The design goal is *bit-identical outputs regardless of thread
//! count*: workers claim contiguous item ranges off an atomic item
//! cursor, and results are reassembled in input order before returning.
//! As long as the mapped function is pure (no shared mutable state, no
//! RNG), `par_map` with 1 thread and with N threads produce the same
//! `Vec` — which is what lets the pipeline fit one GP formula per sensor
//! in parallel without perturbing any fit's deterministic evolution.
//!
//! Two fan-outs enter the pool, both over whole independent jobs:
//! the pipeline's per-sensor inference stage (which `dpr-bench scale`
//! sweeps) and the bench harness's per-car fleet runs. A GP fit itself
//! is sequential and never enters the pool.
//!
//! # How work is split
//!
//! Claims follow capped factoring (`claim_len`): a claim starting at
//! item `start` takes `⌈(n − start) / 2·workers⌉` items, at least 1 and
//! at most the cap `⌈n / 4·workers⌉`. While much work remains every
//! claim is the cap, a quarter of a worker's fair share, so cursor
//! traffic stays low; over the tail claims halve towards single items,
//! so a costly item near the end (one slow GP fit among the sensors) no
//! longer strands its siblings behind a large last chunk. A claim is
//! taken with a compare-exchange on the cursor and its length depends
//! only on its start, so the set of claim ranges is the same at every
//! thread count: only which worker runs a claim varies, and results are
//! stored per claim and concatenated in start order.
//!
//! # The fan-out
//!
//! Each multi-worker `par_map` is one `std::thread::scope`: it spawns
//! `workers − 1` threads and **claims as worker 0 on the calling
//! thread**, so the already-running caller starts on the items while
//! the others spawn. Every participant hands its claims and timings
//! back through its join, and the caller reassembles the results in
//! start order. Borrowed inputs work without `'static` bounds, and a
//! panic in any participant resumes on the caller once every thread is
//! joined and the call's profile is recorded. The pipeline makes one
//! such call per car, so spawning per call costs tens of microseconds
//! against a fan-out of tens of milliseconds or more.
//!
//! Two rules keep fan-outs from multiplying threads:
//!
//! - Nested calls (a mapped function calling `par_map` again, as a
//!   fleet run's per-car task does through the pipeline's sensor
//!   fan-out) run inline: every participant carries a thread-local flag
//!   for its share.
//! - One multi-thread fan-out runs at a time: a process-wide lock is
//!   held across the scope, so concurrent top-level calls (the
//!   service's analysis workers) queue for it.
//!
//! # Thread-count resolution
//!
//! [`threads`] resolves, in order:
//!
//! 1. the `DPR_THREADS` environment variable (clamped to at least 1;
//!    unparsable values are ignored),
//! 2. [`std::thread::available_parallelism`],
//! 3. a fallback of 1.
//!
//! `DPR_THREADS=1` (or a single-core machine) makes every call run inline
//! on the caller's thread — no threads are spawned and no synchronization
//! is paid.
//!
//! # Telemetry and profiling
//!
//! Spawned workers are named `gp-worker-N` and re-enter the caller's
//! scoped telemetry registry, log context and open span path, all of
//! which are thread-local. Every claim is timed under a `par.chunk`
//! span nested in the caller's path, which is what makes worker rows
//! visible in exported traces; metrics recorded by the mapped function
//! land in the calling run's registry, not the process-wide global one.
//!
//! Every call additionally records a `dpr_prof::CallProfile` — per-worker
//! busy/wait/idle microseconds, claim count and cap, spin-up and teardown
//! latency — into the process-wide profile store, and emits `par.*`
//! metrics (see the DESIGN.md taxonomy) into the caller's registry.
//! Allocation attribution rides along when `DPR_PROF=1` and the binary
//! installs [`dpr_prof::alloc::CountingAlloc`]. Profiling never touches
//! the data path: claims and reassembly are identical with
//! profiling on or off.
//!
//! # Example
//!
//! ```
//! let squares = dpr_par::par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dpr_prof::{CallProfile, WorkerStats};
use dpr_telemetry::{log, span};
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "DPR_THREADS";

/// The effective worker-thread count: `DPR_THREADS` if set and valid,
/// otherwise the machine's available parallelism, otherwise 1.
///
/// `DPR_THREADS` is read on every call so tests and long-lived processes
/// can retune the fan-out between runs. The core count is cached:
/// `available_parallelism` re-reads cgroup quota files on every call on
/// Linux (tens of microseconds). Code that already knows its thread
/// count passes it to [`Pool::new`] instead.
pub fn threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// A fork-join fan-out of a fixed width.
///
/// The handle is a configuration object (just a worker count). Each
/// [`par_map`](Pool::par_map) call spawns its workers in a thread scope
/// and joins them before returning, so borrowed inputs work without
/// `'static` bounds and a panic in any worker propagates to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`threads`] (the `DPR_THREADS` override).
    pub fn from_env() -> Self {
        Pool::new(threads())
    }

    /// The worker count this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in input order.
    ///
    /// Deterministic for pure `f`: the output is identical for any thread
    /// count, including 1.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // Sync the profiling gate (and the allocator's counting flag)
        // once per call, mirroring how DPR_THREADS is re-read per call.
        let prof_on = dpr_prof::refresh();
        let started = Instant::now();
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 || IN_FAN_OUT.with(Cell::get) {
            return run_inline(items, f, started, n);
        }

        let (shares, panic) = fan_out(items, &f, workers, started);
        let profile = finalize_profile(started, n, claim_len(n, 0, workers), &shares, prof_on);
        emit_call_metrics(&profile, prof_on);
        dpr_prof::record_call(profile, started);
        if let Some(payload) = panic {
            resume_unwind(payload);
        }

        // Claim ranges depend only on their start, so start order is input
        // order whichever worker finished which claim.
        let mut claims: Vec<(usize, Vec<R>)> =
            shares.into_iter().flat_map(|share| share.claims).collect();
        claims.sort_unstable_by_key(|&(start, _)| start);
        let mut out = Vec::with_capacity(n);
        for (start, results) in claims {
            assert_eq!(start, out.len(), "every claim was taken and filled");
            out.extend(results);
        }
        assert_eq!(out.len(), n, "every item was claimed and mapped");
        out
    }
}

/// How many items a claim starting at item `start` takes, out of `n`
/// items shared by `workers`: capped factoring,
/// `clamp(⌈(n − start) / 2·workers⌉, 1, ⌈n / 4·workers⌉)`, and 0 once
/// `start ≥ n` (see "How work is split" above). Being a function of
/// `start` alone, not of which worker asks or when, is what makes the
/// claim ranges, and so the output, the same at any thread count.
pub(crate) fn claim_len(n: usize, start: usize, workers: usize) -> usize {
    if start >= n {
        return 0;
    }
    let cap = n.div_ceil(4 * workers);
    (n - start).div_ceil(2 * workers).clamp(1, cap)
}

thread_local! {
    /// Set while this thread runs a share of a fan-out: a nested
    /// `par_map` then runs inline instead of queueing for the fan-out
    /// lock its own caller holds.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// Held across a multi-thread fan-out, so only one runs at a time. A
/// panic that escapes while it is held poisons it; the next call takes
/// it anyway, since it guards no data.
static FAN_OUT: Mutex<()> = Mutex::new(());

/// One participant's part of a fan-out, handed back through its join.
struct Share<R> {
    /// `(start, results)` per claim, in the order this worker took them.
    claims: Vec<(usize, Vec<R>)>,
    /// Timings relative to the call's entry; zeros for a panicked worker.
    stats: RawWorker,
}

/// Raw per-worker samples for one call, all relative to the call's entry
/// instant. Converted into `dpr_prof::WorkerStats` by
/// [`finalize_profile`].
#[derive(Debug, Clone, Default)]
struct RawWorker {
    /// Microseconds from call entry to the worker starting its share.
    enter_us: u64,
    /// Microseconds from call entry to the worker finishing its share.
    exit_us: u64,
    /// Microseconds inside the mapped function.
    busy_us: u64,
    /// Microseconds claiming items and storing claim results.
    wait_us: u64,
    /// Items mapped.
    items: u64,
    /// Allocations made on this thread during its share (cumulative-delta
    /// from the counting allocator; zero when it is off or absent).
    allocs: u64,
    /// Bytes requested by those allocations.
    alloc_bytes: u64,
}

/// Runs one multi-worker call: `workers − 1` scoped threads plus the
/// caller as worker 0, all claiming off one cursor. Returns every
/// participant's share, worker 0 first, and the first panic, if any.
fn fan_out<T, R, F>(
    items: &[T],
    f: &F,
    workers: usize,
    started: Instant,
) -> (Vec<Share<R>>, Option<Box<dyn Any + Send>>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let _slot = FAN_OUT.lock().unwrap_or_else(PoisonError::into_inner);
    let cursor = AtomicUsize::new(0);
    let work = || run_share(items, f, workers, &cursor, started);
    // Spawned threads start with empty thread-locals: they re-enter the
    // caller's registry, log context and span path, so every metric,
    // record and span of the mapped function keeps its run attribution.
    let registry = dpr_telemetry::registry();
    let context = log::context_snapshot();
    let path = span::open_path();
    let joined: Vec<thread::Result<Share<R>>> = thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers)
            .map(|w| {
                thread::Builder::new()
                    // Named so trace exporters label each worker row.
                    .name(format!("gp-worker-{}", w - 1))
                    .spawn_scoped(scope, || {
                        IN_FAN_OUT.with(|flag| flag.set(true));
                        log::with_context(&context, || {
                            dpr_telemetry::scoped(Arc::clone(&registry), || {
                                span::under(&path, work)
                            })
                        })
                    })
                    .expect("spawn dpr-par worker")
            })
            .collect();
        IN_FAN_OUT.with(|flag| flag.set(true));
        let own = catch_unwind(AssertUnwindSafe(work));
        IN_FAN_OUT.with(|flag| flag.set(false));
        std::iter::once(own)
            .chain(spawned.into_iter().map(|handle| handle.join()))
            .collect()
    });
    let mut panic = None;
    let shares = joined
        .into_iter()
        .map(|share| {
            share.unwrap_or_else(|payload| {
                panic.get_or_insert(payload);
                Share {
                    claims: Vec::new(),
                    stats: RawWorker::default(),
                }
            })
        })
        .collect();
    (shares, panic)
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
        let end = start + claim_len(n, start, workers);
        match cursor.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(start..end),
            Err(current) => start = current,
        }
    }
}

/// One worker's share of a call: take claims off the cursor until none
/// remain, timing every phase. `wait` is cursor-claim plus result-store
/// time; `busy` is the mapped function.
fn run_share<T, R, F>(
    items: &[T],
    f: &F,
    workers: usize,
    cursor: &AtomicUsize,
    started: Instant,
) -> Share<R>
where
    F: Fn(&T) -> R,
{
    let enter_us = started.elapsed().as_micros() as u64;
    let alloc_before = dpr_prof::alloc::thread_alloc_stats();
    let mut busy = Duration::ZERO;
    let mut wait = Duration::ZERO;
    let mut claims = Vec::new();
    let mut mapped_items = 0u64;

    loop {
        let claim_start = Instant::now();
        let Some(range) = claim(cursor, items.len(), workers) else {
            wait += claim_start.elapsed();
            break;
        };
        let claimed = Instant::now();
        wait += claimed - claim_start;
        let start = range.start;
        mapped_items += range.len() as u64;
        let out: Vec<R> = {
            let _span = dpr_telemetry::Span::enter("par.chunk");
            items[range].iter().map(f).collect()
        };
        let mapped = Instant::now();
        busy += mapped - claimed;
        claims.push((start, out));
        wait += mapped.elapsed();
    }

    let alloc = dpr_prof::alloc::thread_alloc_stats().since(alloc_before);
    let stats = RawWorker {
        enter_us,
        exit_us: started.elapsed().as_micros() as u64,
        busy_us: busy.as_micros() as u64,
        wait_us: wait.as_micros() as u64,
        items: mapped_items,
        allocs: alloc.allocs,
        alloc_bytes: alloc.bytes,
    };
    Share { claims, stats }
}

/// The call's start on the caller's telemetry-registry timeline — the
/// same epoch span records use, so trace exporters can align profile
/// counter tracks with span rows.
fn registry_start_us(started: Instant) -> u64 {
    started
        .saturating_duration_since(dpr_telemetry::registry().epoch())
        .as_micros() as u64
}

/// The sequential path: single worker, nested call, or tiny input.
fn run_inline<T, R, F>(items: &[T], f: F, started: Instant, n: usize) -> Vec<R>
where
    F: Fn(&T) -> R,
{
    let alloc_before = dpr_prof::alloc::thread_alloc_stats();
    let out: Vec<R> = items.iter().map(f).collect();
    let wall_us = started.elapsed().as_micros() as u64;
    let alloc = dpr_prof::alloc::thread_alloc_stats().since(alloc_before);
    let profile = CallProfile {
        label: dpr_prof::current_label().to_string(),
        epoch_start_us: registry_start_us(started),
        wall_us,
        items: n as u64,
        chunk_size: n as u64,
        chunks: u64::from(n > 0),
        workers: vec![WorkerStats {
            worker: 0,
            busy_us: wall_us,
            chunks: u64::from(n > 0),
            items: n as u64,
            allocs: alloc.allocs,
            alloc_bytes: alloc.bytes,
            ..WorkerStats::default()
        }],
        inline: true,
        ..CallProfile::default()
    };
    emit_call_metrics(&profile, dpr_prof::alloc::counting());
    dpr_prof::record_call(profile, started);
    out
}

/// Builds the call's [`CallProfile`] from the participants' raw samples.
///
/// `busy` and `wait` are measured directly; `idle` is the per-worker
/// remainder of the call's wall time (spawn gap before the worker's
/// first claim, the tail after its last claim while stragglers finish,
/// and reassembly), saturating against clock-read jitter.
fn finalize_profile<R>(
    started: Instant,
    n: usize,
    cap: usize,
    shares: &[Share<R>],
    prof_on: bool,
) -> CallProfile {
    let wall_us = started.elapsed().as_micros() as u64;
    let mut last_exit_us = 0u64;
    let mut spinup_us = 0u64;
    let stats: Vec<WorkerStats> = shares
        .iter()
        .enumerate()
        .map(|(w, share)| {
            let r = &share.stats;
            spinup_us = spinup_us.max(r.enter_us);
            last_exit_us = last_exit_us.max(r.exit_us);
            WorkerStats {
                worker: w as u64,
                busy_us: r.busy_us,
                wait_us: r.wait_us,
                idle_us: wall_us.saturating_sub(r.busy_us + r.wait_us),
                chunks: share.claims.len() as u64,
                items: r.items,
                allocs: if prof_on { r.allocs } else { 0 },
                alloc_bytes: if prof_on { r.alloc_bytes } else { 0 },
            }
        })
        .collect();
    CallProfile {
        label: dpr_prof::current_label().to_string(),
        epoch_start_us: registry_start_us(started),
        wall_us,
        items: n as u64,
        chunk_size: cap as u64,
        chunks: shares.iter().map(|share| share.claims.len() as u64).sum(),
        workers: stats,
        spinup_us,
        teardown_us: wall_us.saturating_sub(last_exit_us),
        spawned_threads: shares.len() as u64 - 1,
        inline: false,
        ..CallProfile::default()
    }
}

/// Emits the call's `par.*` (and, under `DPR_PROF`, `prof.*`) metrics
/// into the caller's scoped registry. All of these are either
/// time-valued or scheduling-dependent, so the determinism suite
/// compares runs with the `par.`/`prof.` prefixes stripped.
fn emit_call_metrics(profile: &CallProfile, prof_on: bool) {
    if profile.inline {
        dpr_telemetry::counter("par.inline_calls").inc(1);
    } else {
        dpr_telemetry::counter("par.calls").inc(1);
        dpr_telemetry::counter("par.busy_us").inc(profile.busy_us());
        dpr_telemetry::counter("par.wait_us").inc(profile.wait_us());
        dpr_telemetry::counter("par.idle_us").inc(profile.idle_us());
        dpr_telemetry::histogram("par.chunk_size").record(profile.chunk_size as f64);
        dpr_telemetry::histogram("par.spinup_us").record(profile.spinup_us as f64);
        dpr_telemetry::histogram("par.teardown_us").record(profile.teardown_us as f64);
        dpr_telemetry::histogram("par.utilization").record(profile.utilization() * 100.0);
        dpr_telemetry::histogram("par.imbalance").record(profile.imbalance());
        dpr_telemetry::histogram("par.steal_ratio").record(profile.steal_ratio());
        if profile.spawned_threads > 0 {
            dpr_telemetry::counter("par.pool_spawns").inc(profile.spawned_threads);
        }
    }
    dpr_telemetry::counter("par.items").inc(profile.items);
    if prof_on {
        let allocs = profile.allocs();
        let bytes = profile.alloc_bytes();
        if allocs > 0 {
            dpr_telemetry::counter("prof.alloc_allocs").inc(allocs);
            dpr_telemetry::counter("prof.alloc_bytes").inc(bytes);
        }
    }
}

/// Maps `f` over `items` on the [`Pool::from_env`] pool, in input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    Pool::from_env().par_map(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        // Small inputs are where the tail claims differ from the cap.
        for n in (0..=64).chain([1000]) {
            let items: Vec<usize> = (0..n).collect();
            for workers in [1, 2, 3, 8, 64] {
                let out = Pool::new(workers).par_map(&items, |x| x * 2);
                assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            }
        }
    }

    /// The claim lengths a call over `n` items makes, in cursor order.
    fn claims(n: usize, workers: usize) -> Vec<usize> {
        let mut lens = Vec::new();
        let mut start = 0;
        while start < n {
            let len = claim_len(n, start, workers);
            assert!(len >= 1, "n {n} workers {workers}: empty claim at {start}");
            lens.push(len);
            start += len;
        }
        assert_eq!(claim_len(n, start, workers), 0);
        lens
    }

    #[test]
    fn claims_tile_the_input_and_shrink_to_single_items() {
        for workers in 1..=16 {
            for n in 0..=2000 {
                let lens = claims(n, workers);
                let cap = n.div_ceil(4 * workers);
                assert_eq!(lens.iter().sum::<usize>(), n, "n {n} workers {workers}");
                assert!(
                    lens.windows(2).all(|w| w[0] >= w[1]),
                    "n {n} workers {workers}: claims grow {lens:?}"
                );
                assert!(
                    lens.iter().all(|&len| len <= cap),
                    "n {n} workers {workers}"
                );
                if n > 0 {
                    assert_eq!(lens.last(), Some(&1), "n {n} workers {workers}");
                }
                if n <= 4 * workers {
                    // The fixed-chunk geometry: ⌈n / 4·workers⌉-item chunks.
                    let chunk = cap.max(1);
                    let fixed: Vec<usize> =
                        (0..n).step_by(chunk).map(|s| chunk.min(n - s)).collect();
                    assert_eq!(lens, fixed, "n {n} workers {workers}");
                }
            }
        }
    }

    #[test]
    fn identical_across_thread_counts() {
        // A float reduction whose value would drift if ordering changed.
        let items: Vec<f64> = (0..777).map(|i| f64::from(i) * 0.3127).collect();
        let f = |x: &f64| (x.sin() * 1e6).mul_add(0.1, x.sqrt());
        let one = Pool::new(1).par_map(&items, f);
        for workers in [2, 5, 16] {
            let many = Pool::new(workers).par_map(&items, f);
            let same = one
                .iter()
                .zip(&many)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "results differ between 1 and {workers} threads");
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(Pool::new(4).par_map(&empty, |x| *x).is_empty());
        assert_eq!(Pool::new(4).par_map(&[7u8], |x| *x + 1), vec![8]);
    }

    #[test]
    fn pool_clamps_to_one_thread() {
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn nested_calls_run_inline_without_deadlock() {
        assert_nested_calls_drain_inline(16, 8, 4);
    }

    #[test]
    fn batched_calls_nested_in_a_pool_task_count_as_inline_drains() {
        // A large inner batch still drains on the task's thread.
        assert_nested_calls_drain_inline(8, 64, 2);
    }

    /// Fans `outer` items out over `workers` threads, each calling
    /// `par_map` again over `inner` items, and checks the results and
    /// that only the outer call fanned out.
    fn assert_nested_calls_drain_inline(outer: u64, inner: u64, workers: usize) {
        let reg = std::sync::Arc::new(dpr_telemetry::Registry::new());
        let outer: Vec<u64> = (0..outer).collect();
        let inner: Vec<u64> = (0..inner).collect();
        let out = dpr_telemetry::scoped(std::sync::Arc::clone(&reg), || {
            Pool::new(workers).par_map(&outer, |x| {
                Pool::new(workers)
                    .par_map(&inner, |y| x + y)
                    .iter()
                    .sum::<u64>()
            })
        });
        let expect: Vec<u64> = outer
            .iter()
            .map(|x| inner.iter().map(|y| x + y).sum())
            .collect();
        assert_eq!(out, expect);
        // Only the outer call fanned out; every nested one drained
        // inline on its task's thread.
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("par.calls"), Some(&1));
        assert_eq!(
            snap.counters.get("par.inline_calls"),
            Some(&(outer.len() as u64))
        );
    }

    #[test]
    fn concurrent_submitters_queue_without_deadlock() {
        // Two analysis workers each fanning out, with nested calls inside
        // the mapped function: the service's shape.
        let submit = |offset: u64| {
            move || {
                let items: Vec<u64> = (offset..offset + 12).collect();
                for _ in 0..50 {
                    let out = Pool::new(2).par_map(&items, |x| {
                        Pool::new(2)
                            .par_map(&[1u64, 2, 3], |y| x * y)
                            .iter()
                            .sum::<u64>()
                    });
                    assert_eq!(out, items.iter().map(|x| 6 * x).collect::<Vec<_>>());
                }
            }
        };
        let a = std::thread::spawn(submit(0));
        let b = std::thread::spawn(submit(1000));
        a.join().expect("first submitter");
        b.join().expect("second submitter");
    }

    #[test]
    fn worker_spans_nest_under_the_submitters_path() {
        let reg = std::sync::Arc::new(dpr_telemetry::Registry::new());
        let collector = std::sync::Arc::new(dpr_telemetry::Collector::new());
        reg.add_sink(collector.clone());
        // Four one-item claims that all wait at a 4-party barrier: each
        // of the four threads must hold exactly one of them.
        let items: Vec<u64> = (0..4).collect();
        let barrier = std::sync::Barrier::new(4);
        dpr_telemetry::scoped(std::sync::Arc::clone(&reg), || {
            let _outer = dpr_telemetry::Span::enter("outer");
            Pool::new(4).par_map(&items, |x| {
                let _leaf = dpr_telemetry::Span::enter("leaf");
                barrier.wait();
                x + 1
            })
        });
        let records = collector.records();
        let leaves: Vec<_> = records.iter().filter(|r| r.name == "leaf").collect();
        assert_eq!(leaves.len(), items.len());
        for leaf in &leaves {
            assert_eq!(
                leaf.path, "outer.par.chunk.leaf",
                "tid {} ({:?})",
                leaf.tid, leaf.thread
            );
        }
        let tids: std::collections::BTreeSet<u64> = leaves.iter().map(|r| r.tid).collect();
        assert_eq!(tids.len(), 4, "one leaf per thread, got {tids:?}");
        // The borrowed `outer` frame was timed once, by the caller.
        assert_eq!(reg.snapshot().histograms["span.outer"].count, 1);
    }

    #[test]
    fn workers_record_into_the_callers_scoped_registry() {
        let reg = std::sync::Arc::new(dpr_telemetry::Registry::new());
        let collector = std::sync::Arc::new(dpr_telemetry::Collector::new());
        reg.add_sink(collector.clone());
        let items: Vec<u64> = (0..64).collect();
        let out = dpr_telemetry::scoped(std::sync::Arc::clone(&reg), || {
            Pool::new(4).par_map(&items, |x| {
                dpr_telemetry::counter("par.test_items").inc(1);
                // Slow enough that one worker cannot drain every chunk
                // before its siblings finish spawning.
                std::thread::sleep(std::time::Duration::from_millis(1));
                x + 1
            })
        });
        assert_eq!(out.len(), 64);
        let snap = reg.snapshot();
        // Counters from inside the mapped fn reached the scoped registry…
        assert_eq!(snap.counters.get("par.test_items"), Some(&64));
        // …and each claimed chunk closed a par.chunk span on a named,
        // distinctly-identified worker thread.
        let records = collector.records();
        let chunks: Vec<_> = records.iter().filter(|r| r.path == "par.chunk").collect();
        assert!(!chunks.is_empty());
        assert_eq!(snap.histograms["span.par.chunk"].count, chunks.len() as u64);
        let tids: std::collections::BTreeSet<u64> = chunks.iter().map(|r| r.tid).collect();
        assert!(
            tids.len() > 1,
            "expected multiple worker rows, got {tids:?}"
        );
        // The submitter participates as worker 0, so its chunks carry the
        // caller's thread name; every other chunk ran on a named pool row.
        assert!(chunks.iter().any(|r| {
            r.thread
                .as_deref()
                .is_some_and(|name| name.starts_with("gp-worker-"))
        }));
        // The call also emitted its scheduling metrics into the scope.
        assert_eq!(snap.counters.get("par.calls"), Some(&1));
        assert_eq!(snap.counters.get("par.items"), Some(&64));
        assert_eq!(snap.histograms["par.utilization"].count, 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            let items: Vec<u32> = (0..64).collect();
            Pool::new(4).par_map(&items, |x| {
                assert!(*x != 13, "boom");
                *x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        let items: Vec<u32> = (0..64).collect();
        let boom = std::panic::catch_unwind(|| {
            Pool::new(2).par_map(&items, |x| {
                assert!(*x != 7, "boom");
                *x
            })
        });
        assert!(boom.is_err());
        // A panic while the fan-out lock is held poisons it; the next
        // call takes it anyway and runs normally.
        let poisoner = std::thread::spawn(|| {
            let _slot = FAN_OUT.lock();
            panic!("poison the fan-out lock");
        });
        assert!(poisoner.join().is_err());
        assert!(FAN_OUT.is_poisoned());
        let out = Pool::new(2).par_map(&items, |x| x + 1);
        assert_eq!(out[63], 64);
    }
}
