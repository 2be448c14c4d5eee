//! Deterministic data parallelism for the DP-Reverser stack.
//!
//! A std-only fork-join thread pool with a rayon-shaped [`par_map`] API.
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
//! # The persistent pool
//!
//! Workers are spawned once per process (lazily, up to the largest
//! worker count any call has asked for) and parked on a condvar between
//! calls; each `par_map` publishes one job, **joins it as worker 0 on
//! the submitting thread**, and reassembles the results once the pool
//! threads (slots 1..N) have drained their share. Caller participation
//! is what makes small jobs safe: the already-running submitter starts
//! claiming items immediately, so wake-up latency overlaps useful work
//! and a call can never be slower than running inline by more than the
//! join cost. The `par.pool_spawns` counter records how many threads a
//! call actually created (0 once the pool is warm). Because the
//! caller blocks until the job completes, borrowed inputs work without
//! `'static` bounds and a panic in any worker propagates to the caller.
//!
//! Nested calls (a mapped function calling `par_map` again, as a fleet
//! run's per-car task does through the pipeline's sensor fan-out) run
//! inline on the worker thread: the pool has one job slot, so
//! re-entering it from a worker would deadlock.
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
//! Workers are named `gp-worker-N` and run inside the caller's scoped
//! telemetry registry (`dpr_telemetry::scoped` is thread-local, so the
//! pool re-enters it on each job). Every claim is timed under
//! a `par.chunk` span, which is what makes pool rows visible in exported
//! traces; metrics recorded by the mapped function land in the calling
//! run's registry, not the process-wide global one.
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

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod pool;

use dpr_prof::{CallProfile, WorkerStats};
use std::sync::atomic::AtomicUsize;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "DPR_THREADS";

/// The effective worker-thread count: `DPR_THREADS` if set and valid,
/// otherwise the machine's available parallelism, otherwise 1.
///
/// `DPR_THREADS` is read on every call so tests and long-lived processes
/// can retune the pool between runs. The core count is cached:
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

/// A fork-join facade over the process-wide persistent pool.
///
/// The pool handle is a configuration object (just a worker count); the
/// live `gp-worker-N` threads are process-wide and shared by every
/// handle. Each [`par_map`](Pool::par_map) call publishes one job and
/// joins it before returning, so borrowed inputs work without `'static`
/// bounds and a panic in any worker propagates to the caller.
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
        if workers <= 1 || pool::in_worker() {
            return run_inline(items, f, started, n);
        }

        let cursor = AtomicUsize::new(0);
        let claims: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
        let raw_stats: Mutex<Vec<pool::RawWorker>> =
            Mutex::new(vec![pool::RawWorker::default(); workers]);

        let ctx = pool::Ctx {
            items,
            f: &f,
            workers,
            cursor: &cursor,
            claims: &claims,
            stats: &raw_stats,
            started,
        };
        let outcome = pool::run_job(&ctx, workers);

        let mut claims = claims.into_inner().unwrap_or_else(|e| e.into_inner());
        let profile = finalize_profile(
            started,
            n,
            // The first claim is the cap: no later claim is larger.
            claim_len(n, 0, workers),
            claims.len(),
            &outcome,
            raw_stats.into_inner().unwrap_or_else(|e| e.into_inner()),
            prof_on,
        );
        emit_call_metrics(&profile, prof_on);
        dpr_prof::record_call(profile, started);

        if let Some(payload) = outcome.panic {
            std::panic::resume_unwind(payload);
        }

        // Claim ranges depend only on their start, so start order is input
        // order whichever worker finished which claim.
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

/// Builds the call's [`CallProfile`] from the raw per-worker samples.
///
/// `busy` and `wait` are measured directly; `idle` is the per-worker
/// remainder of the call's wall time (spin-up gap before the worker's
/// first claim, the tail after its last claim while stragglers finish,
/// and reassembly), saturating against clock-read jitter.
#[allow(clippy::too_many_arguments)]
fn finalize_profile(
    started: Instant,
    n: usize,
    cap: usize,
    claims: usize,
    outcome: &pool::JobOutcome,
    raw: Vec<pool::RawWorker>,
    prof_on: bool,
) -> CallProfile {
    let wall_us = started.elapsed().as_micros() as u64;
    let mut last_exit_us = 0u64;
    let mut spinup_us = 0u64;
    let stats: Vec<WorkerStats> = raw
        .iter()
        .enumerate()
        .map(|(w, r)| {
            spinup_us = spinup_us.max(r.enter_us);
            last_exit_us = last_exit_us.max(r.exit_us);
            WorkerStats {
                worker: w as u64,
                busy_us: r.busy_us,
                wait_us: r.wait_us,
                idle_us: wall_us.saturating_sub(r.busy_us + r.wait_us),
                chunks: r.chunks,
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
        chunks: claims as u64,
        workers: stats,
        spinup_us,
        teardown_us: wall_us.saturating_sub(last_exit_us),
        spawned_threads: outcome.spawned,
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
        let reg = std::sync::Arc::new(dpr_telemetry::Registry::new());
        let outer: Vec<u32> = (0..16).collect();
        let out = dpr_telemetry::scoped(std::sync::Arc::clone(&reg), || {
            Pool::new(4).par_map(&outer, |x| {
                let inner: Vec<u32> = (0..8).collect();
                Pool::new(4).par_map(&inner, |y| y + x).iter().sum::<u32>()
            })
        });
        let expect: Vec<u32> = outer.iter().map(|x| (0..8).map(|y| y + x).sum()).collect();
        assert_eq!(out, expect);
        // Only the outer call reached the pool; every nested one drained
        // inline on the task's thread.
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("par.calls"), Some(&1));
        assert_eq!(snap.counters.get("par.inline_calls"), Some(&16));
    }

    #[test]
    fn batched_calls_nested_in_a_pool_task_count_as_inline_drains() {
        let reg = std::sync::Arc::new(dpr_telemetry::Registry::new());
        let outer: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (0..64).collect();
        let out = dpr_telemetry::scoped(std::sync::Arc::clone(&reg), || {
            Pool::new(2).par_map(&outer, |x| {
                // A large inner batch still drains on the task's thread.
                Pool::new(2).par_map(&inner, |y| x + y).iter().sum::<u64>()
            })
        });
        let expect: Vec<u64> = outer.iter().map(|x| inner.iter().map(|y| x + y).sum()).collect();
        assert_eq!(out, expect);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("par.inline_calls"), Some(&8));
        // Only the outer call reached the pool.
        assert_eq!(snap.counters.get("par.calls"), Some(&1));
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
        assert_eq!(
            snap.histograms["span.par.chunk"].count,
            chunks.len() as u64
        );
        let tids: std::collections::BTreeSet<u64> = chunks.iter().map(|r| r.tid).collect();
        assert!(tids.len() > 1, "expected multiple worker rows, got {tids:?}");
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
        // The same process-wide workers take the next job normally.
        let out = Pool::new(2).par_map(&items, |x| x + 1);
        assert_eq!(out[63], 64);
    }
}
