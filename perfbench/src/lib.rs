//! End-to-end benchmark of the DP-Reverser analyzer.
//!
//! Two workloads drive the real analyzer through its public entry
//! points, on the 18 Tab. 3 captures generated in memory (simulated
//! collection → `record_report` → `.dprcap` bytes), in an order drawn
//! from the `--seed` argument:
//!
//! * `car` — the captures under the paper GP budget, analyzed one after
//!   another, so GP's per-generation batch dispatcher is the only
//!   parallelism;
//! * `serve` — an open loop of capture uploads to an in-process
//!   `dpr-serve` running the production analyzer on the reduced budget,
//!   where every GP generation drains inline.
//!
//! Every result's canonical JSON is compared byte for byte with a
//! reference analysis made in set-up, and formula precision is scored
//! against the simulated vehicles' ground truth. `--trace 1` reruns a
//! workload with span collection, pool profiling and allocation
//! counting on, and reports per-layer numbers instead of end-to-end
//! ones; the program itself gains no tracing.

pub mod analyze;
pub mod check;
pub mod host;
pub mod inputs;
pub mod layers;
pub mod metrics;
pub mod serve;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The analyst's wait: one car after another.
    Car,
    /// Job latency through the HTTP analysis service.
    Serve,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Car, Workload::Serve];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Car => "car",
            Workload::Serve => "serve",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Switches the pool profiler's allocation attribution (`DPR_PROF`) on
/// or off for a traced window.
pub fn set_profiling(on: bool) {
    if on {
        std::env::set_var(dpr_prof::PROF_ENV, "1");
    } else {
        std::env::remove_var(dpr_prof::PROF_ENV);
    }
    dpr_prof::refresh();
}

/// Process-wide allocation tally for the traced run. The binary's
/// global allocator calls [`note_alloc`](alloc_tally::note_alloc);
/// counting is off unless a traced window switches it on.
pub mod alloc_tally {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicUsize;

    /// One thread's counters, on a cache line of its own: a shared
    /// counter bumped on every allocation from two cores costs more
    /// than the work it counts.
    #[repr(align(128))]
    struct Shard {
        count: AtomicU64,
        bytes: AtomicU64,
    }

    const SHARDS: usize = 64;
    static ON: AtomicBool = AtomicBool::new(false);
    static TALLY: [Shard; SHARDS] = [const {
        Shard {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }; SHARDS];
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

    thread_local! {
        static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
    }

    /// Records one allocation of `bytes` while counting is on. Runs
    /// inside the global allocator, so it must not allocate: the shard
    /// slot is a const-initialised `Cell`, read through `try_with` so a
    /// thread tearing down its TLS is skipped.
    #[inline]
    pub fn note_alloc(bytes: usize) {
        if !ON.load(Ordering::Relaxed) {
            return;
        }
        let _ = SHARD.try_with(|slot| {
            if slot.get() == usize::MAX {
                slot.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            // Each thread owns its shard (fewer than SHARDS threads ever
            // allocate during a window), so a plain load and store is
            // enough; readers sum after the window's threads joined.
            let shard = &TALLY[slot.get()];
            shard
                .count
                .store(shard.count.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
            shard.bytes.store(
                shard.bytes.load(Ordering::Relaxed) + bytes as u64,
                Ordering::Relaxed,
            );
        });
    }

    /// Switches counting on or off.
    pub fn set_counting(on: bool) {
        ON.store(on, Ordering::Relaxed);
    }

    /// `(allocations, bytes)` counted so far.
    pub fn read() -> (u64, u64) {
        TALLY.iter().fold((0, 0), |(count, bytes), shard| {
            (
                count + shard.count.load(Ordering::Relaxed),
                bytes + shard.bytes.load(Ordering::Relaxed),
            )
        })
    }
}
