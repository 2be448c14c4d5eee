//! Runtime profiling for the DP-Reverser parallel runtime.
//!
//! `dpr-prof` is the measurement layer underneath `dpr-par`: the pool
//! reports one [`CallProfile`] per `par_map` call (per-worker busy /
//! claim-wait / idle accounting, claim count and cap, spin-up and teardown
//! cost), and this crate aggregates them into a process-wide store that
//! the observability stack reads back out — `GET /profile` on the
//! metrics server, utilization counter tracks in the Chrome trace
//! export, and the textual pool report in `dpr-bench profile`.
//!
//! # Accounting model
//!
//! All times come from monotonic clocks ([`std::time::Instant`]).
//! For each worker of a call:
//!
//! * **busy** — time inside the caller's mapped function (including the
//!   per-worker `init` that builds scratch state),
//! * **wait** — time spent claiming items off the shared cursor and
//!   storing each finished claim's results (synchronization),
//! * **idle** — everything else inside the worker's lifetime: the gap
//!   between call start and the worker's first instruction (spin-up
//!   latency, dominated by OS thread scheduling) and the tail between a
//!   worker running out of claims and the slowest worker finishing.
//!
//! The invariant `busy + wait + idle ≈ wall` holds per worker within
//! clock-read jitter; `crates/par/tests/accounting.rs` property-tests
//! it. [`CallProfile::utilization`] is Σbusy / (workers × wall) — the
//! fraction of paid-for worker time that did caller work — and
//! [`CallProfile::imbalance`] is max(busy) / mean(busy), 1.0 when every
//! worker did an equal share.
//!
//! # Allocation attribution
//!
//! The [`alloc::CountingAlloc`] shim (installed as `#[global_allocator]`
//! by binaries that opt in, e.g. `dpr-bench`) counts allocations and
//! bytes per thread, but only while `DPR_PROF=1`; otherwise it is a
//! pass-through to the system allocator with a single relaxed atomic
//! load of overhead. Workers sample the thread-local counters around
//! the mapped function, so a `CallProfile` shows whether scratch
//! (`BatchScratch`) is actually reused or re-allocated per item.
//!
//! # Determinism
//!
//! Profiling never touches the data path: the pool's claims, chunking,
//! and reassembly are identical with `DPR_PROF` on or off, and
//! `tests/prof_identity.rs` asserts byte-identical pipeline output both
//! ways. Only *time-valued* telemetry differs, which the determinism
//! suite already strips.

#![warn(missing_docs)]

pub mod alloc;
mod report;
mod store;

pub use report::{render_report, PoolReport};
pub use store::{
    label_summary, record_call, reset, snapshot, CallProfile, LabelSummary, ProfSnapshot,
    WorkerStats,
};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};

/// The environment variable that switches profiling on (`1`, `true`,
/// `yes`, `on`; anything else is off).
pub const PROF_ENV: &str = "DPR_PROF";

/// Cached tri-state for [`enabled`]: 0 = unknown, 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether profiling is on (`DPR_PROF=1`).
///
/// The environment is read once and cached; call [`refresh`] after
/// mutating `DPR_PROF` mid-process (tests do). The allocator's counting
/// flag is kept in sync with this value.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => refresh(),
    }
}

/// Re-reads `DPR_PROF` and resyncs the allocator's counting flag.
/// Returns the new state.
pub fn refresh() -> bool {
    let on = std::env::var(PROF_ENV)
        .map(|v| {
            let v = v.trim().to_ascii_lowercase();
            matches!(v.as_str(), "1" | "true" | "yes" | "on")
        })
        .unwrap_or(false);
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    alloc::set_counting(on);
    on
}

thread_local! {
    static LABELS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `label` pushed onto the current thread's profile-label
/// stack, so [`CallProfile`]s recorded inside are attributed to it
/// (e.g. the pipeline wraps its per-sensor fan-out in
/// `with_label("inference", ..)`).
pub fn with_label<R>(label: &'static str, f: impl FnOnce() -> R) -> R {
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            LABELS.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    LABELS.with(|stack| stack.borrow_mut().push(label));
    let _guard = PopOnDrop;
    f()
}

/// The innermost active label on this thread, or `"par"` when none is
/// set. This is what `dpr-par` stamps onto the profiles it records.
pub fn current_label() -> &'static str {
    LABELS.with(|stack| stack.borrow().last().copied()).unwrap_or("par")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_nest_and_default() {
        assert_eq!(current_label(), "par");
        let seen = with_label("outer", || {
            let inner = with_label("inner", current_label);
            (current_label(), inner)
        });
        assert_eq!(seen, ("outer", "inner"));
        assert_eq!(current_label(), "par");
    }
}
