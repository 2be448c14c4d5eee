//! Stage-level tracing, metrics, and per-run pipeline traces for the
//! DP-Reverser stack.
//!
//! The crate has four pieces:
//!
//! * **Spans** ([`Span`]) — RAII wall-clock timers that nest. Entering
//!   `"pipeline"` and then `"ocr"` on the same thread times the inner work
//!   under the dotted path `pipeline.ocr`. Closed spans feed a per-path
//!   duration histogram and every [`Sink`] attached to the active registry.
//! * **Metrics** ([`Registry`]) — named counters, gauges, and fixed-bucket
//!   histograms. Handles are `Arc`-backed atomics, so the hot path after
//!   lookup is a single `fetch_add`. [`Registry::snapshot`] freezes all of
//!   them into plain serde-serializable maps.
//! * **Sinks** ([`sink`]) — where span records go: an in-memory
//!   [`sink::Collector`] for tests and short runs, plus whatever exporter
//!   a consumer attaches (`dpr-obs`'s Chrome trace-event export), and a
//!   human-readable summary table ([`summary::render`]).
//! * **Traces** ([`trace`]) — [`trace::PipelineTrace`], the per-run report
//!   the reverse-engineering pipeline attaches to its result: one entry per
//!   stage with wall time and the counter activity attributed to it.
//!
//! It also holds [`Ring`], the one bounded history every observability
//! crate keeps its recent records in.
//!
//! # Scoping
//!
//! Instrumented library code records against [`registry()`], which resolves
//! to the innermost [`scoped`] registry on the current thread, falling back
//! to a process-wide global. A pipeline run that wants exact attribution
//! wraps itself in `scoped(fresh_registry, || ...)` so concurrent runs (or
//! parallel tests) do not bleed into each other's numbers.

#![forbid(unsafe_code)]

pub mod json;
pub mod metrics;
pub mod ring;
pub mod sink;
pub mod span;
pub mod summary;
pub mod trace;

pub use metrics::{
    defer_observations, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    Observations, Registry,
};
pub use ring::Ring;
pub use sink::{Collector, Sink, SpanRecord};
pub use span::{thread_id, Span};
pub use trace::{PipelineTrace, StageTrace, TraceBuilder};

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};

fn global_registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// The process-wide monotonic epoch: fixed the first time anything asks
/// for it. `dpr-log` stamps records as microseconds since this instant,
/// so log timelines are comparable across every registry and thread of
/// the process (per-run registries keep their own [`Registry::epoch`]
/// for span-relative times).
pub fn process_epoch() -> std::time::Instant {
    static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();
    *EPOCH.get_or_init(std::time::Instant::now)
}

thread_local! {
    static SCOPE: RefCell<Vec<Arc<Registry>>> = const { RefCell::new(Vec::new()) };
}

/// The registry instrumented code records against: the innermost [`scoped`]
/// registry on this thread, or the process-wide global one.
pub fn registry() -> Arc<Registry> {
    SCOPE.with(|stack| {
        stack
            .borrow()
            .last()
            .cloned()
            .unwrap_or_else(|| Arc::clone(global_registry()))
    })
}

/// Runs `f` with `reg` as this thread's active registry.
///
/// Nested calls stack; the override ends when `f` returns (even by panic,
/// via an RAII pop guard). This is how a pipeline run isolates its numbers
/// from every other run in the process.
pub fn scoped<R>(reg: Arc<Registry>, f: impl FnOnce() -> R) -> R {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            SCOPE.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    SCOPE.with(|stack| stack.borrow_mut().push(reg));
    let _guard = PopGuard;
    f()
}

/// Looks up (creating on first use) the named counter in the active
/// registry.
pub fn counter(name: &str) -> Counter {
    registry().counter(name)
}

/// Looks up (creating on first use) the named gauge in the active registry.
pub fn gauge(name: &str) -> Gauge {
    registry().gauge(name)
}

/// Looks up (creating on first use) the named histogram in the active
/// registry, with the default value buckets.
pub fn histogram(name: &str) -> Histogram {
    registry().histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_overrides_and_restores() {
        let outer = registry();
        let inner = Arc::new(Registry::new());
        let seen = scoped(Arc::clone(&inner), || {
            counter("scoped.hits").inc(3);
            Arc::ptr_eq(&registry(), &inner)
        });
        assert!(seen);
        // The scope popped: whatever the ambient registry is now (another
        // test's scope or the global), it is no longer `inner`.
        assert!(!Arc::ptr_eq(&registry(), &inner));
        drop(outer);
        assert_eq!(inner.snapshot().counters.get("scoped.hits"), Some(&3));
    }
}
