//! Stage-level tracing, metrics, structured logging, and per-run
//! pipeline traces for the DP-Reverser stack.
//!
//! The crate has five pieces:
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
//! * **Logs** ([`log`]) — leveled wide-event records with correlation
//!   context (`job_id`, `req_id`), an always-on bounded ring, optional
//!   stderr and JSON-lines sinks, and runtime taps.
//! * **Traces** ([`trace`]) — [`trace::PipelineTrace`], the per-run report
//!   the reverse-engineering pipeline attaches to its result: one entry per
//!   stage with wall time and the counter activity attributed to it.
//!   [`TraceBuilder::stage`] is the pipeline's one stage boundary: it
//!   opens the stage's span, records its [`StageTrace`], and logs one
//!   `pipeline`/`stage complete` record, so spans, the trace and the log
//!   always name the same stages.
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
pub mod log;
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
/// for it. [`log`] stamps records as microseconds since this instant,
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
    use crate::log::{
        context_snapshot, push_context, with_context, FieldValue, Level, LogConfig, LogSink,
        Logger, Record, LEVEL_OFF,
    };
    use parking_lot::Mutex;

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

    // ———————————————————— structured logging (`log`) ————————————————————

    #[test]
    fn level_parse_and_order() {
        assert_eq!(Level::parse("INFO"), Some(Level::Info));
        assert_eq!(Level::parse(" warn "), Some(Level::Warn));
        assert_eq!(Level::parse("nope"), None);
        assert!(Level::Trace < Level::Debug && Level::Warn < Level::Error);
        for v in 0..5 {
            assert_eq!(Level::from_u8(v).map(|l| l as u8), Some(v));
        }
        assert_eq!(Level::from_u8(LEVEL_OFF), None);
    }

    #[test]
    fn records_carry_context_fields() {
        let logger = Logger::new(LogConfig::default());
        {
            let _req = push_context("req_id", "req-000007");
            let _job = push_context("job_id", "job-000042");
            logger.log(
                Level::Info,
                "test",
                "hello",
                &[("n", FieldValue::U64(3))],
            );
        }
        logger.log(Level::Info, "test", "after", &[]);
        let entries = logger.ring().snapshot();
        assert_eq!(entries.len(), 2);
        let first = &entries[0].record;
        assert_eq!(first.field("req_id"), Some(&FieldValue::Str("req-000007".into())));
        assert_eq!(first.field("job_id"), Some(&FieldValue::Str("job-000042".into())));
        assert_eq!(first.field("n"), Some(&FieldValue::U64(3)));
        // The guards dropped: the second record has no context.
        assert!(entries[1].record.field("req_id").is_none());
    }

    #[test]
    fn with_context_inherits_a_snapshot() {
        let _outer = push_context("job_id", "job-000001");
        let snapshot = context_snapshot();
        let inherited = std::thread::spawn(move || {
            with_context(&snapshot, || {
                assert_eq!(context_snapshot().len(), 1);
                context_snapshot()[0].1.clone()
            })
        })
        .join()
        .unwrap();
        assert_eq!(inherited, "job-000001");
    }

    #[test]
    fn debug_records_are_gated_without_sinks() {
        let logger = Logger::new(LogConfig::default());
        assert!(!logger.enabled(Level::Debug));
        assert!(logger.enabled(Level::Info));
        logger.log(Level::Debug, "test", "dropped", &[]);
        assert!(logger.ring().is_empty());
        logger.set_stderr_level(Some(Level::Debug));
        assert!(logger.enabled(Level::Debug));
        logger.set_stderr_level(None);
        assert!(!logger.enabled(Level::Debug));
    }

    #[test]
    fn taps_see_records_and_detach() {
        struct Collect(Mutex<Vec<String>>);
        impl LogSink for Collect {
            fn record(&self, record: &Arc<Record>) {
                self.0.lock().push(record.message.clone());
            }
        }
        let logger = Logger::new(LogConfig::default());
        let tap = Arc::new(Collect(Mutex::new(Vec::new())));
        let id = logger.add_sink(Arc::clone(&tap) as Arc<dyn LogSink>);
        // A tap makes Debug reachable.
        assert!(logger.enabled(Level::Debug));
        logger.log(Level::Debug, "test", "seen", &[]);
        logger.remove_sink(id);
        logger.log(Level::Info, "test", "unseen", &[]);
        assert_eq!(tap.0.lock().clone(), vec!["seen".to_string()]);
    }

    #[test]
    fn json_line_grammar_has_required_keys() {
        let record = Record {
            t_us: 42,
            level: Level::Warn,
            target: "serve.worker".into(),
            message: "job \"quoted\" done".into(),
            fields: vec![
                ("job_id".into(), FieldValue::Str("job-000001".into())),
                ("ok".into(), FieldValue::Bool(true)),
                ("delta".into(), FieldValue::I64(-3)),
            ],
        };
        let line = record.to_json();
        let back = Record::from_json(&line).expect("line parses");
        assert_eq!(back, record);
        for key in ["\"t_us\"", "\"level\"", "\"target\"", "\"msg\"", "\"fields\""] {
            assert!(line.contains(key), "{line}");
        }
    }
}
