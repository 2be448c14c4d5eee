//! RAII wall-clock spans with thread-local nesting.
//!
//! [`Span::enter`] pushes a name onto the current thread's span stack and
//! starts a monotonic clock. Dropping the guard pops the stack, records the
//! elapsed time into the active registry's `span.<path>` histogram (in
//! microseconds), and delivers a [`crate::SpanRecord`] to every sink
//! attached to that registry. The *path* is the dot-joined stack, so a
//! span `"ocr"` opened inside `"pipeline"` reports as `pipeline.ocr`.

use crate::SpanRecord;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Stable per-thread identity: a process-unique small integer plus the
    /// OS thread name captured on first use.
    static TID: (u64, Option<String>) = (
        NEXT_TID.fetch_add(1, Ordering::Relaxed),
        std::thread::current().name().map(str::to_string),
    );
}

/// A stable, process-unique id for the current thread.
///
/// Unlike [`std::thread::ThreadId`], this is a plain small `u64` assigned
/// in first-use order, so it can be serialized directly as the `tid` of a
/// trace-event row. Ids are never reused within a process.
pub fn thread_id() -> u64 {
    TID.with(|t| t.0)
}

fn thread_identity() -> (u64, Option<String>) {
    TID.with(|t| (t.0, t.1.clone()))
}

/// An open span. Created by [`Span::enter`]; closing happens on drop.
#[must_use = "a span measures until dropped; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    path: String,
    depth: usize,
    started: Instant,
}

impl Span {
    /// Opens a named span on the current thread.
    pub fn enter(name: &'static str) -> Span {
        let (path, depth) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(name);
            (stack.join("."), stack.len())
        });
        Span {
            name,
            path,
            depth,
            started: Instant::now(),
        }
    }

    /// The dot-joined path of this span, e.g. `pipeline.ocr`.
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let wall = self.started.elapsed();
        let registry = crate::registry();
        let torn = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop our own frame. A mismatch means the stack is torn — an
            // inner guard leaked across threads, was forgotten, or guards
            // dropped out of order. The frame is left in place so the
            // remaining guards still pop their own names.
            if stack.last() == Some(&self.name) {
                stack.pop();
                false
            } else {
                true
            }
        });
        if torn {
            registry.counter("telemetry.span_stack_torn").inc(1);
        }
        let (tid, thread) = thread_identity();
        registry
            .histogram(&format!("span.{}", self.path))
            .record_duration(wall);
        registry.notify_span(&SpanRecord {
            name: self.name,
            path: std::mem::take(&mut self.path),
            depth: self.depth,
            wall,
            start_us: self
                .started
                .saturating_duration_since(registry.epoch())
                .as_micros() as u64,
            tid,
            thread,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scoped, Collector, Registry};
    use std::sync::Arc;

    #[test]
    fn nesting_builds_dotted_paths() {
        let reg = Arc::new(Registry::new());
        let collector = Arc::new(Collector::new());
        reg.add_sink(collector.clone());
        scoped(Arc::clone(&reg), || {
            let outer = Span::enter("pipeline");
            assert_eq!(outer.path(), "pipeline");
            {
                let inner = Span::enter("ocr");
                assert_eq!(inner.path(), "pipeline.ocr");
            }
            {
                let inner = Span::enter("gp");
                assert_eq!(inner.path(), "pipeline.gp");
            }
        });
        let paths: Vec<String> = collector
            .records()
            .iter()
            .map(|r| r.path.clone())
            .collect();
        assert_eq!(paths, ["pipeline.ocr", "pipeline.gp", "pipeline"]);
        let snap = reg.snapshot();
        assert!(snap.histograms.contains_key("span.pipeline.ocr"));
        assert_eq!(snap.histograms["span.pipeline"].count, 1);
        // No tear: guards closed innermost-first.
        assert!(!snap.counters.contains_key("telemetry.span_stack_torn"));
    }

    #[test]
    fn records_carry_thread_identity_and_epoch_relative_start() {
        let reg = Arc::new(Registry::new());
        let collector = Arc::new(Collector::new());
        reg.add_sink(collector.clone());
        scoped(Arc::clone(&reg), || {
            let _span = Span::enter("work");
        });
        let records = collector.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].tid, crate::thread_id());
        // The span opened after the registry was created, so its start is
        // on the registry's timeline (and sane: within this test's run).
        assert!(records[0].start_us < 60_000_000);
    }

    #[test]
    fn torn_stack_is_counted_not_dropped() {
        let reg = Arc::new(Registry::new());
        let collector = Arc::new(Collector::new());
        reg.add_sink(collector.clone());
        scoped(Arc::clone(&reg), || {
            // Forge a torn stack: drop the outer guard while the inner one
            // is still open. The outer pop sees "inner" on top — a tear.
            let outer = Span::enter("outer");
            let inner = Span::enter("inner");
            drop(outer);
            drop(inner);
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("telemetry.span_stack_torn"), Some(&1));
        // Both spans were still recorded and delivered despite the tear.
        let paths: Vec<String> = collector
            .records()
            .iter()
            .map(|r| r.path.clone())
            .collect();
        assert_eq!(paths, ["outer", "outer.inner"]);
        assert_eq!(snap.histograms["span.outer.inner"].count, 1);
    }
}
