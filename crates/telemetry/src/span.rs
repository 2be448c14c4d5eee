//! RAII wall-clock spans with thread-local nesting.
//!
//! [`Span::enter`] pushes a name onto the current thread's span stack and
//! starts a monotonic clock. Dropping the guard pops the stack, records the
//! elapsed time into the active registry's `span.<path>` histogram (in
//! microseconds), and delivers a [`crate::SpanRecord`] to every sink
//! attached to that registry. The *path* is the dot-joined stack, so a
//! span `"ocr"` opened inside `"pipeline"` reports as `pipeline.ocr`.
//!
//! A span allocates nothing in the steady state when no sink is attached:
//! each thread interns its paths per stack depth, with the path's
//! histogram handle cached next to it for the registry that last
//! recorded it, and the [`crate::SpanRecord`] is built only for sinks.

use crate::{Histogram, SpanRecord};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One interned span path on one thread.
struct PathEntry {
    /// Index of the parent path's entry one depth up (unused at depth 0).
    parent: usize,
    /// The span's own name.
    name: &'static str,
    /// The dot-joined path.
    path: Arc<str>,
    /// `span.<path>`, the histogram's name.
    metric: Box<str>,
    /// The histogram handle of the registry (by [`crate::Registry::id`])
    /// that last recorded this path on this thread.
    histogram: Option<(u64, Histogram)>,
}

thread_local! {
    /// The open spans: each frame's name and its entry in `PATHS` at
    /// its depth.
    static STACK: RefCell<Vec<(&'static str, usize)>> = const { RefCell::new(Vec::new()) };
    /// Interned paths, one table per stack depth.
    static PATHS: RefCell<Vec<Vec<PathEntry>>> = const { RefCell::new(Vec::new()) };
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

/// The entry of `name` under the path entry `parent` at `depth`,
/// interned on first use.
fn intern(
    paths: &mut Vec<Vec<PathEntry>>,
    depth: usize,
    parent: usize,
    name: &'static str,
) -> usize {
    if paths.len() <= depth {
        paths.resize_with(depth + 1, Vec::new);
    }
    if let Some(found) = paths[depth]
        .iter()
        .position(|e| e.parent == parent && e.name == name)
    {
        return found;
    }
    let path: Arc<str> = if depth == 0 {
        name.into()
    } else {
        format!("{}.{name}", paths[depth - 1][parent].path).into()
    };
    paths[depth].push(PathEntry {
        parent,
        name,
        metric: format!("span.{path}").into(),
        path,
        histogram: None,
    });
    paths[depth].len() - 1
}

/// Pushes a frame for `name` onto `stack`, interning its path under the
/// current top frame; returns the frame's entry at its depth.
fn push(
    stack: &mut Vec<(&'static str, usize)>,
    paths: &mut Vec<Vec<PathEntry>>,
    name: &'static str,
) -> usize {
    let depth = stack.len();
    let parent = stack.last().map_or(0, |&(_, entry)| entry);
    let entry = intern(paths, depth, parent, name);
    stack.push((name, entry));
    entry
}

/// The names of this thread's open spans, outermost first.
pub fn open_path() -> Vec<&'static str> {
    STACK.with(|stack| stack.borrow().iter().map(|&(name, _)| name).collect())
}

/// Runs `f` as if the spans `names` (outermost first, as
/// [`open_path`] returns them) were open on this thread, so the spans
/// `f` opens nest under them. This is how a `dpr-par` worker continues
/// its submitter's path. The frames are interned like any span's but
/// untimed: they record no histogram and reach no sink.
pub fn under<R>(names: &[&'static str], f: impl FnOnce() -> R) -> R {
    /// Pops the frames `under` pushed, also when `f` unwinds.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            STACK.with(|stack| stack.borrow_mut().truncate(self.0));
        }
    }
    let _restore = Restore(STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let base = stack.len();
        PATHS.with(|paths| {
            let mut paths = paths.borrow_mut();
            for &name in names {
                push(&mut stack, &mut paths, name);
            }
        });
        base
    }));
    f()
}

/// An open span. Created by [`Span::enter`]; closing happens on drop.
#[must_use = "a span measures until dropped; binding it to _ closes it immediately"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    path: Arc<str>,
    depth: usize,
    entry: usize,
    started: Instant,
}

impl Span {
    /// Opens a named span on the current thread.
    pub fn enter(name: &'static str) -> Span {
        let (path, depth, entry) = STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let depth = stack.len();
            let (entry, path) = PATHS.with(|paths| {
                let mut paths = paths.borrow_mut();
                let entry = push(&mut stack, &mut paths, name);
                (entry, Arc::clone(&paths[depth][entry].path))
            });
            (path, depth + 1, entry)
        });
        Span {
            name,
            path,
            depth,
            entry,
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
            if stack.last().map(|&(name, _)| name) == Some(self.name) {
                stack.pop();
                false
            } else {
                true
            }
        });
        if torn {
            registry.counter("telemetry.span_stack_torn").inc(1);
        }
        let histogram = PATHS.with(|paths| {
            let mut paths = paths.borrow_mut();
            // A guard dropped on another thread than the one it opened
            // on finds no entry of its own here; it looks the histogram
            // up by name.
            match paths
                .get_mut(self.depth - 1)
                .and_then(|table| table.get_mut(self.entry))
                .filter(|e| Arc::ptr_eq(&e.path, &self.path))
            {
                Some(entry) => match &entry.histogram {
                    Some((id, histogram)) if *id == registry.id() => histogram.clone(),
                    _ => {
                        let histogram = registry.histogram(&entry.metric);
                        entry.histogram = Some((registry.id(), histogram.clone()));
                        histogram
                    }
                },
                None => registry.histogram(&format!("span.{}", self.path)),
            }
        });
        histogram.record_duration(wall);
        if registry.has_sinks() {
            let (tid, thread) = thread_identity();
            registry.notify_span(&SpanRecord {
                name: self.name,
                path: self.path.to_string(),
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
    fn spans_under_a_borrowed_path_nest_without_timing_it() {
        let reg = Arc::new(Registry::new());
        let collector = Arc::new(Collector::new());
        reg.add_sink(collector.clone());
        let names = scoped(Arc::clone(&reg), || {
            let _outer = Span::enter("pipeline");
            let _inner = Span::enter("inference");
            open_path()
        });
        assert_eq!(names, ["pipeline", "inference"]);
        scoped(Arc::clone(&reg), || {
            under(&names, || {
                assert_eq!(open_path(), names);
                let _leaf = Span::enter("leaf");
            });
            assert!(open_path().is_empty());
        });
        let paths: Vec<String> = collector.records().iter().map(|r| r.path.clone()).collect();
        assert_eq!(
            paths,
            ["pipeline.inference", "pipeline", "pipeline.inference.leaf"]
        );
        // The borrowed frames were not timed a second time.
        let snap = reg.snapshot();
        assert_eq!(snap.histograms["span.pipeline"].count, 1);
        assert_eq!(snap.histograms["span.pipeline.inference"].count, 1);
        assert!(!snap.counters.contains_key("telemetry.span_stack_torn"));
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
