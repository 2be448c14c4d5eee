//! Destinations for closed spans. This crate ships the in-memory
//! [`Collector`]; file exporters (the Chrome trace-event export) live in
//! `dpr-obs`.

use parking_lot::Mutex;
use std::time::Duration;

/// One closed span as delivered to sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span's own name, e.g. `ocr`.
    pub name: &'static str,
    /// The dot-joined nesting path, e.g. `pipeline.ocr`.
    pub path: String,
    /// Nesting depth (1 = top-level).
    pub depth: usize,
    /// Wall time between enter and drop.
    pub wall: Duration,
    /// Start time in microseconds relative to the recording registry's
    /// creation ([`crate::Registry::epoch`]), so spans from every thread
    /// of one run share a timeline. Zero for spans opened before the
    /// registry existed.
    pub start_us: u64,
    /// Stable process-unique id of the thread that ran the span (see
    /// [`crate::thread_id`]); trace exporters use it as the row key.
    pub tid: u64,
    /// OS name of the thread that ran the span, when it has one (e.g.
    /// `gp-worker-0` for `dpr-par` pool workers).
    pub thread: Option<String>,
}

/// A destination for closed spans. Implementations must be cheap and
/// non-blocking; they run inside `Span::drop`.
pub trait Sink: Send + Sync {
    /// Called once per closed span.
    fn span_closed(&self, record: &SpanRecord);
}

/// An in-memory sink that keeps every record, in close order. Intended for
/// tests and short diagnostic runs.
#[derive(Debug, Default)]
pub struct Collector {
    records: Mutex<Vec<SpanRecord>>,
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Self {
        Collector::default()
    }

    /// A copy of everything collected so far.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.records.lock().clone()
    }

    /// Total wall time of all closed spans whose path equals `path`.
    pub fn total_wall(&self, path: &str) -> Duration {
        self.records
            .lock()
            .iter()
            .filter(|r| r.path == path)
            .map(|r| r.wall)
            .sum()
    }

    /// Drops all collected records.
    pub fn clear(&self) {
        self.records.lock().clear();
    }
}

impl Sink for Collector {
    fn span_closed(&self, record: &SpanRecord) {
        self.records.lock().push(record.clone());
    }
}
