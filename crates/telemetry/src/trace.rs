//! Per-run pipeline traces: one record per stage with wall time and the
//! metric activity attributed to it.
//!
//! [`TraceBuilder`] wraps a [`Registry`] and attributes counter/gauge
//! movement to stages by snapshot deltas: everything recorded while a
//! [`TraceBuilder::stage`] closure runs — at any depth of the call tree —
//! lands in that stage's [`StageTrace`]. This works because the pipeline
//! runs its stages sequentially on one thread; a run that wants exact
//! numbers in a concurrent process wraps itself in `dpr_telemetry::scoped`
//! with a fresh registry.

use crate::log::{FieldValue, Record};
use crate::metrics::{MetricsSnapshot, Registry};
use crate::Span;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// One pipeline stage: wall time plus the counters that moved while it ran.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageTrace {
    /// Stage name, e.g. `ocr` or `association`.
    pub name: String,
    /// Wall time in microseconds.
    pub wall_us: u64,
    /// Counter increases attributed to this stage.
    pub counters: BTreeMap<String, u64>,
}

/// The full observability report of one reverse-engineering run.
///
/// # Equality
///
/// `PipelineTrace` implements [`PartialEq`]/[`Eq`] as *always equal*: a
/// trace is observability data (wall times differ run to run by nature),
/// not part of the result. This keeps result types that embed a trace
/// answering "did the two runs recover the same protocol?" under `==`,
/// which is what the pipeline's determinism contract is about.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PipelineTrace {
    /// Per-stage records, in execution order.
    pub stages: Vec<StageTrace>,
    /// Wall time of the whole run in microseconds.
    pub total_us: u64,
    /// Final counter values at the end of the run.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values at the end of the run.
    pub gauges: BTreeMap<String, i64>,
    /// The service job this trace belongs to (`job-N`), stamped by
    /// `RunStore::publish` when a service job's run is published;
    /// `None` for direct runs. Correlates `GET /trace` output with log
    /// records and the job table.
    pub job_id: Option<String>,
}

impl PartialEq for PipelineTrace {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for PipelineTrace {}

impl PipelineTrace {
    /// The stage record with the given name, if present.
    pub fn stage(&self, name: &str) -> Option<&StageTrace> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Sum of all stage wall times in microseconds (can be less than
    /// [`PipelineTrace::total_us`] when work happens between stages).
    pub fn staged_us(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_us).sum()
    }
}

/// Target and message of the record [`TraceBuilder::stage`] logs when a
/// stage ends.
const STAGE_TARGET: &str = "pipeline";
const STAGE_COMPLETE: &str = "stage complete";

/// The stage name and wall time (µs) of a `stage complete` record that
/// [`TraceBuilder::stage`] logged; `None` for any other record. This is
/// how a log tap follows a run's progress.
pub fn completed_stage(record: &Record) -> Option<(&str, u64)> {
    if record.target != STAGE_TARGET || record.message != STAGE_COMPLETE {
        return None;
    }
    match (record.field("stage"), record.field("wall_us")) {
        (Some(FieldValue::Str(stage)), Some(FieldValue::U64(wall_us))) => Some((stage, *wall_us)),
        _ => None,
    }
}

/// Builds a [`PipelineTrace`] across sequential stages.
#[derive(Debug)]
pub struct TraceBuilder {
    registry: Arc<Registry>,
    run_start: Instant,
    baseline: MetricsSnapshot,
    stages: Vec<StageTrace>,
}

impl TraceBuilder {
    /// Starts a trace attributed against `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        let baseline = registry.snapshot();
        TraceBuilder {
            registry,
            run_start: Instant::now(),
            baseline,
            stages: Vec::new(),
        }
    }

    /// Runs `f` as the named stage and returns its result.
    ///
    /// This is the one place a pipeline stage is announced: `f` runs
    /// inside a [`Span`] of the same name, the stage's wall time and
    /// counter deltas become one [`StageTrace`], and one
    /// `pipeline`/`stage complete` log record with `stage` and
    /// `wall_us` fields follows.
    pub fn stage<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let started = Instant::now();
        let before = self.registry.snapshot();
        let result = {
            let _span = Span::enter(name);
            f()
        };
        let counters = self.registry.snapshot().counter_deltas_since(&before);
        let wall_us = started.elapsed().as_micros() as u64;
        self.stages.push(StageTrace {
            name: name.to_string(),
            wall_us,
            counters,
        });
        crate::log::info(
            STAGE_TARGET,
            STAGE_COMPLETE,
            &[("stage", name.into()), ("wall_us", wall_us.into())],
        );
        result
    }

    /// Produces the final trace. Counter and gauge totals are relative
    /// to the builder's creation, so a reused registry does not leak
    /// earlier runs into this trace.
    pub fn finish(self) -> PipelineTrace {
        let now = self.registry.snapshot();
        PipelineTrace {
            stages: self.stages,
            total_us: self.run_start.elapsed().as_micros() as u64,
            counters: now.counter_deltas_since(&self.baseline),
            gauges: now.gauges,
            job_id: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoped;

    #[test]
    fn stages_attribute_counter_deltas() {
        use crate::log::{self, LogSink};
        use crate::Collector;
        use parking_lot::Mutex;

        /// Keeps this thread's records: the ones carrying its context.
        struct Tap(Mutex<Vec<Arc<Record>>>);
        impl LogSink for Tap {
            fn record(&self, record: &Arc<Record>) {
                if record.field("job_id") == Some(&FieldValue::Str("trace-stages".into())) {
                    self.0.lock().push(Arc::clone(record));
                }
            }
        }

        let reg = Arc::new(Registry::new());
        let spans = Arc::new(Collector::new());
        reg.add_sink(Arc::clone(&spans) as _);
        let tap = Arc::new(Tap(Mutex::new(Vec::new())));
        let tap_id = log::add_sink(Arc::clone(&tap) as Arc<dyn LogSink>);
        let trace = scoped(Arc::clone(&reg), || {
            let _ctx = log::push_context("job_id", "trace-stages");
            let mut builder = TraceBuilder::new(Arc::clone(&reg));
            builder.stage("read", || {
                crate::counter("frames.seen").inc(10);
            });
            builder.stage("match", || {
                crate::counter("pairs.formed").inc(4);
                crate::counter("frames.seen").inc(2);
            });
            builder.finish()
        });
        log::remove_sink(tap_id);
        assert_eq!(trace.stages.len(), 2);
        let read = trace.stage("read").expect("read stage");
        assert_eq!(read.counters.get("frames.seen"), Some(&10));
        assert!(!read.counters.contains_key("pairs.formed"));
        let matching = trace.stage("match").expect("match stage");
        assert_eq!(matching.counters.get("frames.seen"), Some(&2));
        assert_eq!(matching.counters.get("pairs.formed"), Some(&4));
        assert_eq!(trace.counters.get("frames.seen"), Some(&12));

        // Each stage(..) call is one span, one StageTrace and one
        // `stage complete` record, all under the stage's name.
        let span_names: Vec<&str> = spans.records().iter().map(|r| r.name).collect();
        assert_eq!(span_names, vec!["read", "match"]);
        let records = tap.0.lock();
        assert_eq!(records.len(), 2, "{records:?}");
        for (record, stage) in records.iter().zip(&trace.stages) {
            assert_eq!(record.target, "pipeline");
            assert_eq!(record.message, "stage complete");
            assert_eq!(record.field("stage"), Some(&FieldValue::from(stage.name.as_str())));
            assert_eq!(record.field("wall_us"), Some(&FieldValue::U64(stage.wall_us)));
            assert_eq!(completed_stage(record), Some((stage.name.as_str(), stage.wall_us)));
        }
    }

    #[test]
    fn traces_compare_equal_by_design() {
        let reg = Arc::new(Registry::new());
        let a = TraceBuilder::new(Arc::clone(&reg)).finish();
        let mut builder = TraceBuilder::new(reg);
        builder.stage("only", || {});
        let b = builder.finish();
        assert_eq!(a, b);
    }

    #[test]
    fn reused_registry_does_not_leak_earlier_runs() {
        let reg = Arc::new(Registry::new());
        reg.counter("stale.hits").inc(99);
        let trace = TraceBuilder::new(Arc::clone(&reg)).finish();
        assert!(!trace.counters.contains_key("stale.hits"));
    }
}
