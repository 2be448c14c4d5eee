//! Chrome Trace Event Format export.
//!
//! [`TraceExport`] is a [`Sink`] that buffers every closed span and, on
//! [`finish`](TraceExport::finish), writes a JSON object loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`:
//!
//! ```json
//! {"traceEvents": [
//!   {"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"gp-worker-0"}},
//!   {"name":"pipeline","cat":"span","ph":"X","pid":1,"tid":1,"ts":12,"dur":44620}
//! ], "displayTimeUnit": "ms"}
//! ```
//!
//! Each span becomes one *complete* event (`ph:"X"`): `ts` is the span's
//! start in microseconds on the recording registry's timeline
//! ([`Registry::epoch`](dpr_telemetry::Registry::epoch)), `dur` its wall
//! time, and `tid` the stable thread id from
//! [`dpr_telemetry::thread_id`] — so `dpr-par` workers render as their
//! own labeled rows (`gp-worker-N` metadata events carry the names).
//!
//! On top of the span rows, [`render`](TraceExport::render) lays one
//! *counter* track (`ph:"C"`, named `pool utilization %`) built from the
//! `dpr_prof` profile store: every parallel `par_map` call recorded
//! after this exporter was created contributes a step up to its
//! utilization percentage at call start and back to zero at call end,
//! keyed by its profile label (e.g. `inference`) — so worker
//! efficiency is visible directly above the `par.chunk` rows it
//! explains. Profiles carry `epoch_start_us` on the same registry
//! timeline as spans, which is what makes the overlay line up.

use dpr_telemetry::json::Value;
use dpr_telemetry::{Sink, SpanRecord};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Environment variable naming the trace-event output file. When set,
/// [`TraceExport::from_env`] returns an exporter writing there.
pub const TRACE_EVENTS_ENV: &str = "DPR_TRACE_EVENTS";

#[derive(Debug, Clone)]
struct CompleteEvent {
    name: String,
    path: String,
    tid: u64,
    thread: Option<String>,
    ts_us: u64,
    dur_us: u64,
}

/// A span sink that accumulates Chrome Trace Event Format events and
/// writes them as one JSON document on [`finish`](TraceExport::finish).
pub struct TraceExport {
    path: PathBuf,
    events: Mutex<Vec<CompleteEvent>>,
    /// Profile-store sequence number at construction; only `par_map`
    /// calls recorded after it belong to this export's timeline.
    prof_seq_floor: u64,
}

impl TraceExport {
    /// An exporter that will write to `path` on finish.
    pub fn new(path: impl Into<PathBuf>) -> TraceExport {
        TraceExport {
            path: path.into(),
            events: Mutex::new(Vec::new()),
            prof_seq_floor: dpr_prof::snapshot().total_calls,
        }
    }

    /// An exporter targeting the `DPR_TRACE_EVENTS` path, if the variable
    /// is set and non-empty.
    pub fn from_env() -> Option<std::sync::Arc<TraceExport>> {
        std::env::var(TRACE_EVENTS_ENV)
            .ok()
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .map(|p| std::sync::Arc::new(TraceExport::new(p)))
    }

    /// The output path this exporter writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of span events buffered so far.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether no span has been buffered yet.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Serializes the buffered events (plus process/thread-name metadata
    /// events) and writes the trace file. Can be called again after more
    /// spans arrive; each call rewrites the whole file.
    pub fn finish(&self) -> io::Result<()> {
        let json = self.render();
        std::fs::write(&self.path, json)
    }

    /// The trace document as a JSON string (what [`finish`] writes).
    pub fn render(&self) -> String {
        let mut events = self.events.lock().clone();
        events.sort_by_key(|e| (e.tid, e.ts_us));
        let pid = u64::from(std::process::id());

        // One thread_name metadata event per distinct tid, so Perfetto
        // labels the rows (`gp-worker-N` for pool workers).
        let mut names: BTreeMap<u64, String> = BTreeMap::new();
        for event in &events {
            names
                .entry(event.tid)
                .or_insert_with(|| match &event.thread {
                    Some(name) => name.clone(),
                    None => format!("thread-{}", event.tid),
                });
        }

        let mut out: Vec<Value> = Vec::with_capacity(events.len() + names.len() + 1);
        out.push(Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::UInt(pid)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str("dp-reverser".into()))]),
            ),
        ]));
        for (tid, name) in &names {
            out.push(Value::Object(vec![
                ("name".into(), Value::Str("thread_name".into())),
                ("ph".into(), Value::Str("M".into())),
                ("pid".into(), Value::UInt(pid)),
                ("tid".into(), Value::UInt(*tid)),
                (
                    "args".into(),
                    Value::Object(vec![("name".into(), Value::Str(name.clone()))]),
                ),
            ]));
        }
        for event in &events {
            out.push(Value::Object(vec![
                ("name".into(), Value::Str(event.name.clone())),
                ("cat".into(), Value::Str("span".into())),
                ("ph".into(), Value::Str("X".into())),
                ("pid".into(), Value::UInt(pid)),
                ("tid".into(), Value::UInt(event.tid)),
                ("ts".into(), Value::UInt(event.ts_us)),
                ("dur".into(), Value::UInt(event.dur_us)),
                (
                    "args".into(),
                    Value::Object(vec![("path".into(), Value::Str(event.path.clone()))]),
                ),
            ]));
        }
        out.extend(utilization_counter_events(pid, self.prof_seq_floor));

        Value::Object(vec![
            ("traceEvents".into(), Value::Array(out)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
        .to_json()
    }
}

/// Builds the `pool utilization %` counter track (`ph:"C"`) from the
/// profile store: two events per parallel call — the utilization
/// percentage at call start, zero at call end — keyed by profile label
/// so each `par_map` site gets its own series.
fn utilization_counter_events(pid: u64, seq_floor: u64) -> Vec<Value> {
    let snapshot = dpr_prof::snapshot();
    let mut out = Vec::new();
    for call in snapshot
        .recent
        .iter()
        .filter(|c| c.seq > seq_floor && !c.inline)
    {
        let percent = (call.utilization() * 100.0).round() as u64;
        let end_ts = call.epoch_start_us + call.wall_us;
        for (ts, value) in [(call.epoch_start_us, percent), (end_ts, 0)] {
            out.push(Value::Object(vec![
                ("name".into(), Value::Str("pool utilization %".into())),
                ("cat".into(), Value::Str("prof".into())),
                ("ph".into(), Value::Str("C".into())),
                ("pid".into(), Value::UInt(pid)),
                ("ts".into(), Value::UInt(ts)),
                (
                    "args".into(),
                    Value::Object(vec![(call.label.clone(), Value::UInt(value))]),
                ),
            ]));
        }
    }
    out
}

impl Sink for TraceExport {
    fn span_closed(&self, record: &SpanRecord) {
        self.events.lock().push(CompleteEvent {
            name: record.name.to_string(),
            path: record.path.clone(),
            tid: record.tid,
            thread: record.thread.clone(),
            ts_us: record.start_us,
            dur_us: record.wall.as_micros() as u64,
        });
    }
}

impl std::fmt::Debug for TraceExport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceExport")
            .field("path", &self.path)
            .field("events", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_telemetry::json;
    use std::time::Duration;

    fn record(name: &'static str, path: &str, tid: u64, thread: Option<&str>) -> SpanRecord {
        SpanRecord {
            name,
            path: path.to_string(),
            depth: path.split('.').count(),
            wall: Duration::from_micros(500),
            start_us: 100 * tid,
            tid,
            thread: thread.map(str::to_string),
        }
    }

    #[test]
    fn renders_complete_events_with_thread_metadata() {
        let export = TraceExport::new("/dev/null");
        export.span_closed(&record("pipeline", "pipeline", 1, None));
        export.span_closed(&record("chunk", "par.chunk", 2, Some("gp-worker-0")));
        export.span_closed(&record("chunk", "par.chunk", 3, Some("gp-worker-1")));

        let doc = json::parse(&export.render()).expect("valid JSON");
        let Value::Object(entries) = doc else {
            panic!("expected object")
        };
        let events = entries
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents key");
        let Value::Array(events) = events else {
            panic!("expected array")
        };

        let field = |e: &Value, key: &str| -> Option<Value> {
            let Value::Object(entries) = e else { return None };
            entries.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        };

        let complete: Vec<&Value> = events
            .iter()
            .filter(|e| field(e, "ph") == Some(Value::Str("X".into())))
            .collect();
        assert_eq!(complete.len(), 3);
        let tids: std::collections::BTreeSet<u64> = complete
            .iter()
            .filter_map(|e| match field(e, "tid") {
                Some(Value::UInt(n)) => Some(n),
                _ => None,
            })
            .collect();
        assert_eq!(tids, [1, 2, 3].into());

        let metas: Vec<&Value> = events
            .iter()
            .filter(|e| field(e, "name") == Some(Value::Str("thread_name".into())))
            .collect();
        assert_eq!(metas.len(), 3, "one thread_name per tid");
        let labels: Vec<String> = metas
            .iter()
            .filter_map(|e| match field(e, "args") {
                Some(Value::Object(args)) => args.iter().find_map(|(k, v)| match v {
                    Value::Str(s) if k == "name" => Some(s.clone()),
                    _ => None,
                }),
                _ => None,
            })
            .collect();
        assert!(labels.contains(&"gp-worker-0".to_string()));
        assert!(labels.contains(&"gp-worker-1".to_string()));
        assert!(labels.contains(&"thread-1".to_string()));
    }

    #[test]
    fn profiled_calls_render_as_a_utilization_counter_track() {
        use dpr_prof::{CallProfile, WorkerStats};
        use std::time::Instant;

        // Floor captured first: only calls recorded after this exporter
        // exists show up in its counter track.
        let export = TraceExport::new("/dev/null");
        export.span_closed(&record("chunk", "par.chunk", 2, Some("gp-worker-0")));
        dpr_prof::record_call(
            CallProfile {
                label: "trace.case".into(),
                epoch_start_us: 250,
                wall_us: 1000,
                items: 64,
                chunk_size: 8,
                chunks: 8,
                workers: vec![
                    WorkerStats {
                        worker: 0,
                        busy_us: 900,
                        idle_us: 100,
                        chunks: 4,
                        items: 32,
                        ..WorkerStats::default()
                    },
                    WorkerStats {
                        worker: 1,
                        busy_us: 700,
                        idle_us: 300,
                        chunks: 4,
                        items: 32,
                        ..WorkerStats::default()
                    },
                ],
                ..CallProfile::default()
            },
            Instant::now(),
        );

        let doc = json::parse(&export.render()).expect("valid JSON");
        let Value::Object(entries) = doc else {
            panic!("expected object")
        };
        let Some((_, Value::Array(events))) =
            entries.iter().find(|(k, _)| k == "traceEvents")
        else {
            panic!("expected traceEvents array")
        };
        let counters: Vec<_> = events
            .iter()
            .filter_map(|e| {
                let Value::Object(fields) = e else { return None };
                let get = |key: &str| fields.iter().find(|(k, _)| k == key).map(|(_, v)| v);
                if get("ph") != Some(&Value::Str("C".into())) {
                    return None;
                }
                let Some(Value::Object(args)) = get("args") else {
                    return None;
                };
                args.iter()
                    .find(|(k, _)| k == "trace.case")
                    .and_then(|(_, v)| match v {
                        Value::UInt(n) => Some((get("ts").cloned(), *n)),
                        _ => None,
                    })
            })
            .collect();
        // 80% utilization at ts 250, back to 0 at ts 1250.
        assert_eq!(
            counters,
            vec![
                (Some(Value::UInt(250)), 80),
                (Some(Value::UInt(1250)), 0)
            ]
        );
    }

    #[test]
    fn from_env_requires_nonempty_path() {
        // Not set in the test environment by default.
        std::env::remove_var(TRACE_EVENTS_ENV);
        assert!(TraceExport::from_env().is_none());
    }
}
