//! End-to-end observability check: a fleet run with `DPR_TRACE_EVENTS`
//! set produces a Chrome Trace Event JSON whose complete events include
//! a `pipeline`-rooted span and, under `DPR_THREADS=2`, at least two
//! distinct thread ids, one of them a `gp-worker-*` pool row (the
//! inference fan-out runs part of the car's sensors there).
//!
//! One test function on purpose: it mutates process environment
//! variables, which must not race a sibling test.

use dpr_bench::fleet_traced;
use dpr_telemetry::json::{self, Value};
use dpr_vehicle::profiles::CarId;
use std::collections::BTreeSet;
use std::time::Duration;

fn field(event: &Value, key: &str) -> Option<Value> {
    let Value::Object(entries) = event else {
        return None;
    };
    entries.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
}

#[test]
fn fleet_trace_export_has_pipeline_events_across_threads() {
    let out = std::env::temp_dir().join(format!("dpr-obs-fleet-{}.json", std::process::id()));
    std::env::set_var("DPR_QUICK", "1");
    std::env::set_var("DPR_THREADS", "2");
    std::env::set_var("DPR_TRACE_EVENTS", &out);

    let run = fleet_traced(&[CarId::M], 1, Duration::ZERO);

    std::env::remove_var("DPR_TRACE_EVENTS");
    std::env::remove_var("DPR_THREADS");
    std::env::remove_var("DPR_QUICK");

    assert_eq!(run.results.len(), 1);
    assert_eq!(run.trace_events.as_deref(), Some(out.as_path()));
    assert!(run.metrics_addr.is_none(), "no DPR_METRICS_ADDR was set");

    let text = std::fs::read_to_string(&out).expect("trace file written");
    let doc = json::parse(&text).expect("trace file is valid JSON");
    let events = match field(&doc, "traceEvents") {
        Some(Value::Array(events)) => events,
        other => panic!("expected traceEvents array, got {other:?}"),
    };

    let complete: Vec<&Value> = events
        .iter()
        .filter(|e| field(e, "ph") == Some(Value::Str("X".into())))
        .collect();
    assert!(
        complete
            .iter()
            .any(|e| field(e, "name") == Some(Value::Str("pipeline".into()))),
        "no pipeline-rooted complete event in {} events",
        complete.len()
    );

    let tids: BTreeSet<u64> = complete
        .iter()
        .filter_map(|e| match field(e, "tid") {
            Some(Value::UInt(tid)) => Some(tid),
            _ => None,
        })
        .collect();
    assert!(
        tids.len() >= 2,
        "expected spans from at least two threads under DPR_THREADS=2, got tids {tids:?}"
    );
    // The sensor fan-out put part of the car's inference on a pool row.
    let worker_tids: BTreeSet<u64> = events
        .iter()
        .filter(|e| field(e, "name") == Some(Value::Str("thread_name".into())))
        .filter(|e| {
            matches!(field(e, "args").and_then(|a| field(&a, "name")),
                     Some(Value::Str(name)) if name.starts_with("gp-worker-"))
        })
        .filter_map(|e| match field(e, "tid") {
            Some(Value::UInt(tid)) => Some(tid),
            _ => None,
        })
        .collect();
    assert!(
        worker_tids.iter().any(|tid| tids.contains(tid)),
        "no complete event on a gp-worker-* thread"
    );

    // Every complete event carries the timeline fields Perfetto needs.
    for event in &complete {
        assert!(matches!(field(event, "ts"), Some(Value::UInt(_))), "ts missing");
        assert!(matches!(field(event, "dur"), Some(Value::UInt(_))), "dur missing");
        assert!(matches!(field(event, "pid"), Some(Value::UInt(_))), "pid missing");
    }

    let _ = std::fs::remove_file(&out);
}
