//! Integration tests for the telemetry layer: the behaviours the rest of
//! the workspace relies on, exercised through the public API only.

use std::sync::Arc;

use dpr_telemetry::{
    scoped, summary, Collector, Histogram, PipelineTrace, Registry, Span, TraceBuilder,
};

#[test]
fn histogram_buckets_and_quantiles() {
    let h = Histogram::with_bounds(vec![10.0, 100.0, 1000.0]);
    for v in [1.0, 5.0, 50.0, 500.0, 5000.0] {
        h.record(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 5);
    // Two below 10, one in [10, 100), one in [100, 1000), one overflow.
    assert_eq!(snap.counts, vec![2, 1, 1, 1]);
    assert!((snap.sum - 5556.0).abs() < 1e-9);
    assert!((snap.mean() - 1111.2).abs() < 1e-9);
    // The median interpolates inside the second bucket (10..100).
    let p50 = snap.quantile(0.5);
    assert!((10.0..=100.0).contains(&p50), "p50 = {p50}");
    // The extreme quantile lands in the overflow bucket.
    assert!(snap.quantile(0.999) >= 1000.0);
}

#[test]
fn nested_spans_report_dotted_paths_and_depths() {
    let reg = Arc::new(Registry::new());
    let collector = Arc::new(Collector::new());
    reg.add_sink(collector.clone());
    scoped(Arc::clone(&reg), || {
        let _run = Span::enter("run");
        {
            let _outer = Span::enter("stage");
            let _inner = Span::enter("step");
        }
    });
    let records = collector.records();
    let paths: Vec<&str> = records.iter().map(|r| r.path.as_str()).collect();
    assert_eq!(paths, ["run.stage.step", "run.stage", "run"]);
    let depths: Vec<usize> = records.iter().map(|r| r.depth).collect();
    assert_eq!(depths, [3, 2, 1]);
    // Each span also lands in the registry's span histograms.
    let snap = reg.snapshot();
    assert_eq!(snap.histograms["span.run.stage.step"].count, 1);
}

#[test]
fn concurrent_counters_lose_no_increments() {
    let reg = Arc::new(Registry::new());
    let threads = 8;
    let per_thread = 10_000u64;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                // Each thread re-enters the scope: the scope stack is
                // thread-local, the registry behind it is shared.
                scoped(reg, || {
                    for _ in 0..per_thread {
                        dpr_telemetry::counter("stress.hits").inc(1);
                    }
                })
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }
    assert_eq!(
        reg.snapshot().counters["stress.hits"],
        threads as u64 * per_thread
    );
}

#[test]
fn concurrent_histogram_recording_is_consistent() {
    let reg = Arc::new(Registry::new());
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                for i in 0..1000 {
                    reg.histogram("stress.values").record(f64::from(t * 1000 + i));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread");
    }
    let snap = reg.snapshot();
    let h = &snap.histograms["stress.values"];
    assert_eq!(h.count, 4000);
    assert_eq!(h.counts.iter().sum::<u64>(), 4000);
    // Sum of 0..4000 under concurrent CAS accumulation stays exact.
    assert!((h.sum - (0..4000).map(f64::from).sum::<f64>()).abs() < 1e-6);
}

#[test]
fn pipeline_trace_round_trips_through_json() {
    let reg = Arc::new(Registry::new());
    reg.counter("ocr.readings_read").inc(42);
    let mut builder = TraceBuilder::new(Arc::clone(&reg));
    builder.stage("ocr", || reg.counter("ocr.readings_read").inc(8));
    let trace = builder.finish();
    let line = dpr_telemetry::json::to_string(&trace).expect("trace serializes");
    let parsed: PipelineTrace = dpr_telemetry::json::from_str(&line).expect("trace parses");
    assert_eq!(parsed.stages.len(), 1);
    assert_eq!(parsed.stages[0].name, "ocr");
    assert_eq!(parsed.stages[0].counters["ocr.readings_read"], 8);
    assert_eq!(parsed.counters["ocr.readings_read"], 8);
}

#[test]
fn summary_renders_trace_counters() {
    let reg = Arc::new(Registry::new());
    let mut builder = TraceBuilder::new(Arc::clone(&reg));
    builder.stage("transport", || {
        reg.counter("transport.isotp.reassembled").inc(430);
    });
    let trace = builder.finish();
    let text = summary::render_trace(&trace);
    assert!(text.contains("transport"));
    assert!(text.contains("+430"));
    assert!(text.contains("total"));
}
