//! Windowed-quantile and ring-retention edge cases, driven through the
//! deterministic [`SeriesStore`] API (caller-supplied snapshots and
//! elapsed times — no sampler thread, no clock).

use dpr_obs::series::{SeriesConfig, SeriesStore, SloStatus};
use dpr_telemetry::Registry;
use std::sync::Arc;
use std::time::Duration;

const TICK: Duration = Duration::from_millis(1000);

fn store(capacity: usize) -> SeriesStore {
    SeriesStore::new(
        SeriesConfig {
            interval: TICK,
            capacity,
        },
        Vec::new(),
    )
}

#[test]
fn empty_window_reports_zero_quantiles() {
    let registry = Registry::new();
    let mut store = store(16);
    let hist = registry.histogram_with("lat", vec![10.0, 100.0, 1000.0]);
    hist.record(50.0);
    store.tick(&registry.snapshot(), TICK);
    // No new observations: the tracked histogram still gets a point,
    // with an empty window.
    store.tick(&registry.snapshot(), TICK);
    let history = store.history();
    let series = &history.histograms["lat"];
    assert_eq!(series.len(), 2);
    let empty = &series[1];
    assert_eq!(empty.count, 0);
    assert_eq!((empty.p50, empty.p95, empty.p99), (0.0, 0.0, 0.0));
}

#[test]
fn all_observations_in_one_bucket_interpolate_within_it() {
    let registry = Registry::new();
    let mut store = store(16);
    let hist = registry.histogram_with("lat", vec![10.0, 100.0, 1000.0]);
    store.tick(&registry.snapshot(), TICK);
    // Everything lands in the (10, 100] bucket.
    for _ in 0..40 {
        hist.record(60.0);
    }
    store.tick(&registry.snapshot(), TICK);
    let history = store.history();
    let point = history.histograms["lat"].last().cloned().expect("point");
    assert_eq!(point.count, 40);
    for q in [point.p50, point.p95, point.p99] {
        assert!((10.0..=100.0).contains(&q), "{point:?}");
    }
    assert!(point.p50 <= point.p95 && point.p95 <= point.p99, "{point:?}");
}

#[test]
fn overflow_bucket_attributes_to_last_finite_bound() {
    let registry = Registry::new();
    let mut store = store(16);
    let hist = registry.histogram_with("lat", vec![10.0, 100.0]);
    store.tick(&registry.snapshot(), TICK);
    // Beyond every bound: the +inf bucket. Quantiles clamp to the last
    // finite bound instead of inventing an infinite latency.
    for _ in 0..10 {
        hist.record(1e9);
    }
    store.tick(&registry.snapshot(), TICK);
    let point = store.history().histograms["lat"]
        .last()
        .cloned()
        .expect("point");
    assert_eq!(point.count, 10);
    assert_eq!((point.p50, point.p95, point.p99), (100.0, 100.0, 100.0));
}

#[test]
fn zero_delta_tick_yields_zero_rate_point() {
    let registry = Registry::new();
    let mut store = store(16);
    registry.counter("jobs.submitted").inc(5);
    store.tick(&registry.snapshot(), TICK);
    // Nothing moved this tick.
    store.tick(&registry.snapshot(), TICK);
    registry.counter("jobs.submitted").inc(2);
    store.tick(&registry.snapshot(), Duration::from_millis(500));
    let history = store.history();
    let series = &history.counters["jobs.submitted"];
    assert_eq!(series.len(), 3);
    assert_eq!(series[0].delta, 5);
    assert_eq!(series[1].delta, 0);
    assert_eq!(series[1].rate, 0.0);
    assert_eq!(series[2].delta, 2);
    assert!((series[2].rate - 4.0).abs() < 1e-9, "{:?}", series[2]);
}

#[test]
fn ring_wraps_after_capacity_is_exceeded() {
    let registry = Registry::new();
    let mut store = store(4);
    let gauge = registry.gauge("jobs.queue_depth");
    let counter = registry.counter("jobs.submitted");
    let hist = registry.histogram_with("lat", vec![10.0, 100.0]);
    for i in 1..=10 {
        gauge.set(i);
        counter.inc(1);
        hist.record(50.0);
        store.tick(&registry.snapshot(), TICK);
    }
    let history = store.history();
    for (kind, len) in [
        ("counters", history.counters["jobs.submitted"].len()),
        ("gauges", history.gauges["jobs.queue_depth"].len()),
        ("histograms", history.histograms["lat"].len()),
    ] {
        assert_eq!(len, 4, "{kind} ring should hold exactly the capacity");
    }
    // Only the newest 4 ticks survive: values 7..=10, t_ms 7000..=10000.
    let gauges: Vec<i64> = history.gauges["jobs.queue_depth"]
        .iter()
        .map(|p| p.value)
        .collect();
    assert_eq!(gauges, vec![7, 8, 9, 10]);
    assert_eq!(history.gauges["jobs.queue_depth"][0].t_ms, 7000);
    assert_eq!(history.samples, 10);
}

#[test]
fn history_round_trips_through_json() {
    let registry = Registry::new();
    let mut store = SeriesStore::new(
        SeriesConfig {
            interval: TICK,
            capacity: 8,
        },
        dpr_obs::series::service_slos(4),
    );
    registry.counter("http.jobs.status.202").inc(10);
    registry.gauge("jobs.queue_depth").set(2);
    registry.histogram("http.jobs.latency_us").record(1234.0);
    store.tick(&registry.snapshot(), TICK);
    let history = store.history();
    let text = dpr_telemetry::json::to_string(&history).expect("serialize");
    let parsed: dpr_obs::series::History = dpr_telemetry::json::from_str(&text).expect("parse");
    assert_eq!(parsed, history);
    assert_eq!(parsed.slos.len(), 3);
    assert!(parsed.slos.iter().all(|s| s.state == "ok"), "{parsed:?}");
}

#[test]
fn error_burst_flips_http_errors_slo_to_burning_and_back() {
    let registry = Arc::new(Registry::new());
    let mut store = SeriesStore::new(
        SeriesConfig {
            interval: TICK,
            capacity: 64,
        },
        dpr_obs::series::service_slos(4),
    );
    let ok = registry.counter("http.jobs.status.202");
    let rejected = registry.counter("http.jobs.status.429");
    // Healthy traffic.
    for _ in 0..12 {
        ok.inc(50);
        store.tick(&registry.snapshot(), TICK);
    }
    let grade = |statuses: &[SloStatus]| -> String {
        statuses
            .iter()
            .find(|s| s.slug == "http_errors")
            .map(|s| s.state.clone())
            .expect("http_errors slo")
    };
    assert_eq!(grade(&store.statuses()), "ok");
    // Burst: every response a 429 for six ticks.
    for _ in 0..6 {
        rejected.inc(50);
        store.tick(&registry.snapshot(), TICK);
    }
    assert_eq!(grade(&store.statuses()), "burning");
    // Recovery: healthy ticks age the burst out of the short window.
    for _ in 0..40 {
        ok.inc(50);
        store.tick(&registry.snapshot(), TICK);
    }
    assert_eq!(grade(&store.statuses()), "ok");
}
