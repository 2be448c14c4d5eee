//! Self-tests of the benchmark: seeded inputs, the output checker, and
//! the metric set it declares.

use dp_reverser::ReverseEngineeringResult;
use dpr_capture::CaptureWriter;
use dpr_perfbench::inputs::{generate_cars, round_order, schedule, Arrival};
use dpr_perfbench::metrics::{result_line, smooth_quantile, Report, END_TO_END, PER_LAYER};
use dpr_perfbench::serve::{drive, Load, ServeRun};
use dpr_perfbench::Workload;
use dpr_serve::{AnalysisService, Analyzer, JobInput, ServiceConfig};
use dpr_telemetry::json::{self, Value};
use dpr_vehicle::profiles::CarId;
use std::sync::Arc;
use std::time::Duration;

#[test]
fn a_seed_fixes_the_pass_orders_and_the_schedule() {
    let cars = [CarId::M, CarId::G];
    assert_eq!(
        generate_cars(&cars),
        generate_cars(&cars),
        "the captures are byte-identical from one generation to the next"
    );

    let passes = |seed| -> Vec<Vec<usize>> { (0..3).map(|p| round_order(seed, p, 18)).collect() };
    assert_eq!(passes(7), passes(7), "same seed, same pass orders");
    assert_ne!(passes(7), passes(8), "another seed, other pass orders");
    assert_ne!(passes(7)[0], passes(7)[1], "passes of one run differ");

    let arrivals = schedule(7, 40, 4.0, 18);
    assert_eq!(
        arrivals,
        schedule(7, 40, 4.0, 18),
        "same seed, same schedule"
    );
    assert_ne!(
        arrivals,
        schedule(8, 40, 4.0, 18),
        "another seed, another schedule"
    );
    let mut round: Vec<usize> = arrivals[..18].iter().map(|a| a.car).collect();
    round.sort_unstable();
    assert_eq!(
        round,
        (0..18).collect::<Vec<_>>(),
        "every car once per round"
    );
    assert_eq!(arrivals[4].at, Duration::from_secs(1), "4 jobs per second");
}

#[test]
fn the_smooth_quantile_averages_around_its_rank() {
    assert_eq!(smooth_quantile(&[], 0.5), 0.0);
    assert!((smooth_quantile(&[4.0; 9], 0.9) - 4.0).abs() < 1e-9);
    let symmetric = [1.0, 2.0, 3.0, 4.0, 5.0];
    assert!((smooth_quantile(&symmetric, 0.5) - 3.0).abs() < 1e-9);
    // Two clusters with a gap at the median: the interpolated median
    // jumps by the width of the gap when one sample crosses it; this
    // estimate moves by a fraction of that.
    let low: Vec<f64> = [vec![100.0; 9], vec![300.0; 9]].concat();
    let mut high = low.clone();
    high[8] = 300.0;
    let (a, b) = (smooth_quantile(&low, 0.5), smooth_quantile(&high, 0.5));
    assert!(b > a && b - a < 50.0, "{a} -> {b}");
    let p90 = smooth_quantile(&low, 0.9);
    assert!(p90 > a && p90 <= 300.0, "{p90}");
}

fn empty_result() -> ReverseEngineeringResult {
    ReverseEngineeringResult {
        esvs: Vec::new(),
        ecrs: Vec::new(),
        stats: Default::default(),
        negatives: 0,
        alignment_offset_us: 0,
        trace: Default::default(),
        evidence: Default::default(),
    }
}

/// Answers every job with an empty result after `delay`.
struct Stub {
    delay: Duration,
}

impl Analyzer for Stub {
    fn analyze(&self, _input: JobInput) -> Result<ReverseEngineeringResult, String> {
        std::thread::sleep(self.delay);
        Ok(empty_result())
    }
}

/// Runs `jobs` uploads, all due at once, against a one-worker service
/// whose analyzer takes `delay`, checking results against `reference`.
fn serve_stub(
    delay: Duration,
    queue: usize,
    reference: String,
    jobs: usize,
    timeout: Duration,
) -> ServeRun {
    let mut writer = CaptureWriter::new(Vec::new()).expect("in-memory capture");
    writer.write_meta("car", "M").expect("in-memory capture");
    let capture = writer.finish().expect("in-memory capture");
    let config = ServiceConfig {
        analysis_workers: 1,
        queue_capacity: queue,
        series: None,
        ..ServiceConfig::default()
    };
    let service = AnalysisService::start("127.0.0.1:0", config, Arc::new(Stub { delay }))
        .expect("binds a loopback port");
    let arrivals: Vec<Arrival> = (0..jobs)
        .map(|_| Arrival {
            at: Duration::ZERO,
            car: 0,
        })
        .collect();
    let load = Load {
        poll: Duration::from_millis(2),
        timeout,
    };
    let run = drive(&service, &[capture], &[reference], &arrivals, &load, false);
    service.stop();
    run
}

#[test]
fn the_checker_counts_a_one_byte_tampered_result_as_failed() {
    let good = empty_result().canonical_json();
    let run = serve_stub(Duration::ZERO, 8, good.clone(), 2, Duration::from_secs(10));
    assert_eq!(
        (run.tally.attempted, run.tally.failed()),
        (2, 0),
        "{:?}",
        run.tally
    );

    let mut tampered = good.into_bytes();
    let middle = tampered.len() / 2;
    tampered[middle] ^= 0x01;
    let tampered = String::from_utf8(tampered).expect("canonical JSON is ASCII");
    let run = serve_stub(Duration::ZERO, 8, tampered, 2, Duration::from_secs(10));
    assert_eq!(run.tally.attempted, 2);
    assert_eq!(run.tally.mismatched, 2, "{:?}", run.tally);
}

#[test]
fn the_checker_counts_a_429_as_failed() {
    // One worker busy for a second and a queue of one: of four uploads
    // sent at once, at most two find room.
    let good = empty_result().canonical_json();
    let run = serve_stub(Duration::from_secs(1), 1, good, 4, Duration::from_secs(10));
    assert_eq!(run.tally.attempted, 4, "{:?}", run.tally);
    assert!(run.tally.refused >= 2, "{:?}", run.tally);
    assert_eq!(run.tally.failed(), run.tally.refused, "{:?}", run.tally);
}

#[test]
fn the_checker_counts_a_timeout_as_failed() {
    let good = empty_result().canonical_json();
    let run = serve_stub(
        Duration::from_millis(1500),
        8,
        good,
        1,
        Duration::from_millis(300),
    );
    assert_eq!(run.tally.attempted, 1, "{:?}", run.tally);
    assert_eq!(run.tally.timed_out, 1, "{:?}", run.tally);
}

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    match value {
        Value::Object(entries) => {
            &entries
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no {key}"))
                .1
        }
        other => panic!("{key} looked up in {other:?}"),
    }
}

fn text(value: &Value) -> &str {
    match value {
        Value::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn list(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

fn read_json(file: &str) -> Value {
    let path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn the_printed_metrics_are_the_declared_ones() {
    let manifest = read_json("../BENCHMARK.json");
    let workloads: Vec<&str> = list(field(&manifest, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared: Vec<(String, String)> = list(field(&manifest, key))
            .iter()
            .map(|m| {
                (
                    text(field(m, "name")).to_string(),
                    text(field(m, "unit")).to_string(),
                )
            })
            .collect();
        let report = Report {
            values: metrics.iter().map(|(name, _)| (*name, 1.5)).collect(),
            ..Report::default()
        };
        let line = json::parse(&result_line(&report, metrics)).expect("the result line is JSON");
        let printed: Vec<(String, String)> = match field(&line, "metrics") {
            Value::Object(entries) => entries
                .iter()
                .map(|(name, m)| (name.clone(), text(field(m, "unit")).to_string()))
                .collect(),
            other => panic!("metrics is {other:?}"),
        };
        assert_eq!(printed, declared, "{key}");
    }
}

#[test]
fn every_per_layer_metric_has_one_prediction() {
    let predictions = read_json("predictions.json");
    let mut covered: Vec<&str> = Vec::new();
    for group in list(&predictions) {
        covered.extend(list(field(group, "metrics")).iter().map(text));
        for claim in list(field(group, "moves"))
            .iter()
            .chain(list(field(group, "no_change")))
        {
            let (metric, workload) = text(claim).split_once('@').expect("metric@workload");
            assert!(
                END_TO_END.iter().any(|(name, _)| *name == metric),
                "{metric}"
            );
            assert!(Workload::parse(workload).is_some(), "{workload}");
        }
    }
    covered.sort_unstable();
    let mut declared: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    declared.sort_unstable();
    assert_eq!(covered, declared);
}
