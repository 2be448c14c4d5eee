//! Regression test: structured logging is observation, not
//! intervention. Turning on the stderr sink (at `debug`) and the
//! JSON-lines sink must not change pipeline output — same
//! `ReverseEngineeringResult`, down to its canonical JSON
//! serialization. The logged run also pins the one stage boundary:
//! every stage of its `PipelineTrace` has exactly one span and one
//! `stage complete` record, in trace order.
//!
//! Single `#[test]` function on purpose: the test mutates the global
//! logger's runtime sinks, and sibling tests in this binary would race
//! on them.

use dp_reverser::{DpReverser, PipelineConfig, ReverseEngineeringResult};
use dpr_can::Micros;
use dpr_cps::{collect_vehicle, CollectConfig, CollectionReport};
use dpr_frames::Scheme;
use dpr_telemetry::log::{FieldValue, Record};
use dpr_telemetry::{Collector, Registry};
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::profiles::{self, CarId};
use std::sync::Arc;

fn quick_collect(id: CarId, seed: u64) -> CollectionReport {
    let car = profiles::build(id, seed);
    let spec = profiles::spec(id);
    let session = ToolSession::new(car, ToolProfile::by_name(spec.tool).unwrap());
    collect_vehicle(
        session,
        &CollectConfig {
            read_wait: Micros::from_secs(4),
            ..CollectConfig::default()
        },
    )
    .unwrap()
}

fn analyze(seed: u64, report: &CollectionReport) -> ReverseEngineeringResult {
    let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, seed));
    pipeline.analyze(&report.log, &report.frames, Some(&report.execution))
}

fn canonical(mut result: ReverseEngineeringResult) -> String {
    // Clear the one wall-clock-carrying field (the stage trace) —
    // stage timings differ between *any* two runs, logged or not.
    result.trace = dpr_telemetry::PipelineTrace::default();
    dpr_telemetry::json::to_string(&result).unwrap()
}

/// One test fn on purpose — see module docs.
#[test]
fn logging_does_not_change_pipeline_output() {
    let json_path = std::env::temp_dir().join(format!(
        "dpr-log-identity-{}.jsonl",
        std::process::id()
    ));

    for (id, seed) in [(CarId::M, 5), (CarId::O, 13)] {
        let report = quick_collect(id, seed);

        dpr_telemetry::log::set_stderr_level(None);
        dpr_telemetry::log::set_json_path(None).expect("disable json sink");
        let off = analyze(seed, &report);

        dpr_telemetry::log::set_stderr_level(Some(dpr_telemetry::log::Level::Debug));
        dpr_telemetry::log::set_json_path(Some(&json_path)).expect("enable json sink");
        let spans = Arc::new(Collector::new());
        let registry = Arc::new(Registry::new());
        registry.add_sink(Arc::clone(&spans) as _);
        let on = dpr_telemetry::scoped(registry, || analyze(seed, &report));
        dpr_telemetry::log::set_stderr_level(None);
        dpr_telemetry::log::set_json_path(None).expect("disable json sink");

        let stages: Vec<String> = on.trace.stages.iter().map(|s| s.name.clone()).collect();
        assert_eq!(off, on, "{id:?}: result differs with logging on");
        assert_eq!(
            canonical(off),
            canonical(on),
            "{id:?}: canonical JSON differs with logging on"
        );

        // The logged run wrote one stage line per trace stage, in order,
        // so the comparison above had teeth. (`set_json_path` truncates,
        // so the file holds exactly this iteration's records.)
        let logged = std::fs::read_to_string(&json_path).expect("json log written");
        let logged_stages: Vec<String> = logged
            .lines()
            .map(|l| Record::from_json(l).expect("log line parses"))
            .filter(|r| r.target == "pipeline" && r.message == "stage complete")
            .map(|r| match r.field("stage") {
                Some(FieldValue::Str(stage)) => stage.clone(),
                other => panic!("{id:?}: stage record without a stage name: {other:?}"),
            })
            .collect();
        assert_eq!(logged_stages, stages, "{id:?}: stage records disagree with the trace");
        assert!(stages.len() >= 5, "{id:?}: too few stages traced: {stages:?}");
        // …and one span per trace stage, under the stage's name.
        let stage_spans: Vec<String> = spans
            .records()
            .iter()
            .filter(|r| stages.iter().any(|s| s == r.name))
            .map(|r| r.name.to_string())
            .collect();
        assert_eq!(stage_spans, stages, "{id:?}: stage spans disagree with the trace");
    }
    let _ = std::fs::remove_file(&json_path);
}
