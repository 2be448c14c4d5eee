//! Regression test: metrics-history sampling is observation, not
//! intervention. Running the pipeline with a live [`Sampler`] ticking
//! over its registry must not change pipeline output — same
//! `ReverseEngineeringResult`, down to its canonical JSON
//! serialization. The sampler only *reads* snapshots and publishes its
//! own `series.*` / `slo.*` bookkeeping metrics.
//!
//! Single `#[test]` function on purpose, matching `log_identity.rs`:
//! both runs scope the thread-local registry stack, and sibling tests
//! in this binary would interleave their scopes.

use dp_reverser::{DpReverser, PipelineConfig, ReverseEngineeringResult};
use dpr_can::Micros;
use dpr_cps::{collect_vehicle, CollectConfig, CollectionReport};
use dpr_frames::Scheme;
use dpr_obs::series::{Sampler, SeriesConfig};
use dpr_telemetry::Registry;
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::profiles::{self, CarId};
use std::sync::Arc;
use std::time::Duration;

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
    // stage timings differ between *any* two runs, sampled or not.
    result.trace = dpr_telemetry::PipelineTrace::default();
    dpr_telemetry::json::to_string(&result).unwrap()
}

/// One test fn on purpose — see module docs.
#[test]
fn sampling_does_not_change_pipeline_output() {
    for (id, seed) in [(CarId::M, 5), (CarId::O, 13)] {
        let report = quick_collect(id, seed);

        // Off: a fresh registry, no sampler watching it.
        let off_registry = Arc::new(Registry::new());
        let off = dpr_telemetry::scoped(Arc::clone(&off_registry), || analyze(seed, &report));

        // On: a fresh registry with a sampler ticking fast over it the
        // whole time the pipeline runs.
        let on_registry = Arc::new(Registry::new());
        let sampler = Sampler::start(
            Arc::clone(&on_registry),
            SeriesConfig {
                interval: Duration::from_millis(10),
                capacity: 512,
            },
            dpr_obs::series::service_slos(8),
        );
        let on = dpr_telemetry::scoped(Arc::clone(&on_registry), || analyze(seed, &report));
        sampler.force_tick();

        // Teeth: the sampler really watched the analysis — it ticked,
        // and it tracked pipeline metrics beyond its own bookkeeping.
        let history = sampler.history();
        assert!(history.samples >= 2, "{id:?}: {history:?}");
        assert!(
            history
                .counters
                .keys()
                .any(|k| !k.starts_with("series.") && !k.starts_with("slo.")),
            "{id:?}: sampler saw no pipeline counters, only {:?}",
            history.counters.keys().collect::<Vec<_>>()
        );
        sampler.stop();

        assert_eq!(off, on, "{id:?}: result differs with sampling on");
        assert_eq!(
            canonical(off),
            canonical(on),
            "{id:?}: canonical JSON differs with sampling on"
        );
    }
}
