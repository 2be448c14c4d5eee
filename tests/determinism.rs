//! Regression test: the full pipeline is bit-identical whether its
//! per-sensor GP fits run one after another or in parallel.
//! `DpReverser::analyze` with `DPR_THREADS=1` must equal
//! `DPR_THREADS=N` — same `ReverseEngineeringResult`, same GP error
//! trajectories, same telemetry counters — because each fit is
//! sequential and seeded, and the fan-out returns results in input
//! order.
//!
//! Inference fits every matched sensor as one `dpr-par` job per car, so
//! at `DPR_THREADS` ≥ 2 the test also reads the run's pool accounting
//! before stripping it and checks that the fan-out really ran on the
//! pool and was the run's only pool entry — otherwise the comparison
//! would pit inline against inline.
//!
//! Single `#[test]` function on purpose: the test mutates the
//! `DPR_THREADS` process environment, and sibling tests in this binary
//! would race on it.

use dp_reverser::{DpReverser, PipelineConfig, ReverseEngineeringResult};
use dpr_can::Micros;
use dpr_cps::{collect_vehicle, CollectConfig, CollectionReport};
use dpr_frames::Scheme;
use dpr_telemetry::{MetricsSnapshot, Registry};
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

/// Analyzes inside a private telemetry scope and returns the result
/// together with the run's metrics.
fn analyze_scoped(
    seed: u64,
    report: &CollectionReport,
) -> (ReverseEngineeringResult, MetricsSnapshot) {
    let registry = Arc::new(Registry::new());
    let result = dpr_telemetry::scoped(Arc::clone(&registry), || {
        let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, seed));
        pipeline.analyze(&report.log, &report.frames, Some(&report.execution))
    });
    (result, registry.snapshot())
}

/// Strips the wall-clock-dependent metrics: `span.*` duration
/// histograms, the scheduling-dependent `par.*` / `prof.*` pool
/// accounting, and the `gp.evals_per_sec` throughput gauge. Everything
/// else — counters, the `gp.best_error_trajectory` histogram, SDU-size
/// histograms — must match exactly across thread counts.
fn deterministic_view(snapshot: &MetricsSnapshot) -> MetricsSnapshot {
    let mut view = snapshot.without_prefixes(&["span.", "par.", "prof."]);
    view.gauges.remove("gp.evals_per_sec");
    view
}

/// Calls of the inference fan-out that ran on the pool rather than
/// inline, so far in this process (the profile store is process-wide).
fn pooled_fanouts() -> u64 {
    dpr_prof::label_summary(dp_reverser::INFERENCE_LABEL)
        .map_or(0, |label| label.calls - label.inline_calls)
}

/// One test fn on purpose — see module docs.
#[test]
fn analyze_is_bit_identical_across_thread_counts() {
    let parallel = std::env::var("DPR_THREADS")
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| "4".to_string());
    let restore = std::env::var("DPR_THREADS").ok();

    // Two Tab. 3 car profiles: Car M (formula + enum ESVs) and Car O
    // (ECR recovery) — together they exercise every analyze stage.
    for (id, seed) in [(CarId::M, 5), (CarId::O, 13)] {
        let report = quick_collect(id, seed);

        std::env::set_var("DPR_THREADS", "1");
        let (seq_result, seq_metrics) = analyze_scoped(seed, &report);
        std::env::set_var("DPR_THREADS", &parallel);
        let fanouts_before = pooled_fanouts();
        let (par_result, par_metrics) = analyze_scoped(seed, &report);
        if parallel.trim().parse::<usize>().is_ok_and(|n| n >= 2) {
            // One pool job per car: the fan-out ran on the pool, and it
            // was the run's only pool entry, pooled or inline.
            assert_eq!(pooled_fanouts() - fanouts_before, 1, "{id:?}: fan-out ran inline");
            let counter = |name: &str| par_metrics.counters.get(name).copied().unwrap_or(0);
            assert_eq!(counter("par.calls"), 1, "{id:?}: pooled calls besides the fan-out");
            assert_eq!(counter("par.inline_calls"), 0, "{id:?}: a pool call drained inline");
        }

        assert_eq!(
            seq_result, par_result,
            "{id:?}: result differs between 1 and {parallel} threads"
        );
        assert_eq!(
            deterministic_view(&seq_metrics),
            deterministic_view(&par_metrics),
            "{id:?}: telemetry (GP error trajectories, counters) differs"
        );
        // The GP actually ran, so the comparison above had teeth.
        assert!(seq_metrics.counters.get("gp.fits").copied().unwrap_or(0) > 0);
        assert!(seq_metrics.histograms.contains_key("gp.best_error_trajectory"));
    }

    match restore {
        Some(v) => std::env::set_var("DPR_THREADS", v),
        None => std::env::remove_var("DPR_THREADS"),
    }
}
