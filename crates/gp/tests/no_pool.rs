//! A GP fit is strictly sequential: it never enters the `dpr-par` pool,
//! not even inline. The pipeline's per-sensor fan-out is the one level
//! of parallelism, and a fit that called the pool once per generation
//! would pay the pool's per-call bookkeeping hundreds of times per car.
//!
//! Every pool call, pooled or inline, bumps a `par.*` counter in the
//! caller's telemetry registry, so a fit in a fresh registry that
//! leaves no `par.*` metric behind never called it.

use std::sync::Arc;

use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};

#[test]
fn fit_emits_no_pool_metrics() {
    let data = Dataset::from_pairs((0..40).map(|i| {
        let x = f64::from(i * 5);
        (x, 0.75 * x - 48.0)
    }))
    .unwrap();
    let registry = Arc::new(dpr_telemetry::Registry::new());
    let model = dpr_telemetry::scoped(Arc::clone(&registry), || {
        SymbolicRegressor::new(GpConfig::fast(3)).fit(&data)
    });
    assert!(model.generations > 0, "the fit ran");

    let snapshot = registry.snapshot();
    assert!(
        snapshot.counters.contains_key("gp.fits"),
        "the fit reported into the scoped registry: {:?}",
        snapshot.counters.keys()
    );
    let pool_metrics: Vec<&String> = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .filter(|name| name.starts_with("par."))
        .collect();
    assert!(
        pool_metrics.is_empty(),
        "a GP fit entered the pool: {pool_metrics:?}"
    );
}
