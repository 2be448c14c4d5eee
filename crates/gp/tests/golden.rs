//! Golden pins for the GP engine: six fixed-seed `GpConfig::fast` fits
//! whose every observable outcome is frozen — the printed formula, the
//! raw-space training error to the bit, the generation and evaluation
//! counts, the winner's lineage op sequence, and the dedup and
//! fitness-cache counters.
//!
//! The engine promises that a refactor of its internals (genome layout,
//! dedup keying, polishing) leaves every RNG draw in place, so any
//! change here means the search itself changed. Regenerate the pins
//! only for a deliberate change of the search, and say so in the log.

use std::sync::Arc;

use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};

/// One fit, rendered as a single comparable line.
fn fingerprint(seed: u64, data: &Dataset) -> String {
    let registry = Arc::new(dpr_telemetry::Registry::new());
    let (model, events) = dpr_telemetry::scoped(Arc::clone(&registry), || {
        dpr_evidence::capture(|| {
            dpr_evidence::with_subject("golden", || {
                SymbolicRegressor::new(GpConfig::fast(seed)).fit(data)
            })
        })
    });
    let ops: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            dpr_evidence::Event::Lineage(l) => Some(l),
            _ => None,
        })
        .flat_map(|l| l.steps.iter().map(|s| s.op.clone()))
        .collect();
    let counters = registry.snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    format!(
        "{} | err {:#018x} | gens {} | evals {} | distinct {} | dedup_hits {} | cache_hits {} | {}",
        model.expr,
        model.train_error.to_bits(),
        model.generations,
        model.evaluations,
        counter("gp.dedup_distinct"),
        counter("gp.dedup_hits"),
        counter("gp.fitness_cache_hits"),
        ops.join(" "),
    )
}

fn cases() -> Vec<(&'static str, u64, Dataset)> {
    vec![
        (
            "linear",
            2,
            Dataset::from_pairs((0..40).map(|i| {
                let x = f64::from((i * 11) % 256);
                (x, 1.8 * x - 40.0)
            }))
            .unwrap(),
        ),
        (
            "quadratic",
            7,
            Dataset::from_pairs((0..40).map(|i| {
                let x = f64::from(i);
                (x, x * x * 0.01)
            }))
            .unwrap(),
        ),
        (
            "two-variable",
            42,
            Dataset::new(
                (0..40)
                    .map(|i| vec![f64::from(i * 5 % 200), f64::from((i * 37) % 256)])
                    .collect(),
                (0..40)
                    .map(|i| 64.0 * f64::from(i * 5 % 200) + 0.25 * f64::from((i * 37) % 256))
                    .collect(),
            )
            .unwrap(),
        ),
        (
            "constant",
            5,
            Dataset::from_pairs((0..20).map(|i| (f64::from(i), 7.0))).unwrap(),
        ),
        (
            "inverse",
            11,
            Dataset::from_pairs((1..40).map(|i| {
                let x = f64::from(i * 3);
                (x, 500.0 / x)
            }))
            .unwrap(),
        ),
        (
            "product",
            3,
            Dataset::from_triples((0..60).map(|i| {
                let x0 = f64::from(150 + (i * 7) % 100);
                let x1 = f64::from(10 + (i * 3) % 20);
                ((x0, x1), x0 * x1 / 5.0)
            }))
            .unwrap(),
        ),
    ]
}

const GOLDEN: [&str; 6] = [
    "linear: (-0.39999999863892577 + (1.7999999978451056 * X0)) | err 0x3e83a60827600000 | gens 20 | evals 265640 | distinct 3252 | dedup_hits 1787 | cache_hits 337 | init-grow point-mutation crossover point-mutation crossover elite elite elite crossover point-mutation hoist-mutation point-mutation depth-fallback point-mutation crossover crossover reproduction crossover hoist-mutation point-mutation point-mutation polish refit-residual refit-loworder",
    "quadratic: (X0 * X0) | err 0x3cc5f53333333333 | gens 1 | evals 10280 | distinct 211 | dedup_hits 45 | cache_hits 0 | init-full",
    "two-variable: ((max((0.6419067264986638 * X0), max(-0.4032662210783395, (X1 / min(-0.281, X1)))) + (-0.0019067264990268145 * X0)) + (0.02499999999533303 * X1)) | err 0x3e42fa2466666666 | gens 20 | evals 264720 | distinct 3840 | dedup_hits 1176 | cache_hits 360 | init-grow elite point-mutation point-mutation crossover reproduction depth-fallback depth-fallback point-mutation point-mutation crossover crossover point-mutation elite elite elite elite elite elite elite elite polish refit-residual",
    "constant: 7.000000000000104 | err 0x3d3d400000000000 | gens 15 | evals 104200 | distinct 1001 | dedup_hits 2607 | cache_hits 232 | init-grow crossover crossover elite elite elite elite elite elite elite elite point-mutation crossover crossover point-mutation polish refit-residual",
    "inverse: ((-92.5017527815796 / (-1.8500486039501225 * X0)) + (0.00036616115110146385 * inv(X0))) | err 0x3d1bcb7cb7cb7cb8 | gens 14 | evals 192933 | distinct 2405 | dedup_hits 940 | cache_hits 239 | init-grow crossover elite crossover hoist-mutation crossover crossover subtree-mutation crossover reproduction crossover crossover crossover point-mutation polish refit-residual",
    "product: (1.999999998808312 * (X0 * X1)) | err 0x3e9ed6106eeeeeef | gens 20 | evals 371100 | distinct 3943 | dedup_hits 641 | cache_hits 792 | seed-template crossover reproduction subtree-mutation crossover elite crossover subtree-mutation reproduction crossover depth-fallback crossover depth-fallback point-mutation hoist-mutation depth-fallback point-mutation depth-fallback crossover crossover subtree-mutation polish refit-loworder",
];

#[test]
fn fixed_seed_fits_are_pinned() {
    let got: Vec<String> = cases()
        .iter()
        .map(|(name, seed, data)| format!("{name}: {}", fingerprint(*seed, data)))
        .collect();
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want, "a GP fit drifted from its golden pin");
    }
}
