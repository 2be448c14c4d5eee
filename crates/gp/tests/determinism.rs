//! Regression test: parallel fitness scoring is **bit-identical** to
//! sequential scoring, and so is population-wide dedup, which every
//! scoring call runs. All randomness lives in the sequential breeding
//! phase and evaluation is a pure, index-order-preserving map, so the
//! same seed must yield the same model and the same per-generation error
//! trajectory at any `DPR_THREADS` setting.
//!
//! Everything runs inside ONE `#[test]` function: the test mutates the
//! `DPR_THREADS` process environment, and sibling tests in this binary
//! would otherwise race on it.

use dpr_gp::{Dataset, FittedModel, GpConfig, GpReport, SymbolicRegressor};

fn fit_dataset(seed: u64, data: &Dataset) -> (FittedModel, GpReport) {
    let mut gp = SymbolicRegressor::new(GpConfig::fast(seed));
    let model = gp.fit(data);
    let report = gp.last_report().expect("fit records a report").clone();
    (model, report)
}

fn sample_datasets() -> Vec<Dataset> {
    vec![
        // Linear with offset (the classic coolant-temperature shape).
        Dataset::from_pairs((0..48).map(|i| {
            let x = f64::from((i * 11) % 256);
            (x, 1.8 * x - 40.0)
        }))
        .unwrap(),
        // Two-variable OBD-II engine-speed formula.
        Dataset::new(
            (0..48)
                .map(|i| vec![f64::from(i * 5 % 200), f64::from((i * 37) % 256)])
                .collect(),
            (0..48)
                .map(|i| 64.0 * f64::from(i * 5 % 200) + 0.25 * f64::from((i * 37) % 256))
                .collect(),
        )
        .unwrap(),
    ]
}

/// One test fn on purpose — see module docs.
#[test]
fn parallel_fit_is_bit_identical_to_sequential() {
    let restore = std::env::var("DPR_THREADS").ok();

    for (k, data) in sample_datasets().iter().enumerate() {
        for seed in [2023u64, 7] {
            std::env::set_var("DPR_THREADS", "1");
            let (seq_model, seq_report) = fit_dataset(seed, data);

            for t in ["2", "4"] {
                std::env::set_var("DPR_THREADS", t);
                let (model, report) = fit_dataset(seed, data);
                let config = format!("dataset {k} seed {seed}: threads {t}");
                assert_eq!(seq_model, model, "{config}: model differs");
                // Trajectories bit-for-bit, not just approximately.
                let bits = |r: &GpReport| -> Vec<u64> {
                    r.best_error_history.iter().map(|e| e.to_bits()).collect()
                };
                assert_eq!(
                    bits(&seq_report),
                    bits(&report),
                    "{config}: error trajectory differs"
                );
                assert_eq!(
                    seq_report.stopped_by_threshold, report.stopped_by_threshold,
                    "{config}: stop reason differs"
                );
                assert_eq!(
                    seq_model.evaluations, model.evaluations,
                    "{config}: evaluation counts differ"
                );
            }
        }
    }

    match restore {
        Some(v) => std::env::set_var("DPR_THREADS", v),
        None => std::env::remove_var("DPR_THREADS"),
    }
}
