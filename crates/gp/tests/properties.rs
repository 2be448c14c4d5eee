//! Property-based tests for the GP engine's invariants.

use dpr_gp::compile::{BatchScratch, Columns, CompiledExpr};
use dpr_gp::expr::{BinaryOp, Expr};
use dpr_gp::genome::{self, Node};
use dpr_gp::scaling::{table2_factor, ScalePlan};
use dpr_gp::{Dataset, FunctionSet, GpConfig, Metric, SymbolicRegressor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_genome(rng: &mut StdRng, depth: usize) -> Vec<Node> {
    let mut nodes = Vec::new();
    genome::random(
        rng,
        depth,
        false,
        2,
        &FunctionSet::full(),
        (-10.0, 10.0),
        &mut nodes,
    );
    nodes
}

fn arb_expr(seed: u64, depth: usize) -> Expr {
    Expr::from_nodes(&arb_genome(&mut StdRng::seed_from_u64(seed), depth))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Protected operators keep evaluation total: any tree on any finite
    /// input yields a non-NaN-propagating result or a finite number.
    #[test]
    fn eval_is_total(seed in any::<u64>(), x0 in -1e4f64..1e4, x1 in -1e4f64..1e4) {
        let e = arb_expr(seed, 5);
        let v = e.eval(&[x0, x1]);
        // Protected operators keep the result finite (tan is clamped and
        // division/log/inv are protected), so no NaN/∞ can propagate out.
        prop_assert!(v.is_finite(), "{e} evaluated to {v}");
        // Size/depth bookkeeping stays consistent.
        prop_assert!(genome::depth(&e.to_nodes()) <= 5);
        prop_assert!(e.size() >= 1);
    }

    /// Simplification never changes semantics on sampled inputs.
    #[test]
    fn simplify_preserves_semantics(seed in any::<u64>(), x0 in -100.0f64..100.0, x1 in -100.0f64..100.0) {
        let e = arb_expr(seed, 5);
        let s = e.simplify();
        let a = e.eval(&[x0, x1]);
        let b = s.eval(&[x0, x1]);
        prop_assert!(
            (a - b).abs() < 1e-6 * a.abs().max(1.0) || (a.is_nan() && b.is_nan()),
            "{e} vs {s}: {a} vs {b}"
        );
        prop_assert!(s.size() <= e.size(), "simplify must not grow the tree");
    }

    /// The Tab. 2 factor is always a power of ten and, within the table's
    /// covered magnitude range (it caps correction at 10^4 on both ends,
    /// exactly as the paper's table does), lands the scaled median in a
    /// sane band.
    #[test]
    fn table2_factor_normalizes(median in 1e-6f64..1e6) {
        let f = table2_factor(median, true);
        let log = f.log10();
        prop_assert!((log - log.round()).abs() < 1e-9, "{f} is not a power of ten");
        prop_assert!((1e-4..=1e4).contains(&f), "correction capped at four decades");
        let scaled = median * f;
        if (1e-4..=1e5).contains(&median) {
            prop_assert!(
                (0.09..=10.0 + 1e-9).contains(&scaled),
                "median {median} -> {scaled}"
            );
        } else {
            // Outside the table's range the factor saturates; it must at
            // least move the value toward the band, never away.
            prop_assert!((scaled.log10().abs()) <= (median.log10().abs()) + 1e-9);
        }
    }

    /// Scale plans round trip: eval_raw of a fitted expression equals the
    /// scaled evaluation undone by hand.
    #[test]
    fn scale_plan_round_trip(x in 1.0f64..1e4, a in 0.01f64..100.0) {
        let data = Dataset::from_pairs((1..20).map(|i| {
            let xv = x * f64::from(i) / 10.0;
            (xv, a * xv)
        })).unwrap();
        let plan = ScalePlan::for_dataset(&data);
        let expr = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Const(2.0)),
            Box::new(Expr::Var(0)),
        );
        let raw = plan.eval_raw(&expr, &[x]);
        let manual = 2.0 * (x * plan.x_factors[0]) / plan.y_factor;
        prop_assert!((raw - manual).abs() < 1e-9 * manual.abs().max(1.0));
    }

    /// Compiled (postfix-bytecode) evaluation is bit-identical to the
    /// recursive tree walker on random trees over random inputs —
    /// including NaN/∞ inputs, so the protected division/log/inverse
    /// special cases and non-finite propagation agree exactly.
    #[test]
    fn compiled_eval_matches_recursive(
        seed in any::<u64>(),
        depth in 1usize..=7,
        x0 in -1e6f64..1e6,
        x1 in -1e6f64..1e6,
        special in 0u8..6,
    ) {
        let e = arb_expr(seed, depth);
        let c = CompiledExpr::compile(&e.to_nodes());
        // Mix plain finite rows with rows exercising NaN/∞ propagation and
        // the protected div-by-zero / log(0) / inv(0) branches.
        let row: [f64; 2] = match special {
            0 => [f64::NAN, x1],
            1 => [f64::INFINITY, x1],
            2 => [x0, f64::NEG_INFINITY],
            3 => [0.0, 0.0],
            4 => [x0, 1e-12],
            _ => [x0, x1],
        };
        let a = e.eval(&row);
        let b = c.eval(&row);
        prop_assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{e} on {row:?}: {a:?} ({:#x}) vs {b:?} ({:#x})", a.to_bits(), b.to_bits()
        );
        // Fusion only shrinks the one-op-per-node program.
        prop_assert!(c.ops().len() <= e.size());
    }

    /// The batch (column-wise) error path returns exactly what
    /// `Metric::error` computes with the recursive evaluator.
    #[test]
    fn compiled_batch_error_matches_metric(
        seed in any::<u64>(),
        rows in proptest::collection::vec((-1e4f64..1e4, -1e4f64..1e4, -1e4f64..1e4), 1..40),
    ) {
        let e = arb_expr(seed, 6);
        let data = Dataset::new(
            rows.iter().map(|(x0, x1, _)| vec![*x0, *x1]).collect(),
            rows.iter().map(|(_, _, y)| *y).collect(),
        ).unwrap();
        let cols = Columns::from_dataset(&data);
        let compiled = CompiledExpr::compile(&e.to_nodes());
        let mut scratch = BatchScratch::new();
        for metric in [Metric::MeanAbsoluteError, Metric::MeanSquaredError, Metric::Rmse] {
            let want = metric.error(&e, &data);
            let got = compiled.error_on(&cols, metric, &mut scratch);
            prop_assert!(
                want.to_bits() == got.to_bits(),
                "{e} with {metric:?}: {want} vs {got}"
            );
        }
    }

    /// Superinstruction fusion is bit-identical to unfused evaluation on
    /// the batch path. The unfused reference is the recursive tree walk,
    /// one `apply` per node. The value range reaches ±1e300 so chained
    /// products overflow to ∞ and subtractions of overflows produce NaN
    /// mid-program — the fused arms must propagate those exactly like the
    /// tree walk (they call the same protected `apply` in the same order).
    #[test]
    fn fused_batch_scoring_matches_unfused(
        seed in any::<u64>(),
        depth in 1usize..=7,
        rows in proptest::collection::vec((-1e300f64..1e300, -1e300f64..1e300, -1e4f64..1e4), 1..24),
    ) {
        let e = arb_expr(seed, depth);
        let data = Dataset::new(
            rows.iter().map(|(x0, x1, _)| vec![*x0, *x1]).collect(),
            rows.iter().map(|(_, _, y)| *y).collect(),
        ).unwrap();
        let cols = Columns::from_dataset(&data);
        let fused = CompiledExpr::compile(&e.to_nodes());
        prop_assert!(fused.ops().len() <= e.size(), "fusion must not grow programs");
        let mut scratch = BatchScratch::new();
        for metric in [Metric::MeanAbsoluteError, Metric::MeanSquaredError, Metric::Rmse] {
            let a = metric.error(&e, &data);
            let b = fused.error_on(&cols, metric, &mut scratch);
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "{e} with {metric:?}: unfused {a:?} ({:#x}) vs fused {b:?} ({:#x})",
                a.to_bits(), b.to_bits()
            );
        }
    }

    /// Structural dedup never changes scores: every program's error is
    /// bit-for-bit the error of the representative its class elected, and
    /// duplicating a population doubles hits without adding classes.
    #[test]
    fn dedup_representatives_score_bit_identically(
        seed in any::<u64>(),
        n in 1usize..24,
        rows in proptest::collection::vec((-1e4f64..1e4, -1e4f64..1e4, -1e4f64..1e4), 1..16),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let genomes: Vec<Vec<Node>> = (0..n).map(|_| arb_genome(&mut rng, 4)).collect();
        // Population with duplicates: every genome appears twice.
        let population: Vec<&[Node]> = genomes.iter().chain(&genomes).map(Vec::as_slice).collect();
        let groups = dpr_gp::dedup::group(&population);
        prop_assert!(groups.reps.len() <= genomes.len());
        prop_assert_eq!(groups.hits(), (population.len() - groups.reps.len()) as u64);
        prop_assert!(groups.hits() >= genomes.len() as u64, "each clone must hit its twin's class");
        let programs: Vec<CompiledExpr> = population.iter().map(|g| CompiledExpr::compile(g)).collect();

        let data = Dataset::new(
            rows.iter().map(|(x0, x1, _)| vec![*x0, *x1]).collect(),
            rows.iter().map(|(_, _, y)| *y).collect(),
        ).unwrap();
        let cols = Columns::from_dataset(&data);
        let mut scratch = BatchScratch::new();
        let metric = Metric::MeanAbsoluteError;
        for (i, program) in programs.iter().enumerate() {
            let rep = &programs[groups.reps[groups.assign[i] as usize]];
            let own = program.error_on(&cols, metric, &mut scratch);
            let reused = rep.error_on(&cols, metric, &mut scratch);
            prop_assert!(
                own.to_bits() == reused.to_bits(),
                "program {i}: own score {own:?} vs representative's {reused:?}"
            );
        }
    }

    /// Fitness metrics are non-negative and zero exactly on perfect fits.
    #[test]
    fn metric_nonnegative(values in proptest::collection::vec((0.0f64..100.0, -50.0f64..50.0), 3..30)) {
        let data = Dataset::from_pairs(values.clone()).unwrap();
        let expr = Expr::Var(0);
        for metric in [Metric::MeanAbsoluteError, Metric::MeanSquaredError, Metric::Rmse] {
            let e = metric.error(&expr, &data);
            prop_assert!(e >= 0.0);
        }
        // Fitting y = x exactly.
        let exact = Dataset::from_pairs(values.iter().map(|(x, _)| (*x, *x))).unwrap();
        prop_assert_eq!(Metric::MeanAbsoluteError.error(&expr, &exact), 0.0);
    }
}

/// Non-proptest sanity: the engine recovers a sampled family of linear
/// relations across seeds (a smoke test of end-to-end robustness).
#[test]
fn engine_recovers_linear_family_across_seeds() {
    let mut recovered = 0;
    let total = 8;
    for seed in 0..total {
        let a = 0.25 + f64::from(seed) * 0.4;
        let b = f64::from(seed * 3) - 10.0;
        let data = Dataset::from_pairs((0..40).map(|i| {
            let x = f64::from((i * 13) % 250);
            (x, a * x + b)
        }))
        .unwrap();
        let model = SymbolicRegressor::new(GpConfig::fast(seed as u64)).fit(&data);
        if model.agrees_with(|x| a * x[0] + b, &[(0.0, 250.0)], 0.02) {
            recovered += 1;
        }
    }
    assert!(
        recovered >= total - 1,
        "only {recovered}/{total} linear relations recovered"
    );
}
