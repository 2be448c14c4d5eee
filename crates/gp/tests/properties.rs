//! Property-based tests for the GP engine's invariants.

use dpr_gp::expr::{BinaryOp, Expr, UnaryOp};
use dpr_gp::genome::{self, Node};
use dpr_gp::scaling::{table2_factor, ScalePlan};
use dpr_gp::score::{error_on, BatchScratch, Columns};
use dpr_gp::{Dataset, FunctionSet, GpConfig, Metric, SymbolicRegressor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Tree depth by recursion over the pre-order genome: the reference the
/// engine's reverse scan must match. Returns `(depth, end)`.
fn recursive_depth(nodes: &[Node], at: usize) -> (usize, usize) {
    match nodes[at] {
        Node::Const(_) | Node::Var(_) => (1, at + 1),
        Node::Unary(_) => {
            let (d, end) = recursive_depth(nodes, at + 1);
            (d + 1, end)
        }
        Node::Binary(_) => {
            let (left, mid) = recursive_depth(nodes, at + 1);
            let (right, end) = recursive_depth(nodes, mid);
            (left.max(right) + 1, end)
        }
    }
}

/// First-seen grouping by pairwise comparison, constants by bit
/// pattern: the reference for the hash table's classes.
fn naive_groups(genomes: &[Vec<Node>]) -> (Vec<usize>, Vec<u32>) {
    let same = |a: &[Node], b: &[Node]| {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| match (x, y) {
                (Node::Const(x), Node::Const(y)) => x.to_bits() == y.to_bits(),
                (x, y) => x == y,
            })
    };
    let mut reps: Vec<usize> = Vec::new();
    let mut assign = Vec::with_capacity(genomes.len());
    for (i, g) in genomes.iter().enumerate() {
        let class = match reps.iter().position(|&r| same(&genomes[r], g)) {
            Some(class) => class,
            None => {
                reps.push(i);
                reps.len() - 1
            }
        };
        assign.push(class as u32);
    }
    (reps, assign)
}

fn arb_expr(seed: u64, depth: usize) -> Expr {
    Expr::from_nodes(&arb_genome(&mut StdRng::seed_from_u64(seed), depth))
}

fn dataset(rows: &[(f64, f64, f64)]) -> Dataset {
    Dataset::new(
        rows.iter().map(|(x0, x1, _)| vec![*x0, *x1]).collect(),
        rows.iter().map(|(_, _, y)| *y).collect(),
    )
    .unwrap()
}

/// Fails unless the batch scorer returns `Metric::error`'s exact bits
/// for `e` on `data` under every metric.
fn check_scorer(e: &Expr, data: &Dataset) {
    let cols = Columns::from_dataset(data);
    let genome = e.to_nodes();
    let mut scratch = BatchScratch::new();
    for metric in [
        Metric::MeanAbsoluteError,
        Metric::MeanSquaredError,
        Metric::Rmse,
    ] {
        let want = metric.error(e, data);
        let got = error_on(&genome, &cols, metric, &mut scratch);
        assert!(
            want.to_bits() == got.to_bits(),
            "{e} with {metric:?}: walker {want:?} ({:#x}) vs scorer {got:?} ({:#x})",
            want.to_bits(),
            got.to_bits()
        );
    }
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
        prop_assert!(genome::depth(&e.to_nodes(), &mut Vec::new()) <= 5);
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

    /// The batch scorer is bit-identical to the recursive tree walker on
    /// rows of ±1e300, where products overflow to ∞ and ∞ − ∞ turns NaN
    /// mid-tree, and on the zero and near-zero rows that take the
    /// protected division/log/inverse branches. (A data set holds only
    /// finite inputs, so non-finite values can only arise inside a tree.)
    #[test]
    fn compiled_eval_matches_recursive(
        seed in any::<u64>(),
        depth in 1usize..=7,
        x0 in -1e6f64..1e6,
        x1 in -1e6f64..1e6,
        special in 0u8..6,
    ) {
        let e = arb_expr(seed, depth);
        let row = match special {
            0 => (1e300, x1),
            1 => (-1e300, 1e300),
            2 => (x0, -1e300),
            3 => (0.0, 0.0),
            4 => (x0, 1e-12),
            _ => (x0, x1),
        };
        check_scorer(&e, &dataset(&[(row.0, row.1, 1.0), (x0, x1, -2.0)]));
    }

    /// The batch scorer returns exactly what `Metric::error` computes with
    /// the recursive evaluator.
    #[test]
    fn compiled_batch_error_matches_metric(
        seed in any::<u64>(),
        rows in proptest::collection::vec((-1e4f64..1e4, -1e4f64..1e4, -1e4f64..1e4), 1..40),
    ) {
        check_scorer(&arb_expr(seed, 6), &dataset(&rows));
    }

    /// The lazy operand stack (columns read in place, constants folded,
    /// leaf-lhs-over-slab arms) is bit-identical to the tree walk, one
    /// `apply` per node. The value range reaches ±1e300 so chained
    /// products overflow to ∞ and subtractions of overflows produce NaN
    /// mid-program — every arm must propagate those exactly like the
    /// tree walk.
    #[test]
    fn fused_batch_scoring_matches_unfused(
        seed in any::<u64>(),
        depth in 1usize..=7,
        rows in proptest::collection::vec((-1e300f64..1e300, -1e300f64..1e300, -1e4f64..1e4), 1..24),
    ) {
        check_scorer(&arb_expr(seed, depth), &dataset(&rows));
    }

    /// Genomes built to hit the scorer's special paths: constant-only
    /// subtrees (folded), an out-of-range variable, signed-zero constants
    /// under `Div`, `Inv` and `Log`, a leaf lhs over a deep rhs, and a deep
    /// left spine (the deepest reverse-scan stack).
    #[test]
    fn shaped_genomes_score_like_the_walker(
        seed in any::<u64>(),
        depth in 1usize..=5,
        zero_sign in any::<bool>(),
        spine in 1usize..=20,
        rows in proptest::collection::vec((-1e300f64..1e300, -1e4f64..1e4, -1e4f64..1e4), 1..12),
    ) {
        let data = dataset(&rows);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sub = || Expr::from_nodes(&arb_genome(&mut rng, depth));
        let zero = Expr::Const(if zero_sign { -0.0 } else { 0.0 });
        let bin = |op, a: Expr, b: Expr| Expr::Binary(op, Box::new(a), Box::new(b));
        let un = |op, a: Expr| Expr::Unary(op, Box::new(a));
        // A subtree of constants only: random shape, every leaf a constant.
        let constant = Expr::from_nodes(
            &sub()
                .to_nodes()
                .into_iter()
                .map(|n| match n {
                    Node::Var(i) => Node::Const(f64::from(i) - 0.5),
                    n => n,
                })
                .collect::<Vec<_>>(),
        );
        for e in [
            constant.clone(),
            bin(BinaryOp::Mul, sub(), constant.clone()),
            bin(BinaryOp::Sub, constant, sub()),
            bin(BinaryOp::Add, Expr::Var(2), sub()),
            un(UnaryOp::Neg, Expr::Var(3)),
            bin(BinaryOp::Div, sub(), zero.clone()),
            bin(BinaryOp::Div, zero.clone(), sub()),
            un(UnaryOp::Inv, zero.clone()),
            un(UnaryOp::Log, zero.clone()),
            un(UnaryOp::Inv, bin(BinaryOp::Mul, zero.clone(), sub())),
            un(UnaryOp::Log, bin(BinaryOp::Add, sub(), zero)),
        ] {
            check_scorer(&e, &data);
        }
        let mut left = sub();
        let mut leaf_over = sub();
        for k in 0..spine {
            let op = BinaryOp::ALL[k % BinaryOp::ALL.len()];
            let leaf = match k % 3 {
                0 => Expr::Var(0),
                1 => Expr::Var(1),
                _ => Expr::Const(k as f64 - 7.5),
            };
            left = bin(op, left, if k % 4 == 3 { sub() } else { leaf.clone() });
            leaf_over = bin(op, leaf, un(UnaryOp::ALL[k % UnaryOp::ALL.len()], leaf_over));
        }
        check_scorer(&left, &data);
        check_scorer(&leaf_over, &data);
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
        let cols = Columns::from_dataset(&dataset(&rows));
        let mut scratch = BatchScratch::new();
        let metric = Metric::MeanAbsoluteError;
        for (i, genome) in population.iter().enumerate() {
            let rep = population[groups.reps[groups.assign[i] as usize]];
            let own = error_on(genome, &cols, metric, &mut scratch);
            let reused = error_on(rep, &cols, metric, &mut scratch);
            prop_assert!(
                own.to_bits() == reused.to_bits(),
                "genome {i}: own score {own:?} vs representative's {reused:?}"
            );
        }
    }

    /// The reverse-scan depth equals the recursive walk on random grow and
    /// full genomes, on grafts stacked deeper than the paper's depth
    /// limit of 9, and with one stack reused across all of them.
    #[test]
    fn depth_scan_matches_recursive_walk(
        seed in any::<u64>(),
        depth in 1usize..=14,
        full in any::<bool>(),
        grafts in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut stack = Vec::new();
        let mut nodes = Vec::new();
        genome::random(&mut rng, depth, full, 2, &FunctionSet::full(), (-10.0, 10.0), &mut nodes);
        for round in 0..=grafts {
            let (want, end) = recursive_depth(&nodes, 0);
            prop_assert_eq!(end, nodes.len());
            prop_assert_eq!(genome::depth(&nodes, &mut stack), want);
            prop_assert!(stack.is_empty(), "the scan leaves its stack empty");
            // Graft the whole genome under a new root beside a fresh
            // subtree, so later rounds run deeper than any limit.
            let mut deeper = vec![Node::Binary(BinaryOp::ALL[round % BinaryOp::ALL.len()])];
            genome::random(&mut rng, 3, false, 2, &FunctionSet::full(), (-10.0, 10.0), &mut deeper);
            deeper.extend_from_slice(&nodes);
            nodes = if round % 2 == 0 {
                deeper
            } else {
                let mut unary = vec![Node::Unary(UnaryOp::Neg)];
                unary.extend_from_slice(&deeper);
                unary
            };
        }
    }

    /// One grouping table reused over batches that grow and shrink gives
    /// exactly the classes a fresh `dedup::group` and a pairwise
    /// comparison give, with `0.0`/`-0.0` kept apart and NaN constants
    /// (of two payloads) each grouped with themselves.
    #[test]
    fn reused_group_table_matches_fresh_grouping(
        seed in any::<u64>(),
        sizes in proptest::collection::vec(0usize..80, 1..8),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let quiet_nan = f64::NAN;
        let other_nan = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let mut pool: Vec<Vec<Node>> = [0.0, -0.0, quiet_nan, other_nan]
            .iter()
            .flat_map(|&c| {
                [
                    vec![Node::Const(c)],
                    vec![Node::Binary(BinaryOp::Add), Node::Const(c), Node::Var(0)],
                ]
            })
            .collect();
        pool.extend((0..12).map(|_| arb_genome(&mut rng, 3)));
        let mut table = dpr_gp::dedup::GroupTable::default();
        for (round, &size) in sizes.iter().enumerate() {
            // Draw from the first `round + 4` pool entries, so early
            // batches are mostly duplicates and later ones mostly not.
            let span = (round + 4).min(pool.len());
            let batch: Vec<Vec<Node>> =
                (0..size).map(|_| pool[rng.gen_range(0..span)].clone()).collect();
            let fresh = dpr_gp::dedup::group(&batch);
            let reused = table.group_with(batch.len(), |i| &batch[i]);
            prop_assert_eq!(reused, &fresh);
            let (reps, assign) = naive_groups(&batch);
            prop_assert_eq!(&fresh.reps, &reps);
            prop_assert_eq!(&fresh.assign, &assign);
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
