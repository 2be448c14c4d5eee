//! Batch fitness scoring straight from a pre-order genome.
//!
//! [`Expr::eval`](crate::Expr::eval) walks a pointer tree once per row —
//! every node is a separate heap allocation, so a population-scale
//! fitness pass spends most of its time in call overhead and cache
//! misses. [`error_on`] instead evaluates a genome ([`Node`] slice) over
//! the whole [`Dataset`] at once, over a column-major [`Columns`] view:
//! each node processes every row before the next node runs, so the
//! per-node dispatch cost is paid once per *node* instead of once per
//! *row × node*, and the inner loops are plain slice arithmetic. There is
//! no compile step: the genome the engine breeds is the program.
//!
//! # The lazy operand stack
//!
//! The genome is scanned back to front. In pre-order a node's operands
//! follow it, so by the time the scan reaches a node its operands are on
//! the stack — the lhs on top, the rhs below it. A stack entry is not a
//! row buffer but one of:
//!
//! * a dataset **column**, read in place (never copied);
//! * a **constant**, the same value on every row;
//! * a **slab**: row values materialized in the scratch buffer that
//!   belongs to this stack position.
//!
//! A binary node runs one row loop into the rhs position's slab, with one
//! arm per operand-kind pair; a unary node works in place on a slab or
//! reads a column into one. Constant-only subtrees fold to a constant
//! without touching a row, and an out-of-range variable is the constant
//! 0.0, matching [`Expr::eval`](crate::Expr::eval).
//!
//! # Bit-identity
//!
//! Every node's per-row value comes from the same
//! [`BinaryOp::apply`](crate::BinaryOp::apply) or
//! [`UnaryOp::apply`](crate::UnaryOp::apply) call on the same operands as
//! the recursive walker; only the order in which pure sibling subtrees
//! are evaluated differs, and a folded constant is the very `f64` each row
//! would have computed. The residuals are then accumulated in row order
//! exactly as [`Metric::error`] does, so the result is bit-identical —
//! including NaN/∞ propagation and the protected division/log/inverse
//! special cases. The GP engine relies on this: the batch path must not
//! perturb a single fitness comparison.

use crate::genome::Node;
use crate::{BinaryOp, Dataset, Metric, UnaryOp};

/// Computes `metric` of the pre-order `genome` over the whole data set.
///
/// Returns exactly what `metric.error(&Expr::from_nodes(genome), data)`
/// returns on the source data set: per-row predictions are bit-identical,
/// the residual accumulation runs in the same row order, and any
/// non-finite prediction yields `f64::INFINITY`.
///
/// # Panics
///
/// Panics if `genome` is not exactly one well-formed tree.
pub fn error_on(
    genome: &[Node],
    cols: &Columns,
    metric: Metric,
    scratch: &mut BatchScratch,
) -> f64 {
    scratch.fit_rows(cols.n_rows());
    let BatchScratch { bufs, stack, rows } = scratch;
    let rows = *rows;
    stack.clear();
    for node in genome.iter().rev() {
        let operand = match *node {
            Node::Const(c) => Operand::Const(c),
            Node::Var(i) if (i as usize) < cols.n_vars() => Operand::Col(i as usize),
            Node::Var(_) => Operand::Const(0.0),
            Node::Unary(op) => {
                let arg = stack.pop().expect("unary operand");
                unary(op, arg, stack.len(), cols, bufs, rows)
            }
            Node::Binary(op) => {
                let lhs = stack.pop().expect("binary lhs");
                let rhs = stack.pop().expect("binary rhs");
                binary(op, lhs, rhs, stack.len(), cols, bufs, rows)
            }
        };
        stack.push(operand);
    }
    let root = stack.pop().expect("genome holds one tree");
    debug_assert!(stack.is_empty(), "genome holds exactly one tree");
    let preds: &[f64] = match root {
        Operand::Col(i) => cols.column(i),
        Operand::Const(c) => {
            let dst = slab(bufs, 0, rows);
            dst.fill(c);
            dst
        }
        Operand::Slab => &bufs[0],
    };
    metric_over_rows(metric, preds, cols.y())
}

/// One entry of the evaluator's operand stack.
#[derive(Debug, Clone, Copy)]
enum Operand {
    /// Dataset column `i`, read in place.
    Col(usize),
    /// The same value on every row.
    Const(f64),
    /// Row values in the slab of this entry's stack position.
    Slab,
}

// The two dispatchers below pick the operator once per node and hand its
// `apply` to a row loop monomorphized for it, so the loop body is
// straight-line arithmetic instead of a per-row `match` on the operator.

/// Applies `op` to the operand popped from stack position `at`; a row
/// result lands in slab `at`.
fn unary(
    op: UnaryOp,
    arg: Operand,
    at: usize,
    cols: &Columns,
    bufs: &mut Vec<Vec<f64>>,
    rows: usize,
) -> Operand {
    macro_rules! per_op {
        ($($v:ident),*) => {
            match op {
                $(UnaryOp::$v => unary_rows(|x| UnaryOp::$v.apply(x), arg, at, cols, bufs, rows),)*
            }
        };
    }
    per_op!(Sqrt, Log, Abs, Neg, Sin, Cos, Tan, Inv)
}

/// Applies `op` to the operands popped from stack positions `at + 1`
/// (lhs) and `at` (rhs); a row result lands in slab `at`.
fn binary(
    op: BinaryOp,
    lhs: Operand,
    rhs: Operand,
    at: usize,
    cols: &Columns,
    bufs: &mut Vec<Vec<f64>>,
    rows: usize,
) -> Operand {
    macro_rules! per_op {
        ($($v:ident),*) => {
            match op {
                $(BinaryOp::$v => binary_rows(|a, b| BinaryOp::$v.apply(a, b), lhs, rhs, at, cols, bufs, rows),)*
            }
        };
    }
    per_op!(Add, Sub, Mul, Div, Max, Min)
}

/// [`unary`]'s row loops, instantiated once per operator.
#[inline(always)]
fn unary_rows(
    op: impl Fn(f64) -> f64,
    arg: Operand,
    at: usize,
    cols: &Columns,
    bufs: &mut Vec<Vec<f64>>,
    rows: usize,
) -> Operand {
    match arg {
        Operand::Const(c) => return Operand::Const(op(c)),
        Operand::Col(i) => {
            let dst = slab(bufs, at, rows);
            for (d, &x) in dst.iter_mut().zip(cols.column(i)) {
                *d = op(x);
            }
        }
        Operand::Slab => bufs[at].iter_mut().for_each(|d| *d = op(*d)),
    }
    Operand::Slab
}

/// [`binary`]'s row loops, one arm per operand-kind pair, instantiated
/// once per operator.
#[inline(always)]
fn binary_rows(
    op: impl Fn(f64, f64) -> f64,
    lhs: Operand,
    rhs: Operand,
    at: usize,
    cols: &Columns,
    bufs: &mut Vec<Vec<f64>>,
    rows: usize,
) -> Operand {
    use Operand::{Col, Const, Slab};
    match (lhs, rhs) {
        (Const(a), Const(b)) => return Const(op(a, b)),
        // The rhs already sits in slab `at`: update it in place.
        (Col(i), Slab) => {
            for (d, &a) in bufs[at].iter_mut().zip(cols.column(i)) {
                *d = op(a, *d);
            }
        }
        (Const(a), Slab) => bufs[at].iter_mut().for_each(|d| *d = op(a, *d)),
        (Slab, Slab) => {
            let (lo, hi) = bufs.split_at_mut(at + 1);
            for (d, &a) in lo[at].iter_mut().zip(&hi[0]) {
                *d = op(a, *d);
            }
        }
        // The lhs sits in slab `at + 1`: update it in place, then swap
        // the buffers so the result belongs to position `at`.
        (Slab, Col(j)) => {
            for (d, &b) in bufs[at + 1].iter_mut().zip(cols.column(j)) {
                *d = op(*d, b);
            }
            bufs.swap(at, at + 1);
        }
        (Slab, Const(b)) => {
            bufs[at + 1].iter_mut().for_each(|d| *d = op(*d, b));
            bufs.swap(at, at + 1);
        }
        // Two leaves, at least one of them a column.
        (Col(i), Col(j)) => {
            let dst = slab(bufs, at, rows);
            for ((d, &a), &b) in dst.iter_mut().zip(cols.column(i)).zip(cols.column(j)) {
                *d = op(a, b);
            }
        }
        (Col(i), Const(b)) => {
            let dst = slab(bufs, at, rows);
            for (d, &a) in dst.iter_mut().zip(cols.column(i)) {
                *d = op(a, b);
            }
        }
        (Const(a), Col(j)) => {
            let dst = slab(bufs, at, rows);
            for (d, &b) in dst.iter_mut().zip(cols.column(j)) {
                *d = op(a, b);
            }
        }
    }
    Slab
}

/// The slab of stack position `at`, allocating positions up to it on
/// first use.
fn slab(bufs: &mut Vec<Vec<f64>>, at: usize, rows: usize) -> &mut [f64] {
    while bufs.len() <= at {
        bufs.push(vec![0.0; rows]);
    }
    &mut bufs[at]
}

/// Accumulates `metric` over prediction/target rows exactly the way
/// [`Metric::error`] does on the recursive evaluator.
fn metric_over_rows(metric: Metric, preds: &[f64], targets: &[f64]) -> f64 {
    let mut acc = 0.0;
    let n = targets.len() as f64;
    for (&pred, &target) in preds.iter().zip(targets) {
        if !pred.is_finite() {
            return f64::INFINITY;
        }
        let residual = pred - target;
        acc += match metric {
            Metric::MeanAbsoluteError => residual.abs(),
            Metric::MeanSquaredError | Metric::Rmse => residual * residual,
        };
    }
    match metric {
        Metric::MeanAbsoluteError | Metric::MeanSquaredError => acc / n,
        Metric::Rmse => (acc / n).sqrt(),
    }
}

/// A column-major view of a [`Dataset`], built once per fit so batch
/// scoring reads each variable as one contiguous slice instead of
/// gathering a value per row.
///
/// Storage is one contiguous `Vec<f64>` with columns laid back-to-back
/// (structure of arrays): column `i` is `data[i*rows .. (i+1)*rows]`.
/// One allocation regardless of variable count.
#[derive(Debug, Clone, PartialEq)]
pub struct Columns {
    data: Vec<f64>,
    rows: usize,
    n_vars: usize,
    y: Vec<f64>,
}

impl Columns {
    /// Transposes a data set into columns.
    pub fn from_dataset(data: &Dataset) -> Columns {
        let n_vars = data.n_vars();
        let rows = data.len();
        let mut flat = Vec::with_capacity(n_vars * rows);
        for c in 0..n_vars {
            for (row, _) in data.iter() {
                flat.push(row[c]);
            }
        }
        Columns {
            data: flat,
            rows,
            n_vars,
            y: data.y().to_vec(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Variable column `i`, which the caller has checked is in range.
    fn column(&self, i: usize) -> &[f64] {
        &self.data[i * self.rows..(i + 1) * self.rows]
    }

    /// The target column.
    pub fn y(&self) -> &[f64] {
        &self.y
    }
}

/// Reusable batch-scoring buffers: the operand stack and one row-length
/// `f64` slab per stack position.
///
/// One scratch per thread; slabs are allocated on first use at each
/// stack position and resized only when the row count changes, so a
/// generation's scoring pays allocation only on its first individuals.
#[derive(Debug, Default)]
pub struct BatchScratch {
    bufs: Vec<Vec<f64>>,
    stack: Vec<Operand>,
    rows: usize,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    fn fit_rows(&mut self, rows: usize) {
        if rows != self.rows {
            for buf in &mut self.bufs {
                buf.resize(rows, 0.0);
            }
            self.rows = rows;
        }
    }
}

thread_local! {
    static THREAD_SCRATCH: std::cell::RefCell<BatchScratch> =
        std::cell::RefCell::new(BatchScratch::new());
}

/// Runs `f` with this thread's persistent [`BatchScratch`].
///
/// A `dpr-par` worker thread lives for one fan-out and the calling
/// thread for the process, so routing scoring through here amortizes
/// the scratch slabs across every fit a thread runs, not just one fit.
/// This is what keeps the scale bench's `allocs_per_pass` flat as
/// threads are added.
///
/// Must not be re-entered from inside `f` (the scratch is mutably
/// borrowed for the duration); scoring code has no reason to.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut BatchScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, FunctionSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_trees(seed: u64, n: usize, depth: usize) -> Vec<Expr> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut nodes = Vec::new();
                let functions = FunctionSet::full();
                crate::genome::random(
                    &mut rng,
                    depth,
                    false,
                    2,
                    &functions,
                    (-10.0, 10.0),
                    &mut nodes,
                );
                Expr::from_nodes(&nodes)
            })
            .collect()
    }

    fn bin(op: BinaryOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    fn un(op: UnaryOp, a: Expr) -> Expr {
        Expr::Unary(op, Box::new(a))
    }

    fn score(e: &Expr, data: &Dataset, metric: Metric) -> f64 {
        let cols = Columns::from_dataset(data);
        error_on(&e.to_nodes(), &cols, metric, &mut BatchScratch::new())
    }

    /// Asserts the batch scorer equals `Metric::error` bit for bit under
    /// every metric.
    fn assert_matches(e: &Expr, data: &Dataset) {
        for metric in [
            Metric::MeanAbsoluteError,
            Metric::MeanSquaredError,
            Metric::Rmse,
        ] {
            let (want, got) = (metric.error(e, data), score(e, data, metric));
            assert!(
                want.to_bits() == got.to_bits(),
                "{e} with {metric:?}: {want:?} vs {got:?}"
            );
        }
    }

    #[test]
    fn thread_scratch_is_reused() {
        let data = Dataset::from_pairs((0..10).map(|i| (f64::from(i), f64::from(i)))).unwrap();
        let cols = Columns::from_dataset(&data);
        let nodes = bin(BinaryOp::Mul, Expr::Var(0), Expr::Var(0)).to_nodes();
        let a = with_thread_scratch(|s| error_on(&nodes, &cols, Metric::MeanAbsoluteError, s));
        let b = with_thread_scratch(|s| error_on(&nodes, &cols, Metric::MeanAbsoluteError, s));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn out_of_range_variable_is_zero() {
        let data = Dataset::from_pairs([(1.0, 0.5), (2.0, -3.0)]).unwrap();
        // Predicting 0.0 on every row: |0 - 0.5| and |0 + 3| average 1.75.
        assert_eq!(score(&Expr::Var(5), &data, Metric::MeanAbsoluteError), 1.75);
        let shifted = bin(BinaryOp::Sub, Expr::Var(9), Expr::Const(2.0));
        for e in [
            bin(BinaryOp::Add, Expr::Var(7), Expr::Var(0)),
            bin(BinaryOp::Div, Expr::Var(0), Expr::Var(3)),
            un(UnaryOp::Log, Expr::Var(2)),
            un(UnaryOp::Cos, shifted),
        ] {
            assert_matches(&e, &data);
        }
    }

    #[test]
    fn random_trees_match_bit_for_bit() {
        let data = Dataset::from_triples([
            ((0.0, 0.0), 1.0),
            ((1.5, -3.0), 2.0),
            ((1e6, -1e6), -4.0),
            ((0.3, 255.0), 8.0),
        ])
        .unwrap();
        for e in random_trees(11, 300, 6) {
            assert_matches(&e, &data);
        }
    }

    #[test]
    fn batch_error_matches_metric() {
        let data = Dataset::from_triples((0..50).map(|i| {
            let x0 = f64::from(100 + i * 3);
            let x1 = f64::from(5 + i % 9);
            ((x0, x1), x0 * x1 / 5.0)
        }))
        .unwrap();
        for e in random_trees(3, 200, 5) {
            assert_matches(&e, &data);
        }
    }

    #[test]
    fn batch_error_non_finite_is_infinity() {
        // X0*X0 overflows to infinity on a huge input.
        let e = bin(BinaryOp::Mul, Expr::Var(0), Expr::Var(0));
        let data = Dataset::from_pairs([(1e300, 1.0), (2.0, 2.0)]).unwrap();
        assert_eq!(score(&e, &data, Metric::MeanAbsoluteError), f64::INFINITY);
    }

    #[test]
    fn every_operand_pair_matches_the_tree_walker() {
        // Leaves and computed subtrees on both sides of every binary
        // operator: column, constant, out-of-range variable, unary of a
        // column (a fresh slab) and a binary of columns.
        let data = Dataset::from_triples((0..7).map(|i| {
            let x0 = f64::from(i) - 3.0;
            ((x0, f64::from(i * i) * 0.5), x0 * 2.0)
        }))
        .unwrap();
        let operands = [
            Expr::Var(0),
            Expr::Var(1),
            Expr::Const(-0.0),
            Expr::Const(2.5),
            Expr::Var(4),
            un(UnaryOp::Sqrt, Expr::Var(1)),
            bin(BinaryOp::Sub, Expr::Var(1), Expr::Var(0)),
        ];
        for op in BinaryOp::ALL {
            for lhs in &operands {
                for rhs in &operands {
                    assert_matches(&bin(op, lhs.clone(), rhs.clone()), &data);
                    // The same pair one level down, under a slab sibling.
                    let nested = bin(op, lhs.clone(), rhs.clone());
                    let sibling = un(UnaryOp::Neg, Expr::Var(0));
                    assert_matches(&bin(BinaryOp::Add, nested.clone(), sibling.clone()), &data);
                    assert_matches(&bin(BinaryOp::Add, sibling, nested), &data);
                }
            }
        }
    }

    #[test]
    fn constant_subtrees_fold_to_the_rows_value() {
        let data = Dataset::from_pairs([(1.0, 2.0), (4.0, 3.0), (9.0, -1.0)]).unwrap();
        let consts = [0.0, -0.0, 1e-12, -1e-12, 3.0, f64::NAN, f64::MAX, 1e300];
        for &a in &consts {
            for u in UnaryOp::ALL {
                let folded = un(u, Expr::Const(a));
                assert_matches(&folded, &data);
                assert_matches(&bin(BinaryOp::Mul, folded, Expr::Var(0)), &data);
            }
            for &b in &consts {
                for op in BinaryOp::ALL {
                    let folded = bin(op, Expr::Const(a), Expr::Const(b));
                    assert_matches(&folded, &data);
                    assert_matches(&bin(BinaryOp::Add, Expr::Var(0), folded), &data);
                }
            }
        }
    }

    #[test]
    fn columns_transpose() {
        let data = Dataset::from_triples([((1.0, 2.0), 3.0), ((4.0, 5.0), 6.0)]).unwrap();
        let cols = Columns::from_dataset(&data);
        assert_eq!(cols.n_rows(), 2);
        assert_eq!(cols.n_vars(), 2);
        assert_eq!(cols.column(0), &[1.0, 4.0]);
        assert_eq!(cols.column(1), &[2.0, 5.0]);
        assert_eq!(cols.y(), &[3.0, 6.0]);
    }
}
