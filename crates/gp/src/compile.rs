//! Compiled expression evaluation: postfix bytecode over a value stack.
//!
//! [`Expr::eval`](crate::Expr::eval) walks a pointer tree — every node is a
//! separate heap allocation, so a population-scale fitness pass spends most
//! of its time in call overhead and cache misses. [`CompiledExpr`] turns a
//! pre-order genome ([`Node`] slice) once into a postfix [`Op`] program
//! stored in one contiguous `Vec`, then evaluates it with a tight
//! interpreter loop.
//!
//! Two evaluation modes are provided:
//!
//! * **scalar** ([`CompiledExpr::eval`] / [`CompiledExpr::eval_with`]) —
//!   one input row, one `f64` out, a reusable `Vec<f64>` stack;
//! * **batch** ([`CompiledExpr::error_on`]) — the whole [`Dataset`] at
//!   once over a column-major [`Columns`] view: each op processes every
//!   row before the next op runs, so the per-op dispatch cost is paid once
//!   per *program step* instead of once per *row × step*, and the inner
//!   loops are plain slice arithmetic the compiler can vectorize.
//!
//! Both modes apply exactly the same protected operators in exactly the
//! same order as the recursive walker, so results are **bit-identical** to
//! `Expr::eval` — including NaN/∞ propagation and the protected
//! division/log/inverse special cases. The GP engine relies on this: the
//! compiled fast path must not perturb a single fitness comparison.
//!
//! # Superinstructions
//!
//! [`CompiledExpr::compile`] runs a peephole pass that fuses the most
//! common postfix adjacencies into single *superinstructions*:
//! `Var Var Bin`, `Var Const Bin`, `Const Var Bin`, `… Var Bin`,
//! `… Const Bin`, and `Var Unary` each become one [`Op`]. GP trees are
//! leaf-heavy (every interior node has at least one leaf operand half the
//! time), so fusion typically removes 40–60% of the dispatched ops, and —
//! more importantly for batch mode — a fused op reads its leaf operands
//! *directly from the dataset column or an immediate* instead of first
//! memcpying a whole column onto the value stack. Fused evaluation calls
//! the exact same protected [`BinaryOp::apply`]/[`UnaryOp::apply`] in the
//! exact same order as the plain stack machine, so it stays bit-identical
//! to the recursive walker; `crates/gp/tests/properties.rs` property-tests
//! this.
//!
//! Fusion looks only at node kinds, never at constant values, and leaves
//! the leaves in their left-to-right order with at most one constant per
//! op. The `k`-th constant of the genome is therefore the `k`-th constant
//! immediate of the program ([`CompiledExpr::immediate_mut`]), which is
//! how the engine polishes a winner's constants without recompiling it.

use serde::{Deserialize, Serialize};

use crate::expr::{BinaryOp, UnaryOp};
use crate::genome::Node;
use crate::{Dataset, Metric};

/// One postfix instruction.
///
/// The first four variants are the plain stack machine a genome
/// flattens to; the rest are fused superinstructions the peephole pass
/// in [`CompiledExpr::compile`] substitutes for common adjacencies. In
/// the comments below, `v(i)` is input variable `i` (0.0 when out of
/// range, matching [`Expr::eval`](crate::Expr::eval)).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Push a constant.
    Const(f64),
    /// Push input variable `i` (out-of-range pushes 0.0, matching
    /// [`Expr::eval`](crate::Expr::eval)).
    Var(u32),
    /// Pop one value, push `op(value)`.
    Unary(UnaryOp),
    /// Pop `b` then `a`, push `op(a, b)`.
    Binary(BinaryOp),
    /// Fused `Var Var Binary`: push `op(v(a), v(b))`.
    VarVar(BinaryOp, u32, u32),
    /// Fused `Var Const Binary`: push `op(v(a), c)`.
    VarConst(BinaryOp, u32, f64),
    /// Fused `Const Var Binary`: push `op(c, v(a))`.
    ConstVar(BinaryOp, f64, u32),
    /// Fused `… Var Binary`: replace the top of stack `t` with `op(t, v(a))`.
    TopVar(BinaryOp, u32),
    /// Fused `… Const Binary`: replace the top of stack `t` with `op(t, c)`.
    TopConst(BinaryOp, f64),
    /// Fused `Var Unary`: push `op(v(a))`.
    VarUnary(UnaryOp, u32),
}

/// A pre-order genome flattened to postfix bytecode.
///
/// Compile once with [`CompiledExpr::compile`], evaluate many times; the
/// program is `Sync`, so one compiled individual can be scored from
/// several threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledExpr {
    ops: Vec<Op>,
    max_stack: usize,
}

impl CompiledExpr {
    /// Flattens a pre-order genome into a postfix program and fuses
    /// superinstructions.
    pub fn compile(nodes: &[Node]) -> CompiledExpr {
        let mut ops = Vec::with_capacity(nodes.len());
        let end = flatten(nodes, 0, &mut ops);
        debug_assert_eq!(end, nodes.len(), "genome holds exactly one tree");
        fuse(&mut ops);
        CompiledExpr::finish(ops)
    }

    /// Computes the exact peak stack depth by simulating pushes/pops.
    fn finish(ops: Vec<Op>) -> CompiledExpr {
        let mut depth = 0usize;
        let mut max_stack = 0usize;
        for op in &ops {
            match op {
                Op::Const(_)
                | Op::Var(_)
                | Op::VarVar(..)
                | Op::VarConst(..)
                | Op::ConstVar(..)
                | Op::VarUnary(..) => depth += 1,
                Op::Unary(_) | Op::TopVar(..) | Op::TopConst(..) => {}
                Op::Binary(_) => depth -= 1,
            }
            max_stack = max_stack.max(depth);
        }
        CompiledExpr { ops, max_stack }
    }

    /// The program's instructions, in evaluation order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Peak value-stack depth the program needs.
    pub fn max_stack(&self) -> usize {
        self.max_stack
    }

    /// The `k`-th constant immediate in evaluation order — the genome's
    /// `k`-th constant in pre-order (see the module docs). Patching it
    /// is equivalent to recompiling the genome with that constant changed.
    pub fn immediate_mut(&mut self, k: usize) -> Option<&mut f64> {
        self.ops
            .iter_mut()
            .filter_map(|op| match op {
                Op::Const(c) | Op::VarConst(_, _, c) | Op::ConstVar(_, c, _) | Op::TopConst(_, c) => {
                    Some(c)
                }
                _ => None,
            })
            .nth(k)
    }

    /// Evaluates on one input row. Bit-identical to
    /// [`Expr::eval`](crate::Expr::eval) on the source tree.
    pub fn eval(&self, vars: &[f64]) -> f64 {
        let mut stack = Vec::with_capacity(self.max_stack);
        self.eval_with(vars, &mut stack)
    }

    /// Evaluates on one input row with a caller-provided stack, so repeated
    /// evaluations reuse one allocation. The stack is cleared on entry.
    pub fn eval_with(&self, vars: &[f64], stack: &mut Vec<f64>) -> f64 {
        stack.clear();
        stack.reserve(self.max_stack);
        let var = |i: u32| vars.get(i as usize).copied().unwrap_or(0.0);
        for op in &self.ops {
            match *op {
                Op::Const(c) => stack.push(c),
                Op::Var(i) => stack.push(var(i)),
                Op::Unary(u) => {
                    let a = stack.pop().expect("unary operand");
                    stack.push(u.apply(a));
                }
                Op::Binary(b) => {
                    let rhs = stack.pop().expect("binary rhs");
                    let lhs = stack.pop().expect("binary lhs");
                    stack.push(b.apply(lhs, rhs));
                }
                Op::VarVar(b, x, y) => stack.push(b.apply(var(x), var(y))),
                Op::VarConst(b, x, c) => stack.push(b.apply(var(x), c)),
                Op::ConstVar(b, c, x) => stack.push(b.apply(c, var(x))),
                Op::TopVar(b, x) => {
                    let t = stack.last_mut().expect("fused binary lhs");
                    *t = b.apply(*t, var(x));
                }
                Op::TopConst(b, c) => {
                    let t = stack.last_mut().expect("fused binary lhs");
                    *t = b.apply(*t, c);
                }
                Op::VarUnary(u, x) => stack.push(u.apply(var(x))),
            }
        }
        stack.pop().expect("program leaves one value")
    }

    /// Computes `metric` over the whole data set in batch mode.
    ///
    /// Returns exactly what `metric.error(expr, data)` returns on the
    /// source tree: per-row predictions are bit-identical, the residual
    /// accumulation runs in the same row order, and any non-finite
    /// prediction yields `f64::INFINITY`.
    pub fn error_on(&self, cols: &Columns, metric: Metric, scratch: &mut BatchScratch) -> f64 {
        let n = cols.n_rows();
        scratch.ensure(self.max_stack, n);
        let mut sp = 0usize;
        for op in &self.ops {
            match *op {
                Op::Const(c) => {
                    scratch.bufs[sp].iter_mut().for_each(|v| *v = c);
                    sp += 1;
                }
                Op::Var(i) => {
                    match cols.col(i as usize) {
                        Some(col) => scratch.bufs[sp].copy_from_slice(col),
                        None => scratch.bufs[sp].iter_mut().for_each(|v| *v = 0.0),
                    }
                    sp += 1;
                }
                Op::Unary(u) => {
                    scratch.bufs[sp - 1].iter_mut().for_each(|v| *v = u.apply(*v));
                }
                Op::Binary(b) => {
                    let (lo, hi) = scratch.bufs.split_at_mut(sp - 1);
                    let lhs = lo.last_mut().expect("binary lhs buffer");
                    let rhs = &hi[0];
                    for (a, &r) in lhs.iter_mut().zip(rhs.iter()) {
                        *a = b.apply(*a, r);
                    }
                    sp -= 1;
                }
                // Fused ops read leaf operands straight from the dataset
                // columns (or an immediate) — no stack-slab memcpy. The
                // out-of-range-variable fallbacks reproduce the 0.0 a
                // plain `Op::Var` would have pushed.
                Op::VarVar(b, x, y) => {
                    let dst = &mut scratch.bufs[sp];
                    match (cols.col(x as usize), cols.col(y as usize)) {
                        (Some(cx), Some(cy)) => {
                            for ((d, &a), &r) in dst.iter_mut().zip(cx).zip(cy) {
                                *d = b.apply(a, r);
                            }
                        }
                        (cx, cy) => {
                            for (r, d) in dst.iter_mut().enumerate() {
                                let a = cx.map_or(0.0, |c| c[r]);
                                let rhs = cy.map_or(0.0, |c| c[r]);
                                *d = b.apply(a, rhs);
                            }
                        }
                    }
                    sp += 1;
                }
                Op::VarConst(b, x, c) => {
                    let dst = &mut scratch.bufs[sp];
                    match cols.col(x as usize) {
                        Some(cx) => {
                            for (d, &a) in dst.iter_mut().zip(cx) {
                                *d = b.apply(a, c);
                            }
                        }
                        None => {
                            let v = b.apply(0.0, c);
                            dst.iter_mut().for_each(|d| *d = v);
                        }
                    }
                    sp += 1;
                }
                Op::ConstVar(b, c, x) => {
                    let dst = &mut scratch.bufs[sp];
                    match cols.col(x as usize) {
                        Some(cx) => {
                            for (d, &r) in dst.iter_mut().zip(cx) {
                                *d = b.apply(c, r);
                            }
                        }
                        None => {
                            let v = b.apply(c, 0.0);
                            dst.iter_mut().for_each(|d| *d = v);
                        }
                    }
                    sp += 1;
                }
                Op::TopVar(b, x) => {
                    let dst = &mut scratch.bufs[sp - 1];
                    match cols.col(x as usize) {
                        Some(cx) => {
                            for (d, &r) in dst.iter_mut().zip(cx) {
                                *d = b.apply(*d, r);
                            }
                        }
                        None => dst.iter_mut().for_each(|d| *d = b.apply(*d, 0.0)),
                    }
                }
                Op::TopConst(b, c) => {
                    scratch.bufs[sp - 1].iter_mut().for_each(|d| *d = b.apply(*d, c));
                }
                Op::VarUnary(u, x) => {
                    let dst = &mut scratch.bufs[sp];
                    match cols.col(x as usize) {
                        Some(cx) => {
                            for (d, &a) in dst.iter_mut().zip(cx) {
                                *d = u.apply(a);
                            }
                        }
                        None => {
                            let v = u.apply(0.0);
                            dst.iter_mut().for_each(|d| *d = v);
                        }
                    }
                    sp += 1;
                }
            }
        }
        debug_assert_eq!(sp, 1, "program leaves one value");
        metric_over_rows(metric, &scratch.bufs[0], cols.y())
    }
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

/// Emits the subtree rooted at `at` in postfix order (operands, then
/// the operator) and returns the index one past it.
fn flatten(nodes: &[Node], at: usize, out: &mut Vec<Op>) -> usize {
    match nodes[at] {
        Node::Const(c) => {
            out.push(Op::Const(c));
            at + 1
        }
        Node::Var(i) => {
            out.push(Op::Var(i));
            at + 1
        }
        Node::Unary(op) => {
            let end = flatten(nodes, at + 1, out);
            out.push(Op::Unary(op));
            end
        }
        Node::Binary(op) => {
            let mid = flatten(nodes, at + 1, out);
            let end = flatten(nodes, mid, out);
            out.push(Op::Binary(op));
            end
        }
    }
}

/// The in-place peephole pass: rewrites leaf-adjacent `Binary`/`Unary`
/// ops into fused superinstructions by inspecting the already-emitted
/// tail of the output program.
///
/// Soundness leans on a postfix invariant: the final op of any complete
/// subexpression is its root, so if the last emitted op is a plain
/// `Var`/`Const` *push*, that push is the entirety of the operand
/// subexpression and can be folded into the consuming operator. The
/// rewrite reorders nothing — operand evaluation order and every
/// `apply` call are preserved exactly, which is what keeps fused
/// programs bit-identical to the plain stack machine.
fn fuse(ops: &mut Vec<Op>) {
    let mut w = 0usize;
    for r in 0..ops.len() {
        let op = ops[r];
        let fused = match op {
            Op::Binary(b) => {
                let pair = if w >= 2 { Some((ops[w - 2], ops[w - 1])) } else { None };
                match pair {
                    Some((Op::Var(x), Op::Var(y))) => {
                        w -= 2;
                        Op::VarVar(b, x, y)
                    }
                    Some((Op::Var(x), Op::Const(c))) => {
                        w -= 2;
                        Op::VarConst(b, x, c)
                    }
                    Some((Op::Const(c), Op::Var(x))) => {
                        w -= 2;
                        Op::ConstVar(b, c, x)
                    }
                    // Only the rhs is a leaf: fold it into the operator,
                    // leaving the lhs value on the stack.
                    _ => match (w >= 1).then(|| ops[w - 1]) {
                        Some(Op::Var(x)) => {
                            w -= 1;
                            Op::TopVar(b, x)
                        }
                        Some(Op::Const(c)) => {
                            w -= 1;
                            Op::TopConst(b, c)
                        }
                        _ => op,
                    },
                }
            }
            Op::Unary(u) => match (w >= 1).then(|| ops[w - 1]) {
                Some(Op::Var(x)) => {
                    w -= 1;
                    Op::VarUnary(u, x)
                }
                _ => op,
            },
            other => other,
        };
        ops[w] = fused;
        w += 1;
    }
    ops.truncate(w);
}

/// A column-major view of a [`Dataset`], built once per fit so batch
/// evaluation can memcpy whole variable columns instead of gathering a
/// value per row.
///
/// Storage is one contiguous `Vec<f64>` with columns laid back-to-back
/// (structure of arrays): column `i` is `data[i*rows .. (i+1)*rows]`.
/// One allocation regardless of variable count, and successive column
/// reads in the fused interpreter stay within one slab.
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

    /// Variable column `i`, if in range.
    pub fn col(&self, i: usize) -> Option<&[f64]> {
        if i < self.n_vars {
            Some(&self.data[i * self.rows..(i + 1) * self.rows])
        } else {
            None
        }
    }

    /// The target column.
    pub fn y(&self) -> &[f64] {
        &self.y
    }
}

/// Reusable batch-evaluation buffers: a stack of row-length `f64` slabs.
///
/// One scratch per thread; [`BatchScratch::ensure`] grows it to the
/// demanded (stack depth × row count) shape and is a no-op once warm, so a
/// generation's scoring pays allocation only on its first individual.
#[derive(Debug, Default)]
pub struct BatchScratch {
    bufs: Vec<Vec<f64>>,
    rows: usize,
}

impl BatchScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }

    fn ensure(&mut self, depth: usize, rows: usize) {
        if rows != self.rows {
            for buf in &mut self.bufs {
                buf.resize(rows, 0.0);
            }
            self.rows = rows;
        }
        while self.bufs.len() < depth {
            self.bufs.push(vec![0.0; rows]);
        }
    }
}

thread_local! {
    static THREAD_SCRATCH: std::cell::RefCell<BatchScratch> =
        std::cell::RefCell::new(BatchScratch::new());
}

/// Runs `f` with this thread's persistent [`BatchScratch`].
///
/// The pool's worker threads live for the whole process, so routing
/// scoring through here amortizes the scratch slabs across *every* pool
/// call a worker ever serves — not just across one call's chunks the way
/// a `par_map_init`-built scratch would. This is what keeps the scale
/// bench's `allocs_per_pass` flat as threads are added.
///
/// Must not be re-entered from inside `f` (the scratch is mutably
/// borrowed for the duration); evaluation code has no reason to.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut BatchScratch) -> R) -> R {
    THREAD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, FunctionSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine_speed() -> Expr {
        // 64*X0 + 0.25*X1
        Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Binary(
                BinaryOp::Mul,
                Box::new(Expr::Const(64.0)),
                Box::new(Expr::Var(0)),
            )),
            Box::new(Expr::Binary(
                BinaryOp::Mul,
                Box::new(Expr::Const(0.25)),
                Box::new(Expr::Var(1)),
            )),
        )
    }

    fn compile(e: &Expr) -> CompiledExpr {
        CompiledExpr::compile(&e.to_nodes())
    }

    fn random_trees(seed: u64, n: usize, depth: usize) -> Vec<Expr> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut nodes = Vec::new();
                crate::genome::random(&mut rng, depth, false, 2, &FunctionSet::full(), (-10.0, 10.0), &mut nodes);
                Expr::from_nodes(&nodes)
            })
            .collect()
    }

    #[test]
    fn compiles_to_postfix() {
        // neg(X0*X1 - cos(X1)), pre-order in, operands before operators out.
        let nodes = [
            Node::Unary(UnaryOp::Neg),
            Node::Binary(BinaryOp::Sub),
            Node::Binary(BinaryOp::Mul),
            Node::Var(0),
            Node::Var(1),
            Node::Unary(UnaryOp::Cos),
            Node::Var(1),
        ];
        let c = CompiledExpr::compile(&nodes);
        let want = [
            Op::VarVar(BinaryOp::Mul, 0, 1),
            Op::VarUnary(UnaryOp::Cos, 1),
            Op::Binary(BinaryOp::Sub),
            Op::Unary(UnaryOp::Neg),
        ];
        assert_eq!(c.ops(), want);
        assert_eq!(c.max_stack(), 2);
    }

    #[test]
    fn fuses_leaf_adjacent_superinstructions() {
        // (64*X0) + (0.25*X1): both products fuse to ConstVar; the Add's
        // operands are fused pushes, so it stays a plain Binary.
        let c = compile(&engine_speed());
        assert_eq!(
            c.ops(),
            [
                Op::ConstVar(BinaryOp::Mul, 64.0, 0),
                Op::ConstVar(BinaryOp::Mul, 0.25, 1),
                Op::Binary(BinaryOp::Add),
            ]
        );
        assert_eq!(c.max_stack(), 2);

        // (X0 - X1) * X2: VarVar then a TopVar folding the leaf rhs.
        let e = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Binary(
                BinaryOp::Sub,
                Box::new(Expr::Var(0)),
                Box::new(Expr::Var(1)),
            )),
            Box::new(Expr::Var(2)),
        );
        let c = compile(&e);
        assert_eq!(
            c.ops(),
            [Op::VarVar(BinaryOp::Sub, 0, 1), Op::TopVar(BinaryOp::Mul, 2)]
        );
        assert_eq!(c.max_stack(), 1);

        // sqrt(X0) + 3: VarUnary then TopConst.
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Unary(UnaryOp::Sqrt, Box::new(Expr::Var(0)))),
            Box::new(Expr::Const(3.0)),
        );
        let c = compile(&e);
        assert_eq!(
            c.ops(),
            [Op::VarUnary(UnaryOp::Sqrt, 0), Op::TopConst(BinaryOp::Add, 3.0)]
        );
    }

    #[test]
    fn patched_immediates_match_a_recompile() {
        // The k-th pre-order constant is the k-th immediate, so patching
        // it must give exactly the program of the patched genome.
        for (i, e) in random_trees(29, 300, 6).iter().enumerate() {
            let mut nodes = e.to_nodes();
            let consts: Vec<usize> = (0..nodes.len())
                .filter(|&j| matches!(nodes[j], Node::Const(_)))
                .collect();
            let mut program = CompiledExpr::compile(&nodes);
            assert!(program.immediate_mut(consts.len()).is_none());
            if consts.is_empty() {
                continue;
            }
            let k = i % consts.len();
            *program.immediate_mut(k).unwrap() = 0.125;
            nodes[consts[k]] = Node::Const(0.125);
            assert_eq!(program, CompiledExpr::compile(&nodes), "{e}, constant {k}");
        }
    }

    #[test]
    fn thread_scratch_is_reused() {
        let data = Dataset::from_pairs((0..10).map(|i| (f64::from(i), f64::from(i)))).unwrap();
        let cols = Columns::from_dataset(&data);
        let c = compile(&Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Var(0)),
            Box::new(Expr::Var(0)),
        ));
        let a = with_thread_scratch(|s| c.error_on(&cols, Metric::MeanAbsoluteError, s));
        let b = with_thread_scratch(|s| c.error_on(&cols, Metric::MeanAbsoluteError, s));
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn scalar_eval_matches_tree() {
        let e = engine_speed();
        let c = compile(&e);
        let row = [26.0, 240.0];
        assert_eq!(c.eval(&row).to_bits(), e.eval(&row).to_bits());
    }

    #[test]
    fn out_of_range_variable_is_zero() {
        let c = compile(&Expr::Var(5));
        assert_eq!(c.eval(&[1.0]), 0.0);
    }

    #[test]
    fn random_trees_match_bit_for_bit() {
        let mut stack = Vec::new();
        for e in random_trees(11, 300, 6) {
            let c = compile(&e);
            for row in [[0.0, 0.0], [1.5, -3.0], [1e6, -1e6], [0.3, 255.0]] {
                let a = e.eval(&row);
                let b = c.eval_with(&row, &mut stack);
                assert!(
                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                    "{e} on {row:?}: {a} vs {b}"
                );
            }
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
        let cols = Columns::from_dataset(&data);
        let mut scratch = BatchScratch::new();
        for e in random_trees(3, 200, 5) {
            let c = compile(&e);
            for metric in [Metric::MeanAbsoluteError, Metric::MeanSquaredError, Metric::Rmse] {
                let want = metric.error(&e, &data);
                let got = c.error_on(&cols, metric, &mut scratch);
                assert!(
                    want.to_bits() == got.to_bits(),
                    "{e} with {metric:?}: {want} vs {got}"
                );
            }
        }
    }

    #[test]
    fn batch_error_non_finite_is_infinity() {
        // X0*X0 overflows to infinity on a huge input.
        let e = Expr::Binary(BinaryOp::Mul, Box::new(Expr::Var(0)), Box::new(Expr::Var(0)));
        let data = Dataset::from_pairs([(1e300, 1.0), (2.0, 2.0)]).unwrap();
        let cols = Columns::from_dataset(&data);
        let c = compile(&e);
        assert_eq!(
            c.error_on(&cols, Metric::MeanAbsoluteError, &mut BatchScratch::new()),
            f64::INFINITY
        );
    }

    #[test]
    fn columns_transpose() {
        let data = Dataset::from_triples([((1.0, 2.0), 3.0), ((4.0, 5.0), 6.0)]).unwrap();
        let cols = Columns::from_dataset(&data);
        assert_eq!(cols.n_rows(), 2);
        assert_eq!(cols.n_vars(), 2);
        assert_eq!(cols.col(0).unwrap(), &[1.0, 4.0]);
        assert_eq!(cols.col(1).unwrap(), &[2.0, 5.0]);
        assert_eq!(cols.y(), &[3.0, 6.0]);
        assert!(cols.col(2).is_none());
    }
}
