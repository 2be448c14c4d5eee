//! The flat pre-order genome the engine breeds.
//!
//! Every individual is one `[Node]` slice in pre-order — a node, then
//! its left subtree, then its right — the layout gplearn's
//! `_Program.program` uses; the engine keeps a generation's genomes back
//! to back in one node arena. A subtree is a contiguous range, found by one
//! arity-counting scan ([`subtree_end`]), so crossover and subtree/hoist
//! mutation are `prefix ++ graft ++ suffix` splices, a clone is one copy,
//! size is the slice length and depth is one reverse scan ([`depth`]).
//!
//! [`Expr`] stays the API edge (refit, simplification, display, the
//! fitted model); [`Expr::to_nodes`] and [`Expr::from_nodes`] convert.
//! The random generators emit a node before recursing left and then
//! right, which is the order the tree-building generators drew in, so a
//! seed yields the same trees either way.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::engine::FunctionSet;
use crate::expr::{BinaryOp, Expr, UnaryOp};

/// One node of a pre-order genome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Node {
    /// A numeric constant.
    Const(f64),
    /// The `i`-th input variable.
    Var(u32),
    /// A unary function; its operand follows.
    Unary(UnaryOp),
    /// A binary function; its left then right operand follow.
    Binary(BinaryOp),
}

impl Node {
    /// Number of operands the node takes.
    pub fn arity(self) -> usize {
        match self {
            Node::Const(_) | Node::Var(_) => 0,
            Node::Unary(_) => 1,
            Node::Binary(_) => 2,
        }
    }
}

/// One past the last node of the subtree rooted at `start`: the scan
/// counts operands still owed and stops when none are.
pub fn subtree_end(nodes: &[Node], start: usize) -> usize {
    let mut owed = 1usize;
    let mut at = start;
    while owed > 0 {
        owed = owed + nodes[at].arity() - 1;
        at += 1;
    }
    at
}

/// Tree depth (a leaf has depth 1), by one back-to-front scan: a leaf
/// pushes 1, an operator pops its operands' depths (leftmost on top) and
/// pushes one more than the deepest. Not recursive, so no genome is too
/// deep for it. `stack` is scratch a caller can reuse across calls; it is
/// left empty.
pub fn depth(nodes: &[Node], stack: &mut Vec<usize>) -> usize {
    stack.clear();
    for node in nodes.iter().rev() {
        let d = match node {
            Node::Const(_) | Node::Var(_) => 1,
            Node::Unary(_) => stack.pop().expect("operand below a unary node") + 1,
            Node::Binary(_) => {
                let left = stack.pop().expect("left operand below a binary node");
                let right = stack.pop().expect("right operand below a binary node");
                left.max(right) + 1
            }
        };
        stack.push(d);
    }
    stack.pop().expect("genome is non-empty")
}

/// Appends a random tree of at most `depth` levels. The *full* method
/// (`full`) takes every branch to exactly `depth`; the *grow* method lets
/// branches stop early at leaves.
pub fn random(
    rng: &mut StdRng,
    depth: usize,
    full: bool,
    n_vars: usize,
    functions: &FunctionSet,
    const_range: (f64, f64),
    out: &mut Vec<Node>,
) {
    if depth <= 1 || (!full && rng.gen_bool(0.3)) {
        return leaf(rng, n_vars, const_range, out);
    }
    let (unary, binary) = (&functions.unary, &functions.binary);
    // Prefer binary nodes: they grow expressive power fastest.
    let operands = if !binary.is_empty() && (unary.is_empty() || rng.gen_bool(0.75)) {
        out.push(Node::Binary(
            *binary.choose(rng).expect("non-empty binary set"),
        ));
        2
    } else if !unary.is_empty() {
        out.push(Node::Unary(
            *unary.choose(rng).expect("non-empty unary set"),
        ));
        1
    } else {
        return leaf(rng, n_vars, const_range, out);
    };
    for _ in 0..operands {
        random(rng, depth - 1, full, n_vars, functions, const_range, out);
    }
}

/// Appends a random terminal: a variable (preferred) or a constant.
fn leaf(rng: &mut StdRng, n_vars: usize, const_range: (f64, f64), out: &mut Vec<Node>) {
    out.push(if n_vars > 0 && rng.gen_bool(0.6) {
        Node::Var(rng.gen_range(0..n_vars) as u32)
    } else {
        Node::Const(round3(rng.gen_range(const_range.0..=const_range.1)))
    });
}

/// Rounds to three decimals — keeps printed formulas readable without
/// meaningfully constraining the search.
pub(crate) fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

impl Expr {
    /// Flattens the tree into a pre-order genome.
    pub fn to_nodes(&self) -> Vec<Node> {
        fn push(e: &Expr, out: &mut Vec<Node>) {
            match e {
                Expr::Const(c) => out.push(Node::Const(*c)),
                Expr::Var(i) => out.push(Node::Var(*i as u32)),
                Expr::Unary(op, a) => {
                    out.push(Node::Unary(*op));
                    push(a, out);
                }
                Expr::Binary(op, a, b) => {
                    out.push(Node::Binary(*op));
                    push(a, out);
                    push(b, out);
                }
            }
        }
        let mut out = Vec::with_capacity(self.size());
        push(self, &mut out);
        out
    }

    /// Rebuilds the tree a pre-order genome encodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is not exactly one complete tree.
    pub fn from_nodes(nodes: &[Node]) -> Expr {
        fn build(nodes: &[Node], at: &mut usize) -> Expr {
            let node = nodes[*at];
            *at += 1;
            match node {
                Node::Const(c) => Expr::Const(c),
                Node::Var(i) => Expr::Var(i as usize),
                Node::Unary(op) => Expr::Unary(op, Box::new(build(nodes, at))),
                Node::Binary(op) => {
                    let a = build(nodes, at);
                    Expr::Binary(op, Box::new(a), Box::new(build(nodes, at)))
                }
            }
        }
        let mut at = 0;
        let expr = build(nodes, &mut at);
        assert_eq!(at, nodes.len(), "genome holds exactly one tree");
        expr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample(seed: u64, depth: usize) -> Vec<Node> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        random(
            &mut rng,
            depth,
            false,
            2,
            &FunctionSet::full(),
            (-10.0, 10.0),
            &mut out,
        );
        out
    }

    #[test]
    fn round_trips_through_expr() {
        for seed in 0..200 {
            let nodes = sample(seed, 6);
            let expr = Expr::from_nodes(&nodes);
            assert_eq!(expr.to_nodes(), nodes);
            assert_eq!(expr.size(), nodes.len());
            assert_eq!(subtree_end(&nodes, 0), nodes.len());
        }
    }
}
