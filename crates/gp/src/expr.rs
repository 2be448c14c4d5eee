//! Expression trees over the paper's 14-function set.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Binary functions of the function set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Protected division: `x/y`, but 1.0 when `|y|` is tiny.
    Div,
    /// Maximum of the operands.
    Max,
    /// Minimum of the operands.
    Min,
}

impl BinaryOp {
    /// All binary operators.
    pub const ALL: [BinaryOp; 6] = [
        BinaryOp::Add,
        BinaryOp::Sub,
        BinaryOp::Mul,
        BinaryOp::Div,
        BinaryOp::Max,
        BinaryOp::Min,
    ];

    /// Applies the (protected) operator.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => {
                if b.abs() < 1e-9 {
                    1.0
                } else {
                    a / b
                }
            }
            BinaryOp::Max => a.max(b),
            BinaryOp::Min => a.min(b),
        }
    }

    /// The infix symbol or function name.
    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Max => "max",
            BinaryOp::Min => "min",
        }
    }
}

/// Unary functions of the function set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Protected square root: `sqrt(|x|)`.
    Sqrt,
    /// Protected natural log: `ln(|x|)`, 0.0 when `|x|` is tiny.
    Log,
    /// Absolute value.
    Abs,
    /// Negation.
    Neg,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Tangent, clamped to ±1e6 to keep fitness finite near poles.
    Tan,
    /// Protected inverse: `1/x`, 0.0 when `|x|` is tiny.
    Inv,
}

impl UnaryOp {
    /// All unary operators. Together with [`BinaryOp::ALL`] this is the
    /// paper's 14-function set.
    pub const ALL: [UnaryOp; 8] = [
        UnaryOp::Sqrt,
        UnaryOp::Log,
        UnaryOp::Abs,
        UnaryOp::Neg,
        UnaryOp::Sin,
        UnaryOp::Cos,
        UnaryOp::Tan,
        UnaryOp::Inv,
    ];

    /// Applies the (protected) operator.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnaryOp::Sqrt => x.abs().sqrt(),
            UnaryOp::Log => {
                if x.abs() < 1e-9 {
                    0.0
                } else {
                    x.abs().ln()
                }
            }
            UnaryOp::Abs => x.abs(),
            UnaryOp::Neg => -x,
            UnaryOp::Sin => x.sin(),
            UnaryOp::Cos => x.cos(),
            UnaryOp::Tan => x.tan().clamp(-1e6, 1e6),
            UnaryOp::Inv => {
                if x.abs() < 1e-9 {
                    0.0
                } else {
                    1.0 / x
                }
            }
        }
    }

    /// The function name.
    pub fn symbol(self) -> &'static str {
        match self {
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Log => "log",
            UnaryOp::Abs => "abs",
            UnaryOp::Neg => "neg",
            UnaryOp::Sin => "sin",
            UnaryOp::Cos => "cos",
            UnaryOp::Tan => "tan",
            UnaryOp::Inv => "inv",
        }
    }
}

/// A symbolic expression over variables `X0..Xn` and numeric constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A numeric constant (gplearn's "ephemeral random constant").
    Const(f64),
    /// The `i`-th input variable.
    Var(usize),
    /// A unary function application.
    Unary(UnaryOp, Box<Expr>),
    /// A binary function application.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Evaluates the expression on an input row. Out-of-range variable
    /// indices evaluate to 0.0 (the engine never produces them, but the
    /// evaluator is total).
    pub fn eval(&self, vars: &[f64]) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::Var(i) => vars.get(*i).copied().unwrap_or(0.0),
            Expr::Unary(op, a) => op.apply(a.eval(vars)),
            Expr::Binary(op, a, b) => op.apply(a.eval(vars), b.eval(vars)),
        }
    }

    /// Number of nodes in the tree (gplearn's "length").
    pub fn size(&self) -> usize {
        match self {
            Expr::Const(_) | Expr::Var(_) => 1,
            Expr::Unary(_, a) => 1 + a.size(),
            Expr::Binary(_, a, b) => 1 + a.size() + b.size(),
        }
    }

    /// Algebraic simplification: constant folding plus the standard
    /// identities (`x+0`, `x*1`, `x*0`, `x-x`, `neg(neg(x))`, `x/1`).
    /// Simplification is purely cosmetic — the engine applies it only to
    /// reported winners, never inside the population.
    pub fn simplify(&self) -> Expr {
        match self {
            Expr::Const(_) | Expr::Var(_) => self.clone(),
            Expr::Unary(op, a) => {
                let a = a.simplify();
                if let Expr::Const(c) = a {
                    return Expr::Const(op.apply(c));
                }
                if *op == UnaryOp::Neg {
                    if let Expr::Unary(UnaryOp::Neg, inner) = &a {
                        return (**inner).clone();
                    }
                }
                Expr::Unary(*op, Box::new(a))
            }
            Expr::Binary(op, a, b) => {
                let a = a.simplify();
                let b = b.simplify();
                if let (Expr::Const(ca), Expr::Const(cb)) = (&a, &b) {
                    return Expr::Const(op.apply(*ca, *cb));
                }
                match (op, &a, &b) {
                    (BinaryOp::Add, Expr::Const(c), other) if *c == 0.0 => other.clone(),
                    (BinaryOp::Add, other, Expr::Const(c)) if *c == 0.0 => other.clone(),
                    (BinaryOp::Sub, other, Expr::Const(c)) if *c == 0.0 => other.clone(),
                    (BinaryOp::Mul, Expr::Const(c), other) if *c == 1.0 => other.clone(),
                    (BinaryOp::Mul, other, Expr::Const(c)) if *c == 1.0 => other.clone(),
                    (BinaryOp::Mul, Expr::Const(c), _) if *c == 0.0 => Expr::Const(0.0),
                    (BinaryOp::Mul, _, Expr::Const(c)) if *c == 0.0 => Expr::Const(0.0),
                    (BinaryOp::Div, other, Expr::Const(c)) if *c == 1.0 => other.clone(),
                    (BinaryOp::Sub, x, y) if x == y => Expr::Const(0.0),
                    _ => Expr::Binary(*op, Box::new(a), Box::new(b)),
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(i) => write!(f, "X{i}"),
            Expr::Unary(op, a) => write!(f, "{}({a})", op.symbol()),
            Expr::Binary(op @ (BinaryOp::Max | BinaryOp::Min), a, b) => {
                write!(f, "{}({a}, {b})", op.symbol())
            }
            Expr::Binary(op, a, b) => write!(f, "({a} {} {b})", op.symbol()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{self, Node};
    use crate::FunctionSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn x0() -> Expr {
        Expr::Var(0)
    }

    #[test]
    fn protected_operators_are_total() {
        assert_eq!(BinaryOp::Div.apply(5.0, 0.0), 1.0);
        assert_eq!(UnaryOp::Inv.apply(0.0), 0.0);
        assert_eq!(UnaryOp::Log.apply(0.0), 0.0);
        assert_eq!(UnaryOp::Sqrt.apply(-4.0), 2.0);
        assert!(UnaryOp::Tan.apply(std::f64::consts::FRAC_PI_2).is_finite());
    }

    #[test]
    fn fourteen_functions() {
        assert_eq!(BinaryOp::ALL.len() + UnaryOp::ALL.len(), 14);
    }

    #[test]
    fn eval_composes() {
        // 64*X0 + 0.25*X1
        let e = Expr::Binary(
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
        );
        assert_eq!(e.eval(&[26.0, 240.0]), 64.0 * 26.0 + 0.25 * 240.0);
        assert_eq!(e.size(), 7);
        assert_eq!(genome::depth(&e.to_nodes(), &mut Vec::new()), 3);
    }

    #[test]
    fn missing_variable_evaluates_to_zero() {
        assert_eq!(Expr::Var(5).eval(&[1.0]), 0.0);
    }

    #[test]
    fn simplify_folds_constants_and_identities() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Binary(
                BinaryOp::Mul,
                Box::new(Expr::Const(1.0)),
                Box::new(x0()),
            )),
            Box::new(Expr::Const(0.0)),
        );
        assert_eq!(e.simplify(), x0());

        let folded = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Const(3.0)),
            Box::new(Expr::Const(4.0)),
        );
        assert_eq!(folded.simplify(), Expr::Const(12.0));

        let neg_neg = Expr::Unary(UnaryOp::Neg, Box::new(Expr::Unary(UnaryOp::Neg, Box::new(x0()))));
        assert_eq!(neg_neg.simplify(), x0());

        let self_sub = Expr::Binary(BinaryOp::Sub, Box::new(x0()), Box::new(x0()));
        assert_eq!(self_sub.simplify(), Expr::Const(0.0));

        let times_zero = Expr::Binary(BinaryOp::Mul, Box::new(x0()), Box::new(Expr::Const(0.0)));
        assert_eq!(times_zero.simplify(), Expr::Const(0.0));
    }

    fn random(seed: u64, depth: usize, full: bool) -> Vec<Node> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes = Vec::new();
        genome::random(&mut rng, depth, full, 2, &FunctionSet::full(), (-10.0, 10.0), &mut nodes);
        nodes
    }

    #[test]
    fn simplify_preserves_semantics() {
        for seed in 0..200 {
            let e = Expr::from_nodes(&random(seed, 5, false));
            let s = e.simplify();
            for sample in [[0.5, 2.0], [3.0, -1.0], [10.0, 7.5]] {
                let a = e.eval(&sample);
                let b = s.eval(&sample);
                assert!(
                    (a - b).abs() < 1e-9 || (a.is_nan() && b.is_nan()),
                    "{e} vs {s} on {sample:?}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn full_trees_reach_requested_depth() {
        for depth in 2..6 {
            let nodes = random(depth as u64, depth, true);
            assert_eq!(genome::depth(&nodes, &mut Vec::new()), depth);
        }
    }

    #[test]
    fn grow_trees_respect_depth_bound() {
        for seed in 0..50 {
            assert!(genome::depth(&random(seed, 4, false), &mut Vec::new()) <= 4);
        }
    }

    #[test]
    fn node_indexing_covers_every_node() {
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Unary(UnaryOp::Sqrt, Box::new(x0()))),
            Box::new(Expr::Const(2.0)),
        );
        let nodes = e.to_nodes();
        assert_eq!(nodes.len(), e.size());
        // Node `i` in pre-order roots the contiguous subtree `i..end`.
        let seen: Vec<String> = (0..nodes.len())
            .map(|i| Expr::from_nodes(&nodes[i..genome::subtree_end(&nodes, i)]).to_string())
            .collect();
        assert_eq!(seen, vec!["(sqrt(X0) + 2)", "sqrt(X0)", "X0", "2"]);
        assert_eq!(genome::depth(&nodes, &mut Vec::new()), 3);
    }

    #[test]
    fn display_formats() {
        let e = Expr::Binary(
            BinaryOp::Max,
            Box::new(x0()),
            Box::new(Expr::Unary(UnaryOp::Neg, Box::new(Expr::Var(1)))),
        );
        assert_eq!(e.to_string(), "max(X0, neg(X1))");
    }
}
