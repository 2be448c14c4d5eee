//! Residual refit: a closed-form correction applied to the GP winner.
//!
//! A from-scratch GP engine sometimes converges to the dominant term of a
//! formula and misses a small additive contribution (e.g. finding `64·X0`
//! for the engine-speed formula `64·X0 + 0.25·X1`, where the second term
//! contributes less than 1%). Mature GP stacks escape this with enormous
//! populations; we instead fit the *residual* `y − f(x)` with ordinary
//! least squares over the low-order features `[1, X0, X1, X0·X1, X0²]` and
//! graft significant terms back onto the expression. The correction is
//! only accepted when it reduces the training error substantially, so
//! well-converged winners pass through untouched.

use crate::expr::{BinaryOp, Expr};
use crate::{Dataset, Metric};

/// Coefficients below this magnitude are dropped from the correction.
const COEFF_EPSILON: f64 = 1e-7;

/// Solves the least-squares system `X·beta ≈ targets` (one feature row
/// of `X` per target) via the normal equations, with a 1e-9 ridge on the
/// diagonal for collinear features and partial-pivot Gaussian
/// elimination. Returns `None` for an empty or mismatched system, or a
/// singular one.
///
/// The one solver of the workspace: the residual refit, the baseline
/// regressors and formula canonicalization all call it.
#[allow(clippy::needless_range_loop)] // index arithmetic on two arrays at once
pub fn ols(features: &[Vec<f64>], targets: &[f64]) -> Option<Vec<f64>> {
    let n = features.len();
    if n == 0 || targets.len() != n {
        return None;
    }
    let k = features[0].len();
    // Normal equations: A = Xᵀ X (k×k), b = Xᵀ r.
    let mut a = vec![vec![0.0f64; k]; k];
    let mut b = vec![0.0f64; k];
    for (row, &t) in features.iter().zip(targets) {
        for i in 0..k {
            b[i] += row[i] * t;
            for j in 0..k {
                a[i][j] += row[i] * row[j];
            }
        }
    }
    // Tiny ridge term for numerical stability on collinear features.
    for (i, row) in a.iter_mut().enumerate() {
        row[i] += 1e-9;
    }
    gaussian_solve(a, b)
}

#[allow(clippy::needless_range_loop)] // index arithmetic on two arrays at once
fn gaussian_solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let k = b.len();
    for col in 0..k {
        // Partial pivot.
        let pivot = (col..k).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        for row in 0..k {
            if row == col {
                continue;
            }
            let factor = a[row][col] / diag;
            for j in col..k {
                let v = a[col][j];
                a[row][j] -= factor * v;
            }
            b[row] -= factor * b[col];
        }
    }
    Some((0..k).map(|i| b[i] / a[i][i]).collect())
}

/// The low-order feature row for an input: one variable uses
/// `[1, X0, X0², 1/X0]` (the inverse term covers period→rate encodings);
/// two variables use `[1, X0, X1, X0·X1]`.
fn feature_row(x: &[f64]) -> Vec<f64> {
    match x.len() {
        1 => {
            let inv = if x[0].abs() > 1e-9 { 1.0 / x[0] } else { 0.0 };
            vec![1.0, x[0], x[0] * x[0], inv]
        }
        _ => vec![1.0, x[0], x[1], x[0] * x[1]],
    }
}

fn feature_expr(index: usize, n_vars: usize) -> Expr {
    let mul = |a: Expr, b: Expr| Expr::Binary(BinaryOp::Mul, Box::new(a), Box::new(b));
    match (n_vars, index) {
        (_, 0) => Expr::Const(1.0),
        (_, 1) => Expr::Var(0),
        (1, 2) => mul(Expr::Var(0), Expr::Var(0)),
        (1, 3) => Expr::Unary(crate::expr::UnaryOp::Inv, Box::new(Expr::Var(0))),
        (_, 2) => Expr::Var(1),
        (_, 3) => mul(Expr::Var(0), Expr::Var(1)),
        _ => unreachable!("feature index out of range"),
    }
}

/// Fits the target directly with OLS over the low-order features,
/// returning the resulting expression (a candidate the engine races
/// against the GP winner — GP still wins whenever the true formula is not
/// in the low-order polynomial family).
pub(crate) fn loworder_candidate(data: &Dataset) -> Option<Expr> {
    let features: Vec<Vec<f64>> = data.x().iter().map(|r| feature_row(r)).collect();
    let beta = ols(&features, data.y())?;
    let mut out = Expr::Const(0.0);
    for (i, &c) in beta.iter().enumerate() {
        if c.abs() < COEFF_EPSILON {
            continue;
        }
        let term = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Const(c)),
            Box::new(feature_expr(i, data.n_vars())),
        );
        out = Expr::Binary(BinaryOp::Add, Box::new(out), Box::new(term));
    }
    Some(out.simplify())
}

/// Fits the residual of `expr` on the low-order features and, if the
/// corrected expression improves the error by at least 2×, returns it.
pub(crate) fn residual_refit(expr: &Expr, data: &Dataset, metric: Metric) -> Option<Expr> {
    let base_error = metric.error(expr, data);
    if !base_error.is_finite() || base_error == 0.0 {
        return None;
    }
    let features: Vec<Vec<f64>> = data.x().iter().map(|r| feature_row(r)).collect();
    let residuals: Vec<f64> = data
        .iter()
        .map(|(row, y)| y - expr.eval(row))
        .collect();
    let beta = ols(&features, &residuals)?;

    // Build expr + Σ beta_i · feature_i, skipping negligible coefficients.
    let mut corrected = expr.clone();
    for (i, &c) in beta.iter().enumerate() {
        if c.abs() < COEFF_EPSILON {
            continue;
        }
        let term = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Const(c)),
            Box::new(feature_expr(i, data.n_vars())),
        );
        corrected = Expr::Binary(BinaryOp::Add, Box::new(corrected), Box::new(term));
    }
    let corrected = corrected.simplify();
    let new_error = metric.error(&corrected, data);
    (new_error.is_finite() && new_error < base_error * 0.5).then_some(corrected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ols_recovers_exact_affine() {
        let features: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let x0 = f64::from(i);
                let x1 = f64::from((i * 7) % 13);
                vec![1.0, x0, x1, x0 * x1]
            })
            .collect();
        let targets: Vec<f64> = features
            .iter()
            .map(|f| 3.0 + 2.0 * f[1] - 0.5 * f[2] + 0.1 * f[3])
            .collect();
        let beta = ols(&features, &targets).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-6);
        assert!((beta[1] - 2.0).abs() < 1e-6);
        assert!((beta[2] + 0.5).abs() < 1e-6);
        assert!((beta[3] - 0.1).abs() < 1e-6);
    }

    #[test]
    fn ols_handles_degenerate_systems() {
        // Empty input yields no solution.
        assert!(ols(&[], &[]).is_none());
        // An all-zero system is regularized to the zero solution rather
        // than producing NaNs.
        let features = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        let targets = vec![0.0, 0.0];
        if let Some(beta) = ols(&features, &targets) {
            assert!(beta.iter().all(|c| c.abs() < 1e-6));
        }
    }

    #[test]
    fn refit_adds_missing_small_term() {
        // GP found 64·X0; truth is 64·X0 + 0.25·X1.
        let data = Dataset::from_triples((0..40).map(|i| {
            let x0 = f64::from((i * 5) % 200);
            let x1 = f64::from((i * 37) % 256);
            ((x0, x1), 64.0 * x0 + 0.25 * x1)
        }))
        .unwrap();
        let partial = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Const(64.0)),
            Box::new(Expr::Var(0)),
        );
        let refined = residual_refit(&partial, &data, Metric::MeanAbsoluteError)
            .expect("refit should engage");
        let err = Metric::MeanAbsoluteError.error(&refined, &data);
        assert!(err < 1e-6, "residual error {err}");
    }

    #[test]
    fn refit_leaves_converged_winner_alone() {
        let data = Dataset::from_pairs((0..20).map(|i| (f64::from(i), 2.0 * f64::from(i)))).unwrap();
        let exact = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::Const(2.0)),
            Box::new(Expr::Var(0)),
        );
        assert!(residual_refit(&exact, &data, Metric::MeanAbsoluteError).is_none());
    }

    #[test]
    fn refit_handles_single_variable_quadratics() {
        let data = Dataset::from_pairs((1..40).map(|i| {
            let x = f64::from(i);
            (x, 0.01 * x * x + 3.0)
        }))
        .unwrap();
        let poor = Expr::Var(0);
        let refined = residual_refit(&poor, &data, Metric::MeanAbsoluteError).unwrap();
        let err = Metric::MeanAbsoluteError.error(&refined, &data);
        assert!(err < 1e-6, "residual error {err}");
    }
}
