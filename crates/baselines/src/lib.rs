//! Baseline formula-inference algorithms the paper compares against (§4.4).
//!
//! * [`LinearRegression`] — ordinary least squares over `[1, X0, (X1)]`,
//!   as LibreCAN uses to relate CAN fields to OBD sensor values. It can
//!   only express `Y = β0·X0 + β1·X1 + β2` and therefore misses the
//!   nonlinear KWP formulas (the paper's engine-speed example `X0·X1/5`).
//! * [`PolynomialFit`] — degree-2 multivariate polynomial curve fitting
//!   over `[1, X0, X1, X0·X1, X0², X1²]`. It *can* express cross terms but
//!   is fragile to OCR outliers, which is why the paper measures only
//!   32.1% precision for it (Tab. 10).
//!
//! Both implement [`Regressor`], the same fit-and-predict surface the GP
//! engine's [`FittedModel`](dpr_gp::FittedModel) offers, so the Tab. 8 /
//! Tab. 10 benches can swap algorithms freely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

use dpr_gp::{ols, Dataset};

/// A fitted baseline model: coefficients over a fixed feature basis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineModel {
    /// Human-readable name of the algorithm that produced the model.
    pub algorithm: &'static str,
    basis: Basis,
    coefficients: Vec<f64>,
    /// Mean absolute training error.
    pub train_error: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Basis {
    /// `[1, X0, …, Xn]`.
    Linear,
    /// `[1, X0, X1, X0·X1, X0², X1²]` (degree-2 terms for up to 2 vars).
    Quadratic,
}

impl Basis {
    fn features(self, x: &[f64]) -> Vec<f64> {
        match self {
            Basis::Linear => {
                let mut f = Vec::with_capacity(x.len() + 1);
                f.push(1.0);
                f.extend_from_slice(x);
                f
            }
            Basis::Quadratic => match x.len() {
                1 => vec![1.0, x[0], x[0] * x[0]],
                _ => vec![1.0, x[0], x[1], x[0] * x[1], x[0] * x[0], x[1] * x[1]],
            },
        }
    }
}

impl BaselineModel {
    /// Predicts the target for an input row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.basis
            .features(x)
            .iter()
            .zip(&self.coefficients)
            .map(|(f, c)| f * c)
            .sum()
    }

    /// Mean absolute error on a data set.
    pub fn error_on(&self, data: &Dataset) -> f64 {
        let mut acc = 0.0;
        for (row, y) in data.iter() {
            acc += (self.predict(row) - y).abs();
        }
        acc / data.len() as f64
    }

    /// The fitted coefficients in basis order.
    pub fn coefficients(&self) -> &[f64] {
        &self.coefficients
    }

    /// Numeric agreement with a reference function over a grid — the same
    /// correctness criterion used for GP models, so precision numbers are
    /// comparable.
    pub fn agrees_with<F>(&self, reference: F, ranges: &[(f64, f64)], tolerance: f64) -> bool
    where
        F: Fn(&[f64]) -> f64,
    {
        const STEPS: usize = 12;
        let mut row = vec![0.0; ranges.len()];
        let mut indices = vec![0usize; ranges.len()];
        loop {
            for (k, &(lo, hi)) in ranges.iter().enumerate() {
                let t = indices[k] as f64 / (STEPS - 1) as f64;
                // Raw message bytes are integers; judge on integer points.
                row[k] = (lo + (hi - lo) * t).round();
            }
            let want = reference(&row);
            let got = self.predict(&row);
            if (got - want).abs() > tolerance * want.abs().max(1.0) {
                return false;
            }
            let mut k = 0;
            loop {
                if k == ranges.len() {
                    return true;
                }
                indices[k] += 1;
                if indices[k] < STEPS {
                    break;
                }
                indices[k] = 0;
                k += 1;
            }
        }
    }
}

/// A baseline fitting algorithm.
pub trait Regressor {
    /// Fits the data set, returning the model, or `None` if the underlying
    /// linear system is singular.
    fn fit(&self, data: &Dataset) -> Option<BaselineModel>;

    /// The algorithm's display name.
    fn name(&self) -> &'static str;
}

/// Ordinary least-squares linear regression (`Y = β·[1, X…]`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearRegression;

/// Degree-2 polynomial curve fitting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolynomialFit;

fn fit_basis(basis: Basis, name: &'static str, data: &Dataset) -> Option<BaselineModel> {
    let features: Vec<Vec<f64>> = data.x().iter().map(|r| basis.features(r)).collect();
    let coefficients = ols(&features, data.y())?;
    let mut model = BaselineModel {
        algorithm: name,
        basis,
        coefficients,
        train_error: 0.0,
    };
    model.train_error = model.error_on(data);
    Some(model)
}

impl Regressor for LinearRegression {
    fn fit(&self, data: &Dataset) -> Option<BaselineModel> {
        fit_basis(Basis::Linear, self.name(), data)
    }

    fn name(&self) -> &'static str {
        "linear regression"
    }
}

impl Regressor for PolynomialFit {
    fn fit(&self, data: &Dataset) -> Option<BaselineModel> {
        fit_basis(Basis::Quadratic, self.name(), data)
    }

    fn name(&self) -> &'static str {
        "polynomial curve fitting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_2var_data() -> Dataset {
        Dataset::from_triples((0..40).map(|i| {
            let x0 = f64::from((i * 7) % 50);
            let x1 = f64::from((i * 13) % 30);
            ((x0, x1), 3.0 * x0 - 2.0 * x1 + 5.0)
        }))
        .unwrap()
    }

    #[test]
    fn linear_regression_recovers_affine_exactly() {
        let model = LinearRegression.fit(&linear_2var_data()).unwrap();
        assert!(model.train_error < 1e-6);
        assert!((model.coefficients()[0] - 5.0).abs() < 1e-6);
        assert!((model.coefficients()[1] - 3.0).abs() < 1e-6);
        assert!((model.coefficients()[2] + 2.0).abs() < 1e-6);
    }

    #[test]
    fn linear_regression_fails_on_product_formula() {
        // The paper's engine-speed example: Y = X0·X1/5 cannot be expressed
        // linearly; the residual must stay large.
        let data = Dataset::from_triples((0..60).map(|i| {
            let x0 = f64::from(150 + (i * 7) % 100);
            let x1 = f64::from(10 + (i * 3) % 20);
            ((x0, x1), x0 * x1 / 5.0)
        }))
        .unwrap();
        let model = LinearRegression.fit(&data).unwrap();
        assert!(
            !model.agrees_with(|x| x[0] * x[1] / 5.0, &[(150.0, 249.0), (10.0, 29.0)], 0.03),
            "linear regression must not express a product formula"
        );
    }

    #[test]
    fn polynomial_fit_handles_product_formula() {
        let data = Dataset::from_triples((0..60).map(|i| {
            let x0 = f64::from(150 + (i * 7) % 100);
            let x1 = f64::from(10 + (i * 3) % 20);
            ((x0, x1), x0 * x1 / 5.0)
        }))
        .unwrap();
        let model = PolynomialFit.fit(&data).unwrap();
        assert!(model.train_error < 1e-6, "error {}", model.train_error);
    }

    #[test]
    fn polynomial_fit_handles_single_variable_square() {
        let data = Dataset::from_pairs((1..40).map(|i| {
            let x = f64::from(i * 5);
            (x, 0.01 * x * x - 3.0)
        }))
        .unwrap();
        let model = PolynomialFit.fit(&data).unwrap();
        assert!(model.train_error < 1e-6);
    }

    #[test]
    fn outliers_skew_both_baselines() {
        // A clean linear relation with one wild OCR-style outlier ("25.00"
        // read as "2500"). The fitted slope must move noticeably — this is
        // the fragility Tab. 10 attributes the baselines' low precision to.
        let mut pairs: Vec<(f64, f64)> = (0..30).map(|i| {
            let x = f64::from(i + 10);
            (x, 2.0 * x)
        }).collect();
        pairs.push((40.0, 8000.0));
        let data = Dataset::from_pairs(pairs).unwrap();
        let model = LinearRegression.fit(&data).unwrap();
        assert!(
            !model.agrees_with(|x| 2.0 * x[0], &[(10.0, 40.0)], 0.05),
            "one outlier should break the unprotected baseline"
        );
    }

    #[test]
    fn name_and_trait_objects() {
        let algorithms: Vec<Box<dyn Regressor>> =
            vec![Box::new(LinearRegression), Box::new(PolynomialFit)];
        let names: Vec<_> = algorithms.iter().map(|a| a.name()).collect();
        assert_eq!(names, vec!["linear regression", "polynomial curve fitting"]);
        for a in &algorithms {
            assert!(a.fit(&linear_2var_data()).is_some());
        }
    }

    #[test]
    fn predict_matches_manual_evaluation() {
        let model = LinearRegression.fit(&linear_2var_data()).unwrap();
        let x = [7.0, 3.0];
        let c = model.coefficients();
        let manual = c[0] + c[1] * x[0] + c[2] * x[1];
        assert!((model.predict(&x) - manual).abs() < 1e-12);
    }
}
