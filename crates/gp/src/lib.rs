//! Genetic-programming symbolic regression — DP-Reverser's inference core.
//!
//! Given `(X, Y)` pairs correlating raw response-message values with the
//! values a diagnostic tool displayed, this crate searches the space of
//! mathematical expressions for a formula `f` with `f(X) ≈ Y` (the paper's
//! §3.5, Step 2). It reimplements, from scratch, everything the paper used
//! from the gplearn library plus the paper's own additions:
//!
//! * [`Expr`] syntax trees over a **14-function set** (§6: addition,
//!   subtraction, multiplication, division, square root, log, absolute
//!   value, negation, maximum, minimum, sine, cosine, tangent, inverse),
//!   with *protected* versions of the partial functions;
//! * ramped half-and-half initialization, tournament selection, subtree
//!   crossover, and subtree/hoist/point mutation in [`SymbolicRegressor`],
//!   breeding flat pre-order genomes ([`genome`], gplearn's program
//!   layout) by slice splices;
//! * both of the paper's stopping criteria — generation budget and fitness
//!   threshold (§3.5);
//! * the paper's Tab. 2 **pre-scaling of the data set and post-processing
//!   of the inferred formula** in [`scaling`], which keeps most values in
//!   the GP-friendly `1.0..10.0` band;
//! * a constant-polishing hill climb that refines numeric leaves of the
//!   winning expression (the GP analogue of gplearn's final tuning).
//!
//! Fitness scoring evaluates each structurally distinct genome straight
//! from its pre-order slice, batch-wise over the whole data set
//! ([`score::error_on`]), bit-identically to the naive recursive
//! evaluation. A fit is sequential and never touches a thread pool; the
//! pipeline runs whole fits in parallel, one per sensor. All randomness
//! comes from the fit's seed, so the same seed yields the same
//! [`FittedModel`] at any thread count.
//!
//! # Example
//!
//! ```
//! use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};
//!
//! // Recover Y = 64*X0 + 0.25*X1 (the OBD-II engine-speed formula).
//! let xs: Vec<Vec<f64>> = (0..40)
//!     .map(|i| vec![f64::from(i * 5 % 200), f64::from((i * 37) % 256)])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 64.0 * x[0] + 0.25 * x[1]).collect();
//! let data = Dataset::new(xs, ys).unwrap();
//!
//! let mut gp = SymbolicRegressor::new(GpConfig::fast(42));
//! let model = gp.fit(&data);
//! assert!(model.train_error < 25.0, "error was {}", model.train_error);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
pub mod dedup;
mod engine;
pub mod expr;
mod fitness;
pub mod genome;
mod model;
mod refit;
pub mod scaling;
pub mod score;

pub use dataset::{Dataset, DatasetError};
pub use engine::{FunctionSet, GpConfig, GpReport, SymbolicRegressor};
pub use expr::{BinaryOp, Expr, UnaryOp};
pub use fitness::Metric;
pub use genome::Node;
pub use model::FittedModel;
pub use refit::ols;
pub use score::{BatchScratch, Columns};
