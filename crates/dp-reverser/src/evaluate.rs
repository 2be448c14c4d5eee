//! Scoring recovered protocols against the simulator's ground truth.
//!
//! The experiments need to decide, per ESV, whether the inferred formula
//! is *correct*. Following the paper, a formula counts as correct when it
//! is numerically equivalent to the ground truth over the raw-value range
//! actually observed in traffic — coefficient-close formulas, and
//! formulas with collapsed constant variables, all pass (Tab. 5's
//! `Y = 1.7X − 22` vs. `Y = 1.8X − 40` case).

use dpr_frames::SourceKey;
use dpr_protocol::uds::Did;
use dpr_protocol::EsvFormula;
use dpr_vehicle::ecu::EsvId;
use dpr_vehicle::AttachedVehicle;
use serde::{Deserialize, Serialize};

use crate::result::{RecoveredKind, ReverseEngineeringResult};

/// Relative tolerance for numeric equivalence (scale floor 1.0).
pub const EQUIVALENCE_TOLERANCE: f64 = 0.04;

/// Verdict for one recovered ESV.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EsvVerdict {
    /// The identifier.
    pub key: SourceKey,
    /// The recovered label.
    pub label: String,
    /// Whether the ground truth is a formula (vs. enumeration).
    pub truth_is_formula: bool,
    /// Whether the recovered rule matches the ground truth.
    pub correct: bool,
    /// Whether the recovered label matches the ground-truth quantity name.
    pub semantics_correct: bool,
    /// Human-readable recovered rule.
    pub recovered: String,
    /// Human-readable ground truth.
    pub truth: String,
}

/// The aggregate evaluation of one car's run — one row of Tab. 6.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PrecisionReport {
    /// Ground-truth formula ESVs recovered and matched.
    pub formula_total: usize,
    /// …of which the inferred formula is correct.
    pub formula_correct: usize,
    /// Ground-truth enumeration ESVs recovered and matched.
    pub enum_total: usize,
    /// …of which the recovered rule is correct (classified enumeration).
    pub enum_correct: usize,
    /// Recovered ESVs whose label matches the ground-truth quantity.
    pub semantics_correct: usize,
    /// Ground-truth readable ESVs that were never recovered.
    pub missed: usize,
    /// Per-ESV verdicts.
    pub verdicts: Vec<EsvVerdict>,
}

impl PrecisionReport {
    /// Formula-inference precision (the paper's Tab. 6 "Precision").
    pub fn formula_precision(&self) -> f64 {
        if self.formula_total == 0 {
            1.0
        } else {
            self.formula_correct as f64 / self.formula_total as f64
        }
    }

    /// Merges another car's report into this one (for the Tab. 6 total).
    pub fn merge(&mut self, other: PrecisionReport) {
        self.formula_total += other.formula_total;
        self.formula_correct += other.formula_correct;
        self.enum_total += other.enum_total;
        self.enum_correct += other.enum_correct;
        self.semantics_correct += other.semantics_correct;
        self.missed += other.missed;
        self.verdicts.extend(other.verdicts);
    }
}

fn esv_id_for(key: SourceKey) -> Option<EsvId> {
    match key {
        SourceKey::UdsDid(d) => Some(EsvId::Uds(Did(d))),
        SourceKey::Kwp { local_id, slot } => Some(EsvId::Kwp {
            local_id: dpr_protocol::kwp::LocalId(local_id),
            slot,
        }),
        SourceKey::Obd(_) => None,
    }
}

/// Evaluates a pipeline result against the vehicle it was collected from.
pub fn evaluate(
    result: &ReverseEngineeringResult,
    vehicle: &AttachedVehicle,
) -> PrecisionReport {
    let truth_points = vehicle.esv_points();
    let mut report = PrecisionReport::default();

    for esv in &result.esvs {
        let Some(id) = esv_id_for(esv.key) else {
            continue; // OBD signals are scored by the Tab. 5 harness
        };
        let Some(point) = truth_points.iter().find(|p| p.id == id) else {
            continue;
        };
        let truth = point.formula;
        let semantics_correct = esv.label.starts_with(point.quantity.name())
            || point.quantity.name().starts_with(esv.label.trim_end_matches(|c: char| c.is_ascii_digit() || c == ' '));
        let (correct, recovered_str) = match (&esv.kind, truth.has_formula()) {
            (RecoveredKind::Enumeration, false) => (true, "enumeration".to_string()),
            (RecoveredKind::Enumeration, true) => {
                // An enumeration verdict means "Y equals the raw byte";
                // that is correct when the hidden formula is the identity
                // over the observed range.
                let (lo, hi) = esv.x_ranges.first().copied().unwrap_or((0.0, 255.0));
                let identity_truth = (0..8).all(|i| {
                    let x = lo + (hi - lo) * f64::from(i) / 7.0;
                    (truth.eval(x, 0.0) - x).abs() <= EQUIVALENCE_TOLERANCE * x.abs().max(1.0)
                });
                (identity_truth, "enumeration".to_string())
            }
            (RecoveredKind::Formula(_), false) => {
                // Ground truth is an enumeration; a formula equivalent to
                // identity is still correct.
                let RecoveredKind::Formula(model) = &esv.kind else {
                    unreachable!()
                };
                let ok = model.agrees_with(
                    |x| x[0],
                    &esv.x_ranges[..1.min(esv.x_ranges.len())],
                    EQUIVALENCE_TOLERANCE,
                );
                (ok, model.describe())
            }
            (RecoveredKind::Formula(model), true) => {
                let ranges = &esv.x_ranges;
                let closure = |x: &[f64]| truth.eval(x[0], x.get(1).copied().unwrap_or(0.0));
                // When the model uses one variable but the truth uses two,
                // the second raw byte was constant in traffic; evaluate at
                // that constant.
                let ok = if ranges.len() == 1 && truth.arity() == 2 {
                    // The constant second byte is unknown here; accept if
                    // the model matches the truth at any plausible pinned
                    // value by comparing on observed data instead: use the
                    // training error relative to the observed Y scale.
                    model.train_error <= observed_scale(model, ranges) * EQUIVALENCE_TOLERANCE
                } else {
                    model.agrees_with(closure, ranges, EQUIVALENCE_TOLERANCE)
                };
                (ok, model.describe())
            }
        };
        if truth.has_formula() {
            report.formula_total += 1;
            if correct {
                report.formula_correct += 1;
            }
        } else {
            report.enum_total += 1;
            if correct {
                report.enum_correct += 1;
            }
        }
        if semantics_correct {
            report.semantics_correct += 1;
        }
        report.verdicts.push(EsvVerdict {
            key: esv.key,
            label: esv.label.clone(),
            truth_is_formula: truth.has_formula(),
            correct,
            semantics_correct,
            recovered: recovered_str,
            truth: format_truth(truth),
        });
    }

    let recovered_ids: Vec<EsvId> = result
        .esvs
        .iter()
        .filter_map(|e| esv_id_for(e.key))
        .collect();
    report.missed = truth_points
        .iter()
        .filter(|p| !recovered_ids.contains(&p.id))
        .count();
    report
}

/// Fits each closed-form family to the model's own predictions over the
/// observed range and returns the best family when it explains the model
/// within 1% — turning GP's raw expression tree into the paper's
/// presentation form (`Y = X0*X1/5` instead of a scaled syntax tree).
pub fn canonicalize(model: &dpr_gp::FittedModel, ranges: &[(f64, f64)]) -> Option<EsvFormula> {
    const STEPS: usize = 9;
    if ranges.is_empty() {
        return None;
    }
    // Sample the model over the observed grid.
    let mut rows: Vec<Vec<f64>> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut y_scale = 1.0f64;
    let mut idx = vec![0usize; ranges.len()];
    loop {
        let row: Vec<f64> = ranges
            .iter()
            .zip(&idx)
            .map(|(&(lo, hi), &i)| lo + (hi - lo) * i as f64 / (STEPS - 1) as f64)
            .collect();
        let y = model.predict(&row);
        if !y.is_finite() {
            return None;
        }
        y_scale = y_scale.max(y.abs());
        rows.push(row);
        ys.push(y);
        let mut k = 0;
        loop {
            if k == ranges.len() {
                // Grid exhausted.
                return canonical_from_samples(&rows, &ys, y_scale, ranges.len());
            }
            idx[k] += 1;
            if idx[k] < STEPS {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

fn canonical_from_samples(
    rows: &[Vec<f64>],
    ys: &[f64],
    y_scale: f64,
    n_vars: usize,
) -> Option<EsvFormula> {
    // Least squares over a family's basis; returns (coeffs, max error).
    let fit = |basis: &dyn Fn(&[f64]) -> Vec<f64>| -> Option<(Vec<f64>, f64)> {
        let feats: Vec<Vec<f64>> = rows.iter().map(|r| basis(r)).collect();
        let coeffs = dpr_gp::ols(&feats, ys)?;
        let err = rows
            .iter()
            .zip(ys)
            .map(|(r, &y)| {
                let pred: f64 = basis(r).iter().zip(&coeffs).map(|(f, c)| f * c).sum();
                (pred - y).abs()
            })
            .fold(0.0f64, f64::max);
        Some((coeffs, err))
    };
    let tol = 0.01 * y_scale.max(1.0);
    // Coefficients contributing under 0.3% of the output scale are noise
    // from the fit; zero them for presentation.
    let snap = |v: f64, term_scale: f64| {
        if (v * term_scale).abs() < 0.003 * y_scale.max(1.0) {
            0.0
        } else {
            (v * 1e4).round() / 1e4
        }
    };
    let x0_scale = rows.iter().map(|r| r[0].abs()).fold(0.0f64, f64::max);
    let x1_scale = rows
        .iter()
        .map(|r| r.get(1).copied().unwrap_or(0.0).abs())
        .fold(0.0f64, f64::max);

    // Fit every family; keep candidates within tolerance; pick the lowest
    // error with ties broken by the simpler family (listed order).
    let mut candidates: Vec<(f64, EsvFormula)> = Vec::new();
    if let Some((c, err)) = fit(&|r: &[f64]| vec![r[0], 1.0]) {
        candidates.push((
            err,
            EsvFormula::Linear {
                a: snap(c[0], x0_scale),
                b: snap(c[1], 1.0),
            },
        ));
    }
    if let Some((c, err)) = fit(&|r: &[f64]| vec![r[0] * r[0], 1.0]) {
        candidates.push((
            err,
            EsvFormula::Square {
                a: snap(c[0], x0_scale * x0_scale),
                b: snap(c[1], 1.0),
            },
        ));
    }
    if rows.iter().all(|r| r[0].abs() > 1e-6) {
        if let Some((c, err)) = fit(&|r: &[f64]| vec![1.0 / r[0], 1.0]) {
            candidates.push((
                err,
                EsvFormula::Inverse {
                    a: snap(c[0], 1.0),
                    b: snap(c[1], 1.0),
                },
            ));
        }
    }
    if n_vars >= 2 {
        if let Some((c, err)) = fit(&|r: &[f64]| vec![r[0] * r[1], 1.0]) {
            candidates.push((
                err,
                EsvFormula::Product {
                    a: snap(c[0], x0_scale * x1_scale),
                    b: snap(c[1], 1.0),
                },
            ));
        }
        if let Some((c, err)) = fit(&|r: &[f64]| vec![r[0], r[1], 1.0]) {
            candidates.push((
                err,
                EsvFormula::Affine2 {
                    a: snap(c[0], x0_scale),
                    b: snap(c[1], x1_scale),
                    c: snap(c[2], 1.0),
                },
            ));
        }
    }
    candidates
        .into_iter()
        .filter(|(err, _)| *err <= tol)
        .min_by(|(a, _), (b, _)| a.total_cmp(b))
        .map(|(_, f)| f)
}

fn observed_scale(model: &dpr_gp::FittedModel, ranges: &[(f64, f64)]) -> f64 {
    // Typical |Y| over the observed X range.
    let (lo, hi) = ranges[0];
    let mid = model.predict(&[(lo + hi) / 2.0]);
    mid.abs().max(1.0)
}

fn format_truth(truth: EsvFormula) -> String {
    truth.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};

    #[test]
    fn precision_math() {
        let mut a = PrecisionReport {
            formula_total: 8,
            formula_correct: 7,
            ..Default::default()
        };
        assert!((a.formula_precision() - 0.875).abs() < 1e-12);
        a.merge(PrecisionReport {
            formula_total: 2,
            formula_correct: 2,
            ..Default::default()
        });
        assert_eq!(a.formula_total, 10);
        assert_eq!(a.formula_correct, 9);
        assert_eq!(PrecisionReport::default().formula_precision(), 1.0);
    }

    #[test]
    fn canonicalize_recovers_closed_forms() {
        use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};
        // One representative per family.
        type Case = (Box<dyn Fn(f64, f64) -> f64>, bool, &'static str);
        let cases: Vec<Case> = vec![
            (Box::new(|a, _| 0.5 * a - 40.0), false, "Linear"),
            (Box::new(|a, _| 0.01 * a * a), false, "Square"),
            (Box::new(|a, _| 1000.0 / a), false, "Inverse"),
            (Box::new(|a, b| a * b / 5.0), true, "Product"),
        ];
        for (f, two, family) in cases {
            let data = if two {
                Dataset::from_triples((0..60).map(|i| {
                    let a = f64::from(40 + (i * 17) % 200);
                    let b = f64::from(10 + (i * 13) % 30);
                    ((a, b), f(a, b))
                }))
                .unwrap()
            } else {
                Dataset::from_pairs((0..60).map(|i| {
                    let a = f64::from(40 + (i * 17) % 200);
                    (a, f(a, 0.0))
                }))
                .unwrap()
            };
            let model = SymbolicRegressor::new(GpConfig::fast(9)).fit(&data);
            let ranges: Vec<(f64, f64)> = if two {
                vec![(40.0, 239.0), (10.0, 39.0)]
            } else {
                vec![(40.0, 239.0)]
            };
            let canon = canonicalize(&model, &ranges);
            let Some(formula) = canon else {
                panic!("{family}: no canonical form found (err {})", model.train_error);
            };
            let name = format!("{formula:?}");
            assert!(
                name.starts_with(family),
                "{family}: canonicalized to {formula} ({name})"
            );
            // And the canonical form matches the underlying function.
            for i in 0..10 {
                let a = 40.0 + 19.0 * f64::from(i);
                let b = 10.0 + 2.9 * f64::from(i);
                let want = f(a, b);
                let got = formula.eval(a, b);
                assert!(
                    (got - want).abs() <= 0.02 * want.abs().max(1.0),
                    "{family}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn canonicalize_handles_empty_ranges() {
        use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};
        let data = Dataset::from_pairs((0..10).map(|i| (f64::from(i), f64::from(i)))).unwrap();
        let model = SymbolicRegressor::new(GpConfig::fast(1)).fit(&data);
        assert_eq!(canonicalize(&model, &[]), None);
    }

    #[test]
    fn canonicalize_refuses_non_polynomial_models() {
        use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};
        // A saw-tooth-ish relation no closed family explains.
        let data = Dataset::from_pairs((0..60).map(|i| {
            let x = f64::from(i * 4 % 240);
            (x, (x / 17.0).sin() * 50.0 + (x % 13.0))
        }))
        .unwrap();
        let model = SymbolicRegressor::new(GpConfig::fast(11)).fit(&data);
        // Either the model itself failed to fit tightly (fine) or, if it
        // did, no simple family should claim it.
        if model.train_error < 0.5 {
            assert_eq!(canonicalize(&model, &[(0.0, 239.0)]), None);
        }
    }

    #[test]
    fn evaluate_scores_a_correct_and_incorrect_model() {
        use dpr_can::CanBus;
        use dpr_frames::FrameStats;
        use dpr_vehicle::codec::EsvCodec;
        use dpr_vehicle::ecu::{Ecu, Protocol, Sensor, TransportKind};
        use dpr_vehicle::signal::SignalGenerator;
        use dpr_vehicle::Vehicle;

        // Ground truth: DID 0x1000 decodes with Y = 0.5·X.
        let mut ecu = Ecu::new(
            "Engine",
            dpr_can::CanId::standard(0x7E0).unwrap(),
            dpr_can::CanId::standard(0x7E8).unwrap(),
            TransportKind::IsoTp,
            Protocol::Uds,
        );
        ecu.add_uds_point(
            Did(0x1000),
            Sensor {
                quantity: dpr_protocol::Quantity::new("Coolant Temperature", "degC", 0.0, 127.5),
                generator: SignalGenerator::Constant(50.0),
            },
            EsvCodec::single(EsvFormula::Linear { a: 0.5, b: 0.0 }),
        );
        let mut vehicle = Vehicle::new("Test");
        vehicle.add_ecu(ecu);
        let mut bus = CanBus::new();
        let attached = vehicle.attach(&mut bus);

        // A recovered model fitted to the true relation.
        let data = Dataset::from_pairs((0..40).map(|i| {
            let x = f64::from(i * 6 % 250);
            (x, 0.5 * x)
        }))
        .unwrap();
        let good = SymbolicRegressor::new(GpConfig::fast(3)).fit(&data);

        let result = ReverseEngineeringResult {
            esvs: vec![crate::RecoveredEsv {
                key: SourceKey::UdsDid(0x1000),
                f_type: None,
                screen: "Engine - Data Stream p1".into(),
                label: "Coolant Temperature".into(),
                kind: RecoveredKind::Formula(good),
                pairs: 40,
                x_ranges: vec![(0.0, 250.0)],
                match_score: 0.99,
            }],
            ecrs: vec![],
            stats: FrameStats::default(),
            negatives: 0,
            alignment_offset_us: 0,
            trace: Default::default(),
            evidence: Default::default(),
        };
        let report = evaluate(&result, &attached);
        assert_eq!(report.formula_total, 1);
        assert_eq!(report.formula_correct, 1, "{:#?}", report.verdicts);
        assert_eq!(report.semantics_correct, 1);
        assert_eq!(report.missed, 0);

        // A wrong model (identity instead of half-scale) fails.
        let wrong_data = Dataset::from_pairs((0..40).map(|i| {
            let x = f64::from(i * 6 % 250);
            (x, x)
        }))
        .unwrap();
        let wrong = SymbolicRegressor::new(GpConfig::fast(4)).fit(&wrong_data);
        let mut bad_result = result;
        bad_result.esvs[0].kind = RecoveredKind::Formula(wrong);
        let report = evaluate(&bad_result, &attached);
        assert_eq!(report.formula_correct, 0);
    }
}
