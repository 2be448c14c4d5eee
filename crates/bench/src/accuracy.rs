//! Exact accuracy counts for the GP-dependent paper tables.
//!
//! Tab. 5 (OBD-II ground truth), Tab. 6 (formula precision per car) and
//! Tab. 7 (dashboard validation) all hinge on what the GP engine infers.
//! This module is their one producer: the three table benches print from
//! it, and `dpr-bench accuracy` writes it to `BENCH_accuracy.json`, which
//! CI diffs against `crates/bench/baselines/BENCH_accuracy.json` at zero
//! slack. Every run is seeded, so any diff is a real change in what the
//! pipeline recovers.

use dp_reverser::{evaluate, DpReverser, PipelineConfig, RecoveredKind};
use dpr_can::Micros;
use dpr_frames::{Scheme, SourceKey};
use dpr_ocr::OcrChannel;
use dpr_protocol::obd::{self, Pid};
use dpr_tool::database::obd_database;
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::ecu::EsvId;
use dpr_vehicle::profiles::{self, CarId};
use serde::Serialize;

use crate::{analyze_traced, bench_json, car_seed, collect_car, quick, read_secs, EXPERIMENT_SEED};

/// The four cars whose dashboards Tab. 7 validates.
pub const TAB7_CARS: [CarId; 4] = [CarId::F, CarId::K, CarId::L, CarId::R];

/// One Tab. 5 row: an OBD-II PID and what the pipeline recovered for it.
#[derive(Debug, Clone, Serialize)]
pub struct PidRow {
    /// The PID, as `0xNN`.
    pub pid: String,
    /// The quantity the PID carries.
    pub name: String,
    /// The app's display formula.
    pub truth: String,
    /// The recovered rule, or why there is none.
    pub recovered: String,
    /// Whether the recovered formula agrees with the truth.
    pub correct: bool,
}

/// One Tab. 6 row.
#[derive(Debug, Clone, Serialize)]
pub struct CarRow {
    /// The Tab. 3 car letter.
    pub car: String,
    /// Formula ESVs whose inferred formula is correct.
    pub formula_correct: usize,
    /// Formula ESVs recovered and matched.
    pub formula_total: usize,
    /// Enumeration ESVs classified correctly.
    pub enum_correct: usize,
    /// Enumeration ESVs recovered and matched.
    pub enum_total: usize,
    /// Each formula miss: label, recovered rule and ground truth.
    pub misses: Vec<String>,
}

/// One Tab. 7 row: a car's dashboard signal against its recovered rule.
#[derive(Debug, Clone, Serialize)]
pub struct DashRow {
    /// The Tab. 3 car letter.
    pub car: String,
    /// The dashboard label.
    pub label: String,
    /// The recovered rule, or why there is none.
    pub recovered: String,
    /// Whether the rule reproduces the dashboard over the observed range.
    pub validated: bool,
}

/// What one car's collect → analyze → score job yields.
pub struct CarAccuracy {
    /// The car's Tab. 6 row.
    pub row: CarRow,
    /// Its Tab. 7 row, when the car has a dashboard signal.
    pub dashboard: Option<DashRow>,
}

/// Collects, analyzes and scores each car across the `dpr_par` fan-out, in
/// car order. Each job runs in its own telemetry scope.
pub fn cars(ids: &[CarId]) -> Vec<CarAccuracy> {
    dpr_par::par_map(ids, |&id| {
        let seed = car_seed(id);
        let report = collect_car(id, seed, read_secs());
        let result = analyze_traced(id, seed, &report);
        let precision = evaluate(&result, &report.vehicle);
        let misses = precision
            .verdicts
            .iter()
            .filter(|v| v.truth_is_formula && !v.correct)
            .map(|v| {
                format!(
                    "{}: recovered {} vs truth {}",
                    v.label, v.recovered, v.truth
                )
            })
            .collect();
        let dashboard = report.vehicle.dashboard().first().map(|dash| {
            let truth = report
                .vehicle
                .esv_points()
                .iter()
                .find(|p| p.id == dash.id)
                .expect("dashboard point exists")
                .formula;
            let key = match dash.id {
                EsvId::Uds(did) => SourceKey::UdsDid(did.0),
                EsvId::Kwp { local_id, slot } => SourceKey::Kwp {
                    local_id: local_id.0,
                    slot,
                },
            };
            // The dashboard shows the true sensor value; the recovered
            // rule applied to the raw traffic must reproduce it over the
            // observed raw range.
            let (validated, recovered) = match result.esvs.iter().find(|e| e.key == key) {
                None => (false, "not recovered".to_string()),
                Some(esv) => match &esv.kind {
                    RecoveredKind::Formula(model) => (
                        model.agrees_with(
                            |x| truth.eval(x[0], x.get(1).copied().unwrap_or(0.0)),
                            &esv.x_ranges,
                            0.04,
                        ),
                        model.describe(),
                    ),
                    RecoveredKind::Enumeration => {
                        // Enumeration = identity.
                        let (lo, hi) = esv.x_ranges[0];
                        let identity = (0..8).all(|i| {
                            let x = lo + (hi - lo) * f64::from(i) / 7.0;
                            (truth.eval(x, 0.0) - x).abs() <= 0.04 * x.abs().max(1.0)
                        });
                        (identity, "Y = X (identity/enumeration)".to_string())
                    }
                },
            };
            DashRow {
                car: id.to_string(),
                label: dash.label.clone(),
                recovered,
                validated,
            }
        });
        CarAccuracy {
            row: CarRow {
                car: id.to_string(),
                formula_correct: precision.formula_correct,
                formula_total: precision.formula_total,
                enum_correct: precision.enum_correct,
                enum_total: precision.enum_total,
                misses,
            },
            dashboard,
        }
    })
}

/// Tab. 5: the OBD-II ground-truth experiment. A vehicle simulator (a
/// car profile's engine ECU) is read by the ChevroSys app; every PID's
/// recovered formula is checked against the app's display formula.
pub fn obd_pids() -> Vec<PidRow> {
    let seed = EXPERIMENT_SEED;
    let car = profiles::build(CarId::L, seed);
    let (req, rsp) = car.obd_ids().expect("profile cars expose OBD-II");
    let db = obd_database("Vehicle Simulator", req, rsp);
    let mut session = ToolSession::with_database(car, ToolProfile::chevrosys_app(), db);
    session.tool_mut().goto_data_stream(0, 0);
    let dwell = if quick() { 20 } else { 60 };
    session
        .wait(Micros::from_secs(dwell))
        .expect("session runs");
    let (log, frames, _) = session.into_artifacts();

    let mut config = if quick() {
        PipelineConfig::fast(Scheme::IsoTp, seed)
    } else {
        PipelineConfig::paper(Scheme::IsoTp, seed)
    };
    config.ocr = OcrChannel::new(ToolProfile::chevrosys_app().ocr_quality, seed);
    let result = DpReverser::new(config).analyze(&log, &frames, None);

    // Ground truth: the app's display formulas (standard formula × the
    // app's unit choice).
    type Truth = (u8, &'static str, fn(f64, f64) -> f64);
    let app_truth: [Truth; 7] = [
        (0x11, "Y = X/2.55", |a, _| a * 100.0 / 255.0),
        (0x04, "Y = X/2.55", |a, _| a * 100.0 / 255.0),
        (0x2F, "Y = 0.392*X", |a, _| 0.392 * a),
        // The simulated (and real) capture pins the RPM low byte at
        // X1 = 128, so the ground-truth formula collapses to
        // Y = 64*X0 + 32 — exactly the recovery the paper accepts.
        (0x0C, "Y = (256*X0+X1)/4", |a, _| 64.0 * a + 32.0),
        (0x0D, "Y = 0.621*X", |a, _| 0.621 * a),
        (0x05, "Y = 1.8*X - 40", |a, _| 1.8 * a - 40.0),
        (0x0B, "Y = X/3.39", |a, _| a / 3.39),
    ];
    app_truth
        .iter()
        .map(|&(pid, truth_str, truth)| {
            let spec = obd::pid_spec(Pid(pid)).expect("standard pid");
            let esv = result.esvs.iter().find(|e| e.key == SourceKey::Obd(pid));
            let (recovered, correct) = match esv.map(|e| (e, &e.kind)) {
                None => ("not recovered".to_string(), false),
                Some((_, RecoveredKind::Enumeration)) => {
                    ("misclassified as enumeration".to_string(), false)
                }
                Some((esv, RecoveredKind::Formula(model))) => (
                    model.describe(),
                    model.agrees_with(
                        |x| truth(x[0], x.get(1).copied().unwrap_or(0.0)),
                        &esv.x_ranges,
                        0.04,
                    ),
                ),
            };
            PidRow {
                pid: format!("0x{pid:02X}"),
                name: spec.quantity.name().to_string(),
                truth: truth_str.to_string(),
                recovered,
                correct,
            }
        })
        .collect()
}

/// Everything `dpr-bench accuracy` measured.
pub struct AccuracyRun {
    /// Whether the reduced (`DPR_QUICK`) budget ran.
    pub quick: bool,
    /// Tab. 5 rows.
    pub table5: Vec<PidRow>,
    /// Tab. 6 rows, in car order.
    pub table6: Vec<CarRow>,
    /// Tab. 7 rows, in car order.
    pub table7: Vec<DashRow>,
}

/// Runs Tab. 5, 6 and 7. Tab. 7 reads the Tab. 6 runs of its four cars,
/// which use the same seeds and dwell the standalone bench does.
pub fn run() -> AccuracyRun {
    let table5 = obd_pids();
    let (table6, dashboards): (Vec<CarRow>, Vec<Option<DashRow>>) = cars(&CarId::ALL)
        .into_iter()
        .map(|c| (c.row, c.dashboard))
        .unzip();
    let table7 = CarId::ALL
        .iter()
        .zip(dashboards)
        .filter(|(id, _)| TAB7_CARS.contains(id))
        .filter_map(|(_, dash)| dash)
        .collect();
    AccuracyRun {
        quick: quick(),
        table5,
        table6,
        table7,
    }
}

/// The `BENCH_accuracy.json` document, in this key order.
#[derive(Serialize)]
struct AccuracyJson {
    bench: &'static str,
    quick: bool,
    seed: u64,
    table5: String,
    table6_formula: String,
    table6_enum: String,
    table7: String,
    table5_rows: Vec<PidRow>,
    table6_rows: Vec<CarRow>,
    table7_rows: Vec<DashRow>,
}

/// Renders `BENCH_accuracy.json`: totals first, then one table row per
/// line, so a diff against the baseline names the row that moved.
pub fn accuracy_json(run: &AccuracyRun) -> String {
    let sum = |f: fn(&CarRow) -> usize| run.table6.iter().map(f).sum::<usize>();
    let count = |n: usize, d: usize| format!("{n}/{d}");
    bench_json(&AccuracyJson {
        bench: "accuracy",
        quick: run.quick,
        seed: EXPERIMENT_SEED,
        table5: count(
            run.table5.iter().filter(|r| r.correct).count(),
            run.table5.len(),
        ),
        table6_formula: count(sum(|r| r.formula_correct), sum(|r| r.formula_total)),
        table6_enum: count(sum(|r| r.enum_correct), sum(|r| r.enum_total)),
        table7: count(
            run.table7.iter().filter(|r| r.validated).count(),
            run.table7.len(),
        ),
        table5_rows: run.table5.clone(),
        table6_rows: run.table6.clone(),
        table7_rows: run.table7.clone(),
    })
}
