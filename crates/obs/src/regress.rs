//! Bench regression gating: compares two `BENCH_*.json` snapshots metric
//! by metric.
//!
//! A snapshot is a flat (or nested — keys are flattened with dots) JSON
//! object of numbers plus a few configuration fields. Each numeric
//! metric gets a *direction* inferred from its name — `..._per_sec` and
//! `..._speedup` style metrics regress when they drop, `..._us` /
//! `..._time` style metrics regress when they grow, everything else is
//! informational — and the comparison flags any change beyond the
//! tolerance in the bad direction. Thread-scaling speedups additionally
//! carry an *absolute* floor: any `threads_N.speedup` below
//! [`SPEEDUP_FLOOR`] regresses even if the baseline was just as bad,
//! so negative scaling can never be locked in by regenerating the
//! baseline. Non-numeric fields (the benchmark
//! configuration) are compared for equality: a mismatch is surfaced as
//! [`Verdict::ConfigChanged`] so a "regression" caused by comparing
//! different setups is visible, but it does not gate.

use dpr_telemetry::json::Value;
use std::fmt::Write as _;

/// Which way a metric is supposed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-style: a drop is a regression.
    HigherIsBetter,
    /// Latency-style: a rise is a regression.
    LowerIsBetter,
    /// Descriptive only (row counts, seeds): reported, never gated.
    Informational,
}

/// Absolute floor for thread-scaling speedups: a `threads_N.speedup`
/// below 1.0 means the pool ran the workload slower than the inline
/// 1-thread pass, which is a regression no matter what the baseline
/// recorded (a baseline captured on a bad day must not grandfather
/// negative scaling in).
pub const SPEEDUP_FLOOR: f64 = 1.0;

/// Measurement-noise allowance under [`SPEEDUP_FLOOR`]. On a host with
/// no second core, the N-thread point timeshares one core and the true
/// ratio is about 1.0 — two separately timed windows still jitter a few
/// percent around it. The floor exists to catch real negative scaling
/// (the seed regressed to 0.80×), not that jitter.
pub const SPEEDUP_FLOOR_SLACK: f64 = 0.05;

fn below_speedup_floor(key: &str, current: f64) -> bool {
    key.to_ascii_lowercase().ends_with(".speedup") && current < SPEEDUP_FLOOR - SPEEDUP_FLOOR_SLACK
}

/// Classifies a metric name. Names win in this order: throughput markers,
/// then time/latency markers, then informational.
pub fn direction_for(name: &str) -> Direction {
    let lower = name.to_ascii_lowercase();
    const HIGHER: &[&str] = &[
        "per_sec",
        "speedup",
        "throughput",
        "ops",
        "rate",
        "hit",
        "utilization",
    ];
    const LOWER: &[&str] = &[
        "_us",
        "_ms",
        "_ns",
        "time",
        "latency",
        "duration",
        "wall",
        "imbalance",
        "allocs",
    ];
    if HIGHER.iter().any(|m| lower.contains(m)) {
        Direction::HigherIsBetter
    } else if LOWER.iter().any(|m| lower.contains(m)) {
        Direction::LowerIsBetter
    } else {
        Direction::Informational
    }
}

/// The outcome of comparing one field.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance (or informational).
    Pass,
    /// Moved the *good* way by more than the tolerance.
    Improved,
    /// Moved the bad way by more than the tolerance. Gates.
    Regressed,
    /// Present in the baseline only.
    MissingInCurrent,
    /// Present in the current snapshot only.
    NewInCurrent,
    /// Non-numeric configuration field whose value changed.
    ConfigChanged,
}

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Flattened metric name.
    pub metric: String,
    /// Baseline rendering (number or config string).
    pub baseline: String,
    /// Current rendering.
    pub current: String,
    /// Relative change for numeric metrics (`+0.10` = 10% higher).
    pub change: Option<f64>,
    /// The metric's inferred direction.
    pub direction: Direction,
    /// The comparison outcome.
    pub verdict: Verdict,
}

/// A full snapshot comparison.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// Per-metric rows, in baseline key order (new keys last).
    pub rows: Vec<Row>,
    /// The tolerance the comparison ran with.
    pub max_regress: f64,
}

impl Comparison {
    /// Rows that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| r.verdict == Verdict::Regressed)
    }

    /// Whether any gated metric regressed beyond tolerance.
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }
}

/// Parses a tolerance argument: `15%` and `15` mean fifteen percent,
/// `0.15` means the same as a plain ratio.
pub fn parse_threshold(arg: &str) -> Option<f64> {
    let arg = arg.trim();
    let (text, percent) = match arg.strip_suffix('%') {
        Some(text) => (text, true),
        None => (arg, false),
    };
    let v: f64 = text.trim().parse().ok()?;
    if !v.is_finite() || v < 0.0 {
        return None;
    }
    Some(if percent || v > 1.0 { v / 100.0 } else { v })
}

/// Flattens a parsed JSON document into `(dotted-key, value)` leaves.
fn dotted_leaves(value: &Value, prefix: &str, out: &mut Vec<(String, Value)>) {
    match value {
        Value::Object(entries) => {
            for (key, value) in entries {
                let key = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                dotted_leaves(value, &key, out);
            }
        }
        other => out.push((prefix.to_string(), other.clone())),
    }
}

fn as_number(value: &Value) -> Option<f64> {
    match value {
        Value::UInt(n) => Some(*n as f64),
        Value::Int(n) => Some(*n as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn render_value(value: &Value) -> String {
    match value {
        Value::Str(s) => s.clone(),
        other => other.to_json(),
    }
}

/// Compares two parsed snapshots with the given tolerance (a ratio:
/// `0.15` = 15%).
pub fn compare(baseline: &Value, current: &Value, max_regress: f64) -> Comparison {
    let mut base_leaves = Vec::new();
    let mut cur_leaves = Vec::new();
    dotted_leaves(baseline, "", &mut base_leaves);
    dotted_leaves(current, "", &mut cur_leaves);

    let mut rows = Vec::new();
    for (key, base_value) in &base_leaves {
        let cur_value = cur_leaves.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        rows.push(match cur_value {
            None => Row {
                metric: key.clone(),
                baseline: render_value(base_value),
                current: "—".to_string(),
                change: None,
                direction: direction_for(key),
                verdict: Verdict::MissingInCurrent,
            },
            Some(cur_value) => compare_leaf(key, base_value, cur_value, max_regress),
        });
    }
    for (key, cur_value) in &cur_leaves {
        if !base_leaves.iter().any(|(k, _)| k == key) {
            rows.push(Row {
                metric: key.clone(),
                baseline: "—".to_string(),
                current: render_value(cur_value),
                change: None,
                direction: direction_for(key),
                verdict: Verdict::NewInCurrent,
            });
        }
    }
    Comparison { rows, max_regress }
}

fn compare_leaf(key: &str, base: &Value, cur: &Value, max_regress: f64) -> Row {
    let direction = direction_for(key);
    match (as_number(base), as_number(cur)) {
        (Some(b), Some(c)) => {
            let change = if b == 0.0 { None } else { Some((c - b) / b) };
            let verdict = if below_speedup_floor(key, c) {
                Verdict::Regressed
            } else {
                match (direction, change) {
                (Direction::Informational, _) | (_, None) => Verdict::Pass,
                (Direction::HigherIsBetter, Some(delta)) if delta < -max_regress => {
                    Verdict::Regressed
                }
                (Direction::HigherIsBetter, Some(delta)) if delta > max_regress => {
                    Verdict::Improved
                }
                (Direction::LowerIsBetter, Some(delta)) if delta > max_regress => {
                    Verdict::Regressed
                }
                (Direction::LowerIsBetter, Some(delta)) if delta < -max_regress => {
                    Verdict::Improved
                }
                _ => Verdict::Pass,
                }
            };
            Row {
                metric: key.to_string(),
                baseline: render_value(base),
                current: render_value(cur),
                change,
                direction,
                verdict,
            }
        }
        _ => Row {
            metric: key.to_string(),
            baseline: render_value(base),
            current: render_value(cur),
            change: None,
            direction,
            verdict: if base == cur {
                Verdict::Pass
            } else {
                Verdict::ConfigChanged
            },
        },
    }
}

/// Renders the comparison as an aligned diff table plus a verdict line.
pub fn render(cmp: &Comparison) -> String {
    let metric_width = cmp
        .rows
        .iter()
        .map(|r| r.metric.len())
        .max()
        .unwrap_or(6)
        .max(6);
    let value_width = cmp
        .rows
        .iter()
        .flat_map(|r| [r.baseline.len(), r.current.len()])
        .max()
        .unwrap_or(8)
        .max(8);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<metric_width$}  {:>value_width$}  {:>value_width$}  {:>8}  verdict",
        "metric", "baseline", "current", "change"
    );
    for row in &cmp.rows {
        let change = row
            .change
            .map(|c| format!("{:+.1}%", c * 100.0))
            .unwrap_or_else(|| "—".to_string());
        let verdict = match row.verdict {
            Verdict::Pass => "ok",
            Verdict::Improved => "IMPROVED",
            Verdict::Regressed => "REGRESSED",
            Verdict::MissingInCurrent => "missing in current",
            Verdict::NewInCurrent => "new in current",
            Verdict::ConfigChanged => "CONFIG CHANGED",
        };
        let _ = writeln!(
            out,
            "{:<metric_width$}  {:>value_width$}  {:>value_width$}  {:>8}  {}",
            row.metric, row.baseline, row.current, change, verdict
        );
    }
    let regressed: Vec<&str> = cmp.regressions().map(|r| r.metric.as_str()).collect();
    if regressed.is_empty() {
        let _ = writeln!(
            out,
            "verdict: no regressions beyond {:.0}%",
            cmp.max_regress * 100.0
        );
    } else {
        let _ = writeln!(
            out,
            "verdict: {} metric(s) regressed beyond {:.0}%: {}",
            regressed.len(),
            cmp.max_regress * 100.0,
            regressed.join(", ")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_telemetry::json;

    fn snapshot(evals_per_sec: u64, wall_us: u64) -> Value {
        json::parse(&format!(
            "{{\"bench\":\"gp\",\"threads\":2,\"compiled_evals_per_sec\":{evals_per_sec},\
             \"scoring_wall_us\":{wall_us},\"compiled_speedup\":2.9}}"
        ))
        .expect("valid test json")
    }

    #[test]
    fn scaling_metrics_have_directions() {
        assert_eq!(
            direction_for("threads_2.utilization"),
            Direction::HigherIsBetter
        );
        assert_eq!(direction_for("threads_2.speedup"), Direction::HigherIsBetter);
        assert_eq!(
            direction_for("threads_2.imbalance"),
            Direction::LowerIsBetter
        );
        assert_eq!(direction_for("threads_2.rows"), Direction::Informational);
        assert_eq!(
            direction_for("threads_2.allocs_per_pass"),
            Direction::LowerIsBetter
        );
    }

    #[test]
    fn speedup_below_floor_regresses_even_against_an_equal_baseline() {
        let bad = json::parse(
            "{\"threads_2\":{\"speedup\":0.92,\"evals_per_sec\":50000},\
             \"threads_1\":{\"speedup\":1.0,\"evals_per_sec\":54000}}",
        )
        .expect("valid");
        // Baseline is identically bad — the relative gate would pass,
        // but the absolute floor must still fire.
        let cmp = compare(&bad, &bad, 0.15);
        assert!(cmp.has_regressions());
        let regressed: Vec<&str> = cmp.regressions().map(|r| r.metric.as_str()).collect();
        assert_eq!(regressed, vec!["threads_2.speedup"]);
    }

    #[test]
    fn speedup_within_noise_of_the_floor_does_not_trip_it() {
        let ok = json::parse(
            "{\"threads_2\":{\"speedup\":0.97},\"threads_1\":{\"speedup\":1.0}}",
        )
        .expect("valid");
        let cmp = compare(&ok, &ok, 0.15);
        assert!(!cmp.has_regressions(), "{}", render(&cmp));
        // Micro-bench keys like compiled_speedup use the relative gate
        // only; the floor is scoped to the thread-scaling sweep.
        let micro = json::parse("{\"compiled_speedup\":0.9}").expect("valid");
        assert!(!compare(&micro, &micro, 0.15).has_regressions());
    }

    #[test]
    fn alloc_growth_regresses() {
        let base = json::parse("{\"threads_2\":{\"allocs_per_pass\":41}}").expect("valid");
        let grown = json::parse("{\"threads_2\":{\"allocs_per_pass\":96}}").expect("valid");
        let cmp = compare(&base, &grown, 0.15);
        assert!(cmp.has_regressions());
    }

    #[test]
    fn identical_snapshots_pass() {
        let a = snapshot(50_000, 1_000);
        let cmp = compare(&a, &a, 0.15);
        assert!(!cmp.has_regressions());
        assert!(cmp.rows.iter().all(|r| r.verdict == Verdict::Pass));
    }

    #[test]
    fn synthetic_2x_slowdown_regresses_both_directions() {
        let base = snapshot(50_000, 1_000);
        let slow = snapshot(25_000, 2_000);
        let cmp = compare(&base, &slow, 0.15);
        let verdict = |metric: &str| {
            cmp.rows
                .iter()
                .find(|r| r.metric == metric)
                .map(|r| r.verdict.clone())
        };
        assert_eq!(
            verdict("compiled_evals_per_sec"),
            Some(Verdict::Regressed),
            "throughput halved"
        );
        assert_eq!(
            verdict("scoring_wall_us"),
            Some(Verdict::Regressed),
            "wall time doubled"
        );
        assert!(cmp.has_regressions());
    }

    #[test]
    fn improvements_and_informational_changes_do_not_gate() {
        let base = snapshot(50_000, 1_000);
        let fast = json::parse(
            "{\"bench\":\"gp\",\"threads\":2,\"compiled_evals_per_sec\":90000,\
             \"scoring_wall_us\":500,\"compiled_speedup\":2.9,\"rows\":100}",
        )
        .expect("valid");
        let cmp = compare(&base, &fast, 0.15);
        assert!(!cmp.has_regressions());
        assert!(cmp
            .rows
            .iter()
            .any(|r| r.verdict == Verdict::Improved && r.metric == "compiled_evals_per_sec"));
        assert!(cmp.rows.iter().any(|r| r.verdict == Verdict::NewInCurrent));
    }

    #[test]
    fn config_changes_are_flagged_but_not_gated() {
        let base = snapshot(50_000, 1_000);
        let other = json::parse(
            "{\"bench\":\"gp_v2\",\"threads\":2,\"compiled_evals_per_sec\":50000,\
             \"scoring_wall_us\":1000,\"compiled_speedup\":2.9}",
        )
        .expect("valid");
        let cmp = compare(&base, &other, 0.15);
        assert!(!cmp.has_regressions());
        assert!(cmp.rows.iter().any(|r| r.verdict == Verdict::ConfigChanged));
    }

    #[test]
    fn threshold_parsing_accepts_percent_and_ratio() {
        assert_eq!(parse_threshold("15%"), Some(0.15));
        assert_eq!(parse_threshold("15"), Some(0.15));
        assert_eq!(parse_threshold("0.15"), Some(0.15));
        assert_eq!(parse_threshold(" 50% "), Some(0.5));
        assert_eq!(parse_threshold("-3"), None);
        assert_eq!(parse_threshold("abc"), None);
    }

    #[test]
    fn just_inside_tolerance_passes() {
        let base = snapshot(100_000, 1_000);
        let near = snapshot(86_000, 1_140);
        let cmp = compare(&base, &near, 0.15);
        assert!(!cmp.has_regressions(), "{}", render(&cmp));
    }

    #[test]
    fn renders_a_readable_table() {
        let base = snapshot(50_000, 1_000);
        let slow = snapshot(20_000, 3_000);
        let text = render(&compare(&base, &slow, 0.15));
        assert!(text.contains("REGRESSED"));
        assert!(text.contains("compiled_evals_per_sec"));
        assert!(text.contains("verdict: 2 metric(s) regressed"));
    }
}
