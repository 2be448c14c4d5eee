//! Metric names and units, summary statistics, process readings, and
//! the result line a run ends with.

use crate::check::Tally;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`. Names and units are
/// the ones `BENCHMARK.json` declares (a self-test keeps them equal).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("analysis_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("ok_share", "ratio"),
    ("formula_precision", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`. Times and counts are
/// per analysis unless the name says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("inference.ms", "ms"),
    ("inference.share", "ratio"),
    ("gp.fits", "count"),
    ("gp.fit_p50_ms", "ms"),
    ("gp.fit_p90_ms", "ms"),
    ("gp.generations", "count"),
    ("gp.evaluations", "count"),
    ("gp.dedup_hit_ratio", "ratio"),
    ("gp.cache_hit_ratio", "ratio"),
    ("gp.score_share", "ratio"),
    ("par.cpu_util", "ratio"),
    ("par.pool_utilization", "ratio"),
    ("par.imbalance", "ratio"),
    ("par.batch_flushes", "count"),
    ("par.batch_inline_drains", "count"),
    ("par.pool_spawns", "count"),
    ("par.pooled_calls", "count"),
    ("par.fleet_efficiency", "ratio"),
    ("par.threads", "count"),
    ("host_cores", "count"),
    ("capture.decode_ms", "ms"),
    ("capture.records", "count"),
    ("transport.ms", "ms"),
    ("transport.reassembled", "count"),
    ("transport.rejects", "count"),
    ("ocr.ms", "ms"),
    ("ocr.kept_ratio", "ratio"),
    ("association.ms", "ms"),
    ("association.accept_ratio", "ratio"),
    ("pipeline.untraced_ms", "ms"),
    ("ecr.ms", "ms"),
    ("result.json_ms", "ms"),
    ("result.bytes", "bytes"),
    ("serve.submit_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.run_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.generator_lag_ms", "ms"),
    ("alloc.mb_per_analysis", "MB"),
    ("alloc.count_per_analysis", "count"),
    ("trace.overhead_share", "ratio"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run produced: its tally, its metric values, and the
/// human-readable lines printed before the result line.
#[derive(Debug, Default)]
pub struct Report {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Whether every check passed (no failed operation, deterministic set-up).
    pub correct: bool,
    /// Every declared metric of the run's kind.
    pub values: Values,
    /// Tables and notes for a human reader.
    pub lines: Vec<String>,
}

/// The run's last line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric in `declared`, each with its unit. Values
/// keep all their digits; a non-finite value is written as 0.
///
/// # Panics
///
/// Panics when `values` misses a declared metric or holds an
/// undeclared one: the benchmark would print a metric set other than
/// the one it declares.
pub fn result_line(report: &Report, declared: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            let value = *report
                .values
                .get(*name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            // `+ 0.0` turns an empty float sum's -0 into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    assert_eq!(
        report.values.len(),
        declared.len(),
        "measured metrics that are not declared: {:?}",
        report.values.keys().collect::<Vec<_>>()
    );
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.tally.attempted,
        report.tally.failed(),
        metrics.join(", ")
    )
}

/// Linearly interpolated quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Harrell–Davis estimate of quantile `q` of `values` (0 when empty): a
/// mean of every order statistic, weighted by how much of the
/// Beta(q(n+1), (1-q)(n+1)) distribution falls in its rank's cell.
///
/// Job latencies of a fixed set of cars fall in one cluster per car,
/// with gaps between the clusters. An interpolated order statistic then
/// reads the edge of one or two clusters and jumps with every job that
/// lands on the other side of a gap; this estimate averages the ranks
/// around `q` and moves smoothly instead.
pub fn smooth_quantile(values: &[f64], q: f64) -> f64 {
    /// Midpoint-rule steps per rank cell.
    const STEPS: usize = 32;
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if q <= 0.0 || q >= 1.0 {
        return if q <= 0.0 {
            sorted[0]
        } else {
            sorted[sorted.len() - 1]
        };
    }
    let n = sorted.len();
    let (a, b) = (q * (n + 1) as f64, (1.0 - q) * (n + 1) as f64);
    let steps = n * STEPS;
    // Beta log-density up to its normalizing constant, at the midpoint
    // of each step; shifted by its maximum before `exp` so that large
    // samples do not underflow.
    let log_density: Vec<f64> = (0..steps)
        .map(|i| {
            let t = (i as f64 + 0.5) / steps as f64;
            (a - 1.0) * t.ln() + (b - 1.0) * (1.0 - t).ln()
        })
        .collect();
    let peak = log_density
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let (mut weighted, mut total) = (0.0, 0.0);
    for (rank, cell) in log_density.chunks(STEPS).enumerate() {
        let weight: f64 = cell.iter().map(|l| (l - peak).exp()).sum();
        weighted += weight * sorted[rank];
        total += weight;
    }
    weighted / total
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used, from
/// `/proc/self/stat` (clock ticks of 1/100 s); 0 where unavailable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// The core count the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
