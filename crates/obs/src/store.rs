//! The series store: ring-buffered windowed views of a metrics
//! registry, derived by diffing consecutive [`MetricsSnapshot`]s.
//!
//! * Counters become **rate series**: the delta between two snapshots
//!   divided by the tick's wall time ([`RatePoint`]).
//! * Gauges become **last-value series** ([`GaugePoint`]).
//! * Histograms become **sliding-window quantile series**: the bucket
//!   counts of the previous snapshot are subtracted from the current
//!   one ([`HistogramSnapshot::delta_since`]) and p50/p95/p99 are
//!   estimated over only the observations that landed in the window
//!   ([`WindowPoint`]).
//!
//! Memory is bounded independent of uptime: every series is a
//! fixed-capacity [`Ring`], and the number of series is bounded by the
//! metrics taxonomy (a fixed set of names — routes, status codes,
//! pipeline stages — not per-request data).

use dpr_telemetry::Ring;
use crate::slo::{Objective, SloSpec, SloStatus, SloTrack};
use dpr_telemetry::{HistogramSnapshot, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

/// Environment variable: sampler tick interval in milliseconds
/// (default 1000, floored to 10).
pub const SERIES_INTERVAL_ENV: &str = "DPR_SERIES_INTERVAL_MS";
/// Points retained per series: two minutes of history at the default
/// 1 s interval.
pub const SERIES_CAPACITY: usize = 120;

/// Sampler tuning: how often to snapshot and how much to retain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesConfig {
    /// Time between sampler ticks.
    pub interval: Duration,
    /// Points retained per series ([`SERIES_CAPACITY`] by default).
    pub capacity: usize,
}

impl Default for SeriesConfig {
    fn default() -> SeriesConfig {
        SeriesConfig {
            interval: Duration::from_millis(1000),
            capacity: SERIES_CAPACITY,
        }
    }
}

impl SeriesConfig {
    /// The default config with the interval read from
    /// `DPR_SERIES_INTERVAL_MS` (floored to 10 ms), falling back to
    /// 1000 ms for unset or unparsable values.
    pub fn from_env() -> SeriesConfig {
        let defaults = SeriesConfig::default();
        let interval_ms: u64 = std::env::var(SERIES_INTERVAL_ENV)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(defaults.interval.as_millis() as u64);
        SeriesConfig {
            interval: Duration::from_millis(interval_ms.max(10)),
            ..defaults
        }
    }
}

/// One counter tick: how much the counter grew and the growth per
/// second over the tick's wall time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatePoint {
    /// Milliseconds since the sampler started.
    pub t_ms: u64,
    /// Counter increase within this tick.
    pub delta: u64,
    /// `delta` per second of tick wall time.
    pub rate: f64,
}

/// One gauge tick: the value at sample time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugePoint {
    /// Milliseconds since the sampler started.
    pub t_ms: u64,
    /// The gauge's value when the snapshot was taken.
    pub value: i64,
}

/// One histogram tick: the window's observation count and estimated
/// percentiles. An empty window (zero observations) reports 0.0 for
/// every quantile, matching [`HistogramSnapshot::quantile`] on empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowPoint {
    /// Milliseconds since the sampler started.
    pub t_ms: u64,
    /// Observations recorded within this tick.
    pub count: u64,
    /// Estimated median over the window.
    pub p50: f64,
    /// Estimated 95th percentile over the window.
    pub p95: f64,
    /// Estimated 99th percentile over the window.
    pub p99: f64,
}

/// The full history document `GET /metrics/history` serves. The JSON
/// grammar is pinned by CI: top-level keys `interval_ms`, `capacity`,
/// `samples`, `counters`, `gauges`, `histograms`, `slos`; each series
/// is a name → array-of-points map, oldest point first.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct History {
    /// The configured tick interval, milliseconds.
    pub interval_ms: u64,
    /// Points retained per series.
    pub capacity: u64,
    /// Ticks recorded since the sampler started.
    pub samples: u64,
    /// Counter rate series by metric name.
    pub counters: BTreeMap<String, Vec<RatePoint>>,
    /// Gauge last-value series by metric name.
    pub gauges: BTreeMap<String, Vec<GaugePoint>>,
    /// Histogram window-quantile series by metric name.
    pub histograms: BTreeMap<String, Vec<WindowPoint>>,
    /// Current SLO grades, one per configured objective.
    pub slos: Vec<SloStatus>,
}

/// The ring-buffered series plus the SLO tracks, fed one snapshot per
/// tick. Deterministic and clock-free: the caller supplies both the
/// snapshot and the elapsed wall time, so tests drive it directly.
#[derive(Debug)]
pub struct SeriesStore {
    config: SeriesConfig,
    last: MetricsSnapshot,
    t_ms: u64,
    samples: u64,
    counters: BTreeMap<String, Ring<RatePoint>>,
    gauges: BTreeMap<String, Ring<GaugePoint>>,
    histograms: BTreeMap<String, Ring<WindowPoint>>,
    slos: Vec<SloTrack>,
}

impl SeriesStore {
    /// An empty store with the given retention and objectives.
    pub fn new(config: SeriesConfig, slos: Vec<SloSpec>) -> SeriesStore {
        SeriesStore {
            config,
            last: MetricsSnapshot::default(),
            t_ms: 0,
            samples: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            slos: slos.into_iter().map(SloTrack::new).collect(),
        }
    }

    /// The configured interval/retention.
    pub fn config(&self) -> &SeriesConfig {
        &self.config
    }

    /// Ticks recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Distinct series currently tracked, across all three kinds.
    pub fn tracked(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Records one tick: derives windowed points from the difference
    /// between `snapshot` and the previous tick's snapshot, then
    /// re-grades every SLO. `elapsed` is the tick's wall time (floored
    /// to 1 ms so a forced back-to-back tick cannot divide by zero).
    pub fn tick(&mut self, snapshot: &MetricsSnapshot, elapsed: Duration) {
        let elapsed = elapsed.max(Duration::from_millis(1));
        let secs = elapsed.as_secs_f64();
        self.t_ms += elapsed.as_millis() as u64;
        let t_ms = self.t_ms;
        let capacity = self.config.capacity;

        // Counters: a zero-delta tick still yields a point for every
        // already-tracked series (rate 0), so gaps read as silence, not
        // missing data. New counters start being tracked on their first
        // nonzero delta.
        let deltas = snapshot.counter_deltas_since(&self.last);
        for (name, ring) in &mut self.counters {
            if !deltas.contains_key(name) {
                ring.push(RatePoint {
                    t_ms,
                    delta: 0,
                    rate: 0.0,
                });
            }
        }
        for (name, delta) in &deltas {
            self.counters
                .entry(name.clone())
                .or_insert_with(|| Ring::new(capacity))
                .push(RatePoint {
                    t_ms,
                    delta: *delta,
                    rate: *delta as f64 / secs,
                });
        }

        // Gauges: last value, tracked from first appearance.
        for (name, value) in &snapshot.gauges {
            self.gauges
                .entry(name.clone())
                .or_insert_with(|| Ring::new(capacity))
                .push(GaugePoint {
                    t_ms,
                    value: *value,
                });
        }

        // Histograms: bucket-delta windows. Tracking starts with the
        // first window that actually observed something; from then on
        // every tick gets a point, including empty windows.
        for (name, hist) in &snapshot.histograms {
            let delta = window_delta(hist, self.last.histograms.get(name));
            if delta.count == 0 && !self.histograms.contains_key(name) {
                continue;
            }
            self.histograms
                .entry(name.clone())
                .or_insert_with(|| Ring::new(capacity))
                .push(WindowPoint {
                    t_ms,
                    count: delta.count,
                    p50: delta.quantile(0.50),
                    p95: delta.quantile(0.95),
                    p99: delta.quantile(0.99),
                });
        }

        // SLOs measure the same window the series did.
        for track in &mut self.slos {
            let (bad, total) = measure(&track.spec.objective, snapshot, &self.last, &deltas);
            track.record(bad, total);
        }

        self.samples += 1;
        self.last = snapshot.clone();
    }

    /// Current grades, one per objective, in spec order.
    pub fn statuses(&self) -> Vec<SloStatus> {
        self.slos.iter().map(SloTrack::status).collect()
    }

    /// Freezes everything into the serializable history document.
    pub fn history(&self) -> History {
        History {
            interval_ms: self.config.interval.as_millis() as u64,
            capacity: self.config.capacity as u64,
            samples: self.samples,
            counters: self
                .counters
                .iter()
                .map(|(name, ring)| (name.clone(), ring.iter().cloned().collect()))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .map(|(name, ring)| (name.clone(), ring.iter().cloned().collect()))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, ring)| (name.clone(), ring.iter().cloned().collect()))
                .collect(),
            slos: self.statuses(),
        }
    }
}

/// The histogram's window since the previous snapshot (whole state when
/// the histogram is new).
fn window_delta(now: &HistogramSnapshot, before: Option<&HistogramSnapshot>) -> HistogramSnapshot {
    match before {
        Some(before) => now.delta_since(before),
        None => now.clone(),
    }
}

/// One tick's (bad, total) for an objective.
fn measure(
    objective: &Objective,
    snapshot: &MetricsSnapshot,
    last: &MetricsSnapshot,
    counter_deltas: &BTreeMap<String, u64>,
) -> (f64, f64) {
    match objective {
        Objective::HttpErrorRatio => {
            let (mut bad, mut total) = (0u64, 0u64);
            for (name, delta) in counter_deltas {
                let Some(code) = status_code(name) else {
                    continue;
                };
                total += delta;
                if code >= 500 || code == 429 {
                    bad += delta;
                }
            }
            (bad as f64, total as f64)
        }
        Objective::LatencyAbove { histogram, limit_us } => {
            let Some(now) = snapshot.histograms.get(histogram) else {
                return (0.0, 0.0);
            };
            let delta = window_delta(now, last.histograms.get(histogram));
            let mut bad = 0u64;
            for (idx, count) in delta.counts.iter().enumerate() {
                // Bucket idx covers (lower, bounds[idx]]; the overflow
                // bucket's lower bound is the last finite bound.
                let lower = match idx.checked_sub(1) {
                    Some(prev) => delta.bounds.get(prev).copied().unwrap_or(f64::MAX),
                    None => 0.0,
                };
                if lower >= *limit_us {
                    bad += count;
                }
            }
            (bad as f64, delta.count as f64)
        }
        Objective::GaugeAtLeast { gauge, limit } => {
            let value = snapshot.gauges.get(gauge).copied().unwrap_or(0);
            ((value >= *limit) as u64 as f64, 1.0)
        }
    }
}

/// Parses `http.<route>.status.<code>` names; `None` for everything
/// else.
fn status_code(name: &str) -> Option<u32> {
    let rest = name.strip_prefix("http.")?;
    let (_route, code) = rest.split_once(".status.")?;
    code.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_code_parses_only_status_counters() {
        assert_eq!(status_code("http.jobs.status.202"), Some(202));
        assert_eq!(status_code("http.jobs.status.429"), Some(429));
        assert_eq!(status_code("http.jobs.requests"), None);
        assert_eq!(status_code("serve.http_503"), None);
    }
}
