//! Declarative service-level objectives over the sampled series,
//! evaluated as multi-window burn rates.
//!
//! Each objective defines, per sampler tick, a *bad* count and a
//! *total* count (requests that failed vs all requests; observations
//! over the latency limit vs all observations; saturated ticks vs all
//! ticks). The burn rate over a window is the bad fraction divided by
//! the error budget — burn 1.0 means the service is spending its budget
//! exactly as fast as the objective allows, burn 10 means ten times
//! faster. Following the multi-window pattern, a *short* window catches
//! incidents quickly while a *long* window keeps one noisy tick from
//! paging:
//!
//! * `burning` — short-window burn ≥ [`SloSpec::page_burn`] **and**
//!   long-window burn ≥ [`SloSpec::warn_burn`]: a sustained, fast burn.
//! * `warn` — either window ≥ [`SloSpec::warn_burn`]: budget is being
//!   spent faster than allowed, not yet catastrophically.
//! * `ok` — otherwise. Windows with no traffic burn nothing.

use dpr_telemetry::Ring;
use serde::{Deserialize, Serialize};

/// What an objective measures each sampler tick.
#[derive(Debug, Clone, PartialEq)]
pub enum Objective {
    /// Share of HTTP responses that are 5xx or 429, summed across every
    /// `http.<route>.status.<code>` counter delta.
    HttpErrorRatio,
    /// Share of the named histogram's window observations whose bucket
    /// lies entirely at or above `limit_us`.
    LatencyAbove {
        /// The histogram to watch (e.g. `http.jobs.latency_us`).
        histogram: String,
        /// Observations at or above this are bad, microseconds.
        limit_us: f64,
    },
    /// Share of ticks where the named gauge is at or above `limit`
    /// (e.g. queue depth at capacity — saturation).
    GaugeAtLeast {
        /// The gauge to watch (e.g. `jobs.queue_depth`).
        gauge: String,
        /// Gauge values at or above this count the tick as bad.
        limit: i64,
    },
}

/// One declarative objective: what to measure, how much failure the
/// budget allows, and the two burn-rate windows that grade it.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Dot-free identifier (`http_errors`); names the `slo.<slug>.state`
    /// gauge and the `/healthz` entry.
    pub slug: String,
    /// What bad/total mean for this objective.
    pub objective: Objective,
    /// Allowed bad fraction (the error budget), e.g. `0.01` for 99%.
    pub budget: f64,
    /// Ticks in the short (fast-detection) window.
    pub short_samples: usize,
    /// Ticks in the long (confirmation) window.
    pub long_samples: usize,
    /// Burn rate at which either window raises `warn`.
    pub warn_burn: f64,
    /// Short-window burn rate that (with a warm long window) means
    /// `burning`.
    pub page_burn: f64,
}

impl SloSpec {
    /// A spec with the default windows (6 short / 36 long ticks) and
    /// thresholds (warn at 2× budget spend, page at 10×).
    pub fn new(slug: &str, objective: Objective, budget: f64) -> SloSpec {
        SloSpec {
            slug: slug.to_string(),
            objective,
            budget: budget.clamp(1e-6, 1.0),
            short_samples: 6,
            long_samples: 36,
            warn_burn: 2.0,
            page_burn: 10.0,
        }
    }
}

/// One objective's current grade, as serialized into `/healthz`,
/// `/debug/snapshot`, and `/metrics/history`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloStatus {
    /// The spec's slug.
    pub slug: String,
    /// `ok`, `warn`, or `burning`.
    pub state: String,
    /// Burn rate over the short window (bad fraction / budget).
    pub short_burn: f64,
    /// Burn rate over the long window.
    pub long_burn: f64,
    /// The error budget the burn rates are relative to.
    pub budget: f64,
    /// Human summary: bad/total over the long window.
    pub detail: String,
}

impl SloStatus {
    /// The state as a gauge value: ok 0, warn 1, burning 2.
    pub fn state_code(&self) -> i64 {
        match self.state.as_str() {
            "burning" => 2,
            "warn" => 1,
            _ => 0,
        }
    }
}

/// A spec plus its per-tick (bad, total) window.
#[derive(Debug, Clone)]
pub(crate) struct SloTrack {
    pub(crate) spec: SloSpec,
    window: Ring<(f64, f64)>,
}

impl SloTrack {
    pub(crate) fn new(spec: SloSpec) -> SloTrack {
        let depth = spec.long_samples.max(spec.short_samples).max(1);
        SloTrack {
            spec,
            window: Ring::new(depth),
        }
    }

    /// Records one tick's measurement.
    pub(crate) fn record(&mut self, bad: f64, total: f64) {
        self.window.push((bad.max(0.0), total.max(0.0)));
    }

    fn burn_over(&self, ticks: usize) -> (f64, f64, f64) {
        let (mut bad, mut total) = (0.0, 0.0);
        for (b, t) in self.window.tail(ticks) {
            bad += b;
            total += t;
        }
        if total <= 0.0 {
            (0.0, bad, total)
        } else {
            ((bad / total) / self.spec.budget, bad, total)
        }
    }

    /// Grades the current windows.
    pub(crate) fn status(&self) -> SloStatus {
        let (short_burn, _, _) = self.burn_over(self.spec.short_samples);
        let (long_burn, bad, total) = self.burn_over(self.spec.long_samples);
        let state = if short_burn >= self.spec.page_burn && long_burn >= self.spec.warn_burn {
            "burning"
        } else if short_burn >= self.spec.warn_burn || long_burn >= self.spec.warn_burn {
            "warn"
        } else {
            "ok"
        };
        SloStatus {
            slug: self.spec.slug.clone(),
            state: state.to_string(),
            short_burn,
            long_burn,
            budget: self.spec.budget,
            detail: format!(
                "{bad:.0}/{total:.0} bad over the last {} tick(s)",
                self.window.len().min(self.spec.long_samples)
            ),
        }
    }
}

/// The analysis service's objectives:
///
/// * `http_errors` — 5xx/429 share of all HTTP responses; budget 1%.
/// * `jobs_latency` — share of `POST /jobs` requests slower than 250 ms,
///   measured server-side from `http.jobs.latency_us`; budget 5%.
/// * `queue_saturation` — share of ticks with `jobs.queue_depth` at the
///   queue capacity; budget 10%.
pub fn service_slos(queue_capacity: usize) -> Vec<SloSpec> {
    vec![
        SloSpec::new("http_errors", Objective::HttpErrorRatio, 0.01),
        SloSpec::new(
            "jobs_latency",
            Objective::LatencyAbove {
                histogram: "http.jobs.latency_us".to_string(),
                limit_us: 250_000.0,
            },
            0.05,
        ),
        SloSpec::new(
            "queue_saturation",
            Objective::GaugeAtLeast {
                gauge: "jobs.queue_depth".to_string(),
                limit: queue_capacity.max(1) as i64,
            },
            0.10,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SloSpec {
        SloSpec::new("t", Objective::HttpErrorRatio, 0.01)
    }

    #[test]
    fn no_traffic_burns_nothing() {
        let mut track = SloTrack::new(spec());
        for _ in 0..10 {
            track.record(0.0, 0.0);
        }
        let status = track.status();
        assert_eq!(status.state, "ok");
        assert_eq!(status.short_burn, 0.0);
        assert_eq!(status.long_burn, 0.0);
    }

    #[test]
    fn sustained_errors_burn_then_recover() {
        let mut track = SloTrack::new(spec());
        // Healthy traffic first.
        for _ in 0..36 {
            track.record(0.0, 100.0);
        }
        assert_eq!(track.status().state, "ok");
        // A full-failure burst: short window saturates fast; budget 1%
        // means burn 100 in the burst ticks.
        for _ in 0..6 {
            track.record(100.0, 100.0);
        }
        let status = track.status();
        assert_eq!(status.state, "burning", "{status:?}");
        assert!(status.short_burn > 50.0, "{status:?}");
        assert_eq!(status.state_code(), 2);
        // Recovery: healthy ticks push the burst out of the short
        // window; the long window still warns until it ages out.
        for _ in 0..6 {
            track.record(0.0, 100.0);
        }
        let status = track.status();
        assert_ne!(status.state, "burning", "{status:?}");
        for _ in 0..36 {
            track.record(0.0, 100.0);
        }
        assert_eq!(track.status().state, "ok");
    }

    #[test]
    fn warn_needs_only_one_window() {
        let mut track = SloTrack::new(spec());
        for _ in 0..36 {
            track.record(0.0, 100.0);
        }
        // 3% bad in the short window: burn 3 ≥ warn 2, < page 10.
        for _ in 0..6 {
            track.record(3.0, 100.0);
        }
        let status = track.status();
        assert_eq!(status.state, "warn", "{status:?}");
    }

    #[test]
    fn service_slos_cover_the_three_objectives() {
        let slos = service_slos(8);
        let slugs: Vec<&str> = slos.iter().map(|s| s.slug.as_str()).collect();
        assert_eq!(slugs, ["http_errors", "jobs_latency", "queue_saturation"]);
        assert!(slos.iter().all(|s| s.budget > 0.0 && s.budget <= 1.0));
    }
}
