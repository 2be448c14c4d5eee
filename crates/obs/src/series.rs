//! Metrics history and SLO burn-rate health.
//!
//! The telemetry [`Registry`](dpr_telemetry::Registry) answers "what is
//! the total so far"; this module answers "what happened in the last few
//! minutes". A [`Sampler`] thread snapshots the registry on a fixed
//! interval and diffs consecutive snapshots into bounded
//! [`Ring`](dpr_telemetry::Ring) time series:
//!
//! * counters → windowed **rates** ([`RatePoint`]),
//! * gauges → **last-value** series ([`GaugePoint`]),
//! * histograms → **sliding-window p50/p95/p99**, computed from the
//!   bucket-count delta between two snapshots ([`WindowPoint`]).
//!
//! On top of the series sits the SLO engine: declarative objectives
//! ([`SloSpec`]) graded each tick as multi-window burn rates
//! ([`SloStatus`] — `ok`/`warn`/`burning`). The [`ObsRouter`](crate::ObsRouter)
//! serves the whole store as `GET /metrics/history`;
//! `dpr-serve` starts a sampler per service and folds the SLO grades
//! into `/healthz` and `/debug/snapshot`; `dpr-bench top` renders it all
//! as a terminal dashboard.
//!
//! The tick interval comes from `DPR_SERIES_INTERVAL_MS`
//! ([`SeriesConfig::from_env`]); retention ([`SERIES_CAPACITY`]) and the
//! service objectives' budgets ([`service_slos`]) are constants. Memory
//! is bounded independent of uptime, and sampling is observation-only —
//! pipeline output is byte-identical with the sampler on or off.

pub use crate::sampler::Sampler;
pub use crate::slo::{service_slos, Objective, SloSpec, SloStatus};
pub use crate::store::{
    GaugePoint, History, RatePoint, SeriesConfig, SeriesStore, WindowPoint, SERIES_CAPACITY,
    SERIES_INTERVAL_ENV,
};
