//! Consumption layer for `dpr-telemetry`: the exporters, profilers, and
//! gates that make the pipeline's spans and metrics usable *outside* the
//! process.
//!
//! Four pieces, layered strictly on top of the telemetry facade:
//!
//! * [`trace_event`] — a [`Sink`](dpr_telemetry::Sink) that turns closed
//!   spans into Chrome Trace Event Format JSON loadable in Perfetto or
//!   `chrome://tracing`, one row per thread (`dpr-par` workers appear as
//!   `gp-worker-N`) plus a `pool utilization %` counter track built from
//!   the `dpr_prof` profile store. Opt in with
//!   `DPR_TRACE_EVENTS=<path.json>`.
//! * [`flame`] — aggregates span records into inferno-compatible folded
//!   stack lines and a self-time/total-time text profile.
//! * [`server`] + [`prom`] — a std-only HTTP scrape endpoint
//!   (`std::net::TcpListener`, no external deps) serving `GET /metrics`
//!   in Prometheus text exposition format, `GET /trace` (the newest
//!   published run's [`PipelineTrace`](dpr_telemetry::PipelineTrace) as
//!   JSON, read from the same [`RunRecord`] as `/runs` and
//!   `/evidence/<sensor>`),
//!   `GET /profile` (the pool-profile snapshot), and `GET /healthz`
//!   (liveness JSON: version, uptime, runs published). Opt in with
//!   `DPR_METRICS_ADDR=127.0.0.1:0`.
//! * [`regress`] — compares two `BENCH_*.json` snapshots metric by
//!   metric and reports regressions beyond a tolerance, so CI can gate
//!   on the perf trajectory.
//!
//! [`ObsSession`] bundles the environment-driven pieces for a run: it
//! attaches the trace exporter to a registry, starts the metrics server,
//! and tears both down cleanly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flame;
pub mod http;
pub mod prom;
pub mod regress;
pub mod server;
pub mod table;
pub mod trace_event;

pub use flame::Profile;
pub use regress::{Comparison, Direction, Verdict};
pub use server::{
    route_slug, shared_runs, Conn, HealthStatus, HttpHandler, HttpServer,
    MetricsServer, ObsRouter, RunListing, RunRecord, RunStore, ServerConfig, SharedRuns,
    METRICS_ADDR_ENV, OBS_ROUTES, RUNS_KEPT,
};
pub use table::{SessionTable, SessionToken};
pub use trace_event::{TraceExport, TRACE_EVENTS_ENV};

use dpr_telemetry::{PipelineTrace, Registry};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Environment variable naming the JSON-lines evidence export file: when
/// set, every [`ObsSession::publish_run`] appends one JSON line per
/// recovered sensor's [`EvidenceChain`](dpr_evidence::EvidenceChain).
/// The file is truncated when the session starts.
pub const EVIDENCE_JSON_ENV: &str = "DPR_EVIDENCE_JSON";

/// The environment-driven observability hookup for one run: an optional
/// [`TraceExport`] sink (from `DPR_TRACE_EVENTS`) attached to the run's
/// registry, an optional [`MetricsServer`] (from `DPR_METRICS_ADDR`), and
/// the run store the server reads.
///
/// Construct it right after the run's [`Registry`], publish runs as
/// they complete, and call [`finish`](ObsSession::finish) when the run
/// ends — that writes the trace-event file and stops the server.
pub struct ObsSession {
    export: Option<Arc<TraceExport>>,
    server: Option<MetricsServer>,
    runs: SharedRuns,
    evidence_path: Option<PathBuf>,
}

impl ObsSession {
    /// Reads `DPR_TRACE_EVENTS`, `DPR_METRICS_ADDR`, and
    /// `DPR_EVIDENCE_JSON` and wires whatever is enabled onto `registry`.
    /// A server that fails to bind is reported to stderr and skipped
    /// rather than failing the run.
    pub fn from_env(registry: &Arc<Registry>) -> ObsSession {
        let export = TraceExport::from_env();
        if let Some(sink) = &export {
            registry.add_sink(Arc::clone(sink) as _);
        }
        let runs = shared_runs();
        let server = match MetricsServer::from_env(Arc::clone(registry), Arc::clone(&runs)) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("dpr-obs: metrics server disabled ({e})");
                None
            }
        };
        let evidence_path = match std::env::var(EVIDENCE_JSON_ENV) {
            Ok(path) if !path.trim().is_empty() => {
                let path = PathBuf::from(path.trim());
                // Truncate at session start so the file holds exactly
                // this session's runs.
                if let Err(e) = std::fs::write(&path, b"") {
                    eprintln!(
                        "dpr-obs: evidence export to {} disabled ({e})",
                        path.display()
                    );
                    None
                } else {
                    Some(path)
                }
            }
            _ => None,
        };
        ObsSession {
            export,
            server,
            runs,
            evidence_path,
        }
    }

    /// Publishes a completed pipeline run as one [`RunRecord`]: the run
    /// is listed at `GET /runs`, its trace is served at `GET /trace`
    /// until a newer run lands, each chain is served at `GET
    /// /evidence/<sensor>`, and — when `DPR_EVIDENCE_JSON` is set — the
    /// chains are appended to the JSON-lines export. Returns the run id.
    pub fn publish_run(
        &self,
        trace: &PipelineTrace,
        ledger: &dpr_evidence::EvidenceLedger,
    ) -> String {
        let at_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let id = self
            .runs
            .lock()
            .publish(at_ms, None, trace.clone(), ledger.clone());
        if let Some(path) = &self.evidence_path {
            if let Err(e) = append_chains(path, ledger) {
                eprintln!(
                    "dpr-obs: writing evidence to {} failed: {e}",
                    path.display()
                );
            }
        }
        id
    }

    /// The JSON-lines evidence export path, when enabled.
    pub fn evidence_path(&self) -> Option<&Path> {
        self.evidence_path.as_deref()
    }

    /// The bound scrape address, when the metrics server is running.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.server.as_ref().map(MetricsServer::addr)
    }

    /// The trace-event output path, when the exporter is enabled.
    pub fn trace_events_path(&self) -> Option<&Path> {
        self.export.as_deref().map(TraceExport::path)
    }

    /// Writes the trace-event file (if exporting) and stops the metrics
    /// server (if running). Export I/O errors go to stderr; a run should
    /// not fail because its observability tap did.
    pub fn finish(self) {
        if let Some(export) = &self.export {
            if let Err(e) = export.finish() {
                eprintln!(
                    "dpr-obs: writing trace events to {} failed: {e}",
                    export.path().display()
                );
            }
        }
        if let Some(server) = self.server {
            server.stop();
        }
    }
}

/// Appends one JSON line per chain of `ledger` to `path`.
fn append_chains(path: &Path, ledger: &dpr_evidence::EvidenceLedger) -> std::io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    for chain in &ledger.chains {
        let line = dpr_telemetry::json::to_string(chain)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        writeln!(file, "{line}")?;
    }
    file.flush()
}

impl std::fmt::Debug for ObsSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSession")
            .field("trace_events", &self.trace_events_path())
            .field("metrics_addr", &self.metrics_addr())
            .finish()
    }
}
