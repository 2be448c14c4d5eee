//! `dpr-serve` — a concurrent, backpressured HTTP analysis service.
//!
//! The crate turns the DP-Reverser pipeline into a long-running job
//! service, std-only like everything else in the workspace:
//!
//! * `POST /jobs` accepts either a `.dprcap` capture body (streamed
//!   through the corruption-tolerant
//!   [`CaptureReader`](dpr_capture::CaptureReader), never buffered
//!   unboundedly) or a tiny `{"car":"M"}` JSON form naming a simulated
//!   car profile, and answers `202 Accepted` with a job id once the job
//!   is on the queue.
//! * The queue is a **bounded FIFO** drained by a **fixed pool** of
//!   analysis workers. When it is full the service answers
//!   `429 Too Many Requests` with a `Retry-After` header *before
//!   reading the request body* — backpressure is explicit and cheap,
//!   not an out-of-memory event. Queue depth is exported as the
//!   `jobs.queue_depth` gauge.
//! * `GET /jobs/<id>` reports `queued` / `running` / `done` / `failed`
//!   with per-stage progress (the job's `stage complete` log records,
//!   followed live by its [`JobTap`]). `GET /jobs/<id>/result` serves
//!   the canonical result
//!   JSON — byte-identical to what a direct
//!   `DpReverser::analyze_capture` call would produce.
//! * Completed runs publish their trace and evidence ledger as one
//!   record into the shared [`RunStore`](dpr_obs::RunStore), so the
//!   existing `/runs`, `/trace` and `/evidence/<sensor>` observability
//!   routes work on service results unchanged, alongside `/metrics` and
//!   `/healthz`.
//!
//! The HTTP substrate (bounded request parsing, slot-map session table
//! with idle timeouts, handler pool) lives in [`dpr_obs`]; this crate
//! adds the job model on top. The service itself stays decoupled from
//! *how* analyses run through the [`Analyzer`] trait — the `dpr-bench`
//! binary plugs in the real pipeline, tests plug in stubs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jobs;
pub mod router;
mod worker;

pub use jobs::{
    EventHub, EventWait, JobEvent, JobInput, JobStatus, JobStore, JobTap, ResultLookup, StageLine,
    SubmitError, Subscriber, WorkerHealth, WorkerReport, EVENT_HISTORY, JOBS_KEPT,
    SUBSCRIBER_QUEUE,
};
pub use router::{ServiceHealth, ServiceRouter, SubmitResponse, SERVE_ROUTES};

use dpr_obs::{shared_runs, HttpServer, ObsRouter, ServerConfig, SharedRuns};
use dpr_telemetry::Registry;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;

/// How a service turns a submitted job into a recovered protocol.
///
/// Implementations must be cheap to share across worker threads. Each
/// call runs with a fresh job-local [`Registry`] already scoped onto
/// the thread, so `analyze` implementations just run the pipeline —
/// spans and counters land in the right place automatically.
pub trait Analyzer: Send + Sync {
    /// Runs the full pipeline on one job input. `Err` marks the job
    /// failed with the given reason; panics are caught and treated the
    /// same way.
    fn analyze(&self, input: JobInput) -> Result<dp_reverser::ReverseEngineeringResult, String>;

    /// Whether `{"car":"<name>"}` names a profile this analyzer can
    /// collect and analyze. Unknown names are rejected with `400` at
    /// submit time instead of failing the job later.
    fn knows_car(&self, _name: &str) -> bool {
        true
    }
}

/// Tuning for an [`AnalysisService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The HTTP layer: handler pool width, session table, timeouts.
    pub server: ServerConfig,
    /// Fixed number of analysis worker threads draining the job queue.
    pub analysis_workers: usize,
    /// Bounded job-queue capacity; submissions beyond it get `429`.
    pub queue_capacity: usize,
    /// Largest request body accepted, in bytes; beyond it, `413`.
    pub max_body_bytes: u64,
    /// Finished jobs kept queryable before eviction (`jobs.evicted`).
    pub jobs_kept: usize,
    /// Always `None`: the service keeps no metrics history. The field
    /// stays only because `perfbench`'s self-test still writes
    /// `series: None`; both go together.
    pub series: Option<std::convert::Infallible>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            server: ServerConfig::default(),
            analysis_workers: 2,
            queue_capacity: 8,
            max_body_bytes: 64 * 1024 * 1024,
            jobs_kept: JOBS_KEPT,
            series: None,
        }
    }
}

/// The running service: an [`HttpServer`] fronting a bounded job queue
/// and a fixed analysis worker pool.
///
/// Shutdown ([`stop`](AnalysisService::stop), or drop) is a graceful
/// drain: the listener closes first, then queued jobs finish, then the
/// workers join.
pub struct AnalysisService {
    server: Option<HttpServer>,
    store: Arc<JobStore>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<Registry>,
    runs: SharedRuns,
    health: Arc<WorkerHealth>,
}

impl AnalysisService {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts the service:
    /// analysis workers first, then the HTTP listener, so the first
    /// accepted job already has someone to run it.
    pub fn start(
        addr: &str,
        config: ServiceConfig,
        analyzer: Arc<dyn Analyzer>,
    ) -> io::Result<AnalysisService> {
        let registry = Arc::new(Registry::new());
        let runs = shared_runs();
        let store = Arc::new(JobStore::new(
            config.queue_capacity,
            config.jobs_kept,
            Arc::clone(&registry),
        ));
        let health = Arc::new(WorkerHealth::default());
        let mut workers = Vec::new();
        for i in 0..config.analysis_workers.max(1) {
            let name = format!("dpr-serve-analyze-{i}");
            let slot = health.register(name.clone());
            let store = Arc::clone(&store);
            let analyzer = Arc::clone(&analyzer);
            let registry = Arc::clone(&registry);
            let runs = Arc::clone(&runs);
            let health = Arc::clone(&health);
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    worker::run_worker(slot, store, analyzer, registry, runs, health)
                })?;
            workers.push(handle);
        }
        let router = Arc::new(ServiceRouter::new(
            ObsRouter::new(Arc::clone(&registry), Arc::clone(&runs)),
            Arc::clone(&store),
            analyzer,
            Arc::clone(&health),
            config.max_body_bytes,
        ));
        let server = match HttpServer::start(addr, "dpr-serve", config.server, router, Arc::clone(&registry)) {
            Ok(server) => server,
            Err(e) => {
                // Bind failed: unwind the already-running workers
                // before reporting, so no threads leak.
                store.drain();
                for handle in workers {
                    let _ = handle.join();
                }
                return Err(e);
            }
        };
        Ok(AnalysisService {
            server: Some(server),
            store,
            workers,
            registry,
            runs,
            health,
        })
    }

    /// The bound listen address.
    pub fn addr(&self) -> SocketAddr {
        self.server
            .as_ref()
            .expect("a running service has a server")
            .addr()
    }

    /// The registry the `serve.*` / `jobs.*` metrics land in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The job store (queue + finished-job history).
    pub fn store(&self) -> &Arc<JobStore> {
        &self.store
    }

    /// The shared run store `/runs`, `/trace` and `/evidence/<sensor>`
    /// serve.
    pub fn runs(&self) -> &SharedRuns {
        &self.runs
    }

    /// The analysis workers' heartbeat board `/healthz` reports.
    pub fn health(&self) -> &Arc<WorkerHealth> {
        &self.health
    }

    /// Graceful drain: stop accepting, answer in-flight requests,
    /// finish every queued job, join the workers.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.stop();
        }
        self.store.drain();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for AnalysisService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for AnalysisService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisService")
            .field("addr", &self.server.as_ref().map(HttpServer::addr))
            .field("store", &self.store)
            .finish()
    }
}
