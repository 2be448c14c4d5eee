//! A std-only concurrent HTTP server core plus the metrics scrape
//! endpoint built on it: `std::net::TcpListener`, a fixed handler pool,
//! no external dependencies.
//!
//! Layering:
//!
//! * [`HttpServer`] — the generic machinery: an acceptor thread claims a
//!   [`SessionTable`](crate::table::SessionTable) slot per connection
//!   (503 when full), hands it to a bounded pool of handler threads
//!   (each with a reused head-scratch buffer), and a sweeper thread
//!   shuts down connections idle past their deadline. One slow or
//!   stalled client occupies one slot and one handler at most — it can
//!   no longer wedge every other caller, which is the regression the
//!   old single-threaded serve loop had.
//! * [`ObsRouter`] — the observability routes, usable standalone as the
//!   server's handler or delegated to from a larger router (`dpr-serve`
//!   mounts it behind its `/jobs` routes):
//!
//!   * `GET /metrics` — the registry's current snapshot in Prometheus
//!     text exposition format ([`crate::prom::render`]).
//!   * `GET /trace` — the newest published run's
//!     [`PipelineTrace`](dpr_telemetry::PipelineTrace) as JSON (404
//!     until a run is published).
//!   * `GET /runs` — the recent published runs (id, wall-clock publish
//!     time, recovered sensor slugs) as a JSON array, newest last.
//!   * `GET /evidence/<sensor>` — the named sensor's
//!     [`SensorEvidence`](dpr_evidence::SensorEvidence) (its chain with
//!     the candidates' names resolved) from the most recent run that
//!     recovered it, as JSON; 404s list known slugs.
//!   * `GET /profile` — the process-wide `dpr_prof` pool-profile
//!     snapshot as JSON.
//!   * `GET /healthz` — liveness as JSON: status, crate version, server
//!     uptime in seconds, and how many runs this process has published.
//! * [`MetricsServer`] — the two glued together with default
//!   [`ServerConfig`], preserving the original start/from_env/stop API.
//!
//! The server binds eagerly (so `127.0.0.1:0` callers can read the
//! ephemeral port from [`MetricsServer::addr`]). [`stop`]
//! (MetricsServer::stop) flips a flag, pokes the listener with a
//! loopback connection so a blocked `accept` wakes immediately, drains
//! already-accepted connections, and joins every thread.

use crate::http::{self, HeadError, RequestHead};
use crate::prom;
use crate::table::SessionTable;
use dpr_telemetry::json::{self, Value};
use dpr_telemetry::{PipelineTrace, Registry, Ring};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Environment variable holding the scrape bind address
/// (e.g. `127.0.0.1:9464`, or `127.0.0.1:0` for an ephemeral port).
pub const METRICS_ADDR_ENV: &str = "DPR_METRICS_ADDR";

/// One published pipeline run: what `GET /runs` lists, `GET /trace`
/// serves (the newest run's trace) and `GET /evidence/<sensor>` reads.
///
/// A record is shared, not copied: the run store and a service's job
/// table hold the same `Arc`, and its [`document`](Self::document) is
/// the one stored copy of the run's result and evidence.
///
/// The wall-clock timestamp lives only here, on the serving side — the
/// evidence ledger itself carries nothing but simulation time, so
/// attaching a publish time does not perturb live/replay identity.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Monotonic run id within this process (`run-1`, `run-2`, …).
    pub id: String,
    /// Publish wall-clock time, milliseconds since the UNIX epoch.
    pub at_ms: u64,
    /// The service job that produced this run (`job-000001`), `None`
    /// for runs published outside the job pipeline.
    pub job: Option<String>,
    /// Slugs of the sensors the run recovered.
    pub sensors: Vec<String>,
    /// The run's stage trace, its `job_id` stamped from [`job`](Self::job).
    pub trace: PipelineTrace,
    /// The run as one JSON object whose `evidence` member is its
    /// evidence ledger: a service job's canonical result, served as is
    /// by `GET /jobs/<id>/result`, or `{"evidence":…}` for a run
    /// published outside the job pipeline. Its length is what the
    /// [`RETAINED_BYTES`] ceiling counts.
    pub document: Arc<str>,
}

impl RunRecord {
    /// The evidence ledger, read back from [`document`](Self::document).
    pub fn ledger(&self) -> Result<dpr_evidence::EvidenceLedger, json::Error> {
        let missing = || serde::de::Error::custom("a run document is an object with `evidence`");
        let Value::Object(members) = json::parse(&self.document)? else {
            return Err(missing());
        };
        let (_, ledger) = members
            .into_iter()
            .find(|(name, _)| name == "evidence")
            .ok_or_else(missing)?;
        json::from_value(ledger)
    }
}

/// `{"evidence": <ledger>}`: the document of a run published without a
/// result around its ledger.
struct EvidenceDocument<'a>(&'a dpr_evidence::EvidenceLedger);

impl serde::Serialize for EvidenceDocument<'_> {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut document = serializer.serialize_struct("EvidenceDocument", 1)?;
        document.serialize_field("evidence", self.0)?;
        document.end()
    }
}

/// The [`RunRecord::document`] of a bare ledger: `{"evidence":…}`.
pub fn evidence_document(ledger: &dpr_evidence::EvidenceLedger) -> Arc<str> {
    json::to_string(&EvidenceDocument(ledger))
        .expect("a ledger always serializes")
        .into()
}

/// What `GET /runs` serializes per run: everything but the ledger.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunListing {
    /// Monotonic run id within this process.
    pub id: String,
    /// Publish wall-clock time, milliseconds since the UNIX epoch.
    pub at_ms: u64,
    /// The service job that produced this run, if any.
    pub job: Option<String>,
    /// Slugs of the sensors the run recovered.
    pub sensors: Vec<String>,
}

/// The recent published runs, oldest first. Retention is bounded twice,
/// so a long-running service cannot grow its run history without limit:
/// by count (default [`RUNS_KEPT`]) and by the bytes of the runs'
/// documents ([`RETAINED_BYTES`]). Every eviction bumps the
/// `runs.evicted` counter on the calling thread's telemetry registry.
#[derive(Debug)]
pub struct RunStore {
    runs: Ring<Arc<RunRecord>>,
    bytes: usize,
    next_id: u64,
}

/// How many published runs `GET /runs` retains by default.
pub const RUNS_KEPT: usize = 32;

/// The most document bytes a retention history holds: the run store's
/// runs, and separately a service's finished jobs. Oldest entries are
/// evicted beyond it, so a few hostile captures with huge results
/// cannot pin memory. Tab. 3 results stay far below it: 64 of the
/// largest (Car K at a 10 s dwell) come to about 46 MB.
pub const RETAINED_BYTES: usize = 64 << 20;

impl Default for RunStore {
    fn default() -> Self {
        RunStore::with_capacity(RUNS_KEPT)
    }
}

impl RunStore {
    /// A store retaining at most `capacity` runs (floored to 1).
    pub fn with_capacity(capacity: usize) -> RunStore {
        RunStore {
            runs: Ring::new(capacity),
            bytes: 0,
            next_id: 0,
        }
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.runs.capacity()
    }

    /// Appends a run, assigns its id, and evicts the oldest runs beyond
    /// the count and byte bounds. `job` names the originating service
    /// job, so `GET /runs` and the trace's `job_id` correlate the run
    /// back to `job-N`. `ledger` is the evidence `document` carries; it
    /// names the run's sensors. Returns the shared record.
    pub fn publish(
        &mut self,
        at_ms: u64,
        job: Option<String>,
        mut trace: PipelineTrace,
        ledger: &dpr_evidence::EvidenceLedger,
        document: Arc<str>,
    ) -> Arc<RunRecord> {
        self.next_id += 1;
        trace.job_id = job.clone();
        let record = Arc::new(RunRecord {
            id: format!("run-{}", self.next_id),
            at_ms,
            job,
            sensors: ledger.chains.iter().map(|c| c.slug.clone()).collect(),
            trace,
            document,
        });
        if let Some(old) = self.runs.push(Arc::clone(&record)) {
            self.forget(&old);
        }
        self.bytes += record.document.len();
        while self.bytes > RETAINED_BYTES {
            match self.runs.evict_oldest() {
                Some(old) => self.forget(&old),
                None => break,
            }
        }
        record
    }

    /// Accounts for an evicted run.
    fn forget(&mut self, old: &RunRecord) {
        self.bytes -= old.document.len();
        dpr_telemetry::counter("runs.evicted").inc(1);
    }

    /// The retained runs, oldest first.
    pub fn runs(&self) -> impl Iterator<Item = &Arc<RunRecord>> {
        self.runs.iter()
    }

    /// The newest retained run.
    pub fn latest(&self) -> Option<&Arc<RunRecord>> {
        self.runs.last()
    }

    /// How many runs are currently retained.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether no runs are retained.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Document bytes currently retained (at most [`RETAINED_BYTES`]).
    pub fn retained_bytes(&self) -> usize {
        self.bytes
    }

    /// Total runs ever published through this store (eviction does not
    /// decrease it). This is what `/healthz` reports as `runs_published`.
    pub fn published(&self) -> u64 {
        self.next_id
    }

    /// How many runs the count and byte bounds have evicted so far.
    pub fn evicted(&self) -> u64 {
        self.runs.dropped()
    }

    /// The most recent run that recovered the sensor `slug`.
    pub fn run_with(&self, slug: &str) -> Option<&Arc<RunRecord>> {
        self.runs
            .iter()
            .rev()
            .find(|r| r.sensors.iter().any(|s| s == slug))
    }

    /// Every sensor slug any retained run recovered, deduplicated.
    pub fn known_sensors(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .runs
            .iter()
            .flat_map(|r| r.sensors.iter().cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}

/// What `GET /healthz` serializes: liveness plus enough identity to
/// tell *which* process and how long it has been up.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthStatus {
    /// Always `"ok"` while the server is answering.
    pub status: String,
    /// The `dpr-obs` crate version compiled into this binary.
    pub version: String,
    /// Whole seconds since this server started.
    pub uptime_secs: u64,
    /// Runs published through the shared [`RunStore`] so far.
    pub runs_published: u64,
}

/// The run history shared between publishers and the server.
pub type SharedRuns = Arc<Mutex<RunStore>>;

/// An empty [`SharedRuns`] store.
pub fn shared_runs() -> SharedRuns {
    Arc::new(Mutex::new(RunStore::default()))
}

/// Tuning for an [`HttpServer`]: pool width, session-table size, and
/// the three deadlines that keep hostile clients from wedging it.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Handler threads draining accepted connections.
    pub handler_threads: usize,
    /// Session-table slots; connection 65 of 64 gets an immediate 503.
    pub max_sessions: usize,
    /// Idle deadline before the sweeper shuts a connection down.
    pub idle_timeout: Duration,
    /// Socket read deadline (one blocked `read` at most this long).
    pub read_timeout: Duration,
    /// Socket write deadline.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            handler_threads: 4,
            max_sessions: 64,
            idle_timeout: Duration::from_secs(10),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// Maps a request path to its dot-free metric segment, so per-route
/// counters stay one taxonomy segment wide: `http.<route>.requests`.
/// Unknown paths collapse into `other`; requests whose head never
/// parsed are accounted under `invalid` by the server itself.
pub fn route_slug(path: &str) -> &'static str {
    match path {
        "/metrics" => "metrics",
        "/trace" => "trace",
        "/runs" => "runs",
        "/profile" => "profile",
        "/healthz" => "healthz",
        "/debug/snapshot" => "debug_snapshot",
        "/jobs" => "jobs",
        _ if path.starts_with("/evidence/") => "evidence",
        _ if path.starts_with("/jobs/") => {
            if path.ends_with("/events") {
                "job_events"
            } else if path.ends_with("/result") {
                "job_result"
            } else {
                "job_status"
            }
        }
        _ => "other",
    }
}

/// One connection being answered: the stream, the registry that counts
/// responses, and the request's identity (route slug + `req-NNNNNN`
/// correlation id). Every response written through [`Conn::respond`] /
/// [`Conn::respond_with`] bumps `serve.http_<status>` and the
/// per-route `http.<route>.status.<code>` counter, and accumulates
/// egress bytes into `http.bytes_out`.
pub struct Conn<'a> {
    stream: &'a mut TcpStream,
    registry: &'a Registry,
    route: &'static str,
    req_id: String,
    bytes_out: u64,
    last_status: u16,
    keepalive: Option<(&'a SessionTable, crate::table::SessionToken)>,
}

impl<'a> Conn<'a> {
    fn new(
        stream: &'a mut TcpStream,
        registry: &'a Registry,
        route: &'static str,
        req_id: String,
        keepalive: Option<(&'a SessionTable, crate::table::SessionToken)>,
    ) -> Conn<'a> {
        Conn {
            stream,
            registry,
            route,
            req_id,
            bytes_out: 0,
            last_status: 0,
            keepalive,
        }
    }

    fn count_status(&mut self, status: &str) {
        let code = http::status_code(status);
        self.registry
            .counter(&format!("serve.http_{code}"))
            .inc(1);
        self.registry
            .counter(&format!("http.{}.status.{code}", self.route))
            .inc(1);
        self.last_status = code.parse().unwrap_or(0);
    }

    /// Writes a complete response and counts its status code.
    pub fn respond(&mut self, status: &str, content_type: &str, body: &str) -> io::Result<()> {
        self.respond_with(status, content_type, &[], body)
    }

    /// Writes `value` as an `application/json` response. A value the
    /// codec cannot encode is answered `{"error":"<why>"}`, written by
    /// the same codec, so every JSON response body is well-formed.
    pub fn respond_json<T: serde::Serialize + ?Sized>(
        &mut self,
        status: &str,
        value: &T,
    ) -> io::Result<()> {
        let body = json::to_string(value).unwrap_or_else(|e| {
            Value::Object(vec![("error".to_string(), Value::Str(e.to_string()))]).to_json()
        });
        self.respond(status, "application/json", &body)
    }

    /// [`Conn::respond`] with verbatim extra header lines
    /// (e.g. `Retry-After: 1`).
    pub fn respond_with(
        &mut self,
        status: &str,
        content_type: &str,
        extra_headers: &[&str],
        body: &str,
    ) -> io::Result<()> {
        self.count_status(status);
        let n = http::respond_with(self.stream, status, content_type, extra_headers, body)?;
        self.bytes_out += n;
        Ok(())
    }

    /// Starts a chunked response; the body follows through
    /// [`Conn::write_chunk`] and ends with [`Conn::finish_chunked`].
    pub fn start_chunked(
        &mut self,
        status: &str,
        content_type: &str,
        extra_headers: &[&str],
    ) -> io::Result<()> {
        self.count_status(status);
        let n = http::start_chunked(self.stream, status, content_type, extra_headers)?;
        self.bytes_out += n;
        Ok(())
    }

    /// Writes one chunk, counts its bytes, and refreshes the session's
    /// idle deadline so a healthy live stream is never swept.
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        let n = http::write_chunk(self.stream, data)?;
        self.bytes_out += n;
        self.touch();
        Ok(())
    }

    /// Terminates a chunked response.
    pub fn finish_chunked(&mut self) -> io::Result<()> {
        let n = http::finish_chunked(self.stream)?;
        self.bytes_out += n;
        Ok(())
    }

    /// Refreshes this connection's idle deadline (no-op for
    /// connections served outside a session table).
    pub fn touch(&self) {
        if let Some((table, token)) = self.keepalive {
            table.touch(token);
        }
    }

    /// This request's correlation id (`req-NNNNNN`), for echoing into
    /// response bodies so clients can quote it back.
    pub fn req_id(&self) -> &str {
        &self.req_id
    }

    /// The metric segment this request was routed under.
    pub fn route(&self) -> &'static str {
        self.route
    }

    /// The underlying stream, for handlers that read a request body
    /// (wrap it in [`http::BodyReader`]).
    pub fn stream(&mut self) -> &mut TcpStream {
        self.stream
    }

    /// The registry this server records `serve.*` metrics into.
    pub fn registry(&self) -> &Registry {
        self.registry
    }
}

/// A request handler behind an [`HttpServer`]. Called once per parsed
/// request head; the handler writes exactly one response through the
/// [`Conn`] and may stream the body from [`Conn::stream`].
pub trait HttpHandler: Send + Sync {
    /// Answer one request. I/O errors are logged as `serve.io_errors`
    /// and close the connection; they must not panic.
    fn handle(&self, head: &RequestHead, conn: &mut Conn<'_>) -> io::Result<()>;
}

struct ServerShared {
    config: ServerConfig,
    table: SessionTable,
    queue: StdMutex<VecDeque<(crate::table::SessionToken, TcpStream)>>,
    ready: Condvar,
    stop: AtomicBool,
    registry: Arc<Registry>,
    handler: Arc<dyn HttpHandler>,
    next_req: AtomicU64,
}

/// Recover from a poisoned std mutex: the protected state (a queue of
/// connections) stays valid even if a handler thread panicked.
fn lock<'a, T>(mutex: &'a StdMutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A concurrent, bounded HTTP/1.1 server: acceptor thread, fixed
/// handler pool, idle sweeper, one response per connection.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sweeper: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` and starts serving `handler`. `name` prefixes the
    /// thread names (`<name>-accept`, `<name>-worker-N`, `<name>-sweep`);
    /// `registry` receives the `serve.*` metrics.
    pub fn start(
        addr: &str,
        name: &str,
        config: ServerConfig,
        handler: Arc<dyn HttpHandler>,
        registry: Arc<Registry>,
    ) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            table: SessionTable::new(config.max_sessions, config.idle_timeout),
            config,
            queue: StdMutex::new(VecDeque::new()),
            ready: Condvar::new(),
            stop: AtomicBool::new(false),
            registry,
            handler,
            next_req: AtomicU64::new(0),
        });
        let acceptor = std::thread::Builder::new()
            .name(format!("{name}-accept"))
            .spawn({
                let shared = Arc::clone(&shared);
                move || accept_loop(&listener, &shared)
            })?;
        let mut workers = Vec::with_capacity(shared.config.handler_threads.max(1));
        for i in 0..shared.config.handler_threads.max(1) {
            workers.push(
                std::thread::Builder::new()
                    .name(format!("{name}-worker-{i}"))
                    .spawn({
                        let shared = Arc::clone(&shared);
                        move || worker_loop(&shared)
                    })?,
            );
        }
        let sweeper = std::thread::Builder::new()
            .name(format!("{name}-sweep"))
            .spawn({
                let shared = Arc::clone(&shared);
                move || sweep_loop(&shared)
            })?;
        Ok(HttpServer {
            addr: local,
            shared,
            acceptor: Some(acceptor),
            workers,
            sweeper: Some(sweeper),
        })
    }

    /// The bound address — with an `:0` bind, this is where the
    /// ephemeral port landed.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry `serve.*` metrics land in.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// Stops accepting, drains already-accepted connections, and joins
    /// every thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.acceptor.is_none() && self.workers.is_empty() && self.sweeper.is_none() {
            return;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept call; an error just means the listener
        // already noticed the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // Workers drain whatever the acceptor already queued, then see
        // the flag on the emptied queue and exit.
        self.shared.ready.notify_all();
        for handle in self.workers.drain(..) {
            self.shared.ready.notify_all();
            let _ = handle.join();
        }
        if let Some(handle) = self.sweeper.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("table", &self.shared.table)
            .field("stopped", &self.shared.stop.load(Ordering::Relaxed))
            .finish()
    }
}

fn accept_loop(listener: &TcpListener, shared: &ServerShared) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        shared.registry.counter("serve.connections_accepted").inc(1);
        let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        match shared.table.claim(&stream) {
            Some(token) => {
                shared
                    .registry
                    .gauge("serve.sessions_open")
                    .set(shared.table.open() as i64);
                let depth = {
                    let mut queue = lock(&shared.queue);
                    queue.push_back((token, stream));
                    queue.len()
                };
                shared.registry.gauge("serve.queue_depth").set(depth as i64);
                shared.ready.notify_one();
            }
            None => {
                // Table full: the first backpressure point. Refuse
                // before reading a single byte.
                shared.registry.counter("serve.connections_refused").inc(1);
                shared.registry.counter("serve.http_503").inc(1);
                let _ = http::respond(
                    &mut stream,
                    "503 Service Unavailable",
                    "text/plain",
                    "session table full, try again\n",
                );
            }
        }
    }
}

fn worker_loop(shared: &ServerShared) {
    // Reused across every request this worker serves: head parsing does
    // no steady-state buffer allocation.
    let mut scratch = Vec::with_capacity(1024);
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    shared
                        .registry
                        .gauge("serve.queue_depth")
                        .set(queue.len() as i64);
                    break Some(job);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((token, stream)) = job else { break };
        serve_one(shared, token, stream, &mut scratch);
    }
}

fn serve_one(
    shared: &ServerShared,
    token: crate::table::SessionToken,
    mut stream: TcpStream,
    scratch: &mut Vec<u8>,
) {
    let registry = &shared.registry;
    let started = Instant::now();
    let req_id = format!(
        "req-{:06}",
        shared.next_req.fetch_add(1, Ordering::Relaxed) + 1
    );
    registry.gauge("http.requests_in_flight").add(1);
    match http::read_head(&mut stream, scratch) {
        Ok(head) => {
            shared.table.touch(token);
            registry.counter("serve.requests").inc(1);
            let route = route_slug(head.path());
            registry.counter(&format!("http.{route}.requests")).inc(1);
            let body_len = head.content_length().ok().flatten().unwrap_or(0);
            registry
                .counter("http.bytes_in")
                .inc(scratch.len() as u64 + body_len.saturating_sub(head.leftover.len() as u64));
            let _ctx = dpr_telemetry::log::push_context("req_id", req_id.as_str());
            let mut conn = Conn::new(
                &mut stream,
                registry,
                route,
                req_id,
                Some((&shared.table, token)),
            );
            if shared.handler.handle(&head, &mut conn).is_err() {
                registry.counter("serve.io_errors").inc(1);
            }
            let status = conn.last_status;
            let bytes_out = conn.bytes_out;
            registry.counter("http.bytes_out").inc(bytes_out);
            let elapsed_us = started.elapsed().as_micros() as f64;
            registry.histogram("serve.request_us").record(elapsed_us);
            registry
                .histogram(&format!("http.{route}.latency_us"))
                .record(elapsed_us);
            if dpr_telemetry::log::enabled(dpr_telemetry::log::Level::Debug) {
                dpr_telemetry::log::debug(
                    "http",
                    "request",
                    &[
                        ("method", head.method.as_str().into()),
                        ("path", head.path().into()),
                        ("route", route.into()),
                        ("status", u64::from(status).into()),
                        ("us", (elapsed_us as u64).into()),
                        ("bytes_out", bytes_out.into()),
                    ],
                );
            }
        }
        Err(HeadError::Closed) => {
            registry.counter("serve.closed_early").inc(1);
        }
        Err(HeadError::Timeout) => {
            registry.counter("serve.read_timeouts").inc(1);
            let mut conn = Conn::new(&mut stream, registry, "invalid", req_id, None);
            let _ = conn.respond(
                "408 Request Timeout",
                "text/plain",
                "request head did not arrive within the read deadline\n",
            );
        }
        Err(HeadError::TooLarge) => {
            let mut conn = Conn::new(&mut stream, registry, "invalid", req_id, None);
            let _ = conn.respond(
                "413 Content Too Large",
                "text/plain",
                "request head exceeds the size limit\n",
            );
        }
        Err(HeadError::Malformed(why)) => {
            let mut conn = Conn::new(&mut stream, registry, "invalid", req_id, None);
            let _ = conn.respond("400 Bad Request", "text/plain", &format!("{why}\n"));
        }
        Err(HeadError::Io(_)) => {
            registry.counter("serve.io_errors").inc(1);
        }
    }
    registry.gauge("http.requests_in_flight").add(-1);
    drop(stream);
    // A stale token means the sweeper evicted this session mid-serve;
    // it already counted the eviction.
    let _ = shared.table.release(token);
    registry
        .gauge("serve.sessions_open")
        .set(shared.table.open() as i64);
}

fn sweep_loop(shared: &ServerShared) {
    let quarter = shared.config.idle_timeout / 4;
    let interval = quarter
        .min(Duration::from_millis(250))
        .max(Duration::from_millis(5));
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::park_timeout(interval);
        let evicted = shared.table.sweep();
        if evicted > 0 {
            shared
                .registry
                .counter("serve.idle_closed")
                .inc(evicted as u64);
            shared
                .registry
                .gauge("serve.sessions_open")
                .set(shared.table.open() as i64);
        }
    }
}

/// The observability routes (`/metrics`, `/trace`, `/runs`,
/// `/evidence/<sensor>`, `/profile`, `/healthz`) as a reusable router:
/// the [`MetricsServer`]'s handler, and the fallback `dpr-serve`
/// delegates non-`/jobs` requests to.
pub struct ObsRouter {
    registry: Arc<Registry>,
    runs: SharedRuns,
    started: Instant,
}

/// The route list the 404 body advertises.
pub const OBS_ROUTES: &str = "/metrics /trace /runs /evidence/<sensor> /profile /healthz";

impl ObsRouter {
    /// A router serving `registry` and `runs`; uptime counts from now.
    pub fn new(registry: Arc<Registry>, runs: SharedRuns) -> ObsRouter {
        ObsRouter {
            registry,
            runs,
            started: Instant::now(),
        }
    }

    /// The shared run store this router serves.
    pub fn runs(&self) -> &SharedRuns {
        &self.runs
    }

    /// Whole seconds since this router was created — what its
    /// `/healthz` reports as uptime, shared with wrapping routers.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Answers the request if its path is an observability route.
    /// Returns `Ok(false)` — with nothing written — when the path is
    /// not ours, so a wrapping router can 404 with its own route list.
    pub fn try_route(&self, head: &RequestHead, conn: &mut Conn<'_>) -> io::Result<bool> {
        let path = head.path();
        let known = matches!(
            path,
            "/metrics" | "/trace" | "/runs" | "/profile" | "/healthz"
        ) || path.starts_with("/evidence/");
        if !known {
            return Ok(false);
        }
        if head.method != "GET" {
            conn.respond("405 Method Not Allowed", "text/plain", "GET only\n")?;
            return Ok(true);
        }
        if let Some(slug) = path.strip_prefix("/evidence/") {
            // Take the record out so the document is parsed without the
            // store lock held.
            let (run, known) = {
                let store = self.runs.lock();
                match store.run_with(slug) {
                    Some(run) => (Some(Arc::clone(run)), String::new()),
                    None => (None, store.known_sensors().join(" ")),
                }
            };
            match run {
                Some(run) => match run.ledger().map(|ledger| ledger.sensor(slug)) {
                    Ok(Some(evidence)) => conn.respond_json("200 OK", &evidence)?,
                    _ => conn.respond(
                        "500 Internal Server Error",
                        "text/plain",
                        &format!("the stored evidence of {} lacks sensor {slug:?}\n", run.id),
                    )?,
                },
                None => conn.respond(
                    "404 Not Found",
                    "text/plain",
                    &format!("unknown sensor {slug:?}; known: {known}\n"),
                )?,
            }
            return Ok(true);
        }
        match path {
            "/metrics" => conn.respond(
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &prom::render(&self.registry.snapshot()),
            )?,
            "/trace" => {
                // Take the record out so the store lock is not held
                // while writing.
                let run = self.runs.lock().latest().map(Arc::clone);
                match run {
                    Some(run) => conn.respond_json("200 OK", &run.trace)?,
                    None => {
                        conn.respond("404 Not Found", "text/plain", "no trace published yet\n")?;
                    }
                }
            }
            "/runs" => {
                let listing: Vec<RunListing> = self
                    .runs
                    .lock()
                    .runs()
                    .map(|r| RunListing {
                        id: r.id.clone(),
                        at_ms: r.at_ms,
                        job: r.job.clone(),
                        sensors: r.sensors.clone(),
                    })
                    .collect();
                conn.respond_json("200 OK", &listing)?;
            }
            "/profile" => conn.respond_json("200 OK", &dpr_prof::snapshot())?,
            "/healthz" => {
                let health = HealthStatus {
                    status: "ok".to_string(),
                    version: env!("CARGO_PKG_VERSION").to_string(),
                    uptime_secs: self.started.elapsed().as_secs(),
                    runs_published: self.runs.lock().published(),
                };
                conn.respond_json("200 OK", &health)?;
            }
            _ => unreachable!("known paths are matched above"),
        }
        Ok(true)
    }
}

impl HttpHandler for ObsRouter {
    fn handle(&self, head: &RequestHead, conn: &mut Conn<'_>) -> io::Result<()> {
        if !self.try_route(head, conn)? {
            conn.respond(
                "404 Not Found",
                "text/plain",
                &format!("routes: {OBS_ROUTES}\n"),
            )?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for ObsRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsRouter")
            .field("uptime", &self.started.elapsed())
            .finish()
    }
}

/// A running scrape endpoint: [`ObsRouter`] behind an [`HttpServer`]
/// with default [`ServerConfig`]. Stops (and joins its threads) on
/// [`stop`](MetricsServer::stop) or drop.
pub struct MetricsServer {
    inner: HttpServer,
}

impl MetricsServer {
    /// Binds `addr` and starts serving `registry` and `runs`.
    pub fn start(
        addr: &str,
        registry: Arc<Registry>,
        runs: SharedRuns,
    ) -> io::Result<MetricsServer> {
        let router = Arc::new(ObsRouter::new(Arc::clone(&registry), runs));
        let inner =
            HttpServer::start(addr, "dpr-metrics", ServerConfig::default(), router, registry)?;
        Ok(MetricsServer { inner })
    }

    /// Starts a server on the `DPR_METRICS_ADDR` address, if the variable
    /// is set and non-empty. `Ok(None)` when unset.
    pub fn from_env(
        registry: Arc<Registry>,
        runs: SharedRuns,
    ) -> io::Result<Option<MetricsServer>> {
        match std::env::var(METRICS_ADDR_ENV) {
            Ok(addr) if !addr.trim().is_empty() => {
                MetricsServer::start(addr.trim(), registry, runs).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// The bound address — with an `:0` bind, this is where the ephemeral
    /// port landed.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Stops accepting, wakes the listener and joins the serve threads.
    pub fn stop(self) {
        self.inner.stop();
    }
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("inner", &self.inner)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    /// A minimal std TcpStream scrape client, shared with the
    /// integration tests via copy — kept here so unit tests exercise the
    /// full request path too.
    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: dpr\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        let (head, body) = response.split_once("\r\n\r\n").expect("http head");
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_trace_and_health() {
        let registry = Arc::new(Registry::new());
        registry.counter("obs.test_hits").inc(3);
        let runs = shared_runs();
        let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry), Arc::clone(&runs))
        .expect("bind ephemeral");
        let addr = server.addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("application/json"), "{head}");
        let health: HealthStatus = dpr_telemetry::json::from_str(&body).expect("health json");
        assert_eq!(health.status, "ok");
        assert_eq!(health.version, env!("CARGO_PKG_VERSION"));
        assert_eq!(health.runs_published, 0);
        assert!(health.uptime_secs < 3600);

        // /profile always answers; the snapshot may or may not contain
        // calls depending on what else this test process ran.
        let (head, body) = get(addr, "/profile");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let profile: dpr_prof::ProfSnapshot =
            dpr_telemetry::json::from_str(&body).expect("profile json");
        assert!(profile.recent.len() <= 64);

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"));
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("obs_test_hits 3\n"));
        // The server's own request accounting lands in the same registry.
        assert!(body.contains("serve_requests"), "{body}");

        // /trace 404s until a run is published…
        let (head, _) = get(addr, "/trace");
        assert!(head.starts_with("HTTP/1.1 404"));
        // …then serves the newest run's trace.
        publish_bare(&mut runs.lock(), 1, None, PipelineTrace::default());
        let (head, body) = get(addr, "/trace");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("\"stages\""));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        server.stop();
    }

    #[test]
    fn stop_unblocks_and_joins() {
        let server = MetricsServer::start("127.0.0.1:0", Arc::new(Registry::new()), shared_runs())
        .expect("bind");
        let addr = server.addr();
        server.stop();
        // The port is released once the threads exit: a fresh connection
        // either fails or is never served.
        let late = TcpStream::connect(addr);
        if let Ok(mut stream) = late {
            let _ = write!(stream, "GET /healthz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .and_then(|()| stream.read_to_string(&mut out).map(|_| ()));
            assert!(out.is_empty(), "stopped server answered: {out}");
        }
    }

    #[test]
    fn from_env_is_opt_in() {
        std::env::remove_var(METRICS_ADDR_ENV);
        let server = MetricsServer::from_env(Arc::new(Registry::new()), shared_runs())
            .expect("no bind attempted");
        assert!(server.is_none());
    }

    /// Publishes a run with an empty ledger.
    fn publish_bare(
        store: &mut RunStore,
        at_ms: u64,
        job: Option<String>,
        trace: PipelineTrace,
    ) -> Arc<RunRecord> {
        let ledger = dpr_evidence::EvidenceLedger::default();
        let document = evidence_document(&ledger);
        store.publish(at_ms, job, trace, &ledger, document)
    }

    #[test]
    fn run_store_keeps_the_most_recent_runs_and_serves_chains() {
        let mut store = RunStore::default();
        let mut ledger = dpr_evidence::EvidenceLedger::default();
        ledger.chains.push(dpr_evidence::EvidenceChain {
            sensor: "DID 0xF40D".into(),
            slug: "did-0xf40d".into(),
            screen: "Engine".into(),
            label: "Vehicle Speed".into(),
            kind: "formula".into(),
            formula: "X0".into(),
            match_score: Some(0.99),
            match_pairs: 40,
            samples: vec![],
            ocr: vec![],
            candidates: vec![],
            zero_pair_candidates: 0,
            lineage: None,
        });
        let document = evidence_document(&ledger);
        // Each run's trace is told apart by its total wall time.
        let trace = |i: usize| PipelineTrace {
            total_us: i as u64,
            ..PipelineTrace::default()
        };
        for i in 0..(RUNS_KEPT + 3) {
            store.publish(i as u64, None, trace(i), &ledger, Arc::clone(&document));
        }
        assert_eq!(store.len(), RUNS_KEPT);
        assert_eq!(store.evicted(), 3);
        // Oldest entries were evicted; ids keep counting.
        let ids: Vec<&str> = store.runs().map(|r| r.id.as_str()).collect();
        assert_eq!(ids[0], "run-4");
        assert_eq!(ids.last().copied(), Some(format!("run-{}", RUNS_KEPT + 3).as_str()));
        // A run's trace is evicted with its ledger: each retained record
        // still holds the trace it was published with.
        let totals: Vec<u64> = store.runs().map(|r| r.trace.total_us).collect();
        assert_eq!(totals, (3..RUNS_KEPT as u64 + 3).collect::<Vec<_>>());
        assert!(store.runs().all(|r| r.trace.job_id.is_none() && r.job.is_none()));
        // Publishing with a job stamps that record's trace with it.
        let record = store.publish(99, Some("job-7".into()), trace(99), &ledger, document);
        let latest = store.latest().expect("just published");
        assert!(Arc::ptr_eq(latest, &record), "the store holds the returned record");
        assert_eq!(latest.job.as_deref(), Some("job-7"));
        assert_eq!(latest.trace.job_id.as_deref(), Some("job-7"));
        assert_eq!(latest.trace.total_us, 99);
        let found = store.run_with("did-0xf40d").expect("a run has the sensor");
        assert_eq!(found.ledger().expect("document parses"), ledger);
        assert!(store.run_with("nope").is_none());
        assert_eq!(store.known_sensors(), vec!["did-0xf40d".to_string()]);
    }

    #[test]
    fn run_store_is_bounded_by_document_bytes() {
        let registry = Arc::new(Registry::new());
        let mut store = RunStore::default();
        let ledger = dpr_evidence::EvidenceLedger::default();
        let huge: Arc<str> = format!(
            "{{\"pad\":\"{}\",\"evidence\":{}}}",
            "x".repeat(RETAINED_BYTES / 3),
            json::to_string(&ledger).expect("serializes")
        )
        .into();
        dpr_telemetry::scoped(Arc::clone(&registry), || {
            for i in 0..5 {
                store.publish(i, None, PipelineTrace::default(), &ledger, Arc::clone(&huge));
                assert!(store.retained_bytes() <= RETAINED_BYTES);
            }
        });
        // Two documents fit under the ceiling, a third does not.
        assert_eq!(store.len(), 2);
        assert_eq!(store.retained_bytes(), 2 * huge.len());
        assert_eq!(store.evicted(), 3);
        assert_eq!(registry.snapshot().counters.get("runs.evicted"), Some(&3));
        assert_eq!(store.latest().expect("kept").ledger(), Ok(ledger));
    }

    #[test]
    fn run_store_eviction_is_counted_on_the_scoped_registry() {
        let registry = Arc::new(Registry::new());
        let evicted = dpr_telemetry::scoped(Arc::clone(&registry), || {
            let mut store = RunStore::with_capacity(2);
            for i in 0..5 {
                publish_bare(&mut store, i, None, PipelineTrace::default());
            }
            assert_eq!(store.len(), 2);
            store.evicted()
        });
        assert_eq!(evicted, 3);
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters.get("runs.evicted").copied(), Some(3));
    }
}
