//! The service's HTTP surface: `/jobs` routes in front of the
//! observability routes.
//!
//! The submit path is ordered so hostile or unlucky traffic costs the
//! least possible work:
//!
//! 1. parse the (bounded) request head — `400`/`413` come from the
//!    server core before this router runs;
//! 2. validate `Content-Length` — `411` missing, `400` junk, `413`
//!    over the body cap, all before reading a single body byte;
//! 3. check queue backpressure — a full FIFO answers
//!    `429 Too Many Requests` + `Retry-After` **without reading the
//!    body at all**;
//! 4. only then stream the body, through a pooled reusable buffer, into
//!    either the corruption-tolerant [`CaptureReader`] (a `.dprcap`
//!    upload) or the tiny `{"car":"M"}` JSON form.

use crate::jobs::{
    EventWait, JobInput, JobStatus, JobStore, ResultLookup, SubmitError, WorkerHealth, WorkerReport,
};
use crate::Analyzer;
use dpr_capture::CaptureReader;
use dpr_obs::http::{BodyReader, RequestHead};
use dpr_obs::{Conn, HttpHandler, ObsRouter, OBS_ROUTES};
use dpr_telemetry::json::{self, Value};
use dpr_telemetry::log::Record;
use dpr_telemetry::MetricsSnapshot;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::io::{self, Read};
use std::sync::Arc;
use std::time::Duration;

/// Bodies at most this large may be the JSON car form; larger bodies
/// must be captures and are streamed, never buffered whole.
const SMALL_BODY: u64 = 4 * 1024;

/// How long the event stream waits for the next event before emitting
/// a keepalive blank line (which doubles as the disconnect probe).
const EVENT_POLL: Duration = Duration::from_millis(250);

/// The service's own route list (the obs routes are appended in 404s).
pub const SERVE_ROUTES: &str = "POST /jobs, GET /jobs, GET /jobs/<id>, GET /jobs/<id>/result, \
     GET /jobs/<id>/events, GET /healthz, GET /debug/snapshot";

/// What the *service's* `GET /healthz` serializes — the obs
/// [`HealthStatus`](dpr_obs::HealthStatus) fields plus the job queue
/// and per-worker liveness, so a load driver can refuse to hammer an
/// unhealthy service.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceHealth {
    /// `ok`, or `no-workers` when no analysis worker ever registered.
    pub status: String,
    /// The `dpr-serve` crate version compiled into this binary.
    pub version: String,
    /// Whole seconds since the service started.
    pub uptime_secs: u64,
    /// Runs published through the shared run store so far.
    pub runs_published: u64,
    /// Jobs waiting in the bounded FIFO right now.
    pub queue_depth: u64,
    /// The FIFO bound (`429` beyond it).
    pub queue_capacity: u64,
    /// Jobs being analyzed right now.
    pub jobs_running: u64,
    /// Each analysis worker's state and last-heartbeat age.
    pub workers: Vec<WorkerReport>,
}

/// What a successful `POST /jobs` returns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// The assigned job id (`job-N`).
    pub job: String,
    /// Where to poll for status.
    pub poll: String,
}

/// A small free-list of capture read buffers, shared by the HTTP
/// handler threads so steady-state uploads reuse buffers instead of
/// allocating per request.
struct BufferPool {
    free: Mutex<Vec<Vec<u8>>>,
    keep: usize,
}

impl BufferPool {
    fn new(keep: usize) -> BufferPool {
        BufferPool {
            free: Mutex::new(Vec::new()),
            keep,
        }
    }

    fn take(&self) -> Vec<u8> {
        self.free.lock().pop().unwrap_or_default()
    }

    fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut free = self.free.lock();
        if free.len() < self.keep {
            free.push(buf);
        }
    }
}

/// The [`HttpHandler`] of an analysis service: job routes first, the
/// observability routes as fallback.
pub struct ServiceRouter {
    obs: ObsRouter,
    store: Arc<JobStore>,
    analyzer: Arc<dyn Analyzer>,
    health: Arc<WorkerHealth>,
    max_body: u64,
    buffers: BufferPool,
}

impl ServiceRouter {
    /// A router submitting to `store`, validating car names against
    /// `analyzer`, reporting `health` on `/healthz`, and falling back
    /// to `obs`.
    pub fn new(
        obs: ObsRouter,
        store: Arc<JobStore>,
        analyzer: Arc<dyn Analyzer>,
        health: Arc<WorkerHealth>,
        max_body: u64,
    ) -> ServiceRouter {
        ServiceRouter {
            obs,
            store,
            analyzer,
            health,
            max_body,
            buffers: BufferPool::new(8),
        }
    }

    fn service_health(&self) -> ServiceHealth {
        let workers = self.health.report();
        ServiceHealth {
            status: if workers.is_empty() {
                "no-workers".to_string()
            } else {
                "ok".to_string()
            },
            version: env!("CARGO_PKG_VERSION").to_string(),
            uptime_secs: self.obs.uptime_secs(),
            runs_published: self.obs.runs().lock().published(),
            queue_depth: self.store.queue_len() as u64,
            queue_capacity: self.store.queue_capacity() as u64,
            jobs_running: self.store.running() as u64,
            workers,
        }
    }

    fn healthz(&self, conn: &mut Conn<'_>) -> io::Result<()> {
        conn.respond_json("200 OK", &self.service_health())
    }

    /// One JSON diagnostics bundle: service health, the jobs table,
    /// the pool profile, the full metrics snapshot, and the in-memory
    /// log ring — everything a bug report needs, in one request.
    fn snapshot(&self, conn: &mut Conn<'_>) -> io::Result<()> {
        let ring = dpr_telemetry::log::logger().ring();
        // Records first: `pushed` only grows, so it never reads below
        // the number of records listed.
        let records = ring
            .snapshot()
            .into_iter()
            .map(|entry| entry.record)
            .collect();
        let log = LogSnapshot {
            pushed: ring.pushed(),
            overwritten: ring.overwritten(),
            records,
        };
        conn.respond_json(
            "200 OK",
            &Snapshot {
                health: self.service_health(),
                jobs: self.store.statuses(),
                profile: dpr_prof::snapshot(),
                metrics: conn.registry().snapshot(),
                log,
            },
        )
    }

    /// Streams one job's events as chunked ndjson: the replay history,
    /// then live events as they happen, a blank-line keepalive while
    /// idle, and EOF once the job finishes. A client that disconnects
    /// mid-stream just ends this handler — the analysis worker never
    /// notices (its hub push never blocks).
    fn events(&self, external: &str, conn: &mut Conn<'_>) -> io::Result<()> {
        let Some(mut subscriber) = self.store.subscribe(external) else {
            return conn.respond(
                "404 Not Found",
                "text/plain",
                &format!("unknown job {external:?}\n"),
            );
        };
        conn.start_chunked("200 OK", "application/x-ndjson", &[])?;
        loop {
            match subscriber.wait(EVENT_POLL) {
                EventWait::Event(event) => {
                    let mut line = json::to_string(&event).expect("a job event always serializes");
                    line.push('\n');
                    if conn.write_chunk(line.as_bytes()).is_err() {
                        // Client went away; nothing upstream to unwind.
                        return Ok(());
                    }
                }
                EventWait::Idle => {
                    if conn.write_chunk(b"\n").is_err() {
                        return Ok(());
                    }
                }
                EventWait::Ended => return conn.finish_chunked(),
            }
        }
    }

    fn submit(&self, head: &RequestHead, conn: &mut Conn<'_>) -> io::Result<()> {
        // Content-Length gatekeeping: everything here happens before a
        // single body byte is read.
        let declared = match head.content_length() {
            Err(why) => {
                return conn.respond("400 Bad Request", "text/plain", &format!("{why}\n"));
            }
            Ok(None) => {
                return conn.respond(
                    "411 Length Required",
                    "text/plain",
                    "POST /jobs requires Content-Length\n",
                );
            }
            Ok(Some(0)) => {
                return conn.respond("400 Bad Request", "text/plain", "empty job body\n");
            }
            Ok(Some(n)) => n,
        };
        if declared > self.max_body {
            return conn.respond(
                "413 Content Too Large",
                "text/plain",
                &format!(
                    "job body of {declared} bytes exceeds the {} byte limit\n",
                    self.max_body
                ),
            );
        }
        // Backpressure: a full queue refuses the job while the body is
        // still unread (and mostly still un-sent, for large uploads).
        if self.store.is_full() {
            self.store.note_rejected();
            return reject_full(conn);
        }
        let (source, input) = {
            let mut body = BodyReader::new(&head.leftover, conn.stream(), declared);
            match self.parse_body(&mut body, declared) {
                Ok(parsed) => {
                    if !body.complete() {
                        // parse_body can succeed on a prefix (the capture
                        // reader tolerates truncation); a torn body is
                        // still a client error, not a job.
                        return conn.respond(
                            "400 Bad Request",
                            "text/plain",
                            "connection closed before the declared body length arrived\n",
                        );
                    }
                    parsed
                }
                Err(why) => {
                    return conn.respond("400 Bad Request", "text/plain", &format!("{why}\n"));
                }
            }
        };
        match self.store.submit(source.clone(), input) {
            Ok(job) => {
                let response = SubmitResponse {
                    poll: format!("/jobs/{job}"),
                    job,
                };
                conn.respond_json("202 Accepted", &response)
            }
            // The queue filled while we read the body: same answer as
            // the pre-body check, the client just paid for the upload.
            Err(SubmitError::QueueFull) => reject_full(conn),
            Err(SubmitError::Draining) => conn.respond(
                "503 Service Unavailable",
                "text/plain",
                "service is draining\n",
            ),
        }
    }

    /// Reads one job body: the `{"car":"M"}` form (small bodies opening
    /// with `{`) or a `.dprcap` capture stream.
    fn parse_body<R: Read>(
        &self,
        body: &mut BodyReader<'_, R>,
        declared: u64,
    ) -> Result<(String, JobInput), String> {
        if declared <= SMALL_BODY {
            let mut buf = self.buffers.take();
            body.take(SMALL_BODY)
                .read_to_end(&mut buf)
                .map_err(|e| format!("reading job body: {e}"))?;
            let parsed = if buf.first() == Some(&b'{') {
                self.parse_car_json(&buf)
            } else {
                parse_capture(buf.as_slice(), self.buffers.take())
                    .map(|(session, spare)| {
                        self.buffers.put(spare);
                        ("capture".to_string(), JobInput::Capture(session))
                    })
                    .map_err(|(why, spare)| {
                        self.buffers.put(spare);
                        why
                    })
            };
            self.buffers.put(buf);
            parsed
        } else {
            let (parsed, spare) = match parse_capture(body, self.buffers.take()) {
                Ok((session, spare)) => (
                    Ok(("capture".to_string(), JobInput::Capture(session))),
                    spare,
                ),
                Err((why, spare)) => (Err(why), spare),
            };
            self.buffers.put(spare);
            parsed
        }
    }

    fn parse_car_json(&self, buf: &[u8]) -> Result<(String, JobInput), String> {
        let text = std::str::from_utf8(buf).map_err(|_| "job body is not UTF-8".to_string())?;
        let doc = json::parse(text).map_err(|e| format!("malformed job JSON: {e}"))?;
        let Value::Object(entries) = doc else {
            return Err("job JSON must be an object like {\"car\":\"M\"}".to_string());
        };
        let car = entries
            .iter()
            .find(|(k, _)| k == "car")
            .map(|(_, v)| v.clone());
        let Some(Value::Str(car)) = car else {
            return Err("job JSON must carry a \"car\" string".to_string());
        };
        if !self.analyzer.knows_car(&car) {
            return Err(format!("unknown car profile {car:?}"));
        }
        Ok((format!("car:{car}"), JobInput::Car(car)))
    }

    fn status(&self, external: &str, conn: &mut Conn<'_>) -> io::Result<()> {
        match self.store.status(external) {
            Some(status) => conn.respond_json("200 OK", &status),
            None => conn.respond(
                "404 Not Found",
                "text/plain",
                &format!("unknown job {external:?}\n"),
            ),
        }
    }

    fn list(&self, conn: &mut Conn<'_>) -> io::Result<()> {
        conn.respond_json("200 OK", &self.store.statuses())
    }

    fn result(&self, external: &str, conn: &mut Conn<'_>) -> io::Result<()> {
        match self.store.result(external) {
            ResultLookup::Done(canonical) => conn.respond("200 OK", "application/json", &canonical),
            ResultLookup::Failed(error) => conn.respond(
                "500 Internal Server Error",
                "text/plain",
                &format!("job failed: {error}\n"),
            ),
            ResultLookup::Pending(state) => conn.respond(
                "202 Accepted",
                "text/plain",
                &format!("job is {state}; poll again\n"),
            ),
            ResultLookup::Unknown => conn.respond(
                "404 Not Found",
                "text/plain",
                &format!("unknown job {external:?}\n"),
            ),
        }
    }
}

/// The shared `429` answer: retriable, and carrying the request's
/// correlation id so a shed submission is attributable in the logs.
fn reject_full(conn: &mut Conn<'_>) -> io::Result<()> {
    /// The `429` body.
    #[derive(Serialize)]
    struct Rejection {
        error: String,
        req_id: String,
    }

    let body = json::to_string(&Rejection {
        error: "job queue is full, retry shortly".to_string(),
        req_id: conn.req_id().to_string(),
    })
    .expect("a rejection always serializes");
    conn.respond_with(
        "429 Too Many Requests",
        "application/json",
        &["Retry-After: 1"],
        &format!("{body}\n"),
    )
}

/// The `GET /debug/snapshot` body, in this field order.
#[derive(Serialize)]
struct Snapshot {
    health: ServiceHealth,
    jobs: Vec<JobStatus>,
    profile: dpr_prof::ProfSnapshot,
    metrics: MetricsSnapshot,
    log: LogSnapshot,
}

/// The in-memory log ring as the snapshot lists it: its counters, then
/// the retained records, oldest first.
#[derive(Serialize)]
struct LogSnapshot {
    pushed: u64,
    overwritten: u64,
    records: Vec<Arc<Record>>,
}

/// A parsed capture (or the reason it failed to parse); either way the
/// pooled read buffer rides along so the caller can return it.
type ParsedCapture = Result<(Box<dpr_capture::CaptureSession>, Vec<u8>), (String, Vec<u8>)>;

/// Streams a capture body through [`CaptureReader`] using `buf` as the
/// reader's internal buffer; hands the buffer back in both outcomes.
fn parse_capture<R: Read>(src: R, buf: Vec<u8>) -> ParsedCapture {
    match CaptureReader::with_buffer(src, buf) {
        Ok(reader) => {
            let (session, _stats, buf) = reader.read_session_reusing();
            Ok((Box::new(session), buf))
        }
        // The header check reads only a few bytes; the buffer it used
        // is lost to the error path, so hand back an empty one.
        Err(e) => Err((format!("not a readable capture: {e}"), Vec::new())),
    }
}

impl HttpHandler for ServiceRouter {
    fn handle(&self, head: &RequestHead, conn: &mut Conn<'_>) -> io::Result<()> {
        let path = head.path();
        if path == "/jobs" {
            return match head.method.as_str() {
                "POST" => self.submit(head, conn),
                "GET" => self.list(conn),
                _ => conn.respond(
                    "405 Method Not Allowed",
                    "text/plain",
                    "use POST to submit or GET to list\n",
                ),
            };
        }
        if let Some(rest) = path.strip_prefix("/jobs/") {
            if head.method != "GET" {
                return conn.respond("405 Method Not Allowed", "text/plain", "GET only\n");
            }
            if let Some(id) = rest.strip_suffix("/events") {
                return self.events(id, conn);
            }
            return match rest.strip_suffix("/result") {
                Some(id) => self.result(id, conn),
                None => self.status(rest, conn),
            };
        }
        if path == "/healthz" || path == "/debug/snapshot" {
            if head.method != "GET" {
                return conn.respond("405 Method Not Allowed", "text/plain", "GET only\n");
            }
            return if path == "/healthz" {
                self.healthz(conn)
            } else {
                self.snapshot(conn)
            };
        }
        if self.obs.try_route(head, conn)? {
            return Ok(());
        }
        conn.respond(
            "404 Not Found",
            "text/plain",
            &format!("routes: {SERVE_ROUTES} — plus {OBS_ROUTES}\n"),
        )
    }
}

impl std::fmt::Debug for ServiceRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceRouter")
            .field("store", &self.store)
            .field("max_body", &self.max_body)
            .finish()
    }
}
