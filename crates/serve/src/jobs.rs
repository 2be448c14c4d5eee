//! The job table and bounded FIFO behind `POST /jobs`.
//!
//! A [`JobStore`] holds every job this service has seen: queued jobs
//! waiting in a bounded FIFO, the jobs the worker pool is running, and
//! a bounded history of finished ones (oldest finished evicted first,
//! counted as `jobs.evicted` — a long-running service cannot grow its
//! job table without limit). The history is bounded by count and by
//! the bytes of the results it holds ([`RETAINED_BYTES`]), so a few
//! huge results cannot pin memory either. [`submit`](JobStore::submit) is the
//! backpressure point: a full queue is an error the HTTP layer turns
//! into `429 Too Many Requests` *before* reading the request body.
//!
//! Progress reporting rides the structured log the pipeline already
//! writes: each job carries a [`JobTap`] that, while the job runs,
//! follows the job's `stage complete` records, so `GET /jobs/<id>` can
//! say which stages a running job has finished without the pipeline
//! knowing the service exists.

use dpr_capture::CaptureSession;
use dpr_obs::{RunRecord, RETAINED_BYTES};
use dpr_telemetry::log::{FieldValue, LogSink, Record};
use dpr_telemetry::trace::completed_stage;
use dpr_telemetry::{Registry, Ring};
use parking_lot::Mutex as PlMutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How many finished jobs the store retains by default.
pub const JOBS_KEPT: usize = 64;

/// How many past events a job's [`EventHub`] replays to a late
/// subscriber.
pub const EVENT_HISTORY: usize = 256;

/// Per-subscriber queue bound; a subscriber this far behind starts
/// losing events (counted as `log.stream_dropped`) instead of ever
/// blocking the publisher.
pub const SUBSCRIBER_QUEUE: usize = 256;

/// One entry on a job's live event stream (`GET /jobs/<id>/events`),
/// serialized as one ndjson line per event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobEvent {
    /// Position on this job's stream, starting at 0. Every subscriber
    /// sees the same sequence (modulo drops at the two bounds).
    pub seq: u64,
    /// Microseconds since process start ([`dpr_telemetry::log::now_us`]).
    pub t_us: u64,
    /// `state` (lifecycle transition), `stage` (pipeline stage
    /// finished), or `log` (a structured log record about this job).
    pub kind: String,
    /// The transition / stage name / log target.
    pub what: String,
    /// Supporting detail: the job source, stage wall-µs, or the full
    /// JSON-lines log record.
    pub detail: String,
}

/// One subscriber's channel: its bounded queue plus the flags the hub
/// and the subscriber use to signal each other.
struct SubChannel {
    queue: Mutex<VecDeque<JobEvent>>,
    ready: Condvar,
    ended: AtomicBool,
    detached: AtomicBool,
}

/// What [`Subscriber::wait`] yielded.
#[derive(Debug)]
pub enum EventWait {
    /// The next event on the stream.
    Event(JobEvent),
    /// Nothing arrived within the timeout; the job is still going.
    /// Streams use this to emit a keepalive.
    Idle,
    /// The job finished and every buffered event has been delivered.
    Ended,
}

/// A handle on one job's event stream. Dropping it detaches the
/// subscription — the hub stops queueing for it on its next publish.
pub struct Subscriber {
    channel: Arc<SubChannel>,
}

impl Subscriber {
    /// Blocks up to `timeout` for the next event.
    pub fn wait(&mut self, timeout: Duration) -> EventWait {
        let deadline = Instant::now() + timeout;
        let mut queue = self
            .channel
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(event) = queue.pop_front() {
                return EventWait::Event(event);
            }
            if self.channel.ended.load(Ordering::SeqCst) {
                return EventWait::Ended;
            }
            let now = Instant::now();
            if now >= deadline {
                return EventWait::Idle;
            }
            let (guard, _timeout) = self
                .channel
                .ready
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            queue = guard;
        }
    }
}

impl Drop for Subscriber {
    fn drop(&mut self) {
        self.channel.detached.store(true, Ordering::SeqCst);
    }
}

impl std::fmt::Debug for Subscriber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscriber")
            .field("ended", &self.channel.ended.load(Ordering::Relaxed))
            .finish()
    }
}

struct HubState {
    history: Ring<JobEvent>,
    next_seq: u64,
    subscribers: Vec<Arc<SubChannel>>,
    ended: bool,
}

/// One job's event fan-out: a bounded replay history plus any number
/// of live subscribers, each behind its own bounded queue.
///
/// [`push`](EventHub::push) never blocks and never waits on a slow
/// subscriber — a full subscriber queue drops the event for that
/// subscriber and counts it (`log.stream_dropped`), so the analysis
/// worker is isolated from stalled or dead stream clients.
pub struct EventHub {
    state: Mutex<HubState>,
    registry: Arc<Registry>,
}

impl EventHub {
    /// An empty hub counting drops into `registry`.
    pub fn new(registry: Arc<Registry>) -> EventHub {
        EventHub {
            state: Mutex::new(HubState {
                history: Ring::new(EVENT_HISTORY),
                next_seq: 0,
                subscribers: Vec::new(),
                ended: false,
            }),
            registry,
        }
    }

    /// Appends an event and fans it out. No-op after
    /// [`finish`](EventHub::finish).
    pub fn push(&self, kind: &str, what: &str, detail: &str) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.ended {
            return;
        }
        let event = JobEvent {
            seq: state.next_seq,
            t_us: dpr_telemetry::log::now_us(),
            kind: kind.to_string(),
            what: what.to_string(),
            detail: detail.to_string(),
        };
        state.next_seq += 1;
        state.history.push(event.clone());
        state
            .subscribers
            .retain(|channel| !channel.detached.load(Ordering::SeqCst));
        let mut dropped = 0;
        for channel in &state.subscribers {
            let mut queue = channel.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if queue.len() >= SUBSCRIBER_QUEUE {
                dropped += 1;
            } else {
                queue.push_back(event.clone());
                channel.ready.notify_one();
            }
        }
        if dropped > 0 {
            self.registry.counter("log.stream_dropped").inc(dropped);
        }
    }

    /// Marks the stream complete: subscribers drain what is queued,
    /// then see [`EventWait::Ended`].
    pub fn finish(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.ended = true;
        for channel in &state.subscribers {
            channel.ended.store(true, Ordering::SeqCst);
            channel.ready.notify_one();
        }
    }

    /// A new subscriber, preloaded with the replay history. A
    /// subscriber attached after [`finish`](EventHub::finish) still
    /// gets the history, then an immediate end-of-stream.
    pub fn subscribe(&self) -> Subscriber {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let channel = Arc::new(SubChannel {
            queue: Mutex::new(state.history.iter().cloned().collect()),
            ready: Condvar::new(),
            ended: AtomicBool::new(state.ended),
            detached: AtomicBool::new(false),
        });
        if !state.ended {
            state.subscribers.push(Arc::clone(&channel));
        }
        Subscriber { channel }
    }

    /// How many events this hub has published.
    pub fn published(&self) -> u64 {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_seq
    }
}

impl std::fmt::Debug for EventHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("EventHub")
            .field("published", &state.next_seq)
            .field("subscribers", &state.subscribers.len())
            .field("ended", &state.ended)
            .finish()
    }
}

/// One analysis worker's liveness line in `GET /healthz`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerReport {
    /// The worker thread's name (`dpr-serve-analyze-0`).
    pub name: String,
    /// `idle` (blocked on the queue) or `running` (mid-analysis).
    pub state: String,
    /// Milliseconds since this worker last checked in.
    pub heartbeat_age_ms: u64,
}

struct WorkerSlot {
    name: String,
    state: &'static str,
    last_beat: Instant,
}

/// The analysis workers' heartbeat board: each worker checks in at
/// every lifecycle transition, and `GET /healthz` reports the age of
/// each worker's last beat.
#[derive(Default)]
pub struct WorkerHealth {
    workers: PlMutex<Vec<WorkerSlot>>,
}

impl WorkerHealth {
    /// Registers a worker (initially `idle`); returns its slot index.
    pub fn register(&self, name: String) -> usize {
        let mut workers = self.workers.lock();
        workers.push(WorkerSlot {
            name,
            state: "idle",
            last_beat: Instant::now(),
        });
        workers.len() - 1
    }

    /// Records a heartbeat: the worker at `slot` is now in `state`.
    pub fn beat(&self, slot: usize, state: &'static str) {
        let mut workers = self.workers.lock();
        if let Some(worker) = workers.get_mut(slot) {
            worker.state = state;
            worker.last_beat = Instant::now();
        }
    }

    /// Every worker's current state and heartbeat age.
    pub fn report(&self) -> Vec<WorkerReport> {
        self.workers
            .lock()
            .iter()
            .map(|w| WorkerReport {
                name: w.name.clone(),
                state: w.state.to_string(),
                heartbeat_age_ms: w.last_beat.elapsed().as_millis() as u64,
            })
            .collect()
    }
}

impl std::fmt::Debug for WorkerHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerHealth")
            .field("workers", &self.workers.lock().len())
            .finish()
    }
}

/// What one job analyzes.
#[derive(Debug)]
pub enum JobInput {
    /// A capture session parsed from an uploaded `.dprcap` body.
    Capture(Box<CaptureSession>),
    /// A named car profile (`{"car":"M"}`) to collect and analyze.
    Car(String),
}

/// One job's log tap, attached to the global logger while the job runs.
///
/// It keeps the records whose (context-supplied) `job_id` is this job's.
/// A `pipeline`/`stage complete` record marks its stage done and pushes
/// a `stage` event (detail: the stage's `wall_us`); every kept record is
/// then mirrored as a `log` event carrying its full JSON line. Like
/// every [`LogSink`] it runs on the emitting thread and never blocks:
/// [`EventHub::push`] drops for slow subscribers instead of waiting.
#[derive(Debug)]
pub struct JobTap {
    job: String,
    done: PlMutex<Vec<String>>,
    events: Arc<EventHub>,
}

impl JobTap {
    /// A tap for the job with external id `job`, streaming onto `events`.
    pub(crate) fn new(job: String, events: Arc<EventHub>) -> JobTap {
        JobTap {
            job,
            done: PlMutex::default(),
            events,
        }
    }

    /// Stage names finished so far, in completion order.
    pub(crate) fn done(&self) -> Vec<String> {
        self.done.lock().clone()
    }
}

impl LogSink for JobTap {
    fn record(&self, record: &Arc<Record>) {
        if !matches!(record.field("job_id"), Some(FieldValue::Str(id)) if *id == self.job) {
            return;
        }
        if let Some((stage, wall_us)) = completed_stage(record) {
            self.done.lock().push(stage.to_string());
            self.events.push("stage", stage, &wall_us.to_string());
        }
        self.events.push("log", &record.target, &record.to_json());
    }
}

/// One stage of a finished job: name and wall time, from the job's
/// [`PipelineTrace`](dpr_telemetry::PipelineTrace).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLine {
    /// Stage name (`transport`, `ocr`, …).
    pub name: String,
    /// Stage wall time in microseconds.
    pub wall_us: u64,
}

/// What `GET /jobs/<id>` serializes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    /// External job id (`job-1`, `job-2`, …).
    pub id: String,
    /// `queued`, `running`, `done`, or `failed`.
    pub state: String,
    /// What was submitted: `capture` or `car:<letter>`.
    pub source: String,
    /// Stages finished so far (live progress while running; the full
    /// list once done).
    pub stages_done: Vec<String>,
    /// Per-stage wall times from the final trace (empty until done).
    pub stages: Vec<StageLine>,
    /// The [`RunStore`](dpr_obs::RunStore) id of the published result.
    pub run_id: Option<String>,
    /// Why the job failed, when it did.
    pub error: Option<String>,
    /// Total pipeline wall time in microseconds, once done.
    pub wall_us: Option<u64>,
}

enum Phase {
    Queued(JobInput),
    Running,
    Done {
        /// The published run, shared with the run store; its document
        /// is the canonical result every `GET /jobs/<id>/result`
        /// response writes without copying.
        run: Arc<RunRecord>,
        stages: Vec<StageLine>,
        wall_us: u64,
    },
    Failed {
        error: String,
    },
}

impl Phase {
    fn state(&self) -> &'static str {
        match self {
            Phase::Queued(_) => "queued",
            Phase::Running => "running",
            Phase::Done { .. } => "done",
            Phase::Failed { .. } => "failed",
        }
    }

    /// Result bytes this phase holds against [`RETAINED_BYTES`].
    fn bytes(&self) -> usize {
        match self {
            Phase::Done { run, .. } => run.document.len(),
            _ => 0,
        }
    }
}

struct Job {
    source: String,
    phase: Phase,
    tap: Arc<JobTap>,
}

struct Inner {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    finished: Ring<u64>,
    /// Result bytes of the jobs in `finished`.
    finished_bytes: usize,
    next_id: u64,
    draining: bool,
}

/// Why a submission was not enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded FIFO is full — the caller should retry shortly (429).
    QueueFull,
    /// The service is shutting down (503).
    Draining,
}

/// What [`JobStore::result`] found.
#[derive(Debug)]
pub enum ResultLookup {
    /// The job finished; here is its canonical result JSON.
    Done(Arc<str>),
    /// The job failed with this error.
    Failed(String),
    /// The job is still `queued` or `running`.
    Pending(&'static str),
    /// No such job.
    Unknown,
}

/// The bounded job table: FIFO queue, running set, finished history.
pub struct JobStore {
    inner: Mutex<Inner>,
    ready: Condvar,
    queue_capacity: usize,
    registry: Arc<Registry>,
}

fn lock<'a>(mutex: &'a Mutex<Inner>) -> MutexGuard<'a, Inner> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl JobStore {
    /// A store with a FIFO bounded to `queue_capacity` and a finished
    /// history bounded to `jobs_kept` (both floored to 1) and to
    /// [`RETAINED_BYTES`] of results. `jobs.*` metrics land in
    /// `registry`.
    pub fn new(queue_capacity: usize, jobs_kept: usize, registry: Arc<Registry>) -> JobStore {
        JobStore {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                queue: VecDeque::new(),
                finished: Ring::new(jobs_kept),
                finished_bytes: 0,
                next_id: 0,
                draining: false,
            }),
            ready: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            registry,
        }
    }

    /// The FIFO bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// Jobs currently waiting in the FIFO.
    pub fn queue_len(&self) -> usize {
        lock(&self.inner).queue.len()
    }

    /// Whether a submission right now would be rejected. The HTTP layer
    /// checks this after parsing the request head and *before* reading
    /// the body, so a full queue costs an oversized upload nothing.
    pub fn is_full(&self) -> bool {
        let inner = lock(&self.inner);
        inner.draining || inner.queue.len() >= self.queue_capacity
    }

    /// Counts a submission refused before its body was read (the HTTP
    /// layer's early `429`, which never reaches [`submit`](Self::submit))
    /// under the same `jobs.rejected` counter as in-store rejections.
    pub fn note_rejected(&self) {
        self.registry.counter("jobs.rejected").inc(1);
    }

    /// Enqueues a job, returning its external id (`job-N`).
    pub fn submit(&self, source: String, input: JobInput) -> Result<String, SubmitError> {
        let mut inner = lock(&self.inner);
        if inner.draining {
            self.registry.counter("jobs.rejected").inc(1);
            return Err(SubmitError::Draining);
        }
        if inner.queue.len() >= self.queue_capacity {
            self.registry.counter("jobs.rejected").inc(1);
            return Err(SubmitError::QueueFull);
        }
        inner.next_id += 1;
        let id = inner.next_id;
        let events = Arc::new(EventHub::new(Arc::clone(&self.registry)));
        events.push("state", "queued", &source);
        inner.jobs.insert(
            id,
            Job {
                phase: Phase::Queued(input),
                tap: Arc::new(JobTap::new(format!("job-{id}"), events)),
                source,
            },
        );
        inner.queue.push_back(id);
        self.registry.counter("jobs.submitted").inc(1);
        self.registry
            .gauge("jobs.queue_depth")
            .set(inner.queue.len() as i64);
        // Logged under the store lock so this record always precedes the
        // worker's "job started": `take_next` needs the same lock to
        // claim the job. Ambient context carries the HTTP edge's
        // `req_id` in, tying the request to the queue hand-off.
        dpr_telemetry::log::info(
            "serve.job",
            "job accepted",
            &[
                ("job_id", format!("job-{id}").into()),
                ("source", inner.jobs[&id].source.as_str().into()),
            ],
        );
        drop(inner);
        self.ready.notify_one();
        Ok(format!("job-{id}"))
    }

    /// Blocks until a job is available and claims it for a worker,
    /// handing over the job's [`JobTap`] for the worker to attach.
    /// `None` once the store is draining and the FIFO is empty — queued
    /// jobs are always finished before workers exit (graceful drain).
    pub fn take_next(&self) -> Option<(u64, JobInput, Arc<JobTap>)> {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(id) = inner.queue.pop_front() {
                self.registry
                    .gauge("jobs.queue_depth")
                    .set(inner.queue.len() as i64);
                let job = inner.jobs.get_mut(&id).expect("queued id is in the table");
                let input = match std::mem::replace(&mut job.phase, Phase::Running) {
                    Phase::Queued(input) => input,
                    other => {
                        // Unreachable by construction; restore and skip.
                        job.phase = other;
                        continue;
                    }
                };
                job.tap.events.push("state", "running", "");
                return Some((id, input, Arc::clone(&job.tap)));
            }
            if inner.draining {
                return None;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records a job's successful completion with its published run.
    pub fn complete(&self, id: u64, run: Arc<RunRecord>, stages: Vec<StageLine>, wall_us: u64) {
        let detail = run.id.clone();
        let events = self.finish(
            id,
            Phase::Done {
                run,
                stages,
                wall_us,
            },
        );
        self.registry.counter("jobs.completed").inc(1);
        if let Some(events) = events {
            events.push("state", "done", &detail);
            events.finish();
        }
    }

    /// Records a job's failure.
    pub fn fail(&self, id: u64, error: String) {
        let detail = error.clone();
        let events = self.finish(id, Phase::Failed { error });
        self.registry.counter("jobs.failed").inc(1);
        if let Some(events) = events {
            events.push("state", "failed", &detail);
            events.finish();
        }
    }

    /// Moves a job to its finished phase, then evicts the oldest
    /// finished jobs while more than `jobs_kept` are held or their
    /// results exceed [`RETAINED_BYTES`].
    fn finish(&self, id: u64, phase: Phase) -> Option<Arc<EventHub>> {
        let mut inner = lock(&self.inner);
        let inner = &mut *inner;
        let events = inner.jobs.get_mut(&id).map(|job| {
            inner.finished_bytes += phase.bytes();
            inner.finished_bytes -= std::mem::replace(&mut job.phase, phase).bytes();
            Arc::clone(&job.tap.events)
        });
        if let Some(old) = inner.finished.push(id) {
            self.evict(inner, old);
        }
        while inner.finished_bytes > RETAINED_BYTES {
            match inner.finished.evict_oldest() {
                Some(old) => self.evict(inner, old),
                None => break,
            }
        }
        events
    }

    /// Drops an evicted finished job from the table.
    fn evict(&self, inner: &mut Inner, id: u64) {
        if let Some(job) = inner.jobs.remove(&id) {
            inner.finished_bytes -= job.phase.bytes();
            self.registry.counter("jobs.evicted").inc(1);
        }
    }

    /// Result bytes the finished-job history holds (at most
    /// [`RETAINED_BYTES`]).
    pub fn retained_bytes(&self) -> usize {
        lock(&self.inner).finished_bytes
    }

    /// Subscribes to one job's live event stream. `None` for unknown
    /// (or already-evicted) jobs; a finished job yields its replay
    /// history followed by end-of-stream.
    pub fn subscribe(&self, external: &str) -> Option<Subscriber> {
        let id = parse_id(external)?;
        let inner = lock(&self.inner);
        inner.jobs.get(&id).map(|job| job.tap.events.subscribe())
    }

    /// How many jobs are being analyzed right now.
    pub fn running(&self) -> usize {
        let inner = lock(&self.inner);
        inner
            .jobs
            .values()
            .filter(|job| matches!(job.phase, Phase::Running))
            .count()
    }

    /// The status of one job by external id (`job-N`).
    pub fn status(&self, external: &str) -> Option<JobStatus> {
        let id = parse_id(external)?;
        let inner = lock(&self.inner);
        inner.jobs.get(&id).map(|job| job_status(id, job))
    }

    /// The status of every retained job, oldest first.
    pub fn statuses(&self) -> Vec<JobStatus> {
        let inner = lock(&self.inner);
        inner
            .jobs
            .iter()
            .map(|(id, job)| job_status(*id, job))
            .collect()
    }

    /// The canonical result JSON of a finished job.
    pub fn result(&self, external: &str) -> ResultLookup {
        let Some(id) = parse_id(external) else {
            return ResultLookup::Unknown;
        };
        let inner = lock(&self.inner);
        match inner.jobs.get(&id).map(|j| &j.phase) {
            Some(Phase::Done { run, .. }) => ResultLookup::Done(Arc::clone(&run.document)),
            Some(Phase::Failed { error }) => ResultLookup::Failed(error.clone()),
            Some(phase) => ResultLookup::Pending(phase.state()),
            None => ResultLookup::Unknown,
        }
    }

    /// Stops accepting submissions and wakes every worker; workers
    /// finish the queued backlog, then [`take_next`](Self::take_next)
    /// returns `None`.
    pub fn drain(&self) {
        lock(&self.inner).draining = true;
        self.ready.notify_all();
    }
}

impl std::fmt::Debug for JobStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("JobStore")
            .field("jobs", &inner.jobs.len())
            .field("queued", &inner.queue.len())
            .field("queue_capacity", &self.queue_capacity)
            .field("draining", &inner.draining)
            .finish()
    }
}

fn parse_id(external: &str) -> Option<u64> {
    external.strip_prefix("job-")?.parse().ok()
}

fn job_status(id: u64, job: &Job) -> JobStatus {
    let (stages, run_id, error, wall_us) = match &job.phase {
        Phase::Done {
            run,
            stages,
            wall_us,
        } => (stages.clone(), Some(run.id.clone()), None, Some(*wall_us)),
        Phase::Failed { error } => (Vec::new(), None, Some(error.clone()), None),
        _ => (Vec::new(), None, None, None),
    };
    JobStatus {
        id: format!("job-{id}"),
        state: job.phase.state().to_string(),
        source: job.source.clone(),
        stages_done: job.tap.done(),
        stages,
        run_id,
        error,
        wall_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(capacity: usize, kept: usize) -> (JobStore, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        (JobStore::new(capacity, kept, Arc::clone(&registry)), registry)
    }

    /// The `jobs.evicted` count in `registry`.
    fn evicted(registry: &Registry) -> u64 {
        let snapshot = registry.snapshot();
        snapshot.counters.get("jobs.evicted").copied().unwrap_or(0)
    }

    /// A published run whose result is `document`.
    fn run(id: &str, document: Arc<str>) -> Arc<RunRecord> {
        Arc::new(RunRecord {
            id: id.to_string(),
            at_ms: 0,
            job: None,
            sensors: Vec::new(),
            trace: Default::default(),
            document,
        })
    }

    /// Submits, claims and completes one job with `document` as its
    /// result; returns its external id.
    fn run_job(store: &JobStore, document: &Arc<str>) -> String {
        let id = store.submit("car:M".into(), JobInput::Car("M".into())).unwrap();
        let (raw, _, _) = store.take_next().unwrap();
        store.complete(raw, run("run-x", Arc::clone(document)), vec![], 1);
        id
    }

    #[test]
    fn submit_take_complete_round_trip() {
        let (store, registry) = store(2, 8);
        let id = store.submit("car:M".into(), JobInput::Car("M".into())).unwrap();
        assert_eq!(id, "job-1");
        assert_eq!(store.status("job-1").unwrap().state, "queued");
        assert_eq!(store.queue_len(), 1);

        let (raw, input, _tap) = store.take_next().unwrap();
        assert_eq!(raw, 1);
        assert!(matches!(input, JobInput::Car(name) if name == "M"));
        assert_eq!(store.status("job-1").unwrap().state, "running");

        store.complete(
            raw,
            run("run-1", "{}".into()),
            vec![StageLine {
                name: "transport".into(),
                wall_us: 5,
            }],
            42,
        );
        let status = store.status("job-1").unwrap();
        assert_eq!(status.state, "done");
        assert_eq!(status.run_id.as_deref(), Some("run-1"));
        assert_eq!(status.wall_us, Some(42));
        assert!(matches!(store.result("job-1"), ResultLookup::Done(j) if &*j == "{}"));
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters.get("jobs.submitted"), Some(&1));
        assert_eq!(snapshot.counters.get("jobs.completed"), Some(&1));
    }

    #[test]
    fn full_queue_rejects_without_losing_jobs() {
        let (store, registry) = store(2, 8);
        store.submit("capture".into(), JobInput::Car("A".into())).unwrap();
        store.submit("capture".into(), JobInput::Car("B".into())).unwrap();
        assert!(store.is_full());
        assert_eq!(
            store.submit("capture".into(), JobInput::Car("C".into())),
            Err(SubmitError::QueueFull)
        );
        assert_eq!(store.queue_len(), 2);
        assert_eq!(registry.snapshot().counters.get("jobs.rejected"), Some(&1));

        // Draining a worker slot frees a queue slot.
        let _ = store.take_next().unwrap();
        assert!(!store.is_full());
        assert!(store.submit("capture".into(), JobInput::Car("C".into())).is_ok());
    }

    #[test]
    fn drain_finishes_backlog_then_stops_workers() {
        let (store, _registry) = store(4, 8);
        store.submit("car:M".into(), JobInput::Car("M".into())).unwrap();
        store.submit("car:B".into(), JobInput::Car("B".into())).unwrap();
        store.drain();
        assert_eq!(
            store.submit("car:C".into(), JobInput::Car("C".into())),
            Err(SubmitError::Draining)
        );
        // Queued jobs are still handed out after drain…
        assert!(store.take_next().is_some());
        assert!(store.take_next().is_some());
        // …and only then do workers see the end.
        assert!(store.take_next().is_none());
    }

    #[test]
    fn finished_history_is_bounded_and_eviction_counted() {
        let (store, registry) = store(8, 2);
        for _ in 0..5 {
            let id = run_job(&store, &"{}".into());
            assert_eq!(store.status(&id).unwrap().state, "done");
        }
        // Only the last 2 finished jobs remain; 3 were evicted.
        assert_eq!(store.statuses().len(), 2);
        assert!(store.status("job-1").is_none());
        assert!(store.status("job-5").is_some());
        assert!(matches!(store.result("job-1"), ResultLookup::Unknown));
        assert_eq!(registry.snapshot().counters.get("jobs.evicted"), Some(&3));
    }

    #[test]
    fn finished_history_is_bounded_by_result_bytes() {
        let (store, registry) = store(8, JOBS_KEPT);
        // One shared buffer stands in for every huge result: the store
        // counts each job's bytes, the test allocates them once.
        let huge: Arc<str> = "x".repeat(RETAINED_BYTES / 4 + 1).into();
        let mut ids = Vec::new();
        for done in 1..=10u64 {
            ids.push(run_job(&store, &huge));
            assert!(store.retained_bytes() <= RETAINED_BYTES);
            // Three results fit under the ceiling, a fourth does not.
            let held = done.min(3);
            assert_eq!(store.retained_bytes(), held as usize * huge.len());
            assert_eq!(store.statuses().len() as u64, held);
            assert_eq!(evicted(&registry), done - held, "every eviction is counted");
        }
        // The newest three are the ones kept.
        assert!(ids[..7].iter().all(|id| store.status(id).is_none()));
        assert!(ids[7..].iter().all(|id| store.status(id).is_some()));
        assert!(matches!(store.result(&ids[9]), ResultLookup::Done(r) if r.len() == huge.len()));

        // Small results evict exactly as the count bound alone would.
        let (store, registry) = self::store(8, JOBS_KEPT);
        let small: Arc<str> = "{}".into();
        for done in 1..=2 * JOBS_KEPT as u64 {
            run_job(&store, &small);
            let kept = done.min(JOBS_KEPT as u64);
            assert_eq!(store.statuses().len() as u64, kept);
            assert_eq!(evicted(&registry), done - kept);
        }
    }

    #[test]
    fn job_tap_turns_its_jobs_stage_records_into_progress() {
        let events = Arc::new(EventHub::new(Arc::new(Registry::new())));
        let tap = JobTap::new("job-1".into(), Arc::clone(&events));
        let stage_record = |job: &str, target: &str, stage: &str| {
            Arc::new(Record {
                t_us: 0,
                level: dpr_telemetry::log::Level::Info,
                target: target.to_string(),
                message: "stage complete".to_string(),
                fields: vec![
                    ("job_id".to_string(), FieldValue::from(job)),
                    ("stage".to_string(), FieldValue::from(stage)),
                    ("wall_us".to_string(), FieldValue::U64(42)),
                ],
            })
        };
        tap.record(&stage_record("job-1", "pipeline", "transport"));
        // Another job's stage, and a stage record from outside the
        // pipeline, are not this job's progress.
        tap.record(&stage_record("job-2", "pipeline", "ocr"));
        tap.record(&stage_record("job-1", "other", "ocr"));
        tap.record(&stage_record("job-1", "pipeline", "ecr"));
        assert_eq!(tap.done(), vec!["transport".to_string(), "ecr".to_string()]);

        // Each stage event precedes the log event of its record; the
        // other job's record never reaches this stream.
        events.finish();
        let mut stream = events.subscribe();
        let mut seen = Vec::new();
        while let EventWait::Event(event) = stream.wait(Duration::ZERO) {
            seen.push(event);
        }
        let kinds: Vec<(&str, &str)> =
            seen.iter().map(|e| (e.kind.as_str(), e.what.as_str())).collect();
        assert!(seen.iter().filter(|e| e.kind == "stage").all(|e| e.detail == "42"));
        assert_eq!(
            kinds,
            vec![
                ("stage", "transport"),
                ("log", "pipeline"),
                ("log", "other"),
                ("stage", "ecr"),
                ("log", "pipeline"),
            ]
        );
    }
}
