//! The `serve` workload: an open loop of `.dprcap` uploads to an
//! in-process `dpr-serve`, one submitter and one poller thread, each
//! holding at most one connection.

use crate::analyze::{self, Shape};
use crate::check::{unexpected_status, verify, Outcome, Tally};
use crate::inputs::{self, Arrival};
use crate::layers::{self, PoolDelta, Sample, ServeLayers, Window};
use crate::metrics::{self, median, smooth_quantile, Report, Values};
use dp_reverser::ReverseEngineeringResult;
use dpr_bench::BenchAnalyzer;
use dpr_serve::{
    AnalysisService, Analyzer, EventWait, JobInput, JobStatus, ServiceConfig, SubmitResponse,
};
use dpr_telemetry::Collector;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Jobs per second the open loop submits: about 40% of what two workers
/// sustain on the reduced GP budget. Queue waits grow steeply with load:
/// at half of capacity, runs on a host 10% slower read about 30% slower
/// in median job latency. Here the queue still shows, and amplifies
/// such drift less.
pub const RATE: f64 = 3.0;
/// Analysis workers of the service under test.
pub const WORKERS: usize = 2;
/// The poller's pause between status rounds.
const POLL: Duration = Duration::from_millis(10);
/// A job not done this long after it was due counts as timed out.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// How the open loop polls.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// Pause between status rounds.
    pub poll: Duration,
    /// Deadline of a job, from when it was due; also the socket timeout.
    pub timeout: Duration,
}

/// What the open loop measured.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// One entry per scheduled job.
    pub tally: Tally,
    /// Scheduled send to result fetched, per finished job.
    pub latency_ms: Vec<f64>,
    /// How late the generator sent each job.
    pub lag_ms: Vec<f64>,
    /// `POST /jobs` round trips.
    pub submit_ms: Vec<f64>,
    /// `GET /jobs/<id>/result` round trips.
    pub fetch_ms: Vec<f64>,
    /// Capture index and pipeline wall time (as its status reports it)
    /// of each finished job.
    pub run_ms: Vec<(usize, f64)>,
    /// Queue wait per finished job, from its events (when asked for).
    pub queue_wait_ms: Vec<f64>,
    /// Status polls made.
    pub polls: u64,
    /// Deepest job queue seen between polls.
    pub queue_depth_max: usize,
}

/// One HTTP/1.1 exchange on a fresh connection (the service closes it
/// after answering); returns the status code and the body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n");
    if !body.is_empty() {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    // A refused upload is answered before its body is read, so a failed
    // write still leaves a response to read.
    let sent = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body));
    let mut response = Vec::new();
    let read = stream.read_to_end(&mut response);
    let invalid = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why.to_string());
    let parsed = (|| {
        let status = std::str::from_utf8(response.get(9..12)?)
            .ok()?
            .parse()
            .ok()?;
        let split = response.windows(4).position(|w| w == b"\r\n\r\n")?;
        Some((status, response[split + 4..].to_vec()))
    })();
    match parsed {
        Some(answer) => Ok(answer),
        None => {
            sent?;
            read?;
            Err(invalid("malformed HTTP response"))
        }
    }
}

struct Submitted {
    job: String,
    car: usize,
    due: Instant,
}

/// Runs `schedule` against `service`: each job is uploaded when due,
/// polled until done, fetched, and checked against `references`. With
/// `events`, each job's queue wait is read from its event history.
pub fn drive(
    service: &AnalysisService,
    captures: &[Vec<u8>],
    references: &[String],
    schedule: &[Arrival],
    load: &Load,
    events: bool,
) -> ServeRun {
    let addr = service.addr();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(10);
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut run = ServeRun::default();
            for arrival in schedule {
                let due = start + arrival.at;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                run.lag_ms.push(ms(sent.saturating_duration_since(due)));
                let outcome =
                    match request(addr, "POST", "/jobs", &captures[arrival.car], load.timeout) {
                        Ok((202, body)) => {
                            match dpr_telemetry::json::from_str::<SubmitResponse>(
                                &String::from_utf8_lossy(&body),
                            ) {
                                Ok(accepted) => {
                                    run.submit_ms.push(ms(sent.elapsed()));
                                    let job = Submitted {
                                        job: accepted.job,
                                        car: arrival.car,
                                        due,
                                    };
                                    if tx.send(job).is_ok() {
                                        continue;
                                    }
                                    Outcome::Error("poller gone".into())
                                }
                                Err(e) => Outcome::Error(format!("submit answer: {e}")),
                            }
                        }
                        Ok((status, _)) => unexpected_status(status),
                        Err(e) => Outcome::Error(format!("submit: {e}")),
                    };
                run.tally.record("submit", &outcome);
            }
            run
        });
        let mut run = poll_all(service, rx, references, load, events);
        let submitted = submitter
            .join()
            .expect("the submitter thread does not panic");
        run.tally.merge(submitted.tally);
        run.lag_ms = submitted.lag_ms;
        run.submit_ms = submitted.submit_ms;
        run
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The poller: round-robin status polls over the outstanding jobs until
/// the submitter is done and nothing is outstanding.
fn poll_all(
    service: &AnalysisService,
    rx: mpsc::Receiver<Submitted>,
    references: &[String],
    load: &Load,
    events: bool,
) -> ServeRun {
    let mut run = ServeRun::default();
    let mut outstanding: Vec<Submitted> = Vec::new();
    let mut open = true;
    loop {
        if outstanding.is_empty() {
            match rx.recv() {
                Ok(job) => outstanding.push(job),
                Err(_) => break,
            }
        }
        while open {
            match rx.try_recv() {
                Ok(job) => outstanding.push(job),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => open = false,
            }
        }
        run.queue_depth_max = run.queue_depth_max.max(service.store().queue_len());
        outstanding.retain(|job| !poll_once(service, job, references, load, events, &mut run));
        if !outstanding.is_empty() {
            std::thread::sleep(load.poll);
        }
    }
    run
}

/// Polls one job once; returns whether it is settled (and recorded).
fn poll_once(
    service: &AnalysisService,
    job: &Submitted,
    references: &[String],
    load: &Load,
    events: bool,
    run: &mut ServeRun,
) -> bool {
    let addr = service.addr();
    run.polls += 1;
    let outcome = match request(
        addr,
        "GET",
        &format!("/jobs/{}", job.job),
        b"",
        load.timeout,
    ) {
        Ok((200, body)) => {
            match dpr_telemetry::json::from_str::<JobStatus>(&String::from_utf8_lossy(&body)) {
                Ok(status) if status.state == "done" => {
                    let fetch_started = Instant::now();
                    match request(
                        addr,
                        "GET",
                        &format!("/jobs/{}/result", job.job),
                        b"",
                        load.timeout,
                    ) {
                        Ok((200, result)) => {
                            run.latency_ms.push(ms(job.due.elapsed()));
                            run.fetch_ms.push(ms(fetch_started.elapsed()));
                            run.run_ms
                                .push((job.car, status.wall_us.unwrap_or(0) as f64 / 1e3));
                            if events {
                                run.queue_wait_ms.extend(queue_wait_ms(service, &job.job));
                            }
                            verify(&result, &references[job.car])
                        }
                        Ok((code, _)) => unexpected_status(code),
                        Err(e) => Outcome::Error(format!("fetch: {e}")),
                    }
                }
                Ok(status) if status.state == "failed" => {
                    Outcome::Error(format!("job failed: {}", status.error.unwrap_or_default()))
                }
                Ok(_) if job.due.elapsed() > load.timeout => Outcome::Timeout,
                Ok(_) => return false,
                Err(e) => Outcome::Error(format!("status answer: {e}")),
            }
        }
        Ok((code, _)) => unexpected_status(code),
        Err(e) => Outcome::Error(format!("status: {e}")),
    };
    run.tally.record(&job.job, &outcome);
    true
}

/// Accepted-to-running time of a finished job, from its state events.
fn queue_wait_ms(service: &AnalysisService, job: &str) -> Option<f64> {
    let mut stream = service.store().subscribe(job)?;
    let (mut queued, mut running) = (None, None);
    while let EventWait::Event(event) = stream.wait(Duration::ZERO) {
        match (event.kind.as_str(), event.what.as_str()) {
            ("state", "queued") => queued = Some(event.t_us),
            ("state", "running") => running = Some(event.t_us),
            _ => {}
        }
    }
    Some(running?.saturating_sub(queued?) as f64 / 1e3)
}

/// The production analyzer with the benchmark's span collector attached
/// to each job's registry; keeps one sample per analyzed job.
#[derive(Default)]
struct TracedAnalyzer {
    samples: Mutex<Vec<Sample>>,
}

impl TracedAnalyzer {
    fn take(&self) -> Vec<Sample> {
        std::mem::take(&mut *self.samples.lock().expect("sample recorders do not panic"))
    }
}

impl Analyzer for TracedAnalyzer {
    fn analyze(&self, input: JobInput) -> Result<ReverseEngineeringResult, String> {
        let car = match &input {
            JobInput::Capture(session) => session
                .meta
                .get("car")
                .and_then(|c| dpr_bench::parse_car(c)),
            JobInput::Car(name) => dpr_bench::parse_car(name),
        };
        let collector = Arc::new(Collector::new());
        dpr_telemetry::registry().add_sink(Arc::clone(&collector) as _);
        let started = Instant::now();
        let outcome = BenchAnalyzer.analyze(input);
        if let (Ok(result), Some(car)) = (&outcome, car) {
            let sample = Sample {
                car: car as usize,
                analyze: started.elapsed(),
                trace: result.trace.clone(),
                spans: collector.records(),
                ..Sample::default()
            };
            self.samples
                .lock()
                .expect("sample recorders do not panic")
                .push(sample);
        }
        outcome
    }

    fn knows_car(&self, name: &str) -> bool {
        BenchAnalyzer.knows_car(name)
    }
}

/// Runs the `serve` workload: set-up with references from a direct
/// `analyze_replay` per capture, an untimed warm-up job per worker, then
/// about `seconds × RATE` jobs in seeded car order at a fixed rate.
///
/// The job count is rounded to whole rounds of the 18 captures. Job
/// times cluster by car, so with uneven rounds the median lands in
/// whichever car's cluster happened to get an extra job.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Result<Report, String> {
    let setup = analyze::setup(Shape::Pool(WORKERS))?;
    let captures: Vec<Vec<u8>> = setup.inputs.iter().map(|i| i.capture.clone()).collect();
    let recorder = Arc::new(TracedAnalyzer::default());
    let analyzer: Arc<dyn Analyzer> = if traced {
        Arc::clone(&recorder) as _
    } else {
        Arc::new(BenchAnalyzer)
    };
    let config = ServiceConfig {
        analysis_workers: WORKERS,
        ..ServiceConfig::default()
    };
    let service = AnalysisService::start("127.0.0.1:0", config, analyzer)
        .map_err(|e| format!("starting the service: {e}"))?;
    let load = Load {
        poll: POLL,
        timeout: JOB_TIMEOUT,
    };
    let warm: Vec<Arrival> = (0..WORKERS)
        .map(|car| Arrival {
            at: Duration::ZERO,
            car,
        })
        .collect();
    let warmup = drive(&service, &captures, &setup.references, &warm, &load, false);
    recorder.take();

    let rounds = ((seconds as f64 * RATE / captures.len() as f64).round() as usize).max(1);
    let jobs = rounds * captures.len();
    let schedule = inputs::schedule(seed, jobs, RATE, captures.len());
    crate::set_profiling(traced);
    crate::alloc_tally::set_counting(traced);
    let prof_before = dpr_prof::snapshot();
    let cpu_before = metrics::cpu_seconds();
    let started = Instant::now();
    let measured = drive(
        &service,
        &captures,
        &setup.references,
        &schedule,
        &load,
        traced,
    );
    let wall = started.elapsed();
    let cpu_s = metrics::cpu_seconds() - cpu_before;
    crate::alloc_tally::set_counting(false);
    let pool = PoolDelta::between(&prof_before, &dpr_prof::snapshot());
    crate::set_profiling(false);
    service.stop();

    let mut lines = vec![
        format!(
            "{jobs} jobs at {RATE} jobs/s over {:.3} s, {WORKERS} analysis workers; set-up {:.3} s",
            wall.as_secs_f64(),
            setup.setup_s,
        ),
        pool.verdict(dpr_par::threads()),
    ];
    if let Some(first) = measured
        .tally
        .first_failure
        .as_ref()
        .or(warmup.tally.first_failure.as_ref())
    {
        lines.push(format!("first failure: {first}"));
    }
    let correct = measured.tally.failed() == 0 && warmup.tally.failed() == 0 && setup.deterministic;
    let values = if traced {
        let mut samples = recorder.take();
        for sample in &mut samples {
            let reference = &setup.samples[sample.car];
            sample.decode = reference.decode;
            sample.records = reference.records;
            sample.json = reference.json;
            sample.json_bytes = reference.json_bytes;
        }
        let traced_s: f64 = samples.iter().map(|s| s.analyze.as_secs_f64()).sum();
        let untraced_s: f64 = samples
            .iter()
            .map(|s| setup.samples[s.car].analyze.as_secs_f64())
            .sum();
        let mean = |v: &[f64]| metrics::ratio(v.iter().sum(), v.len() as f64);
        let run_ms: Vec<f64> = measured.run_ms.iter().map(|(_, ms)| *ms).collect();
        let window = Window {
            wall,
            cpu_s,
            threads: WORKERS,
            pool,
            allocs: crate::alloc_tally::read(),
            overhead_share: metrics::ratio(traced_s, untraced_s) - 1.0,
            serve: Some(ServeLayers {
                submit_ms: mean(&measured.submit_ms),
                queue_wait_ms: mean(&measured.queue_wait_ms),
                run_ms: mean(&run_ms),
                fetch_ms: mean(&measured.fetch_ms),
                polls_per_job: metrics::ratio(
                    measured.polls as f64,
                    measured.latency_ms.len() as f64,
                ),
                queue_depth_max: measured.queue_depth_max as f64,
                generator_lag_ms: measured.lag_ms.iter().copied().fold(0.0, f64::max),
            }),
        };
        let (values, table) = layers::per_layer(&samples, &window);
        lines.extend(table);
        values
    } else {
        // The service's analysis time for the 18 captures: each one's
        // median job pipeline time over the run, summed.
        let mut car_ms = vec![Vec::new(); captures.len()];
        for &(car, ms) in &measured.run_ms {
            car_ms[car].push(ms);
        }
        let analysis_s = car_ms.iter().map(|times| median(times)).sum::<f64>() / 1e3;
        Values::from([
            ("setup_s", setup.setup_s),
            ("analysis_s", analysis_s),
            ("job_p50_ms", smooth_quantile(&measured.latency_ms, 0.5)),
            ("job_p90_ms", smooth_quantile(&measured.latency_ms, 0.9)),
            ("ok_share", measured.tally.ok_share()),
            ("formula_precision", setup.precision.formula_precision()),
            ("peak_rss_mb", metrics::peak_rss_mb()),
        ])
    };
    Ok(Report {
        correct,
        tally: measured.tally,
        values,
        lines,
    })
}
