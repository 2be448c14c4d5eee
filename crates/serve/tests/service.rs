//! End-to-end tests of the analysis service over real `TcpStream`s:
//! byte-identity between the HTTP job path and a direct
//! `analyze_capture` call, observable backpressure, graceful failure
//! handling, and the HTTP parsing edge cases a hostile or unlucky
//! client can produce.

use dp_reverser::{CaptureReader, CaptureWriter, DpReverser, PipelineConfig};
use dpr_can::Micros;
use dpr_capture::record_report;
use dpr_cps::{collect_vehicle, CollectConfig, CollectionReport};
use dpr_frames::Scheme;
use dpr_serve::{
    AnalysisService, Analyzer, JobInput, JobStatus, ServiceConfig, SubmitResponse,
};
use dpr_telemetry::json;
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::profiles::{self, CarId};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const SEED: u64 = 5;

fn quick_collect(id: CarId, seed: u64) -> CollectionReport {
    let car = profiles::build(id, seed);
    let spec = profiles::spec(id);
    let session = ToolSession::new(car, ToolProfile::by_name(spec.tool).unwrap());
    collect_vehicle(
        session,
        &CollectConfig {
            read_wait: Micros::from_secs(4),
            ..CollectConfig::default()
        },
    )
    .unwrap()
}

fn capture_bytes(report: &CollectionReport) -> Vec<u8> {
    let mut writer = CaptureWriter::new(Vec::new()).unwrap();
    writer.write_meta("car", "M").unwrap();
    record_report(report, &mut writer).unwrap();
    writer.finish().unwrap()
}

/// The production-shaped analyzer: replays uploaded captures and
/// collects-then-analyzes the one car profile it knows, always through
/// the same fixed pipeline config so results are deterministic.
struct ReplayAnalyzer {
    seed: u64,
}

impl Analyzer for ReplayAnalyzer {
    fn analyze(&self, input: JobInput) -> Result<dp_reverser::ReverseEngineeringResult, String> {
        let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, self.seed));
        match input {
            JobInput::Capture(session) => Ok(pipeline.analyze_replay(&session)),
            JobInput::Car(name) => {
                if name != "M" {
                    return Err(format!("unknown car {name:?}"));
                }
                let report = quick_collect(CarId::M, self.seed);
                Ok(pipeline.analyze(&report.log, &report.frames, Some(&report.execution)))
            }
        }
    }

    fn knows_car(&self, name: &str) -> bool {
        name == "M"
    }
}

/// An analyzer that parks on a gate until the test releases it — lets a
/// test hold the worker pool busy and fill the queue deterministically.
struct BlockingAnalyzer {
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl BlockingAnalyzer {
    fn new() -> (Arc<(Mutex<bool>, Condvar)>, BlockingAnalyzer) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let analyzer = BlockingAnalyzer {
            gate: Arc::clone(&gate),
        };
        (gate, analyzer)
    }
}

impl Analyzer for BlockingAnalyzer {
    fn analyze(&self, _input: JobInput) -> Result<dp_reverser::ReverseEngineeringResult, String> {
        let (lock, cvar) = &*self.gate;
        let mut released = lock.lock().unwrap();
        while !*released {
            released = cvar.wait(released).unwrap();
        }
        Err("released without a result".to_string())
    }
}

fn release(gate: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cvar) = &**gate;
    *lock.lock().unwrap() = true;
    cvar.notify_all();
}

/// Releases the gate when dropped, so a failing assertion unwinds
/// cleanly instead of deadlocking the service's drain-on-drop against
/// a worker still parked in [`BlockingAnalyzer::analyze`].
struct ReleaseOnDrop(Arc<(Mutex<bool>, Condvar)>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        release(&self.0);
    }
}

/// Sends raw bytes, half-closes the write side, and reads the whole
/// response. One request per connection is the service's contract.
fn send_raw(addr: SocketAddr, data: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(data).unwrap();
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    String::from_utf8_lossy(&out).into_owned()
}

fn split_response(raw: &str) -> (String, String) {
    match raw.split_once("\r\n\r\n") {
        Some((head, body)) => (head.to_string(), body.to_string()),
        None => (raw.to_string(), String::new()),
    }
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    split_response(&send_raw(addr, req.as_bytes()))
}

fn post(addr: SocketAddr, path: &str, body: &[u8]) -> (String, String) {
    let mut req = format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    split_response(&send_raw(addr, &req))
}

fn submit(addr: SocketAddr, body: &[u8]) -> SubmitResponse {
    let (head, body) = post(addr, "/jobs", body);
    assert!(head.starts_with("HTTP/1.1 202"), "{head}\n{body}");
    json::from_str(&body).unwrap()
}

fn wait_for(addr: SocketAddr, job: &str, want: &str) -> JobStatus {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (head, body) = get(addr, &format!("/jobs/{job}"));
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let status: JobStatus = json::from_str(&body).unwrap();
        if status.state == want {
            return status;
        }
        assert!(
            !(status.state == "failed" && want == "done"),
            "job {job} failed: {:?}",
            status.error
        );
        assert!(
            Instant::now() < deadline,
            "job {job} stuck in {:?} waiting for {want:?}",
            status.state
        );
        std::thread::sleep(Duration::from_millis(30));
    }
}

#[test]
fn http_submitted_capture_matches_direct_analysis_byte_for_byte() {
    let report = quick_collect(CarId::M, SEED);
    let bytes = capture_bytes(&report);

    // The ground truth: the same capture analyzed directly, in-process.
    let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, SEED));
    let direct = pipeline.analyze_capture(CaptureReader::new(bytes.as_slice()).unwrap());
    let expected = direct.canonical_json();

    let service = AnalysisService::start(
        "127.0.0.1:0",
        ServiceConfig::default(),
        Arc::new(ReplayAnalyzer { seed: SEED }),
    )
    .unwrap();
    let addr = service.addr();

    let accepted = submit(addr, &bytes);
    assert_eq!(accepted.poll, format!("/jobs/{}", accepted.job));

    let status = wait_for(addr, &accepted.job, "done");
    assert_eq!(status.source, "capture");
    for stage in ["transport", "ocr", "association", "inference"] {
        assert!(
            status.stages_done.iter().any(|s| s == stage),
            "stage {stage} missing from progress: {:?}",
            status.stages_done
        );
    }
    assert!(!status.stages.is_empty(), "final stage timings missing");
    assert!(status.wall_us.is_some());
    let run_id = status.run_id.clone().expect("done job published a run");

    // The service's result is the direct result, to the byte.
    let (head, body) = get(addr, &format!("/jobs/{}/result", accepted.job));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, expected, "service result diverged from direct analysis");

    // The published run is reachable through the obs routes: listed at
    // /runs, every chain served at /evidence/<sensor>.
    let (head, runs_body) = get(addr, "/runs");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(runs_body.contains(&run_id), "run {run_id} not in {runs_body}");
    let sensors = service.runs().lock().known_sensors();
    assert!(!sensors.is_empty(), "a recovered run lists its sensors");
    for slug in &sensors {
        let (head, chain) = get(addr, &format!("/evidence/{slug}"));
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(chain.contains(slug));
    }

    // And the service's own metrics taxonomy is live on /metrics.
    let (_, metrics) = get(addr, "/metrics");
    for metric in ["jobs_submitted 1", "jobs_completed 1", "serve_requests"] {
        assert!(metrics.contains(metric), "{metric} missing:\n{metrics}");
    }

    service.stop();
}

#[test]
fn car_profile_job_runs_the_named_collection() {
    let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, SEED));
    let report = quick_collect(CarId::M, SEED);
    let expected = pipeline
        .analyze(&report.log, &report.frames, Some(&report.execution))
        .canonical_json();

    let service = AnalysisService::start(
        "127.0.0.1:0",
        ServiceConfig::default(),
        Arc::new(ReplayAnalyzer { seed: SEED }),
    )
    .unwrap();
    let addr = service.addr();

    let accepted = submit(addr, b"{\"car\":\"M\"}");
    let status = wait_for(addr, &accepted.job, "done");
    assert_eq!(status.source, "car:M");
    let (head, body) = get(addr, &format!("/jobs/{}/result", accepted.job));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body, expected);

    // An unknown profile is rejected at submit time, not failed later.
    let (head, body) = post(addr, "/jobs", b"{\"car\":\"Z\"}");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("unknown car profile"), "{body}");

    service.stop();
}

#[test]
fn full_queue_answers_429_with_retry_after_before_reading_the_body() {
    let (gate, analyzer) = BlockingAnalyzer::new();
    let config = ServiceConfig {
        analysis_workers: 1,
        queue_capacity: 1,
        ..ServiceConfig::default()
    };
    let service = AnalysisService::start("127.0.0.1:0", config, Arc::new(analyzer)).unwrap();
    let _open_gate_on_panic = ReleaseOnDrop(Arc::clone(&gate));
    let addr = service.addr();

    // Job 1 occupies the only worker; job 2 fills the only queue slot.
    let first = submit(addr, b"{\"car\":\"M\"}");
    wait_for(addr, &first.job, "running");
    let second = submit(addr, b"{\"car\":\"M\"}");
    assert_eq!(service.store().queue_len(), 1);

    // Submission 3 declares a large body but sends ONLY the head. The
    // 429 must come back anyway — the service answers a full queue
    // without reading (or waiting for) a single body byte.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(
            b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 1000000\r\n\r\n",
        )
        .unwrap();
    let started = Instant::now();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let (head, body) = split_response(&String::from_utf8_lossy(&raw));
    assert!(head.starts_with("HTTP/1.1 429"), "{head}");
    assert!(head.contains("Retry-After: 1"), "{head}");
    let json::Value::Object(entries) = json::parse(body.trim()).expect("429 body parses") else {
        panic!("429 body is not an object: {body}");
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["error", "req_id"], "{body}");
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "429 took {:?} — the server waited for body bytes",
        started.elapsed()
    );
    drop(stream);

    assert_eq!(service.registry().counter("jobs.rejected").get(), 1);
    assert_eq!(service.registry().counter("jobs.submitted").get(), 2);

    // Releasing the gate drains the backlog; both jobs finish (failed,
    // by the blocking analyzer's contract) and their status is served.
    release(&gate);
    let status = wait_for(addr, &second.job, "failed");
    assert!(status.error.is_some());
    let (head, body) = get(addr, &format!("/jobs/{}/result", second.job));
    assert!(head.starts_with("HTTP/1.1 500"), "{head}");
    assert!(body.contains("released without a result"), "{body}");

    service.stop();
}

#[test]
fn submit_rejects_bad_lengths_before_reading_bodies() {
    let service = AnalysisService::start(
        "127.0.0.1:0",
        ServiceConfig {
            max_body_bytes: 1024,
            ..ServiceConfig::default()
        },
        Arc::new(ReplayAnalyzer { seed: SEED }),
    )
    .unwrap();
    let addr = service.addr();

    // Over the cap: 413, before any body byte is sent.
    let raw = send_raw(
        addr,
        b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: 99999\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 413"), "{raw}");

    // No length at all: 411.
    let raw = send_raw(addr, b"POST /jobs HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 411"), "{raw}");

    // Unparseable length: 400.
    let raw = send_raw(
        addr,
        b"POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: banana\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");

    // Zero-length body: 400.
    let (head, _) = post(addr, "/jobs", b"");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");

    service.stop();
}

#[test]
fn http_edge_cases_do_not_wedge_the_service() {
    let config = ServiceConfig {
        server: dpr_obs::ServerConfig {
            read_timeout: Duration::from_millis(250),
            ..dpr_obs::ServerConfig::default()
        },
        ..ServiceConfig::default()
    };
    let service =
        AnalysisService::start("127.0.0.1:0", config, Arc::new(ReplayAnalyzer { seed: SEED }))
            .unwrap();
    let addr = service.addr();

    // A torn request head: the client stalls mid-request-line. The
    // server times the read out (408) instead of wedging a handler.
    let mut torn = TcpStream::connect(addr).unwrap();
    torn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    torn.write_all(b"GET /hea").unwrap();
    let mut raw = Vec::new();
    torn.read_to_end(&mut raw).unwrap();
    let raw = String::from_utf8_lossy(&raw);
    assert!(
        raw.is_empty() || raw.starts_with("HTTP/1.1 408"),
        "torn head got: {raw}"
    );

    // Premature close mid-body: a valid capture header, a declared
    // length the client never delivers. The parse survives (the reader
    // is corruption tolerant) but the job is refused as a client error.
    let empty_capture = CaptureWriter::new(Vec::new()).unwrap().finish().unwrap();
    let mut req = format!(
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        empty_capture.len() as u64 + 100_000
    )
    .into_bytes();
    req.extend_from_slice(&empty_capture);
    let raw = send_raw(addr, &req);
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("before the declared body length"), "{raw}");

    // A body that is neither JSON nor a capture: 400, not a panic.
    let (head, body) = post(addr, "/jobs", b"this is not a capture at all");
    assert!(head.starts_with("HTTP/1.1 400"), "{head}");
    assert!(body.contains("not a readable capture"), "{body}");

    // A pipelined second request on a one-request connection: exactly
    // one response, then the connection closes cleanly.
    let raw = send_raw(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\nGET /metrics HTTP/1.1\r\nHost: test\r\n\r\n",
    );
    assert_eq!(
        raw.matches("HTTP/1.1 ").count(),
        1,
        "pipelining must yield exactly one response: {raw}"
    );
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");

    // Unknown jobs and unknown routes answer, with the route list on
    // the latter; the service is still healthy afterwards.
    let (head, _) = get(addr, "/jobs/job-999");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    let (head, body) = get(addr, "/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(body.contains("POST /jobs"), "{body}");
    let (head, _) = get(addr, "/healthz");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");

    service.stop();
}

#[test]
fn stopping_the_service_drains_queued_jobs() {
    let (gate, analyzer) = BlockingAnalyzer::new();
    let config = ServiceConfig {
        analysis_workers: 1,
        queue_capacity: 4,
        ..ServiceConfig::default()
    };
    let service = AnalysisService::start("127.0.0.1:0", config, Arc::new(analyzer)).unwrap();
    let _open_gate_on_panic = ReleaseOnDrop(Arc::clone(&gate));
    let addr = service.addr();

    submit(addr, b"{\"car\":\"M\"}");
    submit(addr, b"{\"car\":\"M\"}");
    submit(addr, b"{\"car\":\"M\"}");
    let store = Arc::clone(service.store());

    // Release the gate from a helper thread shortly after stop()
    // begins its drain, then stop: every queued job must still run.
    let releaser = std::thread::spawn({
        let gate = Arc::clone(&gate);
        move || {
            std::thread::sleep(Duration::from_millis(100));
            release(&gate);
        }
    });
    service.stop();
    releaser.join().unwrap();

    for id in ["job-1", "job-2", "job-3"] {
        let status = store.status(id).unwrap();
        assert_eq!(status.state, "failed", "{id} was dropped in the drain");
    }
}
