//! The acceptance story for correlated observability, over real
//! `TcpStream`s: submit a job, tail `GET /jobs/<id>/events` live while
//! it runs, and afterwards check that the streamed events, the global
//! log ring, the `DPR_LOG_JSON` file, and the job's `PipelineTrace` all
//! tell the *same* story for one `job_id` — request arrival, queueing,
//! stage transitions, result publish.
//!
//! Single `#[test]` on purpose: it points the global logger's JSON sink
//! at a temp file, which sibling tests in this binary would race on.

use dp_reverser::{DpReverser, PipelineConfig};
use dpr_can::Micros;
use dpr_cps::{collect_vehicle, CollectConfig, CollectionReport};
use dpr_frames::Scheme;
use dpr_serve::{
    AnalysisService, Analyzer, JobEvent, JobInput, JobStatus, ServiceConfig, SubmitResponse,
};
use dpr_telemetry::json;
use dpr_telemetry::log::FieldValue;
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::profiles::{self, CarId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

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

fn send_raw(addr: SocketAddr, data: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream.write_all(data).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    String::from_utf8_lossy(&out).into_owned()
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n");
    let raw = send_raw(addr, req.as_bytes());
    match raw.split_once("\r\n\r\n") {
        Some((head, body)) => (head.to_string(), body.to_string()),
        None => (raw, String::new()),
    }
}

fn dechunk(body: &str) -> String {
    let mut out = String::new();
    let mut rest = body;
    loop {
        let Some((size_line, after)) = rest.split_once("\r\n") else {
            return out;
        };
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
            return out;
        };
        if size == 0 || after.len() < size {
            return out;
        }
        out.push_str(&after[..size]);
        rest = after[size..].strip_prefix("\r\n").unwrap_or(&after[size..]);
    }
}

/// The (target, message) pair of a streamed `log` event's record.
fn log_origin(event: &JobEvent) -> (String, String) {
    let record = dpr_telemetry::log::Record::from_json(&event.detail)
        .unwrap_or_else(|| panic!("unparseable log record: {}", event.detail));
    (record.target.clone(), record.message.clone())
}

#[test]
fn one_job_id_correlates_stream_ring_json_log_and_trace() {
    let json_path = std::env::temp_dir().join(format!(
        "dpr-serve-correlation-{}.jsonl",
        std::process::id()
    ));
    dpr_telemetry::log::set_json_path(Some(&json_path)).expect("enable json sink");

    let service = AnalysisService::start(
        "127.0.0.1:0",
        ServiceConfig {
            analysis_workers: 1,
            ..ServiceConfig::default()
        },
        Arc::new(ReplayAnalyzer { seed: 5 }),
    )
    .unwrap();
    let addr = service.addr();

    // Submit the car-M job over a real socket.
    let body = b"{\"car\":\"M\"}";
    let req = format!(
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut data = req.into_bytes();
    data.extend_from_slice(body);
    let raw = send_raw(addr, &data);
    let (head, submit_body) = raw.split_once("\r\n\r\n").unwrap();
    assert!(head.starts_with("HTTP/1.1 202"), "{head}");
    let job = json::from_str::<SubmitResponse>(submit_body).unwrap().job;

    // Prove the tail is live, not a replay: the job has not finished
    // yet when the subscriber connects (collection alone takes far
    // longer than these two requests).
    let (head, status_body) = get(addr, &format!("/jobs/{job}"));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let early: JobStatus = json::from_str(&status_body).unwrap();
    assert!(
        early.state == "queued" || early.state == "running",
        "job finished before the live tail could attach: {early:?}"
    );

    // Tail the event stream to EOF — this blocks across the whole
    // analysis, receiving events as the worker emits them.
    let (head, stream_body) = get(addr, &format!("/jobs/{job}/events"));
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("Transfer-Encoding: chunked"), "{head}");
    let events: Vec<JobEvent> = dechunk(&stream_body)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::from_str::<JobEvent>(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect();

    // -- The stream alone tells the lifecycle story, in order. --------
    let states: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == "state")
        .map(|e| e.what.as_str())
        .collect();
    assert_eq!(states, vec!["queued", "running", "done"]);
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "stream out of order: {pair:?}");
        assert!(pair[0].t_us <= pair[1].t_us, "time ran backwards: {pair:?}");
    }
    let streamed_stages: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == "stage")
        .map(|e| e.what.as_str())
        .collect();
    assert_eq!(
        streamed_stages,
        vec!["transport", "ocr", "association", "inference", "ecr"],
        "stage events out of pipeline order"
    );

    // The job's final status agrees with what was streamed.
    let (_, status_body) = get(addr, &format!("/jobs/{job}"));
    let done: JobStatus = json::from_str(&status_body).unwrap();
    assert_eq!(done.state, "done");
    let status_stages: Vec<&str> = done.stages.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(streamed_stages, status_stages);
    assert_eq!(done.stages_done, status_stages);
    let run_id = done.run_id.expect("done job has a run id");
    let done_event = events
        .iter()
        .find(|e| e.kind == "state" && e.what == "done")
        .unwrap();
    assert_eq!(done_event.detail, run_id, "done event names the wrong run");

    // Streamed log events are this job's records, worker-window only:
    // the stage completions, then the publish.
    let log_events: Vec<(String, String)> = events
        .iter()
        .filter(|e| e.kind == "log")
        .map(log_origin)
        .collect();
    let stage_logs: Vec<String> = events
        .iter()
        .filter(|e| e.kind == "log")
        .filter_map(|e| {
            let record = dpr_telemetry::log::Record::from_json(&e.detail).unwrap();
            match (record.message.as_str(), record.field("stage")) {
                ("stage complete", Some(FieldValue::Str(stage))) => Some(stage.clone()),
                _ => None,
            }
        })
        .collect();
    assert_eq!(stage_logs, streamed_stages, "log records disagree with stage events");
    assert!(
        log_events.contains(&("serve.job".to_string(), "run published".to_string())),
        "publish record missing from the stream: {log_events:?}"
    );

    // -- The post-hoc ring, filtered to this job_id, matches. ---------
    let ring: Vec<Arc<dpr_telemetry::log::Record>> = dpr_telemetry::log::logger()
        .ring()
        .snapshot()
        .into_iter()
        .map(|entry| entry.record)
        .filter(|r| matches!(r.field("job_id"), Some(FieldValue::Str(id)) if *id == job))
        .collect();
    let ring_story: Vec<(&str, &str)> = ring
        .iter()
        .map(|r| (r.target.as_str(), r.message.as_str()))
        .collect();
    assert_eq!(
        ring_story,
        vec![
            ("serve.job", "job accepted"),
            ("serve.job", "job started"),
            ("pipeline", "stage complete"),
            ("pipeline", "stage complete"),
            ("pipeline", "stage complete"),
            ("pipeline", "stage complete"),
            ("pipeline", "stage complete"),
            ("serve.job", "run published"),
        ],
        "ring does not reconstruct the job story"
    );
    // The arrival record ties the job to the HTTP request that made it.
    assert!(
        matches!(ring[0].field("req_id"), Some(FieldValue::Str(r)) if r.starts_with("req-")),
        "accept record lost its req_id: {:?}",
        ring[0]
    );
    // Worker-window ring records are exactly the streamed log events.
    let ring_window: Vec<(String, String)> = ring
        .iter()
        .skip(2) // accepted + started happen outside the tap window
        .map(|r| (r.target.clone(), r.message.clone()))
        .collect();
    assert_eq!(ring_window, log_events, "stream and ring diverge");

    // -- `grep <job_id> $DPR_LOG_JSON` recovers the same story. -------
    let logged = std::fs::read_to_string(&json_path).expect("json log written");
    let file_story: Vec<(String, String)> = logged
        .lines()
        .filter(|line| line.contains(&job))
        .map(|line| {
            dpr_telemetry::log::Record::from_json(line)
                .unwrap_or_else(|| panic!("unparseable log line: {line}"))
        })
        .filter(|r| matches!(r.field("job_id"), Some(FieldValue::Str(id)) if *id == job))
        .map(|r| (r.target.clone(), r.message.clone()))
        .collect();
    let ring_full: Vec<(String, String)> = ring_story
        .iter()
        .map(|(t, m)| (t.to_string(), m.to_string()))
        .collect();
    assert_eq!(file_story, ring_full, "JSON-lines file diverges from the ring");

    // -- The published trace carries the job id. ----------------------
    let (head, trace_body) = get(addr, "/trace");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        trace_body.contains(&format!("\"job_id\":\"{job}\"")),
        "published trace is not stamped with the job id: {trace_body}"
    );

    service.stop();
    dpr_telemetry::log::set_json_path(None).expect("disable json sink");
    let _ = std::fs::remove_file(&json_path);
}
