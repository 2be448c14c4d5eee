//! `GET /debug/snapshot` over a real `TcpStream`: the diagnostics
//! bundle parses as one JSON document, carries its six sections in
//! order, and its log section accounts for every record it lists.

use dpr_serve::{AnalysisService, Analyzer, JobInput, JobStatus, ServiceConfig, SubmitResponse};
use dpr_telemetry::json::{self, Value};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fails every job at once: enough to put a job and its lifecycle log
/// records into the snapshot without running the pipeline.
struct FailingAnalyzer;

impl Analyzer for FailingAnalyzer {
    fn analyze(&self, _input: JobInput) -> Result<dp_reverser::ReverseEngineeringResult, String> {
        Err("stub analyzer".to_string())
    }
}

fn request(addr: SocketAddr, raw: &[u8]) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    stream.write_all(raw).unwrap();
    let _ = stream.shutdown(Shutdown::Write);
    let mut out = Vec::new();
    stream.read_to_end(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("http head");
    (head.to_string(), body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn field<'a>(doc: &'a Value, key: &str) -> &'a Value {
    let Value::Object(entries) = doc else {
        panic!("not an object: {doc:?}");
    };
    entries
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

#[test]
fn debug_snapshot_is_one_json_document_with_six_sections() {
    let service = AnalysisService::start(
        "127.0.0.1:0",
        ServiceConfig::default(),
        Arc::new(FailingAnalyzer),
    )
    .unwrap();
    let addr = service.addr();

    let body = b"{\"car\":\"M\"}";
    let mut submit = format!(
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    submit.extend_from_slice(body);
    let (head, body) = request(addr, &submit);
    assert!(head.starts_with("HTTP/1.1 202"), "{head}\n{body}");
    let job: SubmitResponse = json::from_str(&body).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, body) = get(addr, &job.poll);
        let status: JobStatus = json::from_str(&body).unwrap();
        if status.state == "failed" {
            break;
        }
        assert!(Instant::now() < deadline, "job stuck in {:?}", status.state);
        std::thread::sleep(Duration::from_millis(10));
    }

    let (head, body) = get(addr, "/debug/snapshot");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    let doc = json::parse(&body).expect("snapshot parses");
    let Value::Object(entries) = &doc else {
        panic!("snapshot is not an object");
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["health", "jobs", "profile", "metrics", "series", "log"]
    );

    let Value::Array(jobs) = field(&doc, "jobs") else {
        panic!("jobs is not an array");
    };
    assert_eq!(jobs.len(), 1);
    let log = field(&doc, "log");
    let Value::Object(log_entries) = log else {
        panic!("log is not an object");
    };
    let log_keys: Vec<&str> = log_entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(log_keys, ["pushed", "overwritten", "records"]);
    let Value::UInt(pushed) = field(log, "pushed") else {
        panic!("log.pushed is not a count");
    };
    let Value::Array(records) = field(log, "records") else {
        panic!("log.records is not an array");
    };
    // The job's lifecycle was logged at info, so the ring holds records.
    assert!(!records.is_empty());
    assert!(
        *pushed >= records.len() as u64,
        "{pushed} < {}",
        records.len()
    );

    service.stop();
}
