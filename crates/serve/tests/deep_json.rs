//! A job body nesting JSON arrays thousands deep, still under the
//! small-body cap, must be answered `400` like any malformed job. The
//! parser recursed once per bracket before its depth cap, so this body
//! overflowed the connection thread's stack and aborted the process.

use dpr_serve::{AnalysisService, Analyzer, JobInput, ServiceConfig};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Refuses every job: the test never gets as far as analysis.
struct NoAnalyzer;

impl Analyzer for NoAnalyzer {
    fn analyze(&self, _input: JobInput) -> Result<dp_reverser::ReverseEngineeringResult, String> {
        Err("not used".to_string())
    }

    fn knows_car(&self, _name: &str) -> bool {
        true
    }
}

/// Sends one request and reads the whole response.
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

#[test]
fn deeply_nested_job_json_is_a_bad_request() {
    let service = AnalysisService::start(
        "127.0.0.1:0",
        ServiceConfig::default(),
        Arc::new(NoAnalyzer),
    )
    .unwrap();
    let addr = service.addr();

    // 4 096 bytes: exactly the largest body still read as the JSON form.
    let body = format!("{{\"car\":{}", "[".repeat(4089));
    assert_eq!(body.len(), 4096);
    let mut req = format!(
        "POST /jobs HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    let raw = send_raw(addr, &req);
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("nesting deeper than"), "{raw}");

    let raw = send_raw(addr, b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");

    service.stop();
}
