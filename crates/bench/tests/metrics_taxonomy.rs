//! Metric-name drift guard: every metric the pipeline emits must appear
//! in the "Metrics taxonomy" table in `DESIGN.md`. A rename (or a new
//! signal) that skips the documentation fails here with the list of
//! undocumented names, so dashboards and the regression gate never
//! chase metrics that silently changed spelling.
//!
//! Env-test pattern: one test per file — it owns `DPR_QUICK` for the
//! whole process.

use dp_reverser::DpReverser;
use dpr_bench::{car_seed, collect_car, experiment_config};
use dpr_capture::{record_report, CaptureReader, CaptureWriter};
use dpr_serve::{AnalysisService, Analyzer, JobInput, ServiceConfig};
use dpr_telemetry::Registry;
use dpr_vehicle::profiles::CarId;
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Does `name` match `pattern`? Patterns are dotted metric names whose
/// `<placeholder>` segments match one name segment each — except in
/// final position, where a placeholder swallows the rest of the name
/// (so `span.<path>` covers `span.pipeline.inference.gp.fit`). A
/// placeholder embedded after a literal prefix (`http_<status>`)
/// matches the remainder of its own segment only.
fn matches(pattern: &str, name: &str) -> bool {
    let pats: Vec<&str> = pattern.split('.').collect();
    let segs: Vec<&str> = name.split('.').collect();
    if segs.len() < pats.len() {
        return false;
    }
    for (i, pat) in pats.iter().enumerate() {
        let last = i == pats.len() - 1;
        match pat.find('<') {
            Some(0) if last => return true, // swallows the tail
            Some(0) => continue,
            Some(at) => {
                if !segs.get(i).is_some_and(|seg| seg.starts_with(&pat[..at])) {
                    return false;
                }
            }
            None => {
                if segs.get(i) != Some(pat) {
                    return false;
                }
            }
        }
    }
    segs.len() == pats.len()
}

/// Pulls the documented metric patterns out of DESIGN.md: every
/// backtick-quoted token in the first column of the taxonomy table rows.
fn documented_patterns() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let text = std::fs::read_to_string(path).expect("read DESIGN.md");
    let section = text
        .split("### Metrics taxonomy")
        .nth(1)
        .expect("DESIGN.md has a 'Metrics taxonomy' section");
    let mut patterns = Vec::new();
    for line in section.lines() {
        if line.starts_with("## ") || line.starts_with("### ") {
            break; // next section
        }
        let Some(row) = line.strip_prefix('|') else {
            continue;
        };
        let Some(cell) = row.split('|').next() else {
            continue;
        };
        let cell = cell.trim();
        if let Some(name) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
            patterns.push(name.to_string());
        }
    }
    assert!(
        patterns.len() >= 10,
        "taxonomy table looks truncated: only {} rows parsed",
        patterns.len()
    );
    patterns
}

/// Starts an [`AnalysisService`] on a no-op analyzer, drives one of
/// every kind of request through it, and returns the names of all the
/// metrics that landed in the service registry.
fn service_request_cycle() -> BTreeSet<String> {
    struct NoopAnalyzer;
    impl Analyzer for NoopAnalyzer {
        fn analyze(
            &self,
            _input: JobInput,
        ) -> Result<dp_reverser::ReverseEngineeringResult, String> {
            Ok(dp_reverser::ReverseEngineeringResult {
                esvs: Vec::new(),
                ecrs: Vec::new(),
                stats: Default::default(),
                negatives: 0,
                alignment_offset_us: 0,
                trace: Default::default(),
                evidence: Default::default(),
            })
        }
    }

    fn request(addr: std::net::SocketAddr, raw: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(20)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut out = Vec::new();
        stream.read_to_end(&mut out).unwrap();
        String::from_utf8_lossy(&out).into_owned()
    }
    fn get(addr: std::net::SocketAddr, path: &str) -> String {
        request(
            addr,
            &format!("GET {path} HTTP/1.1\r\nHost: tax\r\nConnection: close\r\n\r\n"),
        )
    }

    let service = AnalysisService::start(
        "127.0.0.1:0",
        ServiceConfig::default(),
        Arc::new(NoopAnalyzer),
    )
    .unwrap();
    let addr = service.addr();

    let body = "{\"car\":\"M\"}";
    let accepted = request(
        addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nHost: tax\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(accepted.starts_with("HTTP/1.1 202"), "{accepted}");
    let deadline = Instant::now() + Duration::from_secs(30);
    while !get(addr, "/jobs/job-1").contains("\"state\":\"done\"") {
        assert!(Instant::now() < deadline, "taxonomy job never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    for path in [
        "/jobs",
        "/jobs/job-1/result",
        "/jobs/job-1/events",
        "/metrics",
        "/trace",
        "/runs",
        "/healthz",
        "/debug/snapshot",
        "/no-such-route",
    ] {
        get(addr, path);
    }

    let snapshot = service.registry().snapshot();
    let names: BTreeSet<String> = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .cloned()
        .collect();
    service.stop();
    names
}

#[test]
fn every_emitted_metric_is_documented_in_design_md() {
    std::env::set_var("DPR_QUICK", "1");

    let registry = Arc::new(Registry::new());
    dpr_telemetry::scoped(Arc::clone(&registry), || {
        // Car M (IsoTp, formula + enum ESVs) and car B (VwTp) together
        // exercise both transport schemes, OCR, association, and GP.
        for id in [CarId::M, CarId::B] {
            let seed = car_seed(id);
            let report = collect_car(id, seed, 4);
            let pipeline = DpReverser::new(experiment_config(id, seed));
            pipeline.analyze(&report.log, &report.frames, Some(&report.execution));

            if id == CarId::M {
                // Round-trip through a capture (with a damaged span so
                // the CRC-skip path lights up) to emit the capture.*
                // family too.
                let mut writer = CaptureWriter::new(Vec::new()).unwrap();
                record_report(&report, &mut writer).unwrap();
                let mut bytes = writer.finish().unwrap();
                let start = bytes.len() / 3;
                for b in &mut bytes[start..start + 200] {
                    *b ^= 0x55;
                }
                let reader = CaptureReader::new(bytes.as_slice()).unwrap();
                pipeline.analyze_capture(reader);
            }
        }
    });

    // The service side of the taxonomy: one full request cycle against
    // a live AnalysisService (submit → poll → events → snapshot → 404)
    // lights up the `serve.*`, `jobs.*`, and `http.*` families.
    let service_metrics = service_request_cycle();

    let snapshot = registry.snapshot();
    let emitted: BTreeSet<String> = snapshot
        .counters
        .keys()
        .chain(snapshot.gauges.keys())
        .chain(snapshot.histograms.keys())
        .cloned()
        .chain(service_metrics)
        .collect();
    for expected in [
        "http.jobs.requests",
        "http.healthz.requests",
        "http.debug_snapshot.requests",
        "http.job_events.requests",
        "http.requests_in_flight",
        "http.bytes_in",
        "http.bytes_out",
        "serve.requests",
    ] {
        assert!(
            emitted.contains(expected),
            "the service request cycle no longer emits {expected}"
        );
    }
    assert!(
        emitted.len() >= 20,
        "suspiciously few metrics emitted ({}) — did telemetry get disabled?",
        emitted.len()
    );

    let patterns = documented_patterns();
    let undocumented: Vec<&str> = emitted
        .iter()
        .filter(|name| !patterns.iter().any(|p| matches(p, name)))
        .map(|name| name.as_str())
        .collect();
    assert!(
        undocumented.is_empty(),
        "metrics emitted but missing from DESIGN.md's 'Metrics taxonomy' table:\n  {}",
        undocumented.join("\n  ")
    );
}
