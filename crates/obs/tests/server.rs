//! Integration test: start a real metrics server on an ephemeral port,
//! scrape it with a plain `std::net::TcpStream`, and round-trip the body
//! through a Prometheus text-exposition line-format checker.

use dpr_obs::{prom, MetricsServer};
use dpr_telemetry::{PipelineTrace, Registry};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

fn get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to scrape endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: dpr\r\n\r\n").expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("http head");
    (head.to_string(), body.to_string())
}

/// Is `name` a valid Prometheus metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`)?
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Is `value` a valid sample value (float, integer, `+Inf`/`-Inf`/`NaN`)?
fn valid_value(value: &str) -> bool {
    matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok()
}

/// Checks one sample line against `name{labels} value` and returns the
/// bare metric name (with any `_bucket`/`_sum`/`_count` suffix intact).
fn check_sample_line(line: &str) -> String {
    let (name_and_labels, value) = line.rsplit_once(' ').unwrap_or_else(|| {
        panic!("sample line has no value separator: {line:?}");
    });
    assert!(
        valid_value(value),
        "invalid sample value {value:?} in line {line:?}"
    );
    let name = match name_and_labels.split_once('{') {
        None => name_and_labels,
        Some((name, labels)) => {
            let labels = labels
                .strip_suffix('}')
                .unwrap_or_else(|| panic!("unterminated label set in {line:?}"));
            for pair in labels.split(',').filter(|p| !p.is_empty()) {
                let (key, val) = pair
                    .split_once('=')
                    .unwrap_or_else(|| panic!("label without '=' in {line:?}"));
                assert!(valid_name(key), "invalid label name {key:?} in {line:?}");
                assert!(
                    val.starts_with('"') && val.ends_with('"') && val.len() >= 2,
                    "unquoted label value {val:?} in {line:?}"
                );
            }
            name
        }
    };
    assert!(valid_name(name), "invalid metric name {name:?} in {line:?}");
    name.to_string()
}

/// Validates a whole exposition body: every non-comment line is a
/// well-formed sample, and every histogram declared via `# TYPE` has
/// `_bucket` (including `+Inf`), `_sum`, and `_count` samples.
fn check_exposition(body: &str) {
    let mut histograms = BTreeSet::new();
    let mut samples: Vec<String> = Vec::new();
    for line in body.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("TYPE") {
                let name = parts.next().expect("TYPE line names a metric");
                let kind = parts.next().expect("TYPE line names a kind");
                assert!(valid_name(name), "invalid TYPE name {name:?}");
                if kind == "histogram" {
                    histograms.insert(name.to_string());
                }
            }
            continue;
        }
        samples.push(check_sample_line(line));
    }
    assert!(!samples.is_empty(), "exposition had no samples:\n{body}");
    for name in &histograms {
        for suffix in ["_bucket", "_sum", "_count"] {
            let expected = format!("{name}{suffix}");
            assert!(
                samples.iter().any(|s| s == &expected),
                "histogram {name} is missing its {suffix} sample:\n{body}"
            );
        }
        let inf = format!("{name}_bucket{{le=\"+Inf\"}}");
        assert!(
            body.lines().any(|l| l.starts_with(&inf)),
            "histogram {name} is missing the +Inf bucket:\n{body}"
        );
    }
}

#[test]
fn scraped_metrics_pass_the_exposition_line_checker() {
    let registry = Arc::new(Registry::new());
    registry.counter("frames.seen").inc(42);
    registry.counter("capture.records_read").inc(7);
    registry.gauge("gp.evals_per_sec").set(123_456);
    let h = registry.histogram_with("span.pipeline", vec![100.0, 1_000.0, 10_000.0]);
    for v in [50.0, 550.0, 5_500.0, 55_000.0] {
        h.record(v);
    }

    let server = MetricsServer::start("127.0.0.1:0", Arc::clone(&registry), dpr_obs::shared_runs())
    .expect("bind ephemeral port");
    let (head, body) = get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");

    check_exposition(&body);
    assert!(body.contains("frames_seen 42\n"), "{body}");
    assert!(body.contains("gp_evals_per_sec 123456\n"), "{body}");
    assert!(body.contains("span_pipeline_bucket{le=\"+Inf\"} 4\n"), "{body}");
    server.stop();
}

#[test]
fn runs_and_evidence_routes_serve_published_runs() {
    let runs = dpr_obs::shared_runs();
    let server = MetricsServer::start("127.0.0.1:0", Arc::new(Registry::new()), Arc::clone(&runs))
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Empty store: /runs is an empty array, /trace and /evidence/<x>
    // 404.
    let (head, body) = get(addr, "/runs");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert_eq!(body.trim(), "[]");
    let (head, _) = get(addr, "/trace");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    let (head, _) = get(addr, "/evidence/did-0xf40d");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    // Publish two runs; the second's chain supersedes the first's.
    let mut ledger = dpr_evidence::EvidenceLedger::default();
    ledger.chains.push(dpr_evidence::EvidenceChain {
        sensor: "DID 0xF40D".into(),
        slug: "did-0xf40d".into(),
        screen: "Engine".into(),
        label: "Vehicle Speed".into(),
        kind: "formula".into(),
        formula: "X0 / 2".into(),
        match_score: Some(0.75),
        match_pairs: 12,
        samples: vec![],
        ocr: vec![],
        candidates: vec![0],
        zero_pair_candidates: 3,
        lineage: None,
    });
    ledger.candidates.push(dpr_evidence::Candidate {
        series_idx: 0,
        label_idx: 0,
        score: Some(0.75),
        pairs: 12,
        decision: dpr_evidence::CandidateDecision::AcceptedStrict,
    });
    ledger.names = dpr_evidence::Names {
        series: vec!["DID 0xF40D".into()],
        labels: vec![("Engine".into(), "Vehicle Speed".into())],
    };
    // Each run's trace is told apart by its total wall time.
    let trace = |total_us| PipelineTrace {
        total_us,
        ..PipelineTrace::default()
    };
    let publish = |at_ms, job: &str, total_us, ledger: &dpr_evidence::EvidenceLedger| {
        let document = dpr_obs::evidence_document(ledger);
        runs.lock()
            .publish(at_ms, Some(job.into()), trace(total_us), ledger, document);
    };
    publish(1_000, "job-1", 111, &ledger);
    ledger.chains[0].formula = "X0 * 0.5".into();
    publish(2_000, "job-2", 222, &ledger);

    let (head, body) = get(addr, "/runs");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/json"), "{head}");
    let listing: Vec<dpr_obs::RunListing> =
        dpr_telemetry::json::from_str(&body).expect("parse /runs listing");
    assert_eq!(listing.len(), 2);
    assert_eq!(listing[0].id, "run-1");
    assert_eq!(listing[0].at_ms, 1_000);
    assert_eq!(listing[1].id, "run-2");
    assert_eq!(listing[1].sensors, vec!["did-0xf40d".to_string()]);

    // /trace serves the second (newest) run's trace, stamped with its job.
    let (head, body) = get(addr, "/trace");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let served: PipelineTrace = dpr_telemetry::json::from_str(&body).expect("parse /trace");
    assert_eq!(served.total_us, 222);
    assert_eq!(served.job_id.as_deref(), Some("job-2"));

    let (head, body) = get(addr, "/evidence/did-0xf40d");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let evidence: dpr_evidence::SensorEvidence =
        dpr_telemetry::json::from_str(&body).expect("parse /evidence chain");
    assert_eq!(evidence, ledger.sensor("did-0xf40d").expect("chain"));
    assert_eq!(evidence.chain.formula, "X0 * 0.5", "latest run wins");
    // The chain's candidate comes back with its names resolved.
    assert_eq!(evidence.candidates.len(), 1);
    assert_eq!(evidence.candidates[0].key, "DID 0xF40D");
    assert_eq!(evidence.candidates[0].label, "Vehicle Speed");

    let (head, body) = get(addr, "/evidence/nope");
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");
    assert!(body.contains("did-0xf40d"), "404 lists known slugs: {body}");

    server.stop();
}

#[test]
fn slow_client_does_not_block_other_requests() {
    // Regression test for the old single-threaded serve loop: a client
    // that connects and then stalls mid-request used to hold the one
    // handler thread hostage until its read deadline (2s), delaying
    // every other caller. With the session table + handler pool, the
    // stalled connection occupies one slot while /healthz keeps
    // answering immediately.
    let server = MetricsServer::start(
        "127.0.0.1:0",
        Arc::new(Registry::new()),
        dpr_obs::shared_runs(),
    )
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Stalled clients: half a request head each, then silence.
    let mut stalled = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect stalled client");
        write!(stream, "GET /metrics HT").expect("send partial request");
        stalled.push(stream);
    }
    // Give the acceptor time to hand the stalled connections to workers.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let started = std::time::Instant::now();
    let (head, _) = get(addr, "/healthz");
    let elapsed = started.elapsed();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "healthz took {elapsed:?} with stalled clients holding connections"
    );

    // The stalled clients eventually get a 408 (read deadline) instead
    // of wedging the server; their sockets close.
    for mut stream in stalled {
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(
            out.is_empty() || out.starts_with("HTTP/1.1 408"),
            "stalled client saw unexpected response: {out}"
        );
    }
    server.stop();
}

#[test]
fn checker_also_accepts_direct_renderer_output() {
    // The checker is grammar-driven, so run it against the renderer
    // directly too — a server-free sanity loop for odd metric names.
    let registry = Registry::new();
    registry.counter("9starts.with-digit").inc(1);
    registry.histogram_with("empty.hist", vec![1.0]);
    check_exposition(&prom::render(&registry.snapshot()));
}
