//! `dpr-bench serve-load`: a closed-loop load bench for the analysis
//! service.
//!
//! N client threads hammer a freshly started [`AnalysisService`] with
//! `POST /jobs` submissions over real `TcpStream`s while a synthetic
//! analyzer charges a fixed per-job cost. The bench measures the
//! *submit path* — the part the service itself owns: accept, parse the
//! bounded head, check backpressure, read the tiny body, enqueue,
//! answer. It reports p50/p99 submit latency, sustained submit
//! throughput, the share of requests refused with `429` (backpressure
//! working as designed, not an error), and client-side allocations per
//! request, plus the server's own submit-route latency read from its
//! registry, and renders all of it into `BENCH_serve.json` for
//! `dpr-bench regress` to gate.

use dp_reverser::ReverseEngineeringResult;
use dpr_serve::{AnalysisService, Analyzer, JobInput, ServiceConfig, ServiceHealth};
use dpr_telemetry::json;
use serde::Serialize;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::{bench_json, round_to};

/// Tuning for one load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Submissions per client.
    pub requests: usize,
    /// Analysis worker threads in the service under test.
    pub workers: usize,
    /// Bounded job-queue capacity.
    pub queue: usize,
    /// Synthetic per-job analysis cost, microseconds.
    pub cost_us: u64,
}

impl LoadConfig {
    /// The default load shape: `quick` shrinks it for CI smoke runs.
    pub fn defaults(quick: bool) -> LoadConfig {
        if quick {
            LoadConfig {
                clients: 4,
                requests: 50,
                workers: 2,
                queue: 16,
                cost_us: 500,
            }
        } else {
            LoadConfig {
                clients: 8,
                requests: 250,
                workers: 2,
                queue: 16,
                cost_us: 2_000,
            }
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadRun {
    /// The configuration the run used.
    pub config: LoadConfig,
    /// Whether quick mode was on.
    pub quick: bool,
    /// Submissions answered `202 Accepted`.
    pub accepted: u64,
    /// Submissions answered `429 Too Many Requests`.
    pub rejected: u64,
    /// Any other outcome (I/O error, unexpected status) — should be 0.
    pub errors: u64,
    /// Median submit latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile submit latency, microseconds.
    pub p99_us: u64,
    /// Wall time of the whole submission phase.
    pub elapsed: Duration,
    /// Answered submissions per second across all clients.
    pub submits_per_sec: f64,
    /// Share of submissions refused with `429` (0.0 – 1.0).
    pub http_429_share: f64,
    /// Client-side heap allocations per request on the submit path.
    pub allocs_per_request: f64,
    /// Server-side per-route latency, read back from the service's
    /// `http.<route>.latency_us` histograms after the run.
    pub route_latency: Vec<RouteLatency>,
}

impl LoadRun {
    /// The submit route's (`POST /jobs`) server-side latency, when the
    /// service recorded any.
    pub fn submit_route(&self) -> Option<&RouteLatency> {
        self.route_latency.iter().find(|r| r.route == "jobs")
    }
}

/// One route's server-side latency summary.
#[derive(Debug, Clone)]
pub struct RouteLatency {
    /// The route slug (`jobs`, `healthz`, …).
    pub route: String,
    /// Requests the route's histogram recorded.
    pub count: u64,
    /// Estimated median service time, microseconds.
    pub p50_us: f64,
    /// Estimated 99th-percentile service time, microseconds.
    pub p99_us: f64,
}

/// The stand-in analyzer: charges a fixed cost, recovers nothing. The
/// bench exercises the service machinery, not the pipeline.
struct SyntheticAnalyzer {
    cost: Duration,
}

impl Analyzer for SyntheticAnalyzer {
    fn analyze(&self, _input: JobInput) -> Result<ReverseEngineeringResult, String> {
        if !self.cost.is_zero() {
            std::thread::sleep(self.cost);
        }
        Ok(ReverseEngineeringResult {
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

struct ClientTally {
    latencies_us: Vec<u64>,
    accepted: u64,
    rejected: u64,
    errors: u64,
    allocs: u64,
}

/// One submission over a fresh connection; returns the status code.
fn submit_once(addr: SocketAddr, request: &[u8], response: &mut Vec<u8>) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .ok()?;
    stream.write_all(request).ok()?;
    response.clear();
    stream.read_to_end(response).ok()?;
    // "HTTP/1.1 NNN ..."
    let code = response.get(9..12)?;
    std::str::from_utf8(code).ok()?.parse().ok()
}

fn client_loop(addr: SocketAddr, requests: usize) -> ClientTally {
    let request =
        b"POST /jobs HTTP/1.1\r\nHost: bench\r\nContent-Length: 14\r\n\r\n{\"car\":\"load\"}".to_vec();
    let mut tally = ClientTally {
        latencies_us: Vec::with_capacity(requests),
        accepted: 0,
        rejected: 0,
        errors: 0,
        allocs: 0,
    };
    let mut response = Vec::with_capacity(512);
    let before = dpr_prof::alloc::thread_alloc_stats();
    for _ in 0..requests {
        let started = Instant::now();
        match submit_once(addr, &request, &mut response) {
            Some(202) => tally.accepted += 1,
            Some(429) => tally.rejected += 1,
            _ => tally.errors += 1,
        }
        tally.latencies_us.push(started.elapsed().as_micros() as u64);
    }
    tally.allocs = dpr_prof::alloc::thread_alloc_stats().since(before).allocs;
    tally
}

fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let at = (sorted.len() * pct / 100).min(sorted.len() - 1);
    sorted[at]
}

/// Runs the load: starts a service with a synthetic analyzer, fans the
/// clients out, aggregates, drains the service.
pub fn run_load(config: &LoadConfig, quick: bool) -> LoadRun {
    let service_config = ServiceConfig {
        analysis_workers: config.workers.max(1),
        queue_capacity: config.queue.max(1),
        ..ServiceConfig::default()
    };
    let service = AnalysisService::start(
        "127.0.0.1:0",
        service_config,
        Arc::new(SyntheticAnalyzer {
            cost: Duration::from_micros(config.cost_us),
        }),
    )
    .expect("loopback bind");
    let addr = service.addr();
    // Pre-flight (which doubles as path warm-up: thread-pool spin-up,
    // first-connection costs happen outside the measured window).
    preflight_health(addr);

    dpr_prof::alloc::set_counting(true);
    let started = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|_| scope.spawn(|| client_loop(addr, config.requests)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = started.elapsed();
    dpr_prof::alloc::set_counting(false);
    let metrics = service.registry().snapshot();
    let route_latency: Vec<RouteLatency> = metrics
        .histograms
        .iter()
        .filter_map(|(name, h)| {
            let route = name.strip_prefix("http.")?.strip_suffix(".latency_us")?;
            Some(RouteLatency {
                route: route.to_string(),
                count: h.count,
                p50_us: h.quantile(0.5),
                p99_us: h.quantile(0.99),
            })
        })
        .collect();
    service.stop();

    let mut latencies: Vec<u64> = tallies.iter().flat_map(|t| t.latencies_us.clone()).collect();
    latencies.sort_unstable();
    let accepted: u64 = tallies.iter().map(|t| t.accepted).sum();
    let rejected: u64 = tallies.iter().map(|t| t.rejected).sum();
    let errors: u64 = tallies.iter().map(|t| t.errors).sum();
    let allocs: u64 = tallies.iter().map(|t| t.allocs).sum();
    let total = (accepted + rejected + errors).max(1);
    LoadRun {
        config: config.clone(),
        quick,
        accepted,
        rejected,
        errors,
        p50_us: percentile(&latencies, 50),
        p99_us: percentile(&latencies, 99),
        elapsed,
        submits_per_sec: (accepted + rejected) as f64 / elapsed.as_secs_f64().max(1e-9),
        http_429_share: rejected as f64 / total as f64,
        allocs_per_request: allocs as f64 / total as f64,
        route_latency,
    }
}

/// `GET /healthz` before the load starts. A service that is already
/// unhealthy (no workers, stuck queue) would only produce a garbage
/// measurement — refuse to run and fail fast *with the health payload*
/// so the operator sees what the service saw.
fn preflight_health(addr: SocketAddr) {
    let mut response = Vec::with_capacity(512);
    let status = submit_once(
        addr,
        b"GET /healthz HTTP/1.1\r\nHost: bench\r\n\r\n",
        &mut response,
    );
    let text = String::from_utf8_lossy(&response);
    let body = text.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    assert_eq!(status, Some(200), "healthz pre-flight failed: {text}");
    let health: ServiceHealth = json::from_str(body)
        .unwrap_or_else(|e| panic!("healthz payload does not parse ({e}): {body}"));
    assert_eq!(
        health.status, "ok",
        "service unhealthy before load; refusing to run: {body}"
    );
}

/// Renders the run as the human-readable table the CLI prints.
pub fn render_load(run: &LoadRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "serve load: {} client(s) x {} request(s), {} worker(s), queue {}, job cost {}us\n",
        run.config.clients, run.config.requests, run.config.workers, run.config.queue, run.config.cost_us
    ));
    out.push_str(&format!(
        "  accepted {:>7}    rejected(429) {:>7}    errors {:>3}\n",
        run.accepted, run.rejected, run.errors
    ));
    out.push_str(&format!(
        "  submit p50 {:>6}us    p99 {:>6}us    {:>9.0} submits/s    429 share {:>5.1}%\n",
        run.p50_us,
        run.p99_us,
        run.submits_per_sec,
        run.http_429_share * 100.0
    ));
    out.push_str(&format!(
        "  client allocs/request {:.0}    wall {:?}\n",
        run.allocs_per_request, run.elapsed
    ));
    for route in &run.route_latency {
        out.push_str(&format!(
            "  http.{:<14} {:>7} request(s)    server p50 {:>7.0}us    p99 {:>7.0}us\n",
            route.route, route.count, route.p50_us, route.p99_us
        ));
    }
    out
}

/// `BENCH_serve.json`, in this key order.
///
/// Key naming is deliberate about gating direction: `submit_p50_us`,
/// `server_p50_us` and `allocs_per_request` gate as lower-is-better,
/// `submits_per_sec` as higher-is-better. `http_429_share` stays
/// informational (a 429 is correct backpressure, not a regression — the
/// word `rate` is avoided so direction inference does not gate it), and
/// so do `submit_p99` and `server_p99` (microseconds, but tail latency
/// on a small shared CI box is too jittery to gate; the unit suffix is
/// dropped so inference skips them).
#[derive(Serialize)]
struct ServeJson {
    bench: &'static str,
    quick: bool,
    clients: usize,
    requests_per_client: usize,
    analysis_workers: usize,
    queue_capacity: usize,
    job_cost_us: u64,
    submit_p50_us: u64,
    submit_p99: u64,
    submits_per_sec: u64,
    http_429_share: f64,
    allocs_per_request: u64,
    server_p50_us: u64,
    server_p99: u64,
}

/// Renders the run as `BENCH_serve.json` for `dpr-bench regress`. The
/// server-side numbers are the submit route's `http.jobs.latency_us`
/// histogram over the whole run.
pub fn serve_json(run: &LoadRun) -> String {
    let (server_p50, server_p99) = run
        .submit_route()
        .map_or((0.0, 0.0), |r| (r.p50_us, r.p99_us));
    bench_json(&ServeJson {
        bench: "serve_load",
        quick: run.quick,
        clients: run.config.clients,
        requests_per_client: run.config.requests,
        analysis_workers: run.config.workers,
        queue_capacity: run.config.queue,
        job_cost_us: run.config.cost_us,
        submit_p50_us: run.p50_us,
        submit_p99: run.p99_us,
        submits_per_sec: run.submits_per_sec.round() as u64,
        http_429_share: round_to(run.http_429_share, 4),
        allocs_per_request: run.allocs_per_request.round() as u64,
        server_p50_us: server_p50.round() as u64,
        server_p99: server_p99.round() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_load_run_round_trips_through_json() {
        let config = LoadConfig {
            clients: 2,
            requests: 5,
            workers: 1,
            queue: 2,
            cost_us: 0,
        };
        let run = run_load(&config, true);
        assert_eq!(
            run.accepted + run.rejected + run.errors,
            10,
            "every request is answered: {run:?}"
        );
        assert_eq!(run.errors, 0, "{run:?}");
        let jobs_route = run
            .submit_route()
            .expect("per-route latency for the submit route");
        assert_eq!(jobs_route.count, 10, "{:?}", run.route_latency);
        assert!(jobs_route.p50_us > 0.0, "{jobs_route:?}");
        assert!(jobs_route.p99_us >= jobs_route.p50_us, "{jobs_route:?}");
        let json = serve_json(&run);
        let doc = dpr_telemetry::json::parse(&json).expect("serve_json emits valid JSON");
        let flat = format!("{doc:?}");
        for key in [
            "submit_p50_us",
            "submit_p99",
            "submits_per_sec",
            "http_429_share",
            "allocs_per_request",
            "server_p50_us",
            "server_p99",
        ] {
            assert!(flat.contains(key), "{key} missing from {json}");
        }
        assert!(!flat.contains("server_window"), "{json}");
    }

    #[test]
    fn percentile_clamps_to_range() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[7], 50), 7);
        let v: Vec<u64> = (0..100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
    }
}
