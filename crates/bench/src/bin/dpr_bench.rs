//! The observability front door for the experiment harness.
//!
//! ```text
//! cargo run --release -p dpr-bench --bin dpr-bench -- profile M --folded /tmp/m.folded
//! cargo run --release -p dpr-bench --bin dpr-bench -- profile /tmp/m.dprcap
//! cargo run --release -p dpr-bench --bin dpr-bench -- regress --baseline old.json --current new.json --max-regress 15%
//! cargo run --release -p dpr-bench --bin dpr-bench -- fleet M N P --hold 30
//! cargo run --release -p dpr-bench --bin dpr-bench -- scale --threads 1,2,4,8
//! cargo run --release -p dpr-bench --bin dpr-bench -- serve --addr 127.0.0.1:8080
//! cargo run --release -p dpr-bench --bin dpr-bench -- serve-load --clients 8
//! cargo run --release -p dpr-bench --bin dpr-bench -- analyze /tmp/m.dprcap --json
//! cargo run --release -p dpr-bench --bin dpr-bench -- accuracy --out BENCH_accuracy.json
//! ```
//!
//! `profile` runs the pipeline on one car (live, by Tab. 3 letter) or on
//! a `.dprcap` capture (offline) and prints a self-time flamegraph
//! profile plus the worker-pool report; `--folded <path>` also writes
//! inferno-compatible folded stack lines. `regress` compares two
//! `BENCH_*.json` snapshots and exits non-zero when a gated metric
//! regressed beyond the tolerance. `fleet` collects and analyzes
//! several cars under one registry. `scale` sweeps a fan-out of whole
//! GP fits across pool sizes and writes `BENCH_scale.json`. `accuracy`
//! writes the exact Tab. 5, 6 and 7 counts to `BENCH_accuracy.json`. All honor
//! `DPR_TRACE_EVENTS=<path.json>` (Chrome trace-event export) and the
//! run subcommands honor `DPR_METRICS_ADDR=<addr>` (live Prometheus
//! scrape endpoint).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use dp_reverser::{DpReverser, ReverseEngineeringResult};
use dpr_bench::{
    capture_pipeline, car_seed, collect_car, experiment_config, fleet_traced, parse_car,
    print_trace, quick, read_secs, EXPERIMENT_SEED,
};
use dpr_obs::{flame, ObsSession};
use dpr_telemetry::{Collector, Registry};
use dpr_vehicle::profiles::CarId;

/// The counting allocator shim: free when `DPR_PROF` is unset, and the
/// reason `dpr-bench profile` / `dpr-bench scale` can attribute heap
/// traffic to pool workers when it is.
#[global_allocator]
static ALLOC: dpr_prof::alloc::CountingAlloc = dpr_prof::alloc::CountingAlloc;

fn usage() -> ExitCode {
    eprintln!("usage: dpr-bench profile <car A..R | capture.dprcap> [--folded <path>] [read_secs, default 10, quick 4]");
    eprintln!("       dpr-bench regress --baseline <old.json> --current <new.json> [--max-regress <pct>]");
    eprintln!("       dpr-bench fleet <car A..R>... [--read-secs <n>] [--hold <secs>]");
    eprintln!("       dpr-bench explain <car A..R> <sensor | all> [read_secs, default 10, quick 4]");
    eprintln!("       dpr-bench scale [--threads 1,2,4,8] [--out <BENCH_scale.json>]");
    eprintln!("       dpr-bench serve [--addr <ip:port>] [--workers <n>] [--queue <n>] [--addr-file <path>]");
    eprintln!("       dpr-bench serve-load [--clients <n>] [--requests <n>] [--workers <n>] [--queue <n>] [--cost-us <n>] [--out <BENCH_serve.json>]");
    eprintln!("       dpr-bench snapshot <ip:port> [--raw]");
    eprintln!("       dpr-bench analyze <capture.dprcap> [--json]");
    eprintln!("       dpr-bench accuracy [--out <BENCH_accuracy.json>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("profile") => profile(&args[1..]),
        Some("regress") => regress(&args[1..]),
        Some("fleet") => fleet(&args[1..]),
        Some("explain") => explain(&args[1..]),
        Some("scale") => scale(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("serve-load") => serve_load_cmd(&args[1..]),
        Some("snapshot") => snapshot_cmd(&args[1..]),
        Some("analyze") => analyze_capture_cmd(&args[1..]),
        Some("accuracy") => accuracy_cmd(&args[1..]),
        _ => usage(),
    }
}

/// Pulls `--flag value` out of `args`, returning the remaining
/// positional arguments and the flag's value (if present).
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    if at + 1 >= args.len() {
        return None;
    }
    let value = args.remove(at + 1);
    args.remove(at);
    Some(value)
}

// ———————————————————————————— profile ————————————————————————————

fn profile(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let folded_path = take_flag(&mut args, "--folded");
    let Some(target) = args.first().cloned() else {
        return usage();
    };

    let registry = Arc::new(Registry::new());
    let collector = Arc::new(Collector::new());
    registry.add_sink(Arc::clone(&collector) as _);
    let session = ObsSession::from_env(&registry);

    let result = if let Some(id) = parse_car(&target) {
        let read_secs: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or_else(read_secs);
        println!(
            "profiling car {target} live (dwell {read_secs}s, seed {}, quick {})…",
            car_seed(id),
            quick()
        );
        profile_live(id, read_secs, &registry)
    } else {
        println!("profiling capture {target} offline…");
        match profile_capture(&target, &registry) {
            Some(result) => result,
            None => return ExitCode::FAILURE,
        }
    };
    session.publish_run(&result.trace, &result.evidence);
    print_trace(&result);

    let profile = flame::aggregate(&collector.records());
    print!("{}", profile.report());
    print!(
        "{}",
        dpr_prof::render_report(&dpr_prof::snapshot(), "pool report").text
    );
    if let Some(path) = folded_path {
        if let Err(e) = std::fs::write(&path, profile.folded()) {
            eprintln!("error: writing folded stacks to {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote folded stacks to {path} (render with inferno-flamegraph or speedscope)");
    }
    session.finish();
    ExitCode::SUCCESS
}

fn profile_live(id: CarId, read_secs: u64, registry: &Arc<Registry>) -> ReverseEngineeringResult {
    let seed = car_seed(id);
    dpr_telemetry::scoped(Arc::clone(registry), || {
        let report = collect_car(id, seed, read_secs);
        let pipeline = DpReverser::new(experiment_config(id, seed));
        pipeline.analyze(&report.log, &report.frames, Some(&report.execution))
    })
}

fn profile_capture(path: &str, registry: &Arc<Registry>) -> Option<ReverseEngineeringResult> {
    match capture_pipeline(path.as_ref()) {
        Ok((pipeline, reader)) => Some(dpr_telemetry::scoped(Arc::clone(registry), || {
            pipeline.analyze_capture(reader)
        })),
        Err(e) => {
            eprintln!("error: {e}");
            None
        }
    }
}

// ———————————————————————————— explain ————————————————————————————

/// Runs the pipeline on one car and prints the evidence chain behind
/// each recovered sensor: raw frames → reassembly → OCR → alignment →
/// GP lineage → final formula, then the ground-truth verdict
/// ([`dp_reverser::evaluate`]) on that chain. A `MISSED` line follows
/// for every ground-truth ESV the run did not recover. `sensor` is a
/// slug (`did-0xf40d`), a case-insensitive substring of the sensor key
/// or label, or `all`.
fn explain(args: &[String]) -> ExitCode {
    let (Some(car), Some(sensor)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let Some(id) = parse_car(car) else {
        eprintln!("error: {car:?} is not a car letter A..R (paper Tab. 3)");
        return usage();
    };
    let read_secs: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or_else(read_secs);

    let registry = Arc::new(Registry::new());
    let session = ObsSession::from_env(&registry);
    let seed = car_seed(id);
    println!(
        "explaining car {car} (dwell {read_secs}s, seed {seed}, quick {})…",
        quick()
    );
    let (report, result) = dpr_telemetry::scoped(Arc::clone(&registry), || {
        let report = collect_car(id, seed, read_secs);
        let pipeline = DpReverser::new(experiment_config(id, seed));
        let result = pipeline.analyze(&report.log, &report.frames, Some(&report.execution));
        (report, result)
    });
    let run_id = session.publish_run(&result.trace, &result.evidence);
    let precision = dp_reverser::evaluate(&result, &report.vehicle);

    let ledger = &result.evidence;
    println!(
        "run {run_id}: {} sensor(s) recovered",
        ledger.chains.len()
    );
    print!("{}", dpr_evidence::render_rejects(&ledger.rejects));

    let want_all = sensor.eq_ignore_ascii_case("all");
    let needle = sensor.to_ascii_lowercase();
    let selected: Vec<_> = ledger
        .chains
        .iter()
        .filter(|c| {
            want_all
                || c.slug == needle
                || c.sensor.to_ascii_lowercase().contains(&needle)
                || c.label.to_ascii_lowercase().contains(&needle)
        })
        .collect();
    if selected.is_empty() {
        let known: Vec<&str> = ledger.chains.iter().map(|c| c.slug.as_str()).collect();
        eprintln!(
            "error: no recovered sensor matches {sensor:?}; known: {}",
            known.join(" ")
        );
        session.finish();
        return ExitCode::FAILURE;
    }
    for chain in selected {
        println!();
        print!("{}", dpr_evidence::render(chain));
        match precision.verdicts.iter().find(|v| v.key.to_string() == chain.sensor) {
            Some(v) if v.correct => println!("  accuracy: correct"),
            Some(v) => println!("  accuracy: WRONG, truth {}", v.truth),
            None => println!("  accuracy: not scored (no ground-truth ESV)"),
        }
    }
    let recovered: Vec<String> = result.esvs.iter().map(|e| e.key.to_string()).collect();
    let missed: Vec<_> = report
        .vehicle
        .esv_points()
        .into_iter()
        .filter(|p| !recovered.contains(&p.id.to_string()))
        .collect();
    if !missed.is_empty() {
        println!();
    }
    for p in missed {
        println!("MISSED {} [{}] truth {}", p.id, p.quantity.name(), p.formula);
    }
    if let Some(path) = session.evidence_path() {
        println!();
        println!("evidence chains appended to {} (JSON lines)", path.display());
    }
    session.finish();
    ExitCode::SUCCESS
}

// ———————————————————————————— regress ————————————————————————————

fn regress(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let baseline = take_flag(&mut args, "--baseline");
    let current = take_flag(&mut args, "--current");
    let threshold = take_flag(&mut args, "--max-regress").unwrap_or_else(|| "15%".to_string());
    let (Some(baseline), Some(current)) = (baseline, current) else {
        return usage();
    };
    let Some(max_regress) = dpr_obs::regress::parse_threshold(&threshold) else {
        eprintln!("error: bad --max-regress {threshold:?} (want e.g. 15%, 0.15)");
        return ExitCode::from(2);
    };
    let (Some(base), Some(cur)) = (load_json(&baseline), load_json(&current)) else {
        return ExitCode::FAILURE;
    };

    println!("comparing {current} against {baseline} (tolerance {:.0}%)", max_regress * 100.0);
    let cmp = dpr_obs::regress::compare(&base, &cur, max_regress);
    print!("{}", dpr_obs::regress::render(&cmp));
    if cmp.has_regressions() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn load_json(path: &str) -> Option<dpr_telemetry::json::Value> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: reading {path}: {e}");
            return None;
        }
    };
    match dpr_telemetry::json::parse(&text) {
        Ok(value) => Some(value),
        Err(e) => {
            eprintln!("error: {path} is not valid JSON: {e}");
            None
        }
    }
}

// ———————————————————————————— scale ————————————————————————————

/// Sweeps a fan-out of whole GP fits across pool sizes, prints the scaling
/// table plus the largest pool's report, and writes `BENCH_scale.json`
/// for `dpr-bench regress` to gate.
fn scale(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let threads = match take_flag(&mut args, "--threads") {
        Some(list) => {
            let parsed: Vec<usize> = list
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .filter(|&t| t > 0)
                .collect();
            if parsed.is_empty() {
                eprintln!("error: bad --threads {list:?} (want e.g. 1,2,4,8)");
                return ExitCode::from(2);
            }
            parsed
        }
        None => dpr_bench::scale::default_threads(quick()),
    };
    let out_path = take_flag(&mut args, "--out").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json").to_string()
    });
    // A scaling run is an explicit opt-in to profiling: turn the
    // counting allocator on so the sweep attributes heap traffic too.
    // Set before the first par_map so no pool thread exists yet.
    std::env::set_var(dpr_prof::PROF_ENV, "1");

    println!(
        "gp fit fan-out scaling sweep at {threads:?} thread(s), seed {EXPERIMENT_SEED}, quick {}…",
        quick()
    );
    let run = dpr_bench::scale::run_scale(&threads, quick());
    print!("{}", dpr_bench::scale::render_scale(&run));
    if let Some(point) = run.points.iter().max_by_key(|p| p.threads) {
        print!("{}", point.report.text);
    }
    if let Err(e) = std::fs::write(&out_path, dpr_bench::scale::scale_json(&run)) {
        eprintln!("error: writing {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

// ———————————————————————————— serve ————————————————————————————

/// Runs the analysis service on the production [`BenchAnalyzer`] until
/// killed. `--addr-file` writes the bound address for scripts that
/// start the service on an ephemeral port.
fn serve(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let addr = take_flag(&mut args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let workers: usize = take_flag(&mut args, "--workers")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let queue: usize = take_flag(&mut args, "--queue")
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let addr_file = take_flag(&mut args, "--addr-file");

    let config = dpr_serve::ServiceConfig {
        analysis_workers: workers,
        queue_capacity: queue,
        ..dpr_serve::ServiceConfig::default()
    };
    let service =
        match dpr_serve::AnalysisService::start(&addr, config, Arc::new(dpr_bench::BenchAnalyzer)) {
            Ok(service) => service,
            Err(e) => {
                eprintln!("error: binding {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
    let bound = service.addr();
    println!(
        "dpr-serve on http://{bound} ({workers} analysis worker(s), queue {queue}, seed {EXPERIMENT_SEED}, quick {})",
        quick()
    );
    println!("  submit a capture: curl --data-binary @car_m.dprcap http://{bound}/jobs");
    println!("  submit a car:     curl -d '{{\"car\":\"M\"}}' http://{bound}/jobs");
    println!("  poll:             curl http://{bound}/jobs/job-1");
    println!("  result:           curl http://{bound}/jobs/job-1/result");
    println!("  observe:          curl http://{bound}/metrics | /runs | /trace | /healthz");
    if let Some(path) = addr_file {
        if let Err(e) = std::fs::write(&path, bound.to_string()) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    loop {
        std::thread::park();
    }
}

/// `serve-load`: load-tests the submit path against a synthetic
/// analyzer and writes `BENCH_serve.json` for `regress` to gate.
fn serve_load_cmd(args: &[String]) -> ExitCode {
    use dpr_bench::serve_load::{self, LoadConfig};

    let mut args = args.to_vec();
    let mut config = LoadConfig::defaults(quick());
    if let Some(v) = take_flag(&mut args, "--clients").and_then(|s| s.parse().ok()) {
        config.clients = v;
    }
    if let Some(v) = take_flag(&mut args, "--requests").and_then(|s| s.parse().ok()) {
        config.requests = v;
    }
    if let Some(v) = take_flag(&mut args, "--workers").and_then(|s| s.parse().ok()) {
        config.workers = v;
    }
    if let Some(v) = take_flag(&mut args, "--queue").and_then(|s| s.parse().ok()) {
        config.queue = v;
    }
    if let Some(v) = take_flag(&mut args, "--cost-us").and_then(|s| s.parse().ok()) {
        config.cost_us = v;
    }
    let out_path = take_flag(&mut args, "--out").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json").to_string()
    });

    println!(
        "serve load: {} client(s) x {} request(s) against a {}-worker queue-{} service…",
        config.clients, config.requests, config.workers, config.queue
    );
    let run = serve_load::run_load(&config, quick());
    print!("{}", serve_load::render_load(&run));
    if run.errors > 0 {
        eprintln!("error: {} request(s) got neither 202 nor 429", run.errors);
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out_path, serve_load::serve_json(&run)) {
        eprintln!("error: writing {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

/// `snapshot`: fetches `/debug/snapshot` from a running service, checks
/// it parses, and prints a triage summary (`--raw` dumps the JSON
/// instead) — the one-command version of "attach everything a bug
/// report needs".
fn snapshot_cmd(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let raw = match args.iter().position(|a| a == "--raw") {
        Some(at) => {
            args.remove(at);
            true
        }
        None => false,
    };
    let Some(addr) = args.first() else {
        return usage();
    };
    if print_snapshot(addr, raw) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One `/debug/snapshot` fetch-and-summarize pass; false on any error.
fn print_snapshot(addr: &str, raw: bool) -> bool {
    use dpr_telemetry::json::Value;
    use std::io::{Read, Write};

    let mut stream = match std::net::TcpStream::connect(addr) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("error: connecting {addr}: {e}");
            return false;
        }
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let request = format!("GET /debug/snapshot HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    let mut response = Vec::new();
    if let Err(e) = stream
        .write_all(request.as_bytes())
        .and_then(|()| stream.read_to_end(&mut response).map(|_| ()))
    {
        eprintln!("error: talking to {addr}: {e}");
        return false;
    }
    let text = String::from_utf8_lossy(&response);
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        eprintln!("error: {addr} sent no HTTP response");
        return false;
    };
    if !head.starts_with("HTTP/1.1 200") {
        eprintln!("error: /debug/snapshot answered: {}", head.lines().next().unwrap_or(head));
        return false;
    }
    let doc = match dpr_telemetry::json::parse(body) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("error: /debug/snapshot body is not valid JSON: {e}");
            return false;
        }
    };
    if raw {
        println!("{body}");
        return true;
    }

    fn field<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
        match doc {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }
    fn as_u64(v: Option<&Value>) -> u64 {
        match v {
            Some(Value::UInt(n)) => *n,
            Some(Value::Int(n)) => (*n).max(0) as u64,
            Some(Value::Float(n)) => *n as u64,
            _ => 0,
        }
    }
    fn as_str(v: Option<&Value>) -> &str {
        match v {
            Some(Value::Str(s)) => s,
            _ => "?",
        }
    }
    let health = field(&doc, "health");
    println!("snapshot of http://{addr}:");
    if let Some(health) = health {
        println!(
            "  health: {} v{}, up {}s, queue {}/{}, {} running, {} worker(s), {} run(s) published",
            as_str(field(health, "status")),
            as_str(field(health, "version")),
            as_u64(field(health, "uptime_secs")),
            as_u64(field(health, "queue_depth")),
            as_u64(field(health, "queue_capacity")),
            as_u64(field(health, "jobs_running")),
            match field(health, "workers") {
                Some(Value::Array(workers)) => workers.len(),
                _ => 0,
            },
            as_u64(field(health, "runs_published")),
        );
    }
    if let Some(Value::Array(jobs)) = field(&doc, "jobs") {
        let mut by_state: std::collections::BTreeMap<&str, usize> = Default::default();
        for job in jobs {
            *by_state.entry(as_str(field(job, "state"))).or_default() += 1;
        }
        let states: Vec<String> = by_state.iter().map(|(s, n)| format!("{n} {s}")).collect();
        println!("  jobs: {} kept ({})", jobs.len(), states.join(", "));
    }
    if let Some(metrics) = field(&doc, "metrics") {
        let count = |name: &str| match field(metrics, name) {
            Some(Value::Object(entries)) => entries.len(),
            _ => 0,
        };
        println!(
            "  metrics: {} counter(s), {} gauge(s), {} histogram(s)",
            count("counters"),
            count("gauges"),
            count("histograms")
        );
    }
    if let Some(log) = field(&doc, "log") {
        println!(
            "  log ring: {} record(s) held, {} pushed, {} overwritten",
            match field(log, "records") {
                Some(Value::Array(records)) => records.len(),
                _ => 0,
            },
            as_u64(field(log, "pushed")),
            as_u64(field(log, "overwritten")),
        );
    }
    true
}

/// `analyze`: runs a `.dprcap` capture through the pipeline directly
/// and prints either the stage table or (`--json`) the canonical result
/// JSON — the exact bytes the service serves at `/jobs/<id>/result`,
/// which is what CI diffs the two paths with.
fn analyze_capture_cmd(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let json_out = match args.iter().position(|a| a == "--json") {
        Some(at) => {
            args.remove(at);
            true
        }
        None => false,
    };
    let Some(path) = args.first() else {
        return usage();
    };
    let registry = Arc::new(Registry::new());
    let Some(result) = profile_capture(path, &registry) else {
        return ExitCode::FAILURE;
    };
    if json_out {
        println!("{}", result.canonical_json());
    } else {
        print_trace(&result);
    }
    ExitCode::SUCCESS
}

// ———————————————————————————— accuracy ————————————————————————————

/// `accuracy`: runs the GP-dependent paper tables (Tab. 5, 6, 7) and
/// writes their exact counts to `BENCH_accuracy.json`, which CI diffs
/// against the checked-in baseline at zero slack.
fn accuracy_cmd(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let out_path = take_flag(&mut args, "--out").unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_accuracy.json").to_string()
    });
    println!("accuracy: Tab. 5, 6 and 7, seed {EXPERIMENT_SEED}, quick {}…", quick());
    let run = dpr_bench::accuracy::run();
    let json = dpr_bench::accuracy::accuracy_json(&run);
    print!("{json}");
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: writing {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");
    ExitCode::SUCCESS
}

// ———————————————————————————— fleet ————————————————————————————

fn fleet(args: &[String]) -> ExitCode {
    let mut args = args.to_vec();
    let read_secs: u64 = take_flag(&mut args, "--read-secs")
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    let hold_secs: u64 = take_flag(&mut args, "--hold")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let cars: Vec<CarId> = args.iter().filter_map(|a| parse_car(a)).collect();
    if cars.is_empty() || cars.len() != args.len() {
        eprintln!("error: pass one or more car letters A..R (paper Tab. 3)");
        return usage();
    }

    println!(
        "fleet of {} car(s), dwell {read_secs}s, seed base {EXPERIMENT_SEED}, quick {}",
        cars.len(),
        quick()
    );
    let run = fleet_traced(&cars, read_secs, Duration::from_secs(hold_secs));
    for (id, result) in &run.results {
        println!(
            "car {id:?}: {} formula ESVs, {} enum ESVs, {} ECRs, {} negatives filtered",
            result.formula_esvs().count(),
            result.enum_esvs().count(),
            result.ecrs.len(),
            result.negatives,
        );
    }
    print!("{}", dpr_telemetry::summary::render(&run.snapshot));
    if let Some(path) = &run.trace_events {
        println!("trace events written to {} (open in ui.perfetto.dev)", path.display());
    }
    if let Some(addr) = run.metrics_addr {
        println!("metrics were scrapeable at http://{addr}/metrics (now stopped)");
    }
    ExitCode::SUCCESS
}
