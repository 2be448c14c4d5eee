//! Shared plumbing for the experiment harness.
//!
//! Every paper table is regenerated by one bench target (`harness =
//! false`); this library carries the helpers they share. Run them all
//! with `cargo bench --workspace`; set `DPR_QUICK=1` to trade experiment
//! scale for speed when iterating.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod scale;
pub mod serve_load;

use dp_reverser::{DpReverser, PipelineConfig, ReverseEngineeringResult};
use dpr_can::Micros;
use dpr_cps::{collect_vehicle, CollectConfig, CollectionReport};
use dpr_frames::Scheme;
use dpr_ocr::OcrChannel;
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::profiles::{self, CarId};
use dpr_vehicle::TransportKind;
use dpr_capture::CaptureReader;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

/// The base seed all experiments derive from (printed for repeatability).
pub const EXPERIMENT_SEED: u64 = 2023;

/// Parses a Tab. 3 car letter (`A`..`R`) into its [`CarId`].
pub fn parse_car(arg: &str) -> Option<CarId> {
    arg.trim()
        .bytes()
        .next()
        .filter(|b| b.is_ascii_uppercase())
        .and_then(|b| CarId::ALL.get((b - b'A') as usize).copied())
}

/// The per-car seed the capture tooling and fleet runs use.
pub fn car_seed(id: CarId) -> u64 {
    EXPERIMENT_SEED ^ (id as u64 + 1)
}

/// Whether quick mode is enabled: `DPR_QUICK` set to `1`, `true`, or
/// `yes` (trimmed, case-insensitive).
pub fn quick() -> bool {
    std::env::var("DPR_QUICK")
        .is_ok_and(|v| matches!(v.trim().to_ascii_lowercase().as_str(), "1" | "true" | "yes"))
}

/// The per-screen collection dwell, in seconds, of the accuracy gate's
/// runs: 4 in quick mode, 10 otherwise. `dpr-bench explain` and
/// `profile` default to it too, so with no dwell argument they analyze
/// the very run the gate scores. `fleet` keeps its own 4 s default,
/// which the `perfbench` captures mirror.
pub fn read_secs() -> u64 {
    if quick() {
        4
    } else {
        10
    }
}

/// The transport scheme of a Tab. 3 car.
pub fn scheme_for(id: CarId) -> Scheme {
    match profiles::spec(id).transport {
        TransportKind::IsoTp => Scheme::IsoTp,
        TransportKind::VwTp => Scheme::VwTp,
        TransportKind::BmwRaw => Scheme::BmwRaw,
    }
}

/// Builds a car, runs the robotic-clicker collection, returns the report.
pub fn collect_car(id: CarId, seed: u64, read_secs: u64) -> CollectionReport {
    let spec = profiles::spec(id);
    let car = profiles::build(id, seed);
    let session = ToolSession::new(car, ToolProfile::by_name(spec.tool).expect("Tab. 3 tool"));
    collect_vehicle(
        session,
        &CollectConfig {
            read_wait: Micros::from_secs(read_secs),
            ..CollectConfig::default()
        },
    )
    .expect("collection succeeds on simulated vehicles")
}

/// The pipeline configuration experiments use: the paper GP budget, the
/// tool's calibrated OCR quality, or a reduced budget in quick mode.
pub fn experiment_config(id: CarId, seed: u64) -> PipelineConfig {
    let spec = profiles::spec(id);
    let ocr_quality = ToolProfile::by_name(spec.tool)
        .map(|p| p.ocr_quality)
        .unwrap_or(0.998);
    let mut config = if quick() {
        PipelineConfig::fast(scheme_for(id), seed)
    } else {
        PipelineConfig::paper(scheme_for(id), seed)
    };
    config.ocr = OcrChannel::new(ocr_quality, seed);
    config
}

/// The experiment config a capture's metadata names: its recorded
/// `car` (required: it fixes the transport scheme and the tool's OCR
/// quality) and `seed`. A capture with no parseable seed runs at
/// [`car_seed`], the seed the capture tooling records with. Both
/// `dpr-bench analyze` ([`capture_pipeline`]) and the service's
/// [`BenchAnalyzer`] configure from here, so a served result equals a
/// direct run's.
pub fn capture_config(meta: &BTreeMap<String, String>) -> Result<PipelineConfig, String> {
    let id = meta
        .get("car")
        .and_then(|c| parse_car(c))
        .ok_or("capture carries no car metadata; cannot configure the pipeline")?;
    let seed = meta
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| car_seed(id));
    Ok(experiment_config(id, seed))
}

/// Opens a `.dprcap` capture and builds the pipeline `dpr-bench analyze`
/// runs on it ([`capture_config`]). Returns it with a fresh reader of
/// the capture, ready for [`DpReverser::analyze_capture`].
pub fn capture_pipeline(
    path: &Path,
) -> Result<(DpReverser, CaptureReader<BufReader<File>>), String> {
    let open = || CaptureReader::open(path).map_err(|e| format!("{}: {e}", path.display()));
    let (session, _) = open()?.read_session();
    let config = capture_config(&session.meta).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((DpReverser::new(config), open()?))
}

/// Runs the pipeline over a collected report.
pub fn analyze(id: CarId, seed: u64, report: &CollectionReport) -> ReverseEngineeringResult {
    let pipeline = DpReverser::new(experiment_config(id, seed));
    pipeline.analyze(&report.log, &report.frames, Some(&report.execution))
}

/// The production analyzer behind `dpr-bench serve`: uploaded captures
/// replay under the experiment config recovered from their metadata
/// (the same config a direct `dpr-bench analyze` run would use, so the
/// two produce byte-identical canonical results); car jobs run a fresh
/// collection at the experiment seed.
pub struct BenchAnalyzer;

impl dpr_serve::Analyzer for BenchAnalyzer {
    fn analyze(&self, input: dpr_serve::JobInput) -> Result<ReverseEngineeringResult, String> {
        match input {
            dpr_serve::JobInput::Capture(session) => {
                let pipeline = DpReverser::new(capture_config(&session.meta)?);
                Ok(pipeline.analyze_replay(&session))
            }
            dpr_serve::JobInput::Car(name) => {
                let id = parse_car(&name).ok_or_else(|| format!("unknown car {name:?}"))?;
                let seed = car_seed(id);
                let report = collect_car(id, seed, 4);
                Ok(analyze(id, seed, &report))
            }
        }
    }

    fn knows_car(&self, name: &str) -> bool {
        parse_car(name).is_some()
    }
}

/// Fans one independent per-car job out across the [`dpr_par`] worker
/// pool (`DPR_THREADS`), returning results in car order. Each job runs
/// inside its own telemetry scope (via [`analyze_traced`]-style
/// scoping done by the caller's closure), so concurrent cars cannot
/// pollute each other's traces.
pub fn par_cars<R, F>(cars: &[CarId], job: F) -> Vec<R>
where
    R: Send,
    F: Fn(CarId) -> R + Sync,
{
    dpr_par::par_map(cars, |&id| job(id))
}

/// Runs the pipeline inside its own telemetry scope, so the returned
/// result's trace is not polluted by concurrent runs.
pub fn analyze_traced(id: CarId, seed: u64, report: &CollectionReport) -> ReverseEngineeringResult {
    let registry = std::sync::Arc::new(dpr_telemetry::Registry::new());
    dpr_telemetry::scoped(registry, || analyze(id, seed, report))
}

/// What one [`fleet_traced`] run produced: per-car results in car order
/// plus the shared registry's final metrics snapshot and where the
/// observability taps (if any) landed.
pub struct FleetRun {
    /// `(car, result)` pairs, in the order the cars were passed.
    pub results: Vec<(CarId, ReverseEngineeringResult)>,
    /// The fleet registry's metrics at the end of the run.
    pub snapshot: dpr_telemetry::MetricsSnapshot,
    /// Where the Chrome trace-event file was written (`DPR_TRACE_EVENTS`).
    pub trace_events: Option<std::path::PathBuf>,
    /// Where the metrics server was scrapeable (`DPR_METRICS_ADDR`).
    pub metrics_addr: Option<std::net::SocketAddr>,
}

/// Collects and analyzes every car in `cars` across the worker pool
/// under **one** telemetry registry wired to the environment-driven
/// observability taps (`dpr-obs`): with `DPR_TRACE_EVENTS` set the whole
/// fleet lands in one Perfetto-loadable trace (workers as `gp-worker-N`
/// rows), and with `DPR_METRICS_ADDR` set a scrape endpoint serves live
/// `/metrics` plus the latest completed car's trace at `/trace` for the
/// duration of the run (plus `hold` afterwards, so a scraper can catch
/// the final state).
///
/// This is the fleet-wide counterpart of [`analyze_traced`]: that
/// isolates one car's numbers, this deliberately shares a registry so
/// the exported artifacts cover the whole run.
pub fn fleet_traced(cars: &[CarId], read_secs: u64, hold: std::time::Duration) -> FleetRun {
    use std::sync::Arc;

    let registry = Arc::new(dpr_telemetry::Registry::new());
    let session = dpr_obs::ObsSession::from_env(&registry);
    let results = dpr_telemetry::scoped(Arc::clone(&registry), || {
        let _fleet = dpr_telemetry::Span::enter("fleet");
        par_cars(cars, |id| {
            let seed = car_seed(id);
            let report = collect_car(id, seed, read_secs);
            let result = analyze(id, seed, &report);
            session.publish_run(&result.trace, &result.evidence);
            (id, result)
        })
    });
    let snapshot = registry.snapshot();
    let trace_events = session.trace_events_path().map(Path::to_path_buf);
    let metrics_addr = session.metrics_addr();
    if !hold.is_zero() && metrics_addr.is_some() {
        std::thread::sleep(hold);
    }
    session.finish();
    FleetRun {
        results,
        snapshot,
        trace_events,
        metrics_addr,
    }
}

/// Prints the run's per-stage table through the telemetry summary
/// renderer — the one format all experiment binaries share.
pub fn print_trace(result: &ReverseEngineeringResult) {
    print!("{}", dpr_telemetry::summary::render_trace(&result.trace));
}

/// Renders a bench record as a `BENCH_*.json` document: one top-level
/// key per line and each element of a top-level array on its own line,
/// so a diff against a baseline names the key or row that moved. Nested
/// values stay compact.
///
/// The record is serialized once, by [`dpr_telemetry::json::to_string`],
/// whose compact output has no whitespace outside strings; this only
/// breaks that text into lines at the separators of the outer object and
/// of its arrays.
pub fn bench_json<T: Serialize>(record: &T) -> String {
    let compact = dpr_telemetry::json::to_string(record).expect("a bench record serializes");
    let mut out: Vec<u8> = Vec::with_capacity(compact.len() * 9 / 8 + 2);
    // The brackets enclosing the current byte, outermost first. Only the
    // outer object and the arrays directly inside it are broken into
    // lines, each level indented by two spaces.
    let mut open: Vec<u8> = Vec::new();
    let broken = |open: &[u8]| matches!(open, [b'{'] | [b'{', b'[']);
    let newline = |out: &mut Vec<u8>, depth: usize| {
        out.push(b'\n');
        out.resize(out.len() + 2 * depth, b' ');
    };
    let (mut in_str, mut escaped) = (false, false);
    let mut bytes = compact.bytes().peekable();
    while let Some(b) = bytes.next() {
        if in_str {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_str = false,
                _ => {}
            }
            out.push(b);
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' | b'[' => {
                open.push(b);
                out.push(b);
                if broken(&open) && !matches!(bytes.peek(), Some(b'}' | b']')) {
                    newline(&mut out, open.len());
                }
                continue;
            }
            b'}' | b']' => {
                if broken(&open) && !matches!(out.last(), Some(b'{' | b'[')) {
                    newline(&mut out, open.len() - 1);
                }
                open.pop();
            }
            b',' if broken(&open) => {
                out.push(b);
                newline(&mut out, open.len());
                continue;
            }
            b':' if open.len() == 1 => {
                out.extend_from_slice(b": ");
                continue;
            }
            _ => {}
        }
        out.push(b);
    }
    out.push(b'\n');
    String::from_utf8(out).expect("only ASCII was inserted, between whole characters")
}

/// `x` rounded to `decimals` places: what a bench record stores for a
/// ratio or rate, so its file keeps the precision the baseline records.
pub fn round_to(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

/// Prints a bench header naming the table being reproduced.
pub fn header(table: &str, claim: &str) {
    println!("==================================================================");
    println!("{table}");
    println!("paper claim: {claim}");
    println!("seed: {EXPERIMENT_SEED}  quick: {}", quick());
    println!("==================================================================");
}

/// Formats a ratio as a percentage string.
pub fn pct(n: usize, d: usize) -> String {
    if d == 0 {
        "  n/a".to_string()
    } else {
        format!("{:5.1}%", n as f64 / d as f64 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_mapping_matches_profiles() {
        assert_eq!(scheme_for(CarId::A), Scheme::IsoTp);
        assert_eq!(scheme_for(CarId::B), Scheme::VwTp);
        assert_eq!(scheme_for(CarId::G), Scheme::BmwRaw);
    }

    #[test]
    fn bench_json_breaks_only_the_outer_object_and_its_arrays() {
        #[derive(Serialize)]
        struct Row {
            name: String,
            ids: Vec<u8>,
        }
        #[derive(Serialize)]
        struct Record {
            bench: &'static str,
            share: f64,
            rows: Vec<Row>,
            empty: Vec<u8>,
        }
        let record = Record {
            bench: "t",
            share: round_to(0.123456, 3),
            rows: vec![
                Row {
                    name: "a, [b]: {\"c\"}".to_string(),
                    ids: vec![1, 2],
                },
                Row {
                    name: String::new(),
                    ids: Vec::new(),
                },
            ],
            empty: Vec::new(),
        };
        assert_eq!(
            bench_json(&record),
            concat!(
                "{\n",
                "  \"bench\": \"t\",\n",
                "  \"share\": 0.123,\n",
                "  \"rows\": [\n",
                "    {\"name\":\"a, [b]: {\\\"c\\\"}\",\"ids\":[1,2]},\n",
                "    {\"name\":\"\",\"ids\":[]}\n",
                "  ],\n",
                "  \"empty\": []\n",
                "}\n"
            )
        );
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(285, 290), " 98.3%");
        assert_eq!(pct(0, 0), "  n/a");
    }
}
