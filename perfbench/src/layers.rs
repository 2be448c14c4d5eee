//! Per-layer numbers from a traced run, the pool verdict every run
//! prints, and the stage-share table.

use crate::metrics::{host_cores, quantile, ratio, Values};
use dpr_prof::{LabelSummary, ProfSnapshot};
use dpr_telemetry::{PipelineTrace, SpanRecord};
use std::time::Duration;

/// One analysis as the benchmark saw it: its own timings around the
/// calls into each layer, plus what the program exposes about the run
/// (the result's `PipelineTrace`, and in a traced run the spans a
/// `Collector` caught).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Index of the capture analyzed.
    pub car: usize,
    /// `CaptureReader::read_session`.
    pub decode: Duration,
    /// Capture records decoded.
    pub records: u64,
    /// `DpReverser::analyze_replay` (in `serve`: the job's analyzer call).
    pub analyze: Duration,
    /// `ReverseEngineeringResult::canonical_json`.
    pub json: Duration,
    /// Bytes of that JSON.
    pub json_bytes: usize,
    /// The run's per-stage trace.
    pub trace: PipelineTrace,
    /// Spans collected while it ran (traced runs only).
    pub spans: Vec<SpanRecord>,
}

/// Pool activity between two `dpr_prof` snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolDelta {
    /// `par_map` calls that ran on the pool rather than inline.
    pub pooled_calls: u64,
    /// Sum of those calls' utilization.
    pub utilization_sum: f64,
    /// Sum of those calls' imbalance.
    pub imbalance_sum: f64,
    /// OS threads the pool spawned.
    pub spawns: u64,
    /// GP scoring batches that ran on the pool.
    pub score_pooled: u64,
    /// GP scoring batches drained inline (including those nested under
    /// a pooled call, which cannot wake the pool again).
    pub score_inline: u64,
    /// Busy worker time of GP scoring, inline and pooled.
    pub score_busy_us: u64,
    /// Caller-side wall time of GP scoring calls.
    pub score_wall_us: u64,
}

impl PoolDelta {
    /// The activity recorded after `before` and up to `after`.
    pub fn between(before: &ProfSnapshot, after: &ProfSnapshot) -> PoolDelta {
        let unseen = LabelSummary::default();
        let mut delta = PoolDelta::default();
        for now in &after.labels {
            let was = before
                .labels
                .iter()
                .find(|l| l.label == now.label)
                .unwrap_or(&unseen);
            let inline = now.inline_calls - was.inline_calls;
            let pooled = now.calls - was.calls - inline;
            // An inline call counts 1.0 towards both sums; only pooled
            // calls say anything about the pool.
            delta.pooled_calls += pooled;
            delta.utilization_sum +=
                (now.utilization_sum - was.utilization_sum - inline as f64).max(0.0);
            delta.imbalance_sum += (now.imbalance_sum - was.imbalance_sum - inline as f64).max(0.0);
            delta.spawns += now.spawned_threads - was.spawned_threads;
            if now.label == "gp.score" {
                delta.score_pooled += pooled;
                delta.score_inline += inline;
                delta.score_busy_us += now.busy_us - was.busy_us;
                delta.score_wall_us += now.wall_us - was.wall_us;
            }
        }
        delta
    }

    /// Whether the run used the pool at all, and whether GP scoring did.
    /// A run whose GP generations all drained inline says so, so its
    /// timings are never read as a parallel number.
    pub fn verdict(&self, threads: usize) -> String {
        let verdict = if self.pooled_calls == 0 {
            "inline only: no call ran on the pool, this is not a parallel number"
        } else if self.score_pooled == 0 {
            "the pool ran across cars only: every GP generation drained inline"
        } else {
            "GP scoring ran on the pool"
        };
        format!(
            "pool: host_cores {} threads {threads}, pooled calls {}, spawns {}, \
             GP batches pooled {} / inline {} -> {verdict}",
            host_cores(),
            self.pooled_calls,
            self.spawns,
            self.score_pooled,
            self.score_inline,
        )
    }
}

/// Job-level numbers of the `serve` workload, means per job.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeLayers {
    /// `POST /jobs` round trip, upload included.
    pub submit_ms: f64,
    /// Accepted until a worker took the job (from the job's events).
    pub queue_wait_ms: f64,
    /// The job's pipeline wall time, as its status reports it.
    pub run_ms: f64,
    /// `GET /jobs/<id>/result` round trip.
    pub fetch_ms: f64,
    /// Status polls per job.
    pub polls_per_job: f64,
    /// Deepest job queue the poller saw.
    pub queue_depth_max: f64,
    /// Latest the generator sent a job after it was due.
    pub generator_lag_ms: f64,
}

/// Readings around the traced window, outside any one analysis.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Wall time the workload ran.
    pub wall: Duration,
    /// Process CPU seconds over that time.
    pub cpu_s: f64,
    /// Pool width.
    pub threads: usize,
    /// Pool activity over the window.
    pub pool: PoolDelta,
    /// Allocations and bytes counted over the window.
    pub allocs: (u64, u64),
    /// Traced analysis time over the untraced reference's, minus one.
    pub overhead_share: f64,
    /// Job-level numbers, `serve` only.
    pub serve: Option<ServeLayers>,
}

/// The per-layer metrics of one traced workload and its stage-share
/// table.
pub fn per_layer(samples: &[Sample], window: &Window) -> (Values, Vec<String>) {
    let n = samples.len().max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let stage_ms = |name: &str| {
        samples
            .iter()
            .filter_map(|s| s.trace.stage(name))
            .map(|s| s.wall_us as f64 / 1e3)
            .sum::<f64>()
    };
    let counters = |keep: &dyn Fn(&str) -> bool| {
        samples
            .iter()
            .flat_map(|s| s.trace.counters.iter())
            .filter(|(k, _)| keep(k))
            .map(|(_, v)| *v as f64)
            .sum::<f64>()
    };
    let counter = |name: &str| counters(&|k| k == name);
    let span_ms = |name: &str| -> Vec<f64> {
        samples
            .iter()
            .flat_map(|s| &s.spans)
            .filter(|r| r.name == name)
            .map(|r| ms(r.wall))
            .collect()
    };
    let fits = span_ms("gp.fit");
    let chunks = span_ms("par.chunk");
    let fit_ms: f64 = fits.iter().sum();
    let decode: f64 = samples.iter().map(|s| ms(s.decode)).sum();
    let analyze: f64 = samples.iter().map(|s| ms(s.analyze)).sum();
    let json: f64 = samples.iter().map(|s| ms(s.json)).sum();
    let staged: f64 = samples
        .iter()
        .map(|s| s.trace.staged_us() as f64 / 1e3)
        .sum();
    let glue = analyze - staged;
    let inference = stage_ms("inference");
    let scoring = (window.pool.score_wall_us as f64 / 1e3).min(fit_ms);
    let (hits, distinct, cached) = (
        counter("gp.dedup_hits"),
        counter("gp.dedup_distinct"),
        counter("gp.fitness_cache_hits"),
    );
    let (above, below, rescued) = (
        counter("pipeline.matches_above_threshold"),
        counter("pipeline.matches_below_threshold"),
        counter("pipeline.matches_rescued"),
    );
    let threads = window.threads.max(1) as f64;
    let wall_s = window.wall.as_secs_f64();
    let pooled = window.pool.pooled_calls as f64;
    let serve = window.serve.unwrap_or_default();

    let mut v = Values::new();
    v.insert("inference.ms", inference / n);
    v.insert("inference.share", ratio(inference, analyze));
    v.insert("gp.fits", counter("gp.fits") / n);
    v.insert("gp.fit_p50_ms", quantile(&fits, 0.5));
    v.insert("gp.fit_p90_ms", quantile(&fits, 0.9));
    v.insert("gp.generations", counter("gp.generations") / n);
    v.insert("gp.evaluations", counter("gp.evaluations") / n);
    v.insert("gp.dedup_hit_ratio", ratio(hits, hits + distinct));
    v.insert(
        "gp.cache_hit_ratio",
        ratio(cached, cached + hits + distinct),
    );
    v.insert(
        "gp.score_share",
        ratio(window.pool.score_busy_us as f64 / 1e3, fit_ms),
    );
    v.insert("par.cpu_util", ratio(window.cpu_s, wall_s * threads));
    v.insert(
        "par.pool_utilization",
        ratio(window.pool.utilization_sum, pooled),
    );
    v.insert("par.imbalance", ratio(window.pool.imbalance_sum, pooled));
    v.insert("par.batch_flushes", counter("par.batch_flushes") / n);
    v.insert(
        "par.batch_inline_drains",
        counter("par.batch_inline_drains") / n,
    );
    v.insert("par.pool_spawns", window.pool.spawns as f64);
    v.insert("par.pooled_calls", pooled);
    v.insert(
        "par.fleet_efficiency",
        ratio((decode + analyze) / 1e3, wall_s * threads),
    );
    v.insert("par.threads", threads);
    v.insert("host_cores", host_cores() as f64);
    v.insert("capture.decode_ms", decode / n);
    v.insert(
        "capture.records",
        samples.iter().map(|s| s.records as f64).sum::<f64>() / n,
    );
    v.insert("transport.ms", stage_ms("transport") / n);
    v.insert(
        "transport.reassembled",
        counters(&|k| k.starts_with("transport.") && k.ends_with(".reassembled")) / n,
    );
    v.insert(
        "transport.rejects",
        counters(&|k| k.starts_with("transport.") && k.contains(".reject.")) / n,
    );
    v.insert("ocr.ms", stage_ms("ocr") / n);
    v.insert(
        "ocr.kept_ratio",
        ratio(counter("ocr.filter_kept"), counter("ocr.readings_read")),
    );
    v.insert("association.ms", stage_ms("association") / n);
    v.insert(
        "association.accept_ratio",
        ratio(above + rescued, above + below),
    );
    v.insert("pipeline.untraced_ms", glue / n);
    v.insert("ecr.ms", stage_ms("ecr") / n);
    v.insert("result.json_ms", json / n);
    v.insert(
        "result.bytes",
        samples.iter().map(|s| s.json_bytes as f64).sum::<f64>() / n,
    );
    v.insert("serve.submit_ms", serve.submit_ms);
    v.insert("serve.queue_wait_ms", serve.queue_wait_ms);
    v.insert("serve.run_ms", serve.run_ms);
    v.insert("serve.fetch_ms", serve.fetch_ms);
    v.insert("serve.polls_per_job", serve.polls_per_job);
    v.insert("serve.queue_depth_max", serve.queue_depth_max);
    v.insert("serve.generator_lag_ms", serve.generator_lag_ms);
    v.insert("alloc.mb_per_analysis", window.allocs.1 as f64 / 1e6 / n);
    v.insert("alloc.count_per_analysis", window.allocs.0 as f64 / n);
    v.insert("trace.overhead_share", window.overhead_share);

    // Self time per layer: a stage's span minus the child spans it
    // contains (gp.fit inside inference, scoring inside gp.fit).
    let mut rows: Vec<(&str, f64)> = vec![
        ("capture.decode", decode),
        ("transport", stage_ms("transport")),
        ("ocr", stage_ms("ocr")),
        ("association", stage_ms("association")),
        ("inference (outside gp.fit)", inference - fit_ms),
        ("gp.fit: scoring (gp.score)", scoring),
        ("gp.fit: breed/polish/refit", fit_ms - scoring),
        ("ecr", stage_ms("ecr")),
        ("pipeline glue (untraced)", glue),
        ("result.json", json),
    ];
    if let Some(serve) = window.serve {
        rows.push(("serve.submit (http)", serve.submit_ms * n));
        rows.push(("serve.queue_wait", serve.queue_wait_ms * n));
        rows.push(("serve.fetch (http)", serve.fetch_ms * n));
    }
    let total: f64 = rows.iter().map(|(_, t)| t.max(0.0)).sum();
    let mut lines = vec![
        format!(
            "stage shares over {} analyses (self time, ms per analysis):",
            samples.len()
        ),
        format!("  {:<30} {:>12} {:>8}", "layer", "ms", "share"),
    ];
    for (name, t) in &rows {
        lines.push(format!(
            "  {name:<30} {:>12.3} {:>7.2}%",
            t / n,
            ratio(t.max(0.0), total) * 100.0
        ));
    }
    lines.push(format!(
        "  {:<30} {:>12.3} {:>7.2}%",
        "total",
        total / n,
        100.0
    ));
    let share = ratio(inference, analyze);
    lines.push(format!(
        "Tab. 8 check: inference (GP included) is {:.1}% of analysis time -> \
         \"inference dominates\" {}",
        share * 100.0,
        if share > 0.5 { "confirmed" } else { "refuted" }
    ));
    lines.push(format!(
        "gp.fit split: scoring {:.1}% of gp.fit wall (pool-profiled busy {:.1}%), \
         breeding/polishing/refit {:.1}%; {} par.chunk spans, {:.1} ms of pool-worker chunks",
        ratio(scoring, fit_ms) * 100.0,
        ratio(window.pool.score_busy_us as f64 / 1e3, fit_ms) * 100.0,
        ratio(fit_ms - scoring, fit_ms) * 100.0,
        chunks.len(),
        chunks.iter().sum::<f64>() + 0.0,
    ));
    (v, lines)
}
