//! The analysis worker pool: a fixed set of threads draining the
//! [`JobStore`] FIFO.
//!
//! Each job runs against its own fresh [`Registry`] (scoped
//! thread-locally for the duration of the analysis) so pipeline
//! counters never bleed between concurrent jobs. A finished run is
//! stored once: its canonical result JSON and trace become one shared
//! [`RunRecord`](dpr_obs::RunRecord), held by both the run store and
//! the job table, and every route that shows the run reads that copy.
//!
//! Correlation: the worker pushes `job_id` onto its log context for the
//! duration of the job (the pipeline's stage records, and — through
//! `dpr-par`'s context inheritance — records from pool worker threads
//! all carry it) and attaches the job's [`JobTap`](crate::JobTap) to
//! the logger. That one tap is where the live per-stage progress
//! reported by `GET /jobs/<id>` comes from, and it mirrors the job's
//! records onto its event stream. The run is published with the job
//! attached, which stamps the served trace's `job_id`.

use crate::jobs::{JobStore, StageLine, WorkerHealth};
use crate::Analyzer;
use dpr_obs::SharedRuns;
use dpr_telemetry::log::{self, LogSink};
use dpr_telemetry::Registry;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// One worker thread's life: block on the queue, analyze, publish,
/// repeat — until the store drains and `take_next` returns `None`.
pub(crate) fn run_worker(
    slot: usize,
    store: Arc<JobStore>,
    analyzer: Arc<dyn Analyzer>,
    service_registry: Arc<Registry>,
    runs: SharedRuns,
    health: Arc<WorkerHealth>,
) {
    while let Some((id, input, job_tap)) = store.take_next() {
        health.beat(slot, "running");
        let external = format!("job-{id}");
        let _job_ctx = log::push_context("job_id", external.as_str());
        log::info("serve.job", "job started", &[]);
        let tap = log::add_sink(job_tap as Arc<dyn LogSink>);
        // A registry per job: the pipeline's own counters and spans are
        // job-local.
        let outcome = dpr_telemetry::scoped(Arc::new(Registry::new()), || {
            panic::catch_unwind(AssertUnwindSafe(|| analyzer.analyze(input)))
        });
        match outcome {
            Ok(Ok(result)) => {
                let canonical: Arc<str> = result.canonical_json().into();
                let stages = result
                    .trace
                    .stages
                    .iter()
                    .map(|s| StageLine {
                        name: s.name.clone(),
                        wall_us: s.wall_us,
                    })
                    .collect();
                let wall_us = result.trace.total_us;
                let at_ms = std::time::SystemTime::now()
                    .duration_since(std::time::UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0);
                // Publish under the service registry so bookkeeping
                // like `runs.evicted` lands on `/metrics`, not in the
                // throwaway job registry. The job's own canonical
                // result stays byte-identical to a direct pipeline run;
                // only the published trace carries the job id.
                let run = dpr_telemetry::scoped(Arc::clone(&service_registry), || {
                    runs.lock().publish(
                        at_ms,
                        Some(external.clone()),
                        result.trace,
                        &result.evidence,
                        canonical,
                    )
                });
                service_registry.histogram("jobs.run_us").record(wall_us as f64);
                log::info(
                    "serve.job",
                    "run published",
                    &[
                        ("run_id", run.id.as_str().into()),
                        ("wall_us", wall_us.into()),
                    ],
                );
                log::remove_sink(tap);
                store.complete(id, run, stages, wall_us);
            }
            Ok(Err(error)) => {
                log::warn("serve.job", "job failed", &[("error", error.as_str().into())]);
                log::remove_sink(tap);
                store.fail(id, error);
            }
            Err(panic) => {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "analysis panicked".to_string());
                log::warn("serve.job", "job failed", &[("error", what.as_str().into())]);
                log::remove_sink(tap);
                store.fail(id, format!("analysis panicked: {what}"));
            }
        }
        health.beat(slot, "idle");
    }
}
