//! The textual pool report: turns a [`ProfSnapshot`] into the table and
//! diagnosis lines printed by `dpr-bench profile` / `dpr-bench scale`.

use crate::store::{LabelSummary, ProfSnapshot};

/// A rendered pool report plus the machine-readable diagnosis behind it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolReport {
    /// The full human-readable report text.
    pub text: String,
    /// One sentence per detected scaling problem, worst first. Empty
    /// when the pool looks healthy.
    pub diagnosis: Vec<String>,
}

/// Overhead shares above which a cause makes it into the diagnosis.
const SHARE_THRESHOLD: f64 = 0.10;
/// Mean imbalance above which the pool is called unbalanced.
const IMBALANCE_THRESHOLD: f64 = 1.25;

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn diagnose(label: &LabelSummary) -> Vec<(f64, String)> {
    let mut causes: Vec<(f64, String)> = Vec::new();
    let parallel_calls = label.calls - label.inline_calls;
    if parallel_calls == 0 {
        return causes;
    }
    // Shares of total worker-time (busy+wait+idle), the pool's paid-for
    // capacity over these calls.
    let capacity = (label.busy_us + label.wait_us + label.idle_us).max(1) as f64;
    let idle = label.idle_us as f64 / capacity;
    let wait = label.wait_us as f64 / capacity;
    let spinup = label.spinup_us as f64 / label.wall_us.max(1) as f64;
    if spinup > SHARE_THRESHOLD {
        causes.push((
            spinup,
            format!(
                "[{}] thread spin-up costs {} of wall time ({} threads spawned over {} calls) — \
                 spawn latency, not compute, dominates; fewer, larger calls amortize it",
                label.label,
                pct(spinup),
                label.spawned_threads,
                label.calls,
            ),
        ));
    }
    if idle > SHARE_THRESHOLD {
        causes.push((
            idle,
            format!(
                "[{}] workers are idle for {} of pool capacity (spin-up gaps + end-of-call \
                 stragglers) — utilization {}; tail claims are already single items, so \
                 fewer workers or more items per call would help",
                label.label,
                pct(idle),
                pct(label.mean_utilization()),
            ),
        ));
    }
    if wait > SHARE_THRESHOLD {
        causes.push((
            wait,
            format!(
                "[{}] workers spend {} of pool capacity on claim/store synchronization — \
                 claims are too fine ({} claims for {} items)",
                label.label,
                pct(wait),
                label.chunks,
                label.items,
            ),
        ));
    }
    let imbalance = label.mean_imbalance();
    if imbalance > IMBALANCE_THRESHOLD {
        causes.push((
            (imbalance - 1.0) / 10.0,
            format!(
                "[{}] work is unbalanced: the busiest worker does {:.2}× the mean share \
                 (steal ratio {}) — even with single-item tail claims, a few items cost \
                 more than the rest of a worker's share; split them or start them first",
                label.label,
                imbalance,
                pct(label.mean_steal_ratio()),
            ),
        ));
    }
    causes
}

/// Renders the report for a snapshot. `heading` labels the section
/// (e.g. `"pool report"` or `"pool report @ 2 threads"`).
pub fn render_report(snapshot: &ProfSnapshot, heading: &str) -> PoolReport {
    let mut text = String::new();
    let mut all_causes: Vec<(f64, String)> = Vec::new();
    text.push_str(&format!("== {heading} ==\n"));
    if snapshot.total_calls == 0 {
        text.push_str("no profiled par_map calls (is DPR_PROF=1 set?)\n");
        return PoolReport {
            text,
            diagnosis: Vec::new(),
        };
    }
    text.push_str(&format!(
        "{:<14} {:>6} {:>7} {:>9} {:>6} {:>6} {:>6} {:>7} {:>7} {:>8}\n",
        "label", "calls", "workers", "items", "util", "imbal", "steal", "spinup", "spawns", "allocs"
    ));
    for label in &snapshot.labels {
        text.push_str(&format!(
            "{:<14} {:>6} {:>7} {:>9} {:>6} {:>6.2} {:>6} {:>7} {:>7} {:>8}\n",
            label.label,
            label.calls,
            label.max_workers,
            label.items,
            pct(label.mean_utilization()),
            label.mean_imbalance(),
            pct(label.mean_steal_ratio()),
            format!("{}us", label.spinup_us / label.calls.max(1)),
            label.spawned_threads,
            label.allocs,
        ));
        let busy = label.busy_us;
        let capacity = (label.busy_us + label.wait_us + label.idle_us).max(1);
        text.push_str(&format!(
            "{:<14} busy {} | wait {} | idle {} of {}ms pool capacity; alloc {} bytes\n",
            "",
            pct(busy as f64 / capacity as f64),
            pct(label.wait_us as f64 / capacity as f64),
            pct(label.idle_us as f64 / capacity as f64),
            capacity / 1000,
            label.alloc_bytes,
        ));
        all_causes.extend(diagnose(label));
    }
    all_causes.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let diagnosis: Vec<String> = all_causes.into_iter().map(|(_, msg)| msg).collect();
    if diagnosis.is_empty() {
        text.push_str("diagnosis: pool looks healthy (no overhead share above 10%)\n");
    } else {
        for line in &diagnosis {
            text.push_str(&format!("diagnosis: {line}\n"));
        }
    }
    PoolReport { text, diagnosis }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CallProfile, WorkerStats};

    fn snapshot_with(workers: Vec<WorkerStats>, wall: u64, spinup: u64) -> ProfSnapshot {
        let call = CallProfile {
            label: "gp.score".into(),
            seq: 1,
            wall_us: wall,
            items: 64,
            chunk_size: 8,
            chunks: 8,
            workers,
            spinup_us: spinup,
            spawned_threads: 2,
            ..CallProfile::default()
        };
        let mut label = LabelSummary {
            label: "gp.score".into(),
            ..LabelSummary::default()
        };
        // Mirror the store's absorption so the report sees real sums.
        label.calls = 1;
        label.wall_us = call.wall_us;
        label.busy_us = call.busy_us();
        label.wait_us = call.wait_us();
        label.idle_us = call.idle_us();
        label.spinup_us = call.spinup_us;
        label.items = call.items;
        label.chunks = call.chunks;
        label.spawned_threads = call.spawned_threads;
        label.max_workers = call.workers.len() as u64;
        label.utilization_sum = call.utilization();
        label.imbalance_sum = call.imbalance();
        label.steal_sum = call.steal_ratio();
        ProfSnapshot {
            total_calls: 1,
            labels: vec![label],
            recent: vec![call],
        }
    }

    fn worker(busy: u64, wait: u64, idle: u64) -> WorkerStats {
        WorkerStats {
            busy_us: busy,
            wait_us: wait,
            idle_us: idle,
            chunks: 4,
            items: 32,
            ..WorkerStats::default()
        }
    }

    #[test]
    fn empty_snapshot_reports_no_calls() {
        let report = render_report(&ProfSnapshot::default(), "pool report");
        assert!(report.text.contains("no profiled par_map calls"));
        assert!(report.diagnosis.is_empty());
    }

    #[test]
    fn spinup_dominated_call_names_spinup_first() {
        // 2 workers, 1000us wall, 400us spin-up, mostly idle.
        let snap = snapshot_with(vec![worker(300, 10, 690), worker(250, 10, 740)], 1000, 400);
        let report = render_report(&snap, "pool report");
        assert!(!report.diagnosis.is_empty());
        assert!(
            report.diagnosis.iter().any(|d| d.contains("idle"))
                || report.diagnosis.iter().any(|d| d.contains("spin-up")),
            "expected a concrete cause, got {:?}",
            report.diagnosis
        );
        // The worst cause (idle share ~71%) outranks spin-up (40%).
        assert!(report.diagnosis[0].contains("idle"));
        assert!(report.text.contains("gp.score"));
    }

    #[test]
    fn balanced_busy_pool_is_healthy() {
        let snap = snapshot_with(vec![worker(980, 10, 10), worker(975, 10, 15)], 1000, 5);
        let report = render_report(&snap, "pool report");
        assert!(report.diagnosis.is_empty(), "{:?}", report.diagnosis);
        assert!(report.text.contains("pool looks healthy"));
    }
}
