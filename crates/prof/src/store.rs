//! The process-wide profile store: per-call records and per-label
//! cumulative aggregates.

use dpr_telemetry::Ring;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// How many recent [`CallProfile`]s the store keeps verbatim; older
/// calls survive only in the per-label aggregates.
const RECENT_CAP: usize = 64;

/// One worker's share of a single `par_map` call.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker index within the pool (0-based).
    pub worker: u64,
    /// Microseconds inside the caller's mapped function (and `init`).
    pub busy_us: u64,
    /// Microseconds claiming items and storing results (synchronization).
    pub wait_us: u64,
    /// Microseconds neither busy nor waiting: spin-up latency before the
    /// worker's first claim plus the tail after its last claim while
    /// slower siblings finish.
    pub idle_us: u64,
    /// Claims this worker took.
    pub chunks: u64,
    /// Items this worker mapped.
    pub items: u64,
    /// Heap allocations attributed to this worker during the call
    /// (0 unless `DPR_PROF=1` and the counting allocator is installed).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

/// The accounting for one `par_map` call.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CallProfile {
    /// The innermost [`crate::with_label`] label at the call site
    /// (`"par"` when unlabelled).
    pub label: String,
    /// Process-wide call sequence number (1-based, assigned on record).
    pub seq: u64,
    /// Microseconds since the profile epoch at which the call started
    /// (the epoch is the first profiled call in the process).
    pub start_us: u64,
    /// Microseconds since the *caller's telemetry registry* epoch at
    /// which the call started — the same timeline span records use, so
    /// trace exporters can lay profile-derived counter tracks alongside
    /// span rows.
    pub epoch_start_us: u64,
    /// Wall time of the whole call, entry to return.
    pub wall_us: u64,
    /// Items mapped.
    pub items: u64,
    /// The largest claim the pool allows, `⌈items / (4 × workers)⌉`
    /// (tail claims shrink from it to single items); `items` when inline.
    pub chunk_size: u64,
    /// Number of claims taken (Σ `workers[i].chunks`).
    pub chunks: u64,
    /// Workers that participated (empty for inline single-thread calls).
    pub workers: Vec<WorkerStats>,
    /// Microseconds from call entry until every worker had started
    /// executing (max spin-up latency across workers).
    pub spinup_us: u64,
    /// Microseconds from the last worker going idle until the call
    /// returned (join + reassembly).
    pub teardown_us: u64,
    /// OS threads spawned *by this call*: `workers − 1` for a
    /// multi-thread call (the caller is worker 0), 0 inline.
    pub spawned_threads: u64,
    /// Whether the call ran inline on the caller's thread.
    pub inline: bool,
}

impl CallProfile {
    /// Total busy microseconds across workers.
    pub fn busy_us(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_us).sum()
    }

    /// Total chunk-wait microseconds across workers.
    pub fn wait_us(&self) -> u64 {
        self.workers.iter().map(|w| w.wait_us).sum()
    }

    /// Total idle microseconds across workers.
    pub fn idle_us(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_us).sum()
    }

    /// Total allocations across workers.
    pub fn allocs(&self) -> u64 {
        self.workers.iter().map(|w| w.allocs).sum()
    }

    /// Total allocated bytes across workers.
    pub fn alloc_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.alloc_bytes).sum()
    }

    /// Σbusy / (workers × wall): the fraction of paid-for worker time
    /// spent in the caller's function. 1.0 for a fully-busy pool; an
    /// inline call is 1.0 by definition (the caller's thread was busy
    /// the whole wall time).
    pub fn utilization(&self) -> f64 {
        if self.inline || self.workers.is_empty() {
            return 1.0;
        }
        let denom = (self.workers.len() as u64 * self.wall_us) as f64;
        if denom <= 0.0 {
            return 1.0;
        }
        (self.busy_us() as f64 / denom).min(1.0)
    }

    /// max(busy) / mean(busy) across workers: 1.0 when perfectly
    /// balanced, ≥ workers when one worker did everything.
    pub fn imbalance(&self) -> f64 {
        if self.workers.len() <= 1 {
            return 1.0;
        }
        let busies: Vec<u64> = self.workers.iter().map(|w| w.busy_us).collect();
        let max = *busies.iter().max().unwrap_or(&0);
        let mean = busies.iter().sum::<u64>() as f64 / busies.len() as f64;
        if mean <= 0.0 {
            return 1.0;
        }
        max as f64 / mean
    }

    /// Claims taken beyond each worker's fair share, over total
    /// claims — how much dynamic rebalancing the cursor actually did.
    /// 0.0 when every worker took exactly `chunks / workers` claims.
    pub fn steal_ratio(&self) -> f64 {
        if self.workers.len() <= 1 || self.chunks == 0 {
            return 0.0;
        }
        let fair = self.chunks as f64 / self.workers.len() as f64;
        let stolen: f64 = self
            .workers
            .iter()
            .map(|w| (w.chunks as f64 - fair).max(0.0))
            .sum();
        stolen / self.chunks as f64
    }

    /// Idle share of total worker-time (0.0 for inline calls).
    pub fn idle_share(&self) -> f64 {
        self.share(self.idle_us())
    }

    /// Chunk-wait share of total worker-time.
    pub fn wait_share(&self) -> f64 {
        self.share(self.wait_us())
    }

    /// Spin-up latency as a share of the call's wall time.
    pub fn spinup_share(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        (self.spinup_us as f64 / self.wall_us as f64).min(1.0)
    }

    fn share(&self, part_us: u64) -> f64 {
        if self.inline || self.workers.is_empty() {
            return 0.0;
        }
        let denom = (self.workers.len() as u64 * self.wall_us) as f64;
        if denom <= 0.0 {
            return 0.0;
        }
        (part_us as f64 / denom).min(1.0)
    }
}

/// Cumulative aggregate over every call that carried one label.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LabelSummary {
    /// The label.
    pub label: String,
    /// Calls recorded under it.
    pub calls: u64,
    /// Of those, calls that ran inline (single worker).
    pub inline_calls: u64,
    /// Σ wall time.
    pub wall_us: u64,
    /// Σ busy worker-time.
    pub busy_us: u64,
    /// Σ chunk-wait worker-time.
    pub wait_us: u64,
    /// Σ idle worker-time.
    pub idle_us: u64,
    /// Σ spin-up latency.
    pub spinup_us: u64,
    /// Σ teardown latency.
    pub teardown_us: u64,
    /// Σ items mapped.
    pub items: u64,
    /// Σ claims taken.
    pub chunks: u64,
    /// Σ OS threads spawned on behalf of these calls.
    pub spawned_threads: u64,
    /// Σ allocations attributed to workers.
    pub allocs: u64,
    /// Σ bytes attributed to workers.
    pub alloc_bytes: u64,
    /// Largest worker count seen on one call.
    pub max_workers: u64,
    /// Σ utilization (divide by `calls` for the mean).
    pub utilization_sum: f64,
    /// Σ imbalance (divide by `calls` for the mean).
    pub imbalance_sum: f64,
    /// Σ steal ratio (divide by `calls` for the mean).
    pub steal_sum: f64,
}

impl LabelSummary {
    /// Mean utilization across this label's calls.
    pub fn mean_utilization(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.utilization_sum / self.calls as f64
        }
    }

    /// Mean imbalance across this label's calls.
    pub fn mean_imbalance(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.imbalance_sum / self.calls as f64
        }
    }

    /// Mean steal ratio across this label's calls.
    pub fn mean_steal_ratio(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.steal_sum / self.calls as f64
        }
    }

    fn absorb(&mut self, call: &CallProfile) {
        self.calls += 1;
        if call.inline {
            self.inline_calls += 1;
        }
        self.wall_us += call.wall_us;
        self.busy_us += call.busy_us();
        self.wait_us += call.wait_us();
        self.idle_us += call.idle_us();
        self.spinup_us += call.spinup_us;
        self.teardown_us += call.teardown_us;
        self.items += call.items;
        self.chunks += call.chunks;
        self.spawned_threads += call.spawned_threads;
        self.allocs += call.allocs();
        self.alloc_bytes += call.alloc_bytes();
        self.max_workers = self.max_workers.max(call.workers.len() as u64);
        self.utilization_sum += call.utilization();
        self.imbalance_sum += call.imbalance();
        self.steal_sum += call.steal_ratio();
    }
}

/// A frozen view of the whole store: per-label aggregates plus the most
/// recent calls verbatim (newest last). This is what `GET /profile`
/// serves and what the pool report renders.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfSnapshot {
    /// Total calls ever recorded (recent ring may hold fewer).
    pub total_calls: u64,
    /// Per-label cumulative aggregates, sorted by label.
    pub labels: Vec<LabelSummary>,
    /// The last [`RECENT_CAP`] calls, oldest first.
    pub recent: Vec<CallProfile>,
}

struct StoreInner {
    seq: u64,
    epoch: Option<std::time::Instant>,
    labels: BTreeMap<String, LabelSummary>,
    recent: Ring<CallProfile>,
}

impl Default for StoreInner {
    fn default() -> StoreInner {
        StoreInner {
            seq: 0,
            epoch: None,
            labels: BTreeMap::new(),
            recent: Ring::new(RECENT_CAP),
        }
    }
}

static STORE: Mutex<Option<StoreInner>> = Mutex::new(None);

fn with_store<R>(f: impl FnOnce(&mut StoreInner) -> R) -> R {
    let mut guard = STORE.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(StoreInner::default))
}

/// Records one call. The store assigns `seq` and `start_us` (relative
/// to the first profiled call in the process); pass `started` as the
/// call's entry instant. Returns the assigned sequence number.
pub fn record_call(mut profile: CallProfile, started: std::time::Instant) -> u64 {
    with_store(|store| {
        store.seq += 1;
        profile.seq = store.seq;
        let epoch = *store.epoch.get_or_insert(started);
        profile.start_us = started.saturating_duration_since(epoch).as_micros() as u64;
        store
            .labels
            .entry(profile.label.clone())
            .or_insert_with(|| LabelSummary {
                label: profile.label.clone(),
                ..LabelSummary::default()
            })
            .absorb(&profile);
        let seq = profile.seq;
        store.recent.push(profile);
        seq
    })
}

/// Freezes the store.
pub fn snapshot() -> ProfSnapshot {
    with_store(|store| ProfSnapshot {
        total_calls: store.seq,
        labels: store.labels.values().cloned().collect(),
        recent: store.recent.iter().cloned().collect(),
    })
}

/// Clears every aggregate and recent call (sequence numbers restart).
/// Benchmark harnesses call this between measurement points.
pub fn reset() {
    with_store(|store| *store = StoreInner::default());
}

/// One label's cumulative aggregate, if any call has carried it — a
/// cheap point read, e.g. for checking whether a labelled call reached
/// the pool.
pub fn label_summary(label: &str) -> Option<LabelSummary> {
    with_store(|store| store.labels.get(label).cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn call(label: &str, busy: [u64; 2], wall: u64) -> CallProfile {
        CallProfile {
            label: label.to_string(),
            wall_us: wall,
            items: 100,
            chunk_size: 13,
            chunks: 8,
            workers: busy
                .iter()
                .enumerate()
                .map(|(i, &b)| WorkerStats {
                    worker: i as u64,
                    busy_us: b,
                    wait_us: 5,
                    idle_us: wall - b - 5,
                    chunks: 4,
                    items: 50,
                    ..WorkerStats::default()
                })
                .collect(),
            spinup_us: 40,
            teardown_us: 10,
            spawned_threads: 2,
            ..CallProfile::default()
        }
    }

    #[test]
    fn ratios_are_sane() {
        let c = call("gp.score", [800, 400], 1000);
        assert!((c.utilization() - 0.6).abs() < 1e-9);
        assert!((c.imbalance() - 800.0 / 600.0).abs() < 1e-9);
        assert_eq!(c.steal_ratio(), 0.0);
        assert!((c.spinup_share() - 0.04).abs() < 1e-9);
        let inline = CallProfile {
            inline: true,
            wall_us: 500,
            ..CallProfile::default()
        };
        assert_eq!(inline.utilization(), 1.0);
        assert_eq!(inline.idle_share(), 0.0);
    }

    #[test]
    fn steal_ratio_counts_excess_claims() {
        let mut c = call("x", [900, 100], 1000);
        c.workers[0].chunks = 7;
        c.workers[1].chunks = 1;
        // fair share 4 each; worker 0 claimed 3 extra of 8 chunks.
        assert!((c.steal_ratio() - 3.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn store_aggregates_by_label_and_rings_recent() {
        reset();
        let t0 = Instant::now();
        for i in 0..(RECENT_CAP + 3) {
            let label = if i % 2 == 0 { "even" } else { "odd" };
            record_call(call(label, [10, 10], 30), t0);
        }
        let snap = snapshot();
        assert_eq!(snap.total_calls, (RECENT_CAP + 3) as u64);
        assert_eq!(snap.recent.len(), RECENT_CAP);
        // Oldest entries fell out of the ring but not the aggregates.
        assert_eq!(snap.recent.first().unwrap().seq, 4);
        let total: u64 = snap.labels.iter().map(|l| l.calls).sum();
        assert_eq!(total, snap.total_calls);
        let even = snap.labels.iter().find(|l| l.label == "even").unwrap();
        assert!(even.mean_utilization() > 0.0);
        assert_eq!(even.max_workers, 2);
        reset();
        assert_eq!(snapshot().total_calls, 0);
    }
}
