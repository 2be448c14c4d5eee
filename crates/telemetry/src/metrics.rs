//! Named counters, gauges, and fixed-bucket histograms behind a
//! thread-safe [`Registry`].
//!
//! Lookup interns the metric by name under a `parking_lot` lock; the handle
//! that comes back is a clone of an `Arc`'d atomic, so recording is a
//! single `fetch_add`/`store` with no lock held. [`Registry::snapshot`]
//! freezes everything into plain sorted maps for serialization, diffing,
//! and rendering.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonically increasing event count.
///
/// Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n`.
    pub fn inc(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (e.g. an estimated alignment offset).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds (or subtracts) a delta.
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    /// Ascending upper bounds; an implicit `+inf` bucket follows the last.
    bounds: Vec<f64>,
    /// One count per bound, plus the overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of recorded values, stored as `f64` bits and updated by CAS.
    sum_bits: AtomicU64,
}

/// A fixed-bucket histogram of `f64` observations.
///
/// Cloning shares the underlying cells. Recording is two relaxed atomic
/// adds plus a CAS loop for the running sum.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Histogram {
    /// The default value buckets: a 1–2–5 ladder from 1 to 1e9, suitable
    /// for byte sizes, row counts, and microsecond durations alike.
    pub fn default_bounds() -> Vec<f64> {
        let mut bounds = Vec::with_capacity(28);
        let mut decade = 1.0f64;
        while decade <= 1e9 {
            for mult in [1.0, 2.0, 5.0] {
                bounds.push(decade * mult);
            }
            decade *= 10.0;
        }
        bounds
    }

    /// A standalone histogram with the given ascending bucket bounds
    /// (plus an implicit overflow bucket).
    ///
    /// # Panics
    ///
    /// Panics if no finite bound remains after sanitizing.
    pub fn with_bounds(mut bounds: Vec<f64>) -> Self {
        bounds.retain(|b| b.is_finite());
        bounds.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            core: Arc::new(HistogramCore {
                bounds,
                counts,
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
            }),
        }
    }

    /// Records one observation (or holds it back inside
    /// [`defer_observations`]).
    pub fn record(&self, v: f64) {
        let core = &self.core;
        let deferred = DEFERRED.with(|stack| match stack.borrow_mut().last_mut() {
            Some(buffer) => {
                buffer.0.push((Arc::clone(core), v));
                true
            }
            None => false,
        });
        if !deferred {
            core.observe(v);
        }
    }

    /// Records a duration in microseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_secs_f64() * 1e6);
    }

    /// Freezes the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.core;
        HistogramSnapshot {
            bounds: core.bounds.clone(),
            counts: core
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: core.count.load(Ordering::Relaxed),
            sum: f64::from_bits(core.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

impl HistogramCore {
    fn observe(&self, v: f64) {
        let idx = self.bounds.partition_point(|&b| b < v);
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => current = actual,
            }
        }
    }
}

thread_local! {
    static DEFERRED: std::cell::RefCell<Vec<Observations>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Histogram observations held back by [`defer_observations`].
#[derive(Default)]
pub struct Observations(Vec<(Arc<HistogramCore>, f64)>);

impl Observations {
    /// Records every held-back observation, in the order it was made.
    pub fn replay(self) {
        for (core, v) in self.0 {
            core.observe(v);
        }
    }
}

/// Runs `f` with this thread's histogram observations held back, and
/// returns them for [`Observations::replay`]. A histogram's sum is a
/// float, so its bits depend on the order observations arrive in: tasks
/// that run in parallel defer theirs, and the caller replays them in
/// task order to keep the sum identical at any thread count. Counters
/// and gauges are not deferred. Nestable; the innermost call receives
/// the observations, and the buffer is popped even if `f` unwinds.
pub fn defer_observations<R>(f: impl FnOnce() -> R) -> (R, Observations) {
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            DEFERRED.with(|stack| stack.borrow_mut().pop());
        }
    }
    DEFERRED.with(|stack| stack.borrow_mut().push(Observations::default()));
    let guard = PopGuard;
    let result = f();
    let held = DEFERRED
        .with(|stack| stack.borrow_mut().pop())
        .unwrap_or_default();
    std::mem::forget(guard);
    (result, held)
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &snap.count)
            .field("sum", &snap.sum)
            .finish()
    }
}

/// A frozen histogram: bucket bounds, per-bucket counts (the final entry is
/// the overflow bucket), total count, and running sum.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Ascending upper bounds.
    pub bounds: Vec<f64>,
    /// One count per bound, plus the trailing overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// The mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the bucket that straddles the target rank. Observations in
    /// the overflow bucket are attributed to the last finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (idx, &bucket_count) in self.counts.iter().enumerate() {
            let next = cumulative + bucket_count;
            if (next as f64) >= target && bucket_count > 0 {
                let last = *self.bounds.last().expect("non-empty bounds");
                let upper = self.bounds.get(idx).copied().unwrap_or(last);
                let lower = if idx == 0 {
                    0.0
                } else {
                    self.bounds[(idx - 1).min(self.bounds.len() - 1)]
                };
                let within = (target - cumulative as f64) / bucket_count as f64;
                return lower + within.clamp(0.0, 1.0) * (upper - lower);
            }
            cumulative = next;
        }
        *self.bounds.last().expect("non-empty bounds")
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The interning table for named metrics, plus the list of span sinks.
///
/// A registry is cheap to create; the pipeline makes a fresh one per run
/// (via `dpr_telemetry::scoped`) so its numbers are exact, while ad-hoc
/// instrumentation lands in the process-wide global registry.
pub struct Registry {
    inner: RwLock<RegistryInner>,
    sinks: RwLock<Vec<Arc<dyn crate::Sink>>>,
    epoch: Instant,
    id: u64,
}

impl Default for Registry {
    fn default() -> Self {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        Registry {
            inner: RwLock::default(),
            sinks: RwLock::default(),
            epoch: Instant::now(),
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl Registry {
    /// An empty registry with no sinks.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The instant this registry was created. Span start times
    /// ([`crate::SpanRecord::start_us`]) are relative to it, giving every
    /// thread of a run a shared timeline that trace exporters can lay out.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// A process-unique id, never reused: caches of this registry's
    /// handles key on it, so a new registry at a freed one's address is
    /// never mistaken for it.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Interns (or retrieves) the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.inner.read().counters.get(name) {
            return c.clone();
        }
        self.inner
            .write()
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Interns (or retrieves) the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.inner.read().gauges.get(name) {
            return g.clone();
        }
        self.inner
            .write()
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Interns (or retrieves) the named histogram with default bounds.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, Histogram::default_bounds())
    }

    /// Interns (or retrieves) the named histogram; `bounds` applies only on
    /// first creation.
    pub fn histogram_with(&self, name: &str, bounds: Vec<f64>) -> Histogram {
        if let Some(h) = self.inner.read().histograms.get(name) {
            return h.clone();
        }
        self.inner
            .write()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// Attaches a sink; every span closed under this registry is delivered
    /// to it.
    pub fn add_sink(&self, sink: Arc<dyn crate::Sink>) {
        self.sinks.write().push(sink);
    }

    /// Whether any sink is attached.
    pub(crate) fn has_sinks(&self) -> bool {
        !self.sinks.read().is_empty()
    }

    pub(crate) fn notify_span(&self, record: &crate::SpanRecord) {
        for sink in self.sinks.read().iter() {
            sink.span_closed(record);
        }
    }

    /// Freezes every metric into plain sorted maps.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("Registry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// A frozen view of a whole registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A copy with every metric whose name starts with one of `prefixes`
    /// removed, across counters, gauges, and histograms.
    ///
    /// The determinism suite uses this to ignore wall-clock- and
    /// scheduling-dependent families (`span.`, `par.`, `prof.`) while
    /// still requiring exact equality for everything else.
    pub fn without_prefixes(&self, prefixes: &[&str]) -> MetricsSnapshot {
        let keep = |name: &str| !prefixes.iter().any(|p| name.starts_with(p));
        let mut view = self.clone();
        view.counters.retain(|name, _| keep(name));
        view.gauges.retain(|name, _| keep(name));
        view.histograms.retain(|name, _| keep(name));
        view
    }

    /// Counter increases since `earlier` (names absent earlier count from
    /// zero; decreases are clamped to zero).
    pub fn counter_deltas_since(&self, earlier: &MetricsSnapshot) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter_map(|(name, &now)| {
                let before = earlier.counters.get(name).copied().unwrap_or(0);
                let delta = now.saturating_sub(before);
                (delta > 0).then(|| (name.clone(), delta))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("x");
        c.inc(2);
        reg.counter("x").inc(3);
        assert_eq!(reg.counter("x").get(), 5);
        let g = reg.gauge("y");
        g.set(-4);
        g.add(1);
        assert_eq!(reg.gauge("y").get(), -3);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let reg = Registry::new();
        let h = reg.histogram_with("sizes", vec![1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 5000.0] {
            h.record(v);
        }
        let snap = h.snapshot();
        // partition_point(b < v): v==1.0 lands in the first bucket (<= 1.0).
        assert_eq!(snap.counts, vec![2, 1, 1, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 5056.5).abs() < 1e-9);
    }

    #[test]
    fn without_prefixes_filters_every_kind() {
        let reg = Registry::new();
        reg.counter("par.calls").inc(1);
        reg.counter("gp.fits").inc(2);
        reg.gauge("prof.live").set(3);
        reg.gauge("gp.depth").set(4);
        reg.histogram("span.pipeline").record(1.0);
        reg.histogram("gp.sizes").record(2.0);
        let view = reg.snapshot().without_prefixes(&["par.", "prof.", "span."]);
        assert_eq!(
            view.counters.keys().collect::<Vec<_>>(),
            ["gp.fits"]
        );
        assert_eq!(view.gauges.keys().collect::<Vec<_>>(), ["gp.depth"]);
        assert_eq!(
            view.histograms.keys().collect::<Vec<_>>(),
            ["gp.sizes"]
        );
    }

    #[test]
    fn counter_deltas_clamp_and_skip_zero() {
        let mut earlier = MetricsSnapshot::default();
        earlier.counters.insert("a".into(), 5);
        earlier.counters.insert("b".into(), 7);
        let mut later = earlier.clone();
        later.counters.insert("a".into(), 9);
        later.counters.insert("c".into(), 2);
        later.counters.insert("b".into(), 7);
        let deltas = later.counter_deltas_since(&earlier);
        assert_eq!(deltas.get("a"), Some(&4));
        assert_eq!(deltas.get("c"), Some(&2));
        assert!(!deltas.contains_key("b"));
    }

    #[test]
    fn deferred_observations_replay_in_task_order_from_any_thread() {
        // Magnitudes far apart make the float sum order-dependent.
        let tasks: [&[f64]; 3] = [&[1e16, 1.0], &[-1e16], &[1.0, 3.5]];
        let sequential = Histogram::with_bounds(vec![1.0]);
        for v in tasks.iter().flat_map(|t| t.iter()) {
            sequential.record(*v);
        }
        let replayed = Histogram::with_bounds(vec![1.0]);
        let held: Vec<Observations> = std::thread::scope(|scope| {
            let handles: Vec<_> = tasks
                .iter()
                .rev()
                .map(|task| {
                    let h = replayed.clone();
                    scope.spawn(move || {
                        let ((), held) =
                            defer_observations(|| task.iter().for_each(|v| h.record(*v)));
                        assert_eq!(h.snapshot().count, 0, "recorded while deferred");
                        held
                    })
                })
                .collect();
            handles.into_iter().rev().map(|h| h.join().expect("task")).collect()
        });
        held.into_iter().for_each(Observations::replay);
        let (want, got) = (sequential.snapshot(), replayed.snapshot());
        assert_eq!(got.counts, want.counts);
        assert_eq!(got.sum.to_bits(), want.sum.to_bits());
    }

    #[test]
    fn deferral_pops_even_when_the_body_panics() {
        let h = Histogram::with_bounds(vec![1.0]);
        let result = std::panic::catch_unwind(|| {
            defer_observations(|| {
                h.record(1.0);
                panic!("task failed");
            })
        });
        assert!(result.is_err());
        h.record(2.0);
        assert_eq!(h.snapshot().count, 1);
    }
}
