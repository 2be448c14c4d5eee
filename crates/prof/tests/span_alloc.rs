//! Pins the span fast path: with no sink attached, opening and closing
//! a span allocates (almost) nothing once its path has been seen.
//!
//! The counting allocator is installed for this test binary and
//! `DPR_PROF=1` switches its per-thread counters on. The test counts
//! allocations and never times anything, so it is deterministic.
//!
//! Everything runs inside ONE `#[test]` function: the test sets a
//! process environment variable that sibling tests would race on.

use dpr_prof::alloc::{thread_alloc_stats, CountingAlloc};
use dpr_telemetry::{Collector, Registry, Span};
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations one span's enter and drop may make with no sink.
const MAX_ALLOCS_PER_SPAN: u64 = 2;

/// Opens and closes `n` nested pairs of spans; returns the allocations.
fn spans(n: u64) -> u64 {
    let before = thread_alloc_stats();
    for _ in 0..n {
        let _outer = Span::enter("gp.breed");
        let _inner = Span::enter("gp.score");
    }
    thread_alloc_stats().since(before).allocs
}

#[test]
fn spans_do_not_allocate_without_a_sink() {
    std::env::set_var("DPR_PROF", "1");
    assert!(dpr_prof::refresh(), "DPR_PROF=1 turns counting on");

    let registry = Arc::new(Registry::new());
    let allocs = dpr_telemetry::scoped(Arc::clone(&registry), || {
        spans(1); // first use interns the paths and their histograms
        spans(1_000)
    });
    let per_span = allocs as f64 / 2_000.0;
    eprintln!("{allocs} allocations over 2000 spans without a sink");
    assert!(
        allocs <= MAX_ALLOCS_PER_SPAN * 2_000,
        "{allocs} allocations over 2000 spans: {per_span} per span"
    );
    let snapshot = registry.snapshot();
    assert_eq!(snapshot.histograms["span.gp.breed"].count, 1_001);
    assert_eq!(snapshot.histograms["span.gp.breed.gp.score"].count, 1_001);

    // A second registry on the same thread gets its own histograms: the
    // cached handles are keyed by registry.
    let other = Arc::new(Registry::new());
    dpr_telemetry::scoped(Arc::clone(&other), || spans(3));
    assert_eq!(other.snapshot().histograms["span.gp.breed"].count, 3);
    assert_eq!(registry.snapshot().histograms["span.gp.breed"].count, 1_001);

    // With a sink attached, every span still reaches it.
    let collector = Arc::new(Collector::new());
    registry.add_sink(Arc::clone(&collector) as _);
    dpr_telemetry::scoped(Arc::clone(&registry), || spans(2));
    let paths: Vec<String> = collector.records().iter().map(|r| r.path.clone()).collect();
    let pair = ["gp.breed.gp.score", "gp.breed"];
    assert_eq!(paths, [pair, pair].concat());
}
