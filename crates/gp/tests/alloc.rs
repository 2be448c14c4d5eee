//! Pins the generation arena's promise: breeding and scoring a
//! generation costs a small, fixed number of heap allocations, not one
//! or more per child.
//!
//! The counting allocator is installed for this test binary and
//! `DPR_PROF=1` switches its per-thread counters on. With
//! `DPR_THREADS=1` every scoring call drains inline, so all of a fit's
//! allocations land on the test's own thread. The test counts
//! allocations and never times anything, so it is deterministic.
//!
//! Everything runs inside ONE `#[test]` function: the test sets process
//! environment variables that sibling tests would otherwise race on.

use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};
use dpr_prof::alloc::{thread_alloc_stats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations a whole paper-budget fit may make per generation: it
/// reads 21 (of which spans make none), plus a small margin. A
/// generation of 1000 individuals bred one `Vec` per child would make
/// at least 1000.
const MAX_ALLOCS_PER_GENERATION: u64 = 24;

#[test]
fn breeding_allocates_per_generation_not_per_child() {
    std::env::set_var("DPR_THREADS", "1");
    std::env::set_var("DPR_PROF", "1");
    assert!(dpr_prof::refresh(), "DPR_PROF=1 turns counting on");

    // A car-sized fit: 19 rows of one raw field against a screen value
    // with OCR-style jitter, which keeps the error above the stopping
    // threshold so the fit uses its whole generation budget.
    let data = Dataset::from_pairs((0..19).map(|i| {
        let x = f64::from(40 + (i * 23) % 160);
        let jitter = f64::from((i * 37) % 7) * 0.3 - 0.9;
        (x, 0.75 * x - 48.0 + jitter)
    }))
    .unwrap();
    let config = GpConfig::paper(5);
    let budget = config.max_generations;

    let mut gp = SymbolicRegressor::new(config);
    let before = thread_alloc_stats();
    let model = gp.fit(&data);
    let allocs = thread_alloc_stats().since(before).allocs;

    assert_eq!(
        model.generations, budget,
        "the fit must use every generation"
    );
    assert!(!gp.last_report().unwrap().stopped_by_threshold);
    let per_generation = allocs / budget as u64;
    eprintln!("{allocs} allocations over {budget} generations: {per_generation} per generation");
    assert!(
        per_generation < MAX_ALLOCS_PER_GENERATION,
        "{allocs} allocations over {budget} generations: {per_generation} per generation"
    );
}
