//! Property test for the pool's worker-time accounting: for every
//! worker of every profiled `par_map` call, `busy + wait + idle ≈ wall`
//! (the invariant `dpr-prof` documents), and the chunk/item bookkeeping
//! is exact.
//!
//! `busy` and `wait` are measured with monotonic clocks and `idle` is
//! the saturating remainder, so the sum can only exceed the wall time
//! by clock-read jitter — the tolerance below absorbs that plus
//! microsecond truncation on a loaded single-core CI machine.
//!
//! Single `#[test]` on purpose: each case reads back its own call from
//! the process-wide profile store via `recent.last()`, which sibling
//! tests in this binary would race.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn busy_wait_idle_sums_to_wall(
        n in 1usize..300,
        workers in 2usize..6,
        spin in 1u32..40,
    ) {
        let items: Vec<u32> = (0..n as u32).collect();
        let out = dpr_prof::with_label("acct.case", || {
            dpr_par::Pool::new(workers).par_map(&items, |x| {
                // Deterministic busy work of varying cost per item.
                let mut acc = *x;
                for i in 0..(spin * 50) {
                    acc = acc.wrapping_mul(31).wrapping_add(i);
                }
                acc
            })
        });
        prop_assert_eq!(out.len(), n);

        let snap = dpr_prof::snapshot();
        let call = snap.recent.last().expect("call was recorded");
        prop_assert_eq!(call.label.as_str(), "acct.case");
        prop_assert_eq!(call.items, n as u64);
        // One item leaves one worker, which runs inline.
        prop_assert_eq!(call.inline, n == 1);
        prop_assert_eq!(call.workers.len(), workers.min(n));

        // Exact bookkeeping: every chunk and item is attributed to
        // exactly one worker.
        let chunks: u64 = call.workers.iter().map(|w| w.chunks).sum();
        let mapped: u64 = call.workers.iter().map(|w| w.items).sum();
        prop_assert_eq!(chunks, call.chunks);
        prop_assert_eq!(mapped, call.items);

        // The accounting invariant, per worker. The sum is never below
        // wall (idle is the remainder) and only exceeds it by jitter.
        let tolerance = call.wall_us / 10 + 2_000;
        for w in &call.workers {
            let sum = w.busy_us + w.wait_us + w.idle_us;
            prop_assert!(
                sum >= call.wall_us,
                "worker {}: busy {} + wait {} + idle {} < wall {}",
                w.worker, w.busy_us, w.wait_us, w.idle_us, call.wall_us
            );
            prop_assert!(
                sum <= call.wall_us + tolerance,
                "worker {}: busy {} + wait {} + idle {} exceeds wall {} beyond jitter",
                w.worker, w.busy_us, w.wait_us, w.idle_us, call.wall_us
            );
        }

        // Derived ratios stay in range.
        let util = call.utilization();
        prop_assert!((0.0..=1.0).contains(&util), "utilization {util}");
        prop_assert!(call.imbalance() >= 1.0);
        prop_assert!((0.0..=1.0).contains(&call.steal_ratio()));
        prop_assert!(call.spinup_us <= call.wall_us);
        prop_assert!(call.teardown_us <= call.wall_us);
    }
}
