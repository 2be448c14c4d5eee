//! `dpr_par::threads()` re-reads `DPR_THREADS` on every call, so a
//! long-lived process can retune the pool between runs; only the
//! machine's core count, the fallback, is cached.
//!
//! Its own test binary on purpose: it mutates the process environment,
//! which must not race a sibling test.

use dpr_par::{threads, Pool, THREADS_ENV};

#[test]
fn threads_env_is_reread_on_every_call() {
    let saved = std::env::var(THREADS_ENV).ok();

    std::env::remove_var(THREADS_ENV);
    let cores = threads();
    assert!(cores >= 1);

    std::env::set_var(THREADS_ENV, "3");
    assert_eq!(threads(), 3);
    assert_eq!(Pool::from_env().threads(), 3);
    std::env::set_var(THREADS_ENV, "7");
    assert_eq!(threads(), 7);
    // Clamped to at least one worker.
    std::env::set_var(THREADS_ENV, "0");
    assert_eq!(threads(), 1);
    // An unparsable value falls back to the (cached) core count.
    std::env::set_var(THREADS_ENV, "many");
    assert_eq!(threads(), cores);
    std::env::remove_var(THREADS_ENV);
    assert_eq!(threads(), cores);

    if let Some(v) = saved {
        std::env::set_var(THREADS_ENV, v);
    }
}
