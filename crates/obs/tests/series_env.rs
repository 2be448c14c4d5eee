//! `SeriesConfig::from_env` reads the sampler interval from
//! `DPR_SERIES_INTERVAL_MS`; retention is the `SERIES_CAPACITY`
//! constant whatever the environment says.
//!
//! Its own test binary on purpose: it mutates the process environment,
//! which must not race a sibling test.

use dpr_obs::series::{SeriesConfig, SERIES_CAPACITY, SERIES_INTERVAL_ENV};
use std::time::Duration;

#[test]
fn series_interval_env_is_floored_and_falls_back() {
    let saved = std::env::var(SERIES_INTERVAL_ENV).ok();

    std::env::remove_var(SERIES_INTERVAL_ENV);
    assert_eq!(SeriesConfig::from_env(), SeriesConfig::default());
    assert_eq!(
        SeriesConfig::from_env().interval,
        Duration::from_millis(1000)
    );

    std::env::set_var(SERIES_INTERVAL_ENV, "250");
    assert_eq!(
        SeriesConfig::from_env().interval,
        Duration::from_millis(250)
    );
    // Floored at 10 ms so a typo cannot spin the sampler thread.
    std::env::set_var(SERIES_INTERVAL_ENV, "3");
    assert_eq!(SeriesConfig::from_env().interval, Duration::from_millis(10));
    // Unparsable input falls back to the 1000 ms default.
    std::env::set_var(SERIES_INTERVAL_ENV, "fast");
    assert_eq!(
        SeriesConfig::from_env().interval,
        Duration::from_millis(1000)
    );

    // Retention is a constant, not an environment knob.
    assert_eq!(SERIES_CAPACITY, 120);
    assert_eq!(SeriesConfig::from_env().capacity, SERIES_CAPACITY);

    std::env::remove_var(SERIES_INTERVAL_ENV);
    if let Some(v) = saved {
        std::env::set_var(SERIES_INTERVAL_ENV, v);
    }
}
