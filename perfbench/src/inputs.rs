//! Inputs: one `.dprcap` capture per Tab. 3 car, recorded from a
//! simulated collection run, and the seeded order the workloads submit
//! them in.
//!
//! The captures are the paper's Tab. 3 fleet at the per-car seeds every
//! experiment table uses, for the vehicles and for the analysis (GP
//! search and OCR noise, recorded in the capture's metadata where the
//! analyzer reads it). The benchmark seed draws the order: of each `car`
//! pass, and of the `serve` arrivals. A seed that also re-drew the
//! analysis seeds would re-draw each car's GP search: one car's analysis
//! time moved by 10-40% from seed to seed (against 8-15% between passes
//! of one run), and with it the job-latency quantiles, which rest on the
//! few cars in the middle of the range.

use dpr_capture::{record_report, CaptureWriter};
use dpr_vehicle::profiles::{self, CarId};
use std::time::Duration;

/// Dwell seconds per readout screen, the default of `dpr-bench fleet`
/// and `capture record`.
pub const READ_SECS: u64 = 4;

/// One car's input: the capture bytes the analyzer sees, plus the car
/// and seed the checker needs to configure and score the analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct CarInput {
    /// The Tab. 3 profile.
    pub id: CarId,
    /// Seed of the simulated vehicle (its formulas and signal shapes) and
    /// of the analysis, recorded in the capture's metadata.
    pub seed: u64,
    /// The recorded session.
    pub capture: Vec<u8>,
}

/// SplitMix64 over `seed` and `salt`.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z =
        (seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Collects car `id` (built from `seed`) with the robotic clicker and
/// records the session, with the metadata `capture record` writes: the
/// service's analyzer reads the analysis `seed` back from it.
pub fn record_car(id: CarId, seed: u64) -> Vec<u8> {
    let report = dpr_bench::collect_car(id, seed, READ_SECS);
    let write = || -> std::io::Result<Vec<u8>> {
        let mut writer = CaptureWriter::new(Vec::new())?;
        writer.write_meta("car", &format!("{id:?}"))?;
        writer.write_meta("seed", &seed.to_string())?;
        writer.write_meta("read_secs", &READ_SECS.to_string())?;
        writer.write_meta("tool", profiles::spec(id).tool)?;
        record_report(&report, &mut writer)?;
        writer.finish()
    };
    write().expect("writing a capture into memory cannot fail")
}

/// The captures of `cars` at their experiment seeds, in the given order,
/// recorded across the worker pool.
pub fn generate_cars(cars: &[CarId]) -> Vec<CarInput> {
    dpr_par::par_map(cars, |&id| {
        let seed = dpr_bench::car_seed(id);
        CarInput {
            id,
            seed,
            capture: record_car(id, seed),
        }
    })
}

/// All 18 Tab. 3 captures, in car order.
pub fn generate() -> Vec<CarInput> {
    generate_cars(&CarId::ALL)
}

/// Round `round` of benchmark seed `seed`: a seeded shuffle of
/// `0..cars`, so every car comes once per round.
pub fn round_order(seed: u64, round: usize, cars: usize) -> Vec<usize> {
    let mut state = mix(seed, round as u64 + 1);
    let mut order: Vec<usize> = (0..cars).collect();
    for i in (1..cars).rev() {
        state = mix(state, i as u64);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// One scheduled job of the `serve` open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the job is due, from the start of the loop.
    pub at: Duration,
    /// Index of the capture to upload.
    pub car: usize,
}

/// `jobs` arrivals at a fixed `rate` (jobs per second), cars in the
/// seed's rounds ([`round_order`]).
pub fn schedule(seed: u64, jobs: usize, rate: f64, cars: usize) -> Vec<Arrival> {
    assert!(
        cars > 0 && rate > 0.0,
        "a schedule needs cars and a positive rate"
    );
    (0..jobs.div_ceil(cars))
        .flat_map(|round| round_order(seed, round, cars))
        .take(jobs)
        .enumerate()
        .map(|(i, car)| Arrival {
            at: Duration::from_secs_f64(i as f64 / rate),
            car,
        })
        .collect()
}
