//! `dpr-bench scale`: the thread-scaling harness behind
//! `BENCH_scale.json`.
//!
//! The pipeline parallelizes GP inference across sensors: the inference
//! stage maps every matched sensor's whole fit through one [`dpr_par`]
//! call, and each fit runs sequentially on its worker. That is the
//! workload measured here: one pass is one `par_map` over K independent
//! [`SymbolicRegressor::fit`]s ([`GpConfig::fast`]) on synthetic sensor
//! datasets, and the sweep runs the identical pass on a
//! [`dpr_par::Pool::new`] of each size, resetting the [`dpr_prof`] store
//! between points so each point's scheduling profile (utilization,
//! imbalance, idle/wait/spin-up shares, thread spawns, pooled calls) is
//! attributable to exactly that size.
//!
//! Every point records `pooled_calls`, the passes that actually ran on
//! the pool, so an N-thread point that drained inline can never pass as
//! a parallel speedup.
//!
//! [`scale_json`] renders the sweep as one JSON document whose nested
//! `threads_N` blocks flatten (in `dpr-bench regress`) to keys like
//! `threads_2.evals_per_sec` and `threads_2.utilization` — names chosen
//! so the regression gate infers the right direction: throughput,
//! speedup, and utilization gate on drops, imbalance gates on rises,
//! and the share/spawn/call counts stay informational.

use dpr_gp::{Dataset, GpConfig, SymbolicRegressor};
use dpr_par::Pool;
use serde::ser::{SerializeMap, Serializer};
use serde::Serialize;
use std::time::{Duration, Instant};

use crate::{bench_json, round_to};

/// The [`dpr_prof`] label every scale-harness fan-out call runs under,
/// isolating the sweep's profile from anything else in the process.
pub const SCALE_LABEL: &str = "bench.scale";

/// One thread-count measurement of the sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Pool size measured.
    pub threads: usize,
    /// Passes (one fan-out over every fit each) across the timed windows.
    pub passes: u32,
    /// Logical GP evaluations per second — the best of the point's three
    /// timed windows (the fits' summed `evaluations` × passes / wall).
    pub evals_per_sec: f64,
    /// Throughput relative to the sweep's 1-thread point.
    pub speedup: f64,
    /// Mean pool utilization (Σbusy / workers×wall) over the point's calls.
    pub utilization: f64,
    /// Mean busiest-worker/mean-worker busy-time ratio.
    pub imbalance: f64,
    /// Mean share of chunks claimed beyond a worker's fair share.
    pub steal_ratio: f64,
    /// Idle share of pool capacity (spin-up gaps + end-of-call stragglers).
    pub idle_share: f64,
    /// Chunk claim/store synchronization share of pool capacity.
    pub wait_share: f64,
    /// Thread spin-up latency as a share of wall time.
    pub spinup_share: f64,
    /// OS threads spawned during this point (0 once the pool is warm).
    pub pool_spawns: u64,
    /// Fan-out calls of this point that ran on the pool rather than
    /// inline (0 at 1 thread; every pass at N threads).
    pub pooled_calls: u64,
    /// Worker-attributed heap allocations per pass (0 unless the
    /// counting allocator is installed and `DPR_PROF=1`).
    pub allocs_per_pass: f64,
    /// The point's rendered pool report (table + diagnosis).
    pub report: dpr_prof::PoolReport,
}

/// A whole scaling sweep: the workload dimensions plus one
/// [`ScalePoint`] per pool size, in the order measured.
#[derive(Debug, Clone)]
pub struct ScaleRun {
    /// Whether the sweep ran with the reduced quick-mode workload.
    pub quick: bool,
    /// The host's available parallelism when the sweep ran.
    pub host_cores: usize,
    /// Independent GP fits mapped per pass.
    pub fits: usize,
    /// GP population size of each fit.
    pub population: usize,
    /// Rows in each fit's dataset.
    pub rows: usize,
    /// Per-thread-count measurements.
    pub points: Vec<ScalePoint>,
}

/// The default thread ladder: quick mode (CI) measures 1 and 2, a full
/// sweep measures 1/2/4/8.
pub fn default_threads(quick: bool) -> Vec<usize> {
    if quick {
        vec![1, 2]
    } else {
        vec![1, 2, 4, 8]
    }
}

/// The size of one sweep: how many fits a pass maps, their GP budget,
/// the untimed warm-up, and the minimum length of each timed window.
struct Workload {
    fits: usize,
    config: fn(u64) -> GpConfig,
    warm_up: Duration,
    window: Duration,
}

impl Workload {
    /// The pipeline's reduced-budget fit ([`GpConfig::fast`]), several
    /// sensors per car.
    fn for_mode(quick: bool) -> Workload {
        Workload {
            fits: if quick { 8 } else { 16 },
            config: GpConfig::fast,
            warm_up: Duration::from_millis(1500),
            window: if quick {
                Duration::from_millis(200)
            } else {
                Duration::from_secs(1)
            },
        }
    }
}

/// The `i`-th synthetic sensor: 100 readings of two raw bytes against a
/// displayed value, one of a few formula shapes seen on real cars
/// (affine, two-byte word, product), with per-sensor constants.
fn sensor_dataset(i: usize) -> Dataset {
    let a = 0.25 + (i % 5) as f64 * 0.5;
    let b = (i % 3) as f64 * 20.0 - 40.0;
    Dataset::from_triples((0..100).map(|r| {
        let x0 = f64::from(((r * 37 + i * 11) % 200) as u32 + 20);
        let x1 = f64::from(((r * 23 + i * 7) % 24) as u32 + 8);
        let y = match i % 3 {
            0 => a * x0 + b,
            1 => (256.0 * x1 + x0) * a / 4.0,
            _ => x0 * x1 * a / 5.0,
        };
        ((x0, x1), y)
    }))
    .expect("well-formed")
}

/// Runs the sweep at the given pool sizes. `quick` shrinks the fit count
/// and the per-point timing window (pass [`crate::quick`]).
///
/// Each point maps its passes on a [`Pool::new`] of its size. The
/// profile store is [`dpr_prof::reset`] before each point, so the
/// returned scheduling ratios cover exactly that point's calls — note
/// this clears the store for the whole process.
pub fn run_scale(threads: &[usize], quick: bool) -> ScaleRun {
    sweep(threads, quick, &Workload::for_mode(quick))
}

fn sweep(threads: &[usize], quick: bool, workload: &Workload) -> ScaleRun {
    let jobs: Vec<(Dataset, u64)> = (0..workload.fits)
        .map(|i| (sensor_dataset(i), crate::EXPERIMENT_SEED ^ (i as u64 + 1)))
        .collect();

    // One pass: the pipeline's inference shape — one fan-out over whole
    // fits — returning the logical evaluations it performed.
    let pass = |pool: &Pool| -> u64 {
        let models = dpr_prof::with_label(SCALE_LABEL, || {
            pool.par_map(&jobs, |(data, seed)| {
                SymbolicRegressor::new((workload.config)(*seed)).fit(data)
            })
        });
        models.iter().map(|m| m.evaluations).sum()
    };

    // Untimed warm-up at the ladder's largest pool: a core that sat idle
    // before the sweep runs slow for a while after waking, which would
    // otherwise land in the first multi-threaded point and read as
    // negative scaling.
    if let Some(&most) = threads.iter().max() {
        let pool = Pool::new(most);
        let warm = Instant::now();
        while warm.elapsed() < workload.warm_up {
            pass(&pool);
        }
    }
    let mut points: Vec<ScalePoint> = Vec::with_capacity(threads.len());
    for &t in threads {
        let pool = Pool::new(t);
        // Resetting here scopes the store to exactly this point's calls.
        dpr_prof::reset();
        // One untimed pass settles the point's pool. The fits are seeded,
        // so its evaluation count is every pass's.
        let evals_per_pass = pass(&pool) as f64;
        // Best of three timed windows: the max filters scheduler
        // interruptions and frequency ramps, which would otherwise
        // dominate the point-to-point ratio on a busy host.
        let mut passes = 0u32;
        let mut evals_per_sec = 0.0f64;
        for _ in 0..3 {
            let mut window_passes = 0u32;
            let start = Instant::now();
            let elapsed = loop {
                pass(&pool);
                window_passes += 1;
                let elapsed = start.elapsed();
                if elapsed >= workload.window {
                    break elapsed;
                }
            };
            let rate = evals_per_pass * f64::from(window_passes) / elapsed.as_secs_f64();
            evals_per_sec = evals_per_sec.max(rate);
            passes += window_passes;
        }

        let snap = dpr_prof::snapshot();
        let report = dpr_prof::render_report(&snap, &format!("pool report @ {t} thread(s)"));
        let sum = snap
            .labels
            .iter()
            .find(|l| l.label == SCALE_LABEL)
            .cloned()
            .unwrap_or_default();
        let capacity = (sum.busy_us + sum.wait_us + sum.idle_us).max(1) as f64;
        points.push(ScalePoint {
            threads: t,
            passes,
            evals_per_sec,
            speedup: 1.0, // filled in below once the baseline is known
            utilization: sum.mean_utilization(),
            imbalance: sum.mean_imbalance(),
            steal_ratio: sum.mean_steal_ratio(),
            idle_share: sum.idle_us as f64 / capacity,
            wait_share: sum.wait_us as f64 / capacity,
            spinup_share: sum.spinup_us as f64 / sum.wall_us.max(1) as f64,
            pool_spawns: sum.spawned_threads,
            pooled_calls: sum.calls - sum.inline_calls,
            allocs_per_pass: sum.allocs as f64 / f64::from(passes + 1),
            report,
        });
    }
    // Speedups are relative to the 1-thread point (or the first point,
    // when the caller's ladder skips 1).
    let base = points
        .iter()
        .find(|p| p.threads == 1)
        .or_else(|| points.first())
        .map(|p| p.evals_per_sec)
        .unwrap_or(1.0);
    for point in &mut points {
        point.speedup = if base > 0.0 {
            point.evals_per_sec / base
        } else {
            1.0
        };
    }

    ScaleRun {
        quick,
        host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        fits: workload.fits,
        population: (workload.config)(0).population_size,
        rows: jobs.first().map_or(0, |(data, _)| data.len()),
        points,
    }
}

/// Renders the sweep as the scaling-curve table printed by
/// `dpr-bench scale`.
pub fn render_scale(run: &ScaleRun) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "== gp fit fan-out thread scaling ({} fits × {} exprs × {} rows, host_cores {}, quick {}) ==\n",
        run.fits, run.population, run.rows, run.host_cores, run.quick
    ));
    out.push_str(&format!(
        "{:>7} {:>7} {:>12} {:>8} {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>7}\n",
        "threads",
        "passes",
        "evals/sec",
        "speedup",
        "util",
        "imbal",
        "idle",
        "wait",
        "spinup",
        "spawns",
        "pooled"
    ));
    for p in &run.points {
        out.push_str(&format!(
            "{:>7} {:>7} {:>12.0} {:>7.2}x {:>5.0}% {:>6.2} {:>5.0}% {:>5.0}% {:>6.1}% {:>7} {:>7}\n",
            p.threads,
            p.passes,
            p.evals_per_sec,
            p.speedup,
            p.utilization * 100.0,
            p.imbalance,
            p.idle_share * 100.0,
            p.wait_share * 100.0,
            p.spinup_share * 100.0,
            p.pool_spawns,
            p.pooled_calls,
        ));
    }
    out
}

/// One `threads_N` block of `BENCH_scale.json`, rounded to the
/// precision the baseline records.
#[derive(Serialize)]
struct PointJson {
    evals_per_sec: u64,
    speedup: f64,
    utilization: f64,
    imbalance: f64,
    steal_ratio: f64,
    idle_share: f64,
    wait_share: f64,
    spinup_share: f64,
    pool_spawns: u64,
    pooled_calls: u64,
    allocs_per_pass: u64,
}

impl PointJson {
    fn new(p: &ScalePoint) -> PointJson {
        PointJson {
            evals_per_sec: p.evals_per_sec.round() as u64,
            speedup: round_to(p.speedup, 3),
            utilization: round_to(p.utilization, 3),
            imbalance: round_to(p.imbalance, 3),
            steal_ratio: round_to(p.steal_ratio, 3),
            idle_share: round_to(p.idle_share, 3),
            wait_share: round_to(p.wait_share, 3),
            spinup_share: round_to(p.spinup_share, 4),
            pool_spawns: p.pool_spawns,
            pooled_calls: p.pooled_calls,
            allocs_per_pass: p.allocs_per_pass.round() as u64,
        }
    }
}

/// `BENCH_scale.json`: the workload header, then one `threads_N` key per
/// point — keys named at run time, hence serialized as a map.
impl Serialize for ScaleRun {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(None)?;
        map.serialize_entry("bench", "gp_scale")?;
        map.serialize_entry("quick", &self.quick)?;
        map.serialize_entry("host_cores", &self.host_cores)?;
        map.serialize_entry("fits", &self.fits)?;
        map.serialize_entry("population", &self.population)?;
        map.serialize_entry("rows", &self.rows)?;
        for p in &self.points {
            map.serialize_entry(&format!("threads_{}", p.threads), &PointJson::new(p))?;
        }
        map.end()
    }
}

/// Renders the sweep as the `BENCH_scale.json` document. Nested
/// `threads_N` blocks flatten to dotted keys in `dpr-bench regress`.
pub fn scale_json(run: &ScaleRun) -> String {
    bench_json(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_every_point_and_emits_gateable_json() {
        // A tiny budget keeps the test fast; the pass shape is the real one.
        let tiny = Workload {
            fits: 4,
            config: |seed| GpConfig {
                population_size: 24,
                max_generations: 2,
                polish_iters: 10,
                ..GpConfig::fast(seed)
            },
            warm_up: Duration::ZERO,
            window: Duration::ZERO,
        };
        let run = sweep(&[1, 2], true, &tiny);
        assert_eq!(run.points.len(), 2);
        assert_eq!(run.points[0].threads, 1);
        assert_eq!(run.points[1].threads, 2);
        assert_eq!((run.fits, run.population, run.rows), (4, 24, 100));
        assert!(run.host_cores >= 1);
        assert!((run.points[0].speedup - 1.0).abs() < 1e-9);
        for p in &run.points {
            assert!(p.evals_per_sec > 0.0, "threads {}", p.threads);
            assert!(p.utilization > 0.0 && p.utilization <= 1.0);
            assert!(p.imbalance >= 1.0);
            assert!((0.0..=1.0).contains(&p.idle_share));
            assert!(!p.report.text.is_empty());
        }
        // The 1-thread point runs inline: perfectly utilized, no spawns,
        // nothing pooled. The 2-thread point pooled every pass (the
        // calibration pass and three timed windows).
        assert!((run.points[0].utilization - 1.0).abs() < 1e-9);
        assert_eq!(run.points[0].pooled_calls, 0);
        assert_eq!(
            run.points[1].pooled_calls,
            u64::from(run.points[1].passes) + 1
        );

        // The regress path runs on pinned speedups: a measured wall-clock
        // ratio trips the absolute `*.speedup` floor whenever the 2-thread
        // point happens to be slow. CI's `regress` step enforces that
        // floor against the checked-in baseline.
        let mut run = run;
        for p in &mut run.points {
            assert!(p.speedup > 0.0, "threads {}", p.threads);
            p.speedup = 1.0;
        }
        let json = scale_json(&run);
        let value = dpr_telemetry::json::parse(&json).expect("valid JSON");
        let cmp = dpr_obs::regress::compare(&value, &value, 0.15);
        assert!(!cmp.has_regressions());
        let keys: Vec<&str> = cmp.rows.iter().map(|r| r.metric.as_str()).collect();
        assert!(keys.contains(&"threads_1.evals_per_sec"));
        assert!(keys.contains(&"threads_2.speedup"));
        assert!(keys.contains(&"threads_2.utilization"));
        assert!(keys.contains(&"threads_2.imbalance"));
        assert!(keys.contains(&"threads_2.pooled_calls"));
        assert!(keys.contains(&"host_cores"));
        use dpr_obs::regress::{direction_for, Direction};
        assert_eq!(
            direction_for("threads_2.speedup"),
            Direction::HigherIsBetter
        );
        assert_eq!(
            direction_for("threads_2.imbalance"),
            Direction::LowerIsBetter
        );
    }

    #[test]
    fn scale_table_lists_each_thread_count() {
        let run = ScaleRun {
            quick: true,
            host_cores: 2,
            fits: 8,
            population: 256,
            rows: 100,
            points: Vec::new(),
        };
        let text = render_scale(&run);
        assert!(text.contains("gp fit fan-out thread scaling"));
        assert!(text.contains("speedup"));
        assert!(text.contains("pooled"));
    }
}
