//! Host speed: a fixed CPU kernel, timed on a thread of its own all
//! through a run, so that the run's end-to-end times can be put at one
//! host speed.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts
//! by up to half over minutes, under load the benchmark cannot see
//! (steal time stays under 1%): the same sequential pass over the
//! captures took 18 s in one run and 27 s in a run three minutes later.
//! No statistic inside one run removes a drift that outlasts it. The
//! probe's kernel slows with the host, so each end-to-end time is
//! scaled by [`REFERENCE_MS`] over the kernel's median time in the run,
//! and the log prints the raw times beside the scaled ones.
//!
//! The kernel is timed in the probe thread's own CPU time where the
//! kernel reports it, so time spent waiting for a core the workload
//! holds does not count as a slow host. Over five seeds per workload on
//! a 2-vCPU host, scaling cut the spread (quartile distance over median)
//! of `analysis_s` from 0.13 to 0.08 on `car` and from 0.18 to 0.08 on
//! `serve`.

use crate::metrics::Values;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's median time, in ms, on the 2-vCPU host the bounds were
/// set on, at its usual speed: times scaled by [`scale`] read as if the
/// run had had the host at that speed.
pub const REFERENCE_MS: f64 = 0.7;

/// Pause between two timings of the kernel: about 2% of one core.
const INTERVAL: Duration = Duration::from_millis(100);

/// One step of the kernel's postfix program.
#[derive(Debug, Clone, Copy)]
enum Op {
    X,
    Const(f64),
    Add,
    Sub,
    Mul,
    Div,
    Sin,
}

/// `sin(x * 1.7) + (x - 0.3) * (x + 2.5) / (x * x) + 0.25 * x`, a
/// formula of the size GP searches for.
const PROGRAM: [Op; 20] = [
    Op::X,
    Op::Const(1.7),
    Op::Mul,
    Op::Sin,
    Op::X,
    Op::Const(0.3),
    Op::Sub,
    Op::X,
    Op::Const(2.5),
    Op::Add,
    Op::Mul,
    Op::X,
    Op::X,
    Op::Mul,
    Op::Div,
    Op::Add,
    Op::Const(0.25),
    Op::X,
    Op::Mul,
    Op::Add,
];

/// Evaluates [`PROGRAM`] over a grid of points on a stack machine, as
/// GP scores a candidate formula: floating point, branches and a small
/// working set, with no call into the program under test.
fn kernel() -> f64 {
    const POINTS: usize = 256;
    const ROUNDS: usize = 40;
    let program = black_box(&PROGRAM);
    let mut stack = [0.0f64; 8];
    let mut sum = 0.0;
    for round in 0..ROUNDS {
        for i in 0..POINTS {
            let x = black_box(i as f64 * 0.01 + round as f64 * 1e-3);
            let mut top = 0;
            for op in program {
                match *op {
                    Op::X | Op::Const(_) => {
                        stack[top] = if let Op::Const(c) = *op { c } else { x };
                        top += 1;
                    }
                    Op::Sin => stack[top - 1] = stack[top - 1].sin(),
                    binary => {
                        top -= 1;
                        let (a, b) = (stack[top - 1], stack[top]);
                        stack[top - 1] = match binary {
                            Op::Add => a + b,
                            Op::Sub => a - b,
                            Op::Mul => a * b,
                            _ if b.abs() < 1e-9 => 1.0,
                            _ => a / b,
                        };
                    }
                }
            }
            sum += stack[0];
        }
    }
    sum
}

/// Nanoseconds the calling thread has run on a CPU, from
/// `/proc/thread-self/schedstat`; `None` where unavailable.
fn thread_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// Times one run of the kernel in ms: thread CPU time where available,
/// wall time otherwise.
fn time_kernel() -> f64 {
    let (cpu, wall) = (thread_cpu_ns(), Instant::now());
    black_box(kernel());
    let elapsed = wall.elapsed().as_secs_f64() * 1e3;
    match (cpu, thread_cpu_ns()) {
        (Some(before), Some(after)) if after > before => (after - before) as f64 / 1e6,
        _ => elapsed,
    }
}

/// A thread timing the kernel every [`INTERVAL`] until finished.
pub struct Probe {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<f64>>,
}

impl Probe {
    /// Starts the probe thread.
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("perfbench-probe".into())
            .spawn(move || {
                let mut times = Vec::new();
                while !flag.load(Ordering::Relaxed) {
                    times.push(time_kernel());
                    std::thread::sleep(INTERVAL);
                }
                times
            })
            .expect("the probe thread starts");
        Probe { stop, thread }
    }

    /// Stops and joins the thread; returns the kernel's median time in
    /// ms and how many times it ran.
    pub fn finish(self) -> (f64, usize) {
        self.stop.store(true, Ordering::Relaxed);
        let times = self.thread.join().expect("the probe thread does not panic");
        (crate::metrics::median(&times), times.len())
    }
}

/// The end-to-end times [`scale`] puts at the reference host speed.
pub const TIMES: [&str; 4] = ["setup_s", "analysis_s", "job_p50_ms", "job_p90_ms"];

/// Multiplies each of [`TIMES`] in `values` by [`REFERENCE_MS`] over
/// `probe_ms`, the kernel's median time in the run (left as measured
/// when the kernel never ran); returns the log line with the raw times.
pub fn scale(values: &mut Values, probe_ms: f64, timings: usize) -> String {
    let factor = if probe_ms > 0.0 {
        REFERENCE_MS / probe_ms
    } else {
        1.0
    };
    let mut raw = Vec::new();
    for name in TIMES {
        if let Some(value) = values.get_mut(name) {
            raw.push(format!("{name} {value:.6}"));
            *value *= factor;
        }
    }
    format!(
        "host probe: kernel median {probe_ms:.4} ms over {timings} timings, reference \
         {REFERENCE_MS} ms, times scaled by {factor:.4}; raw {}",
        raw.join(", ")
    )
}
