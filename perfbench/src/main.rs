//! `dpr-perfbench --workload <car|serve> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable tables, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and the workload's metrics: the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`.

use dpr_perfbench::analyze;
use dpr_perfbench::metrics::{result_line, END_TO_END, PER_LAYER};
use dpr_perfbench::{alloc_tally, host, serve, Workload};
use dpr_prof::alloc::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::process::ExitCode;

/// Tallies every allocation of the process while a traced window is
/// open, then hands the call to the workspace's counting allocator
/// (which attributes allocations to pool workers under `DPR_PROF=1`).
struct BenchAlloc;

#[global_allocator]
static ALLOC: BenchAlloc = BenchAlloc;

// SAFETY: every method delegates unchanged to `CountingAlloc`, itself a
// pass-through to the system allocator; the tally only bumps atomics
// and never allocates.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        alloc_tally::note_alloc(layout.size());
        CountingAlloc.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        alloc_tally::note_alloc(layout.size());
        CountingAlloc.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            alloc_tally::note_alloc(new_size - layout.size());
        }
        CountingAlloc.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CountingAlloc.dealloc(ptr, layout)
    }
}

const USAGE: &str =
    "usage: dpr-perfbench --workload <car|serve> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}, want 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The analyzer reads its tuning from DPR_* variables; clear them so
    // ambient settings cannot change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DPR_") {
            std::env::remove_var(&key);
        }
    }
    // The service's production analyzer runs the reduced GP budget.
    if args.workload == Workload::Serve {
        std::env::set_var("DPR_QUICK", "1");
    }
    let probe = host::Probe::start();
    let report = match args.workload {
        Workload::Car => analyze::run(args.seed, args.seconds, args.trace),
        Workload::Serve => serve::run(args.seed, args.seconds, args.trace),
    };
    let (probe_ms, timings) = probe.finish();
    let mut report = match report {
        Ok(report) => report,
        Err(why) => {
            eprintln!("error: {why}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        let line = host::scale(&mut report.values, probe_ms, timings);
        report.lines.push(line);
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.lines {
        println!("{line}");
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in declared {
        let value = report.values.get(*name).map_or(f64::NAN, |v| v + 0.0);
        println!("  {name:<26} {value:>16.6} {unit}");
    }
    println!(
        "checked {} operation(s): {} failed ({} mismatched, {} refused, {} timed out, {} errors)",
        report.tally.attempted,
        report.tally.failed(),
        report.tally.mismatched,
        report.tally.refused,
        report.tally.timed_out,
        report.tally.errors,
    );
    println!("{}", result_line(&report, declared));
    ExitCode::SUCCESS
}
