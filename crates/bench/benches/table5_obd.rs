//! Table 5 — reverse engineering the OBD-II formulas (the ground-truth
//! experiment).
//!
//! Paper: a vehicle simulator + the "ChevroSys Scan Free" app; DP-Reverser
//! recovers all 7 PID formulas (100% precision), including the degenerate
//! cases: Engine Speed's `X1 ≡ 128` collapses `(256·X0+X1)/4` to
//! `64·X0 + 32`, and the coolant formula is recovered as a
//! range-equivalent variant. The rows come from
//! [`dpr_bench::accuracy::obd_pids`], the same producer
//! `dpr-bench accuracy` gates.

use dpr_bench::{accuracy, header, pct};

fn main() {
    header(
        "Table 5: reverse engineering the OBD-II protocol formulas",
        "7/7 PID formulas recovered correctly (100%)",
    );
    println!(
        "{:36} {:8} {:22} {:4}",
        "ESV", "request", "ground truth", "recovered (GP)"
    );
    let rows = accuracy::obd_pids();
    for row in &rows {
        println!(
            "{:36} 01 {:4}  {:22} {} [{}]",
            row.name,
            &row.pid[2..],
            row.truth,
            row.recovered,
            if row.correct { "OK" } else { "MISMATCH" }
        );
    }
    let correct = rows.iter().filter(|r| r.correct).count();
    println!(
        "\nprecision: {correct}/{} = {} (paper: 7/7 = 100%)",
        rows.len(),
        pct(correct, rows.len())
    );
}
