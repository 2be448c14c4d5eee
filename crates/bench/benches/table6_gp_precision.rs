//! Table 6 — ESV formula inference precision per car.
//!
//! Paper: 290 formula ESVs over 18 vehicles; GP infers 285 correctly
//! (98.3%), plus 156 enumeration ESVs. This is the paper's headline
//! result. The counts come from [`dpr_bench::accuracy`], the same
//! producer `dpr-bench accuracy` gates.

use dpr_bench::{accuracy, header, pct};
use dpr_vehicle::profiles::CarId;

fn main() {
    header(
        "Table 6: result of ESV analysis (GP formula inference per car)",
        "290 formula ESVs, 285 correct (98.3%), 156 enum ESVs",
    );
    println!(
        "{:6} {:>14} {:>13} {:>10} {:>12} {:>13}",
        "car", "#ESV(formula)", "#correct ESV", "precision", "#ESV(enum)", "#enum correct"
    );
    // Paper (formula ESVs, correct) per car, in Tab. 6 order.
    let paper_rows = [
        (28, 28), (8, 7), (5, 5), (12, 12), (5, 5), (8, 8), (5, 4), (5, 5), (11, 9),
        (20, 20), (41, 41), (29, 28), (4, 4), (26, 26), (18, 18), (7, 7), (18, 18), (40, 40),
    ];
    // Each car is an independent collect→analyze→score job fanned out
    // across the DPR_THREADS worker pool; results come back in car
    // order, so the table is byte-identical to a sequential run.
    let rows: Vec<_> = accuracy::cars(&CarId::ALL).into_iter().map(|c| c.row).collect();
    let (mut formula_total, mut formula_correct, mut enum_total, mut enum_correct) = (0, 0, 0, 0);
    let mut misses = Vec::new();
    for (row, (paper_total, paper_correct)) in rows.iter().zip(paper_rows) {
        println!(
            "{:6} {:>14} {:>13} {:>10} {:>12} {:>13}   (paper: {}/{})",
            row.car,
            row.formula_total,
            row.formula_correct,
            pct(row.formula_correct, row.formula_total),
            row.enum_total,
            row.enum_correct,
            paper_correct,
            paper_total,
        );
        formula_total += row.formula_total;
        formula_correct += row.formula_correct;
        enum_total += row.enum_total;
        enum_correct += row.enum_correct;
        misses.extend(row.misses.iter().map(|m| format!("Car {}: {m}", row.car)));
    }
    println!(
        "\n{:6} {:>14} {:>13} {:>10} {:>12} {:>13}",
        "Total",
        formula_total,
        formula_correct,
        pct(formula_correct, formula_total),
        enum_total,
        enum_correct,
    );
    println!("paper total: 290 formula ESVs, 285 correct (98.3%), 156 enum ESVs");
    for miss in &misses {
        println!("  miss: {miss}");
    }
    if formula_total > 0 {
        let precision = formula_correct as f64 / formula_total as f64;
        println!(
            "\nshape check: overall precision {:.1}% — {} the paper's ≥95% band",
            precision * 100.0,
            if precision >= 0.95 { "inside" } else { "OUTSIDE" }
        );
    }
}
