//! Table 7 — validating inferred formulas against vehicle dashboards.
//!
//! Paper: on four real cars the values computed with the inferred
//! formulas match the dashboard displays. Car F: `Y = X`; Car K:
//! `Y = X0·X1/5`; Car L: `Y = 0.5·X`; Car R: `Y = 64.1·X0 + 0.241·X1`.
//! The verdicts come from [`dpr_bench::accuracy`], the same producer
//! `dpr-bench accuracy` gates.

use dpr_bench::accuracy::{self, TAB7_CARS};
use dpr_bench::header;

fn main() {
    header(
        "Table 7: dashboard validation of inferred formulas",
        "four cars; every inferred formula matches the dashboard (all check marks)",
    );
    println!(
        "{:8} {:26} {:52} {:>5}",
        "vehicle", "ESV on dashboard", "formula (GP) system output", "same?"
    );
    let paper_formulas = ["Y = X", "Y = X0*X1/5", "Y = 0.5X", "Y = 64.1X0 + 0.241X1"];
    let mut matched = 0;
    for (car, paper_formula) in accuracy::cars(&TAB7_CARS).into_iter().zip(paper_formulas) {
        let dash = car.dashboard.expect("Tab. 7 cars have a dashboard signal");
        if dash.validated {
            matched += 1;
        }
        println!(
            "{:8} {:26} {:52} {:>5}   (paper: {paper_formula})",
            dash.car,
            dash.label,
            dash.recovered,
            if dash.validated { "YES" } else { "NO" }
        );
    }
    println!("\nshape check: {matched}/4 dashboard formulas validated (paper: 4/4)");
}
