//! Observability tour: run one simulated car end to end and print the
//! stage-timing and counter breakdown the telemetry layer records.
//!
//! ```text
//! cargo run --release --example pipeline_trace
//! ```
//!
//! Builds the paper's Car M, collects it with the robotic clicker, runs
//! the reverse-engineering pipeline inside a fresh telemetry scope, and
//! prints three views of the same run: the live span log (via an
//! in-memory collector), the per-stage trace table, and the full metric
//! registry. The trace as JSON — what `GET /trace` serves — ends the tour.

use std::sync::Arc;

use dp_reverser::{DpReverser, PipelineConfig};
use dpr_can::Micros;
use dpr_cps::{collect_vehicle, CollectConfig};
use dpr_frames::Scheme;
use dpr_telemetry::{summary, Collector, Registry};
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::profiles::{self, CarId};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 7;
    let id = CarId::M;
    let spec = profiles::spec(id);
    println!("== pipeline trace: {} ({id}) via {} ==\n", spec.model, spec.tool);

    // 1. Collect. This runs outside the scoped registry on purpose: the
    //    trace below covers the analysis, not the simulated drive.
    let car = profiles::build(id, seed);
    let session = ToolSession::new(car, ToolProfile::by_name(spec.tool).expect("known tool"));
    let report = collect_vehicle(
        session,
        &CollectConfig {
            read_wait: Micros::from_secs(6),
            ..CollectConfig::default()
        },
    )?;
    println!(
        "collected {} CAN frames and {} video frames\n",
        report.log.len(),
        report.frames.len()
    );

    // 2. Analyze inside a fresh registry with an in-memory span collector
    //    attached, so this run's numbers are isolated and inspectable.
    let registry = Arc::new(Registry::new());
    let spans = Arc::new(Collector::new());
    registry.add_sink(spans.clone());

    let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, seed));
    let result = dpr_telemetry::scoped(Arc::clone(&registry), || {
        pipeline.analyze(&report.log, &report.frames, Some(&report.execution))
    });

    // 3. The live span log, in close order (leaves before parents).
    println!("spans (close order):");
    for record in spans.records() {
        println!(
            "  {:28} {:>10}",
            record.path,
            summary::format_us(record.wall.as_micros() as u64)
        );
    }

    // 4. The per-stage trace carried on the result itself.
    println!();
    print!("{}", summary::render_trace(&result.trace));

    // 5. Everything the registry accumulated: transport reassembly,
    //    OCR filtering, association, GP effort, span histograms.
    println!();
    print!("{}", summary::render(&registry.snapshot()));

    // 6. The per-stage trace as JSON, the document a metrics server
    //    serves at `GET /trace` (spans go to Perfetto through
    //    `DPR_TRACE_EVENTS`).
    println!("\ntrace as JSON:");
    println!("{}", dpr_telemetry::json::to_string(&result.trace)?);

    println!(
        "\nrecovered {} ESVs ({} formulas) and {} control records",
        result.esvs.len(),
        result.formula_esvs().count(),
        result.ecrs.len()
    );
    Ok(())
}
