//! # DP-Reverser
//!
//! A complete, simulation-backed reproduction of *"Towards Automatically
//! Reverse Engineering Vehicle Diagnostic Protocols"* (USENIX Security
//! 2022; poster at ICDCS 2023): a cyber-physical pipeline that recovers
//! the proprietary content of KWP 2000 and UDS diagnostic sessions —
//! identifier semantics, ECU-control records, and the formulas decoding
//! raw response bytes into physical values — purely from a diagnostic
//! tool's screen and its CAN traffic.
//!
//! This crate is the facade: it wires the substrates (CAN bus, transport
//! layers, protocol codecs, vehicle and tool simulators, the
//! robotic-clicker CPS, OCR, frames analysis, genetic-programming
//! inference) into the end-to-end [`DpReverser`] pipeline and provides the
//! [`evaluate`] harness that scores results against a simulated vehicle's
//! ground truth.
//!
//! # Quickstart
//!
//! ```
//! use dpr_can::Micros;
//! use dp_reverser::{DpReverser, PipelineConfig};
//! use dpr_cps::{collect_vehicle, CollectConfig, PlanStrategy};
//! use dpr_frames::Scheme;
//! use dpr_tool::{ToolProfile, ToolSession};
//! use dpr_vehicle::profiles::{self, CarId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. A simulated car and tool, collected by the robotic clicker.
//! let car = profiles::build(CarId::P, 7);
//! let session = ToolSession::new(car, ToolProfile::autel_919());
//! let report = collect_vehicle(
//!     session,
//!     &CollectConfig {
//!         read_wait: Micros::from_secs(3),
//!         strategy: PlanStrategy::NearestNeighbor,
//!         ..CollectConfig::default()
//!     },
//! )?;
//!
//! // 2. Reverse engineer from the capture and the screen video alone.
//! let pipeline = DpReverser::new(PipelineConfig::fast(Scheme::IsoTp, 7));
//! let result = pipeline.analyze(&report.log, &report.frames, Some(&report.execution));
//! assert!(!result.esvs.is_empty());
//!
//! // 3. Score against the simulator's ground truth.
//! let precision = dp_reverser::evaluate(&result, &report.vehicle);
//! assert!(precision.formula_total > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod associate;
mod evaluate;
mod pipeline;
pub mod report;
mod result;

pub use associate::{match_series, match_series_two_pass, LabelSeries, MatchScore};
pub use dpr_capture::{CaptureReader, CaptureSession, CaptureWriter};
pub use dpr_evidence::{EvidenceChain, EvidenceLedger};
pub use evaluate::{canonicalize, evaluate, EsvVerdict, PrecisionReport};
pub use pipeline::{Alignment, DpReverser, PipelineConfig, INFERENCE_LABEL};
pub use result::{RecoveredEcr, RecoveredEsv, RecoveredKind, ReverseEngineeringResult};
