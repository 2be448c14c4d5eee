//! Transport/network-layer protocols carrying diagnostic messages over CAN.
//!
//! A diagnostic message (a KWP 2000 or UDS request/response) is often longer
//! than the 8 data bytes of a classic CAN frame. The paper's Tab. 9 measures
//! that 32% of UDS frames and 75.2% of KWP 2000 frames belong to multi-frame
//! messages — without the transport layer implemented here, the
//! reverse-engineering pipeline cannot even see the payloads it analyzes.
//!
//! Three schemes from the paper are implemented:
//!
//! * [`isotp`] — ISO 15765-2 ("DoCAN"): single/first/consecutive/flow-control
//!   frames, block-size and STmin pacing. Used by UDS, CAN-based KWP 2000,
//!   and OBD-II.
//! * [`vwtp`] — VW TP 2.0: channel setup/parameter frames plus sequenced
//!   data-transmission frames whose *opcode* (not a length field) marks the
//!   last frame of a message. Used by Volkswagen-group KWP 2000 cars.
//! * [`bmw`] — the raw scheme the paper observed on BMW and Mini Cooper:
//!   byte 0 of every frame is the target ECU id and the remaining bytes are
//!   payload.
//!
//! Each scheme has one reassembler, its *stream decoder*, which rebuilds
//! payloads from a sniffed frame sequence — the code path the paper's
//! "diagnostic frames analysis" module exercises (its Step 2). Each
//! scheme offers it through two faces:
//!
//! * the decoder itself, fed offline from a capture, and
//! * a live [`Endpoint`] used by the simulated vehicle and diagnostic
//!   tool: a protocol state machine (segmentation, pacing, ISO-TP flow
//!   control, VW TP sequence checks and ACKs) wrapped around the
//!   scheme's decoder, which does all of its receive-side assembly.
//!
//! Live and offline traffic are therefore reassembled, capped and
//! rejected by the same code.
//!
//! # Example: ISO-TP round trip over a simulated bus
//!
//! ```
//! use dpr_can::{CanBus, CanId, Micros};
//! use dpr_transport::isotp::IsoTpEndpoint;
//! use dpr_transport::{pump, Endpoint};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut bus = CanBus::new();
//! let tool_node = bus.attach("tool");
//! let ecu_node = bus.attach("ecu");
//!
//! let req_id = CanId::standard(0x7E0)?;
//! let rsp_id = CanId::standard(0x7E8)?;
//! let mut tool = IsoTpEndpoint::new(req_id, rsp_id);
//! let mut ecu = IsoTpEndpoint::new(rsp_id, req_id);
//!
//! let long_request: Vec<u8> = (0..40).collect();
//! tool.send(&long_request, Micros::ZERO)?;
//! pump(&mut bus, &mut [(tool_node, &mut tool), (ecu_node, &mut ecu)])?;
//!
//! assert_eq!(ecu.receive().as_deref(), Some(&long_request[..]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bmw;
mod endpoint;
mod error;
pub mod isotp;
pub mod vwtp;

pub use endpoint::{pump, Endpoint, OutgoingFrame};
pub use error::TransportError;

/// Books one reassembly reject under the per-kind taxonomy: bumps the
/// `transport.<scheme>.reject.<kind>` counter and, when an evidence
/// capture is active, records the matching
/// [`ReassemblyReject`](dpr_evidence::ReassemblyReject) event — the
/// two views agree by construction.
///
/// `kind` is a [`TransportError::kind`] tag, or the pseudo-kind
/// `superseded` for an in-flight reassembly displaced by a new
/// single/first frame.
pub(crate) fn reject(scheme: &'static str, kind: &'static str) {
    dpr_telemetry::counter(&format!("transport.{scheme}.reject.{kind}")).inc(1);
    if dpr_evidence::active() {
        dpr_evidence::record(dpr_evidence::Event::ReassemblyReject(
            dpr_evidence::ReassemblyReject {
                scheme: scheme.to_string(),
                kind: kind.to_string(),
                id: None,
                at_us: None,
            },
        ));
    }
}
