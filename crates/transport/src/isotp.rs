//! ISO 15765-2 (ISO-TP / "DoCAN") segmentation and reassembly.
//!
//! Implements the four frame types of the paper's Fig. 7 — single frame
//! (SF), first frame (FF), consecutive frame (CF), and flow control (FC) —
//! the [`IsoTpStreamDecoder`] that reassembles payloads from a sniffed
//! capture (the paper's "Step 2: Assembling Payload"), and a live
//! [`IsoTpEndpoint`] that receives through that decoder and adds the
//! sender and flow control with block-size and STmin pacing.

use std::collections::VecDeque;

use dpr_can::{CanFrame, CanId, Micros};
use serde::{Deserialize, Serialize};

use crate::{Endpoint, OutgoingFrame, TransportError};

/// Maximum payload length of classic ISO-TP (12-bit length in the FF).
pub const MAX_ISOTP_PAYLOAD: usize = 4095;
/// Maximum payload bytes in a single frame with classic addressing.
pub const MAX_SF_PAYLOAD: usize = 7;
/// Payload bytes carried by a first frame.
pub const FF_PAYLOAD: usize = 6;
/// Maximum payload bytes per consecutive frame.
pub const CF_PAYLOAD: usize = 7;
/// Padding byte used for classic-CAN frame padding.
pub const PAD_BYTE: u8 = 0x55;

/// Flow status carried in an FC frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlowStatus {
    /// Clear to send: the sender may transmit the next block.
    ContinueToSend,
    /// The receiver needs more time; the sender must wait for another FC.
    Wait,
    /// The receiver's buffer cannot hold the announced message.
    Overflow,
}

impl FlowStatus {
    fn to_nibble(self) -> u8 {
        match self {
            FlowStatus::ContinueToSend => 0,
            FlowStatus::Wait => 1,
            FlowStatus::Overflow => 2,
        }
    }

    fn from_nibble(n: u8) -> Result<Self, TransportError> {
        match n {
            0 => Ok(FlowStatus::ContinueToSend),
            1 => Ok(FlowStatus::Wait),
            2 => Ok(FlowStatus::Overflow),
            other => Err(TransportError::MalformedFrame(format!(
                "flow status nibble {other:#x} is reserved"
            ))),
        }
    }
}

/// The STmin (minimum separation time) field of an FC frame.
///
/// Values `0x00..=0x7F` encode milliseconds; `0xF1..=0xF9` encode
/// 100–900 µs. Other encodings are reserved and treated per the standard as
/// the maximum (127 ms) by senders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StMin(u8);

impl StMin {
    /// STmin of zero — consecutive frames may be sent back to back.
    pub const ZERO: StMin = StMin(0);

    /// Creates an STmin from its on-wire byte.
    pub const fn from_raw(raw: u8) -> Self {
        StMin(raw)
    }

    /// Creates an STmin encoding the given number of milliseconds
    /// (clamped to the 127 ms maximum).
    pub fn from_millis(ms: u8) -> Self {
        StMin(ms.min(0x7F))
    }

    /// The on-wire byte.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// The minimum separation as logical time. Reserved encodings collapse
    /// to the defensive maximum of 127 ms, as the standard requires.
    pub fn as_micros(self) -> Micros {
        match self.0 {
            0x00..=0x7F => Micros::from_millis(u64::from(self.0)),
            0xF1..=0xF9 => Micros::from_micros(u64::from(self.0 - 0xF0) * 100),
            _ => Micros::from_millis(127),
        }
    }
}

/// A parsed ISO-TP frame (the protocol control information plus payload).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IsoTpFrame {
    /// Single frame: a complete payload of 1–7 bytes.
    Single {
        /// The payload.
        data: Vec<u8>,
    },
    /// First frame of a multi-frame message.
    First {
        /// Total length of the full message (up to 4095).
        total_len: u16,
        /// The first 6 payload bytes.
        data: Vec<u8>,
    },
    /// Consecutive frame.
    Consecutive {
        /// 4-bit sequence number (1..=15, then wraps to 0).
        seq: u8,
        /// Up to 7 payload bytes.
        data: Vec<u8>,
    },
    /// Flow-control frame.
    FlowControl {
        /// Whether the sender may continue.
        status: FlowStatus,
        /// Consecutive frames allowed before the next FC (0 = unlimited).
        block_size: u8,
        /// Minimum separation between consecutive frames.
        st_min: StMin,
    },
}

impl IsoTpFrame {
    /// Parses ISO-TP protocol control information from CAN frame data.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::MalformedFrame`] for empty data, reserved
    /// PCI types, or inconsistent length fields.
    pub fn parse(data: &[u8]) -> Result<Self, TransportError> {
        let Some(&pci) = data.first() else {
            return Err(TransportError::MalformedFrame(
                "empty CAN data cannot carry ISO-TP".into(),
            ));
        };
        match pci >> 4 {
            0x0 => {
                let len = usize::from(pci & 0x0F);
                if len == 0 || len > MAX_SF_PAYLOAD {
                    return Err(TransportError::MalformedFrame(format!(
                        "single-frame length {len} out of range 1..=7"
                    )));
                }
                if data.len() < 1 + len {
                    return Err(TransportError::MalformedFrame(format!(
                        "single frame announces {len} bytes but carries {}",
                        data.len() - 1
                    )));
                }
                Ok(IsoTpFrame::Single {
                    data: data[1..=len].to_vec(),
                })
            }
            0x1 => {
                if data.len() < 2 {
                    return Err(TransportError::MalformedFrame(
                        "first frame shorter than its length field".into(),
                    ));
                }
                let total_len = (u16::from(pci & 0x0F) << 8) | u16::from(data[1]);
                if usize::from(total_len) <= MAX_SF_PAYLOAD {
                    return Err(TransportError::MalformedFrame(format!(
                        "first frame announces {total_len} bytes, which fits a single frame"
                    )));
                }
                Ok(IsoTpFrame::First {
                    total_len,
                    data: data[2..].to_vec(),
                })
            }
            0x2 => Ok(IsoTpFrame::Consecutive {
                seq: pci & 0x0F,
                data: data[1..].to_vec(),
            }),
            0x3 => {
                if data.len() < 3 {
                    return Err(TransportError::MalformedFrame(
                        "flow-control frame shorter than 3 bytes".into(),
                    ));
                }
                Ok(IsoTpFrame::FlowControl {
                    status: FlowStatus::from_nibble(pci & 0x0F)?,
                    block_size: data[1],
                    st_min: StMin::from_raw(data[2]),
                })
            }
            other => Err(TransportError::MalformedFrame(format!(
                "reserved ISO-TP PCI type {other:#x}"
            ))),
        }
    }

    /// Encodes the frame as padded CAN data on the given identifier.
    pub fn to_can_frame(&self, id: CanId) -> CanFrame {
        let mut buf: Vec<u8> = Vec::with_capacity(8);
        match self {
            IsoTpFrame::Single { data } => {
                debug_assert!((1..=MAX_SF_PAYLOAD).contains(&data.len()));
                buf.push(data.len() as u8);
                buf.extend_from_slice(data);
            }
            IsoTpFrame::First { total_len, data } => {
                debug_assert!(data.len() == FF_PAYLOAD);
                buf.push(0x10 | ((total_len >> 8) as u8 & 0x0F));
                buf.push((total_len & 0xFF) as u8);
                buf.extend_from_slice(data);
            }
            IsoTpFrame::Consecutive { seq, data } => {
                debug_assert!(data.len() <= CF_PAYLOAD);
                buf.push(0x20 | (seq & 0x0F));
                buf.extend_from_slice(data);
            }
            IsoTpFrame::FlowControl {
                status,
                block_size,
                st_min,
            } => {
                buf.push(0x30 | status.to_nibble());
                buf.push(*block_size);
                buf.push(st_min.raw());
            }
        }
        CanFrame::new_padded(id, &buf, PAD_BYTE).expect("ISO-TP frames always fit 8 bytes")
    }

    /// Whether this is a flow-control frame (the kind the paper's screening
    /// step removes).
    pub fn is_flow_control(&self) -> bool {
        matches!(self, IsoTpFrame::FlowControl { .. })
    }
}

/// Tuning parameters for an [`IsoTpEndpoint`]'s receiver side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsoTpConfig {
    /// Block size advertised in FC frames (0 = send everything).
    pub block_size: u8,
    /// STmin advertised in FC frames.
    pub st_min: StMin,
    /// Receive buffer capacity; longer announcements trigger `OVFLW`.
    pub max_receive: usize,
    /// How long the sender waits for an FC before giving up (N_Bs).
    pub fc_timeout: Micros,
}

impl Default for IsoTpConfig {
    fn default() -> Self {
        IsoTpConfig {
            block_size: 8,
            st_min: StMin::from_millis(1),
            max_receive: MAX_ISOTP_PAYLOAD,
            fc_timeout: Micros::from_millis(1000),
        }
    }
}

#[derive(Debug)]
enum SendState {
    Idle,
    /// FF sent; waiting for the receiver's FC.
    WaitingForFc {
        payload: Vec<u8>,
        offset: usize,
        next_seq: u8,
        deadline: Micros,
    },
}

/// A live ISO-TP endpoint: segments outgoing payloads and reassembles
/// incoming ones, honouring flow control.
///
/// Reassembly is the sniffer's: incoming SF/FF/CF frames go through an
/// [`IsoTpStreamDecoder`], and the endpoint adds only the receiver's
/// flow control — a CTS after the FF and after every block, or OVFLW
/// for an FF longer than [`IsoTpConfig::max_receive`].
///
/// The endpoint transmits on `tx_id` and listens on `rx_id`; all other
/// identifiers are ignored, so many endpoints can share one bus.
#[derive(Debug)]
pub struct IsoTpEndpoint {
    tx_id: CanId,
    rx_id: CanId,
    config: IsoTpConfig,
    send: SendState,
    recv: IsoTpStreamDecoder,
    /// CFs received since the last CTS, for block-size pacing.
    cf_in_block: u8,
    out_queue: Vec<OutgoingFrame>,
}

impl IsoTpEndpoint {
    /// Creates an endpoint transmitting on `tx_id` and receiving on `rx_id`
    /// with default flow-control parameters.
    pub fn new(tx_id: CanId, rx_id: CanId) -> Self {
        Self::with_config(tx_id, rx_id, IsoTpConfig::default())
    }

    /// Creates an endpoint with explicit flow-control parameters.
    pub fn with_config(tx_id: CanId, rx_id: CanId, config: IsoTpConfig) -> Self {
        IsoTpEndpoint {
            tx_id,
            rx_id,
            config,
            send: SendState::Idle,
            recv: IsoTpStreamDecoder::new(),
            cf_in_block: 0,
            out_queue: Vec::new(),
        }
    }

    /// The identifier this endpoint transmits on.
    pub fn tx_id(&self) -> CanId {
        self.tx_id
    }

    /// The identifier this endpoint listens on.
    pub fn rx_id(&self) -> CanId {
        self.rx_id
    }

    fn queue(&mut self, ready_at: Micros, frame: IsoTpFrame) {
        self.out_queue.push(OutgoingFrame {
            ready_at,
            frame: frame.to_can_frame(self.tx_id),
        });
    }

    /// Emits up to `block_size` consecutive frames starting at `offset`,
    /// returning the updated (offset, next_seq) and the time of the last
    /// scheduled frame.
    fn emit_block(
        &mut self,
        payload: &[u8],
        mut offset: usize,
        mut seq: u8,
        block_size: u8,
        st_min: StMin,
        start: Micros,
    ) -> (usize, u8) {
        let mut at = start;
        let mut sent_in_block = 0usize;
        while offset < payload.len() {
            if block_size != 0 && sent_in_block == usize::from(block_size) {
                break;
            }
            let end = (offset + CF_PAYLOAD).min(payload.len());
            self.queue(
                at,
                IsoTpFrame::Consecutive {
                    seq,
                    data: payload[offset..end].to_vec(),
                },
            );
            offset = end;
            seq = (seq + 1) & 0x0F;
            sent_in_block += 1;
            at += st_min.as_micros().max(Micros::from_micros(1));
        }
        (offset, seq)
    }

    fn on_flow_control(
        &mut self,
        status: FlowStatus,
        block_size: u8,
        st_min: StMin,
        now: Micros,
    ) -> Result<(), TransportError> {
        let SendState::WaitingForFc {
            payload,
            offset,
            next_seq,
            ..
        } = std::mem::replace(&mut self.send, SendState::Idle)
        else {
            return Err(TransportError::UnexpectedFrame {
                kind: "flow control",
                state: "idle sender",
            });
        };
        match status {
            FlowStatus::Overflow => {
                dpr_telemetry::counter("transport.isotp.fc_overflow").inc(1);
                Err(TransportError::Overflow)
            }
            FlowStatus::Wait => {
                dpr_telemetry::counter("transport.isotp.fc_wait").inc(1);
                let deadline = now + self.config.fc_timeout;
                self.send = SendState::WaitingForFc {
                    payload,
                    offset,
                    next_seq,
                    deadline,
                };
                Ok(())
            }
            FlowStatus::ContinueToSend => {
                let (new_offset, new_seq) =
                    self.emit_block(&payload, offset, next_seq, block_size, st_min, now);
                if new_offset < payload.len() {
                    let deadline = now + self.config.fc_timeout;
                    self.send = SendState::WaitingForFc {
                        payload,
                        offset: new_offset,
                        next_seq: new_seq,
                        deadline,
                    };
                }
                Ok(())
            }
        }
    }

    fn clear_to_send(&mut self, now: Micros) {
        self.queue(
            now,
            IsoTpFrame::FlowControl {
                status: FlowStatus::ContinueToSend,
                block_size: self.config.block_size,
                st_min: self.config.st_min,
            },
        );
    }

    /// Checks the sender's FC timer; call periodically in long simulations.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`] once the N_Bs deadline passes.
    pub fn check_timers(&mut self, now: Micros) -> Result<(), TransportError> {
        if let SendState::WaitingForFc { deadline, .. } = &self.send {
            if now > *deadline {
                self.send = SendState::Idle;
                dpr_telemetry::counter("transport.isotp.fc_timeout").inc(1);
                return Err(TransportError::Timeout { timer: "N_Bs" });
            }
        }
        Ok(())
    }
}

impl Endpoint for IsoTpEndpoint {
    fn send(&mut self, payload: &[u8], now: Micros) -> Result<(), TransportError> {
        if payload.is_empty() {
            return Err(TransportError::EmptyPayload);
        }
        if payload.len() > MAX_ISOTP_PAYLOAD {
            return Err(TransportError::PayloadTooLarge {
                len: payload.len(),
                max: MAX_ISOTP_PAYLOAD,
            });
        }
        if !matches!(self.send, SendState::Idle) {
            return Err(TransportError::Busy);
        }
        if payload.len() <= MAX_SF_PAYLOAD {
            self.queue(
                now,
                IsoTpFrame::Single {
                    data: payload.to_vec(),
                },
            );
            return Ok(());
        }
        self.queue(
            now,
            IsoTpFrame::First {
                total_len: payload.len() as u16,
                data: payload[..FF_PAYLOAD].to_vec(),
            },
        );
        self.send = SendState::WaitingForFc {
            payload: payload.to_vec(),
            offset: FF_PAYLOAD,
            next_seq: 1,
            deadline: now + self.config.fc_timeout,
        };
        Ok(())
    }

    fn handle_frame(&mut self, frame: &CanFrame, now: Micros) -> Result<(), TransportError> {
        if frame.id() != self.rx_id {
            return Ok(());
        }
        match IsoTpFrame::parse(frame.data()) {
            Ok(IsoTpFrame::FlowControl {
                status,
                block_size,
                st_min,
            }) => self.on_flow_control(status, block_size, st_min, now),
            Ok(IsoTpFrame::First { total_len, .. })
                if usize::from(total_len) > self.config.max_receive =>
            {
                self.recv.supersede();
                self.queue(
                    now,
                    IsoTpFrame::FlowControl {
                        status: FlowStatus::Overflow,
                        block_size: 0,
                        st_min: StMin::ZERO,
                    },
                );
                Ok(())
            }
            parsed => {
                let first = matches!(parsed, Ok(IsoTpFrame::First { .. }));
                self.recv.push_parsed(parsed)?;
                if first {
                    self.cf_in_block = 0;
                    self.clear_to_send(now);
                } else if self.config.block_size != 0 && self.recv.in_progress() {
                    // A CF that did not complete the message.
                    self.cf_in_block += 1;
                    if self.cf_in_block == self.config.block_size {
                        self.cf_in_block = 0;
                        self.clear_to_send(now);
                    }
                }
                Ok(())
            }
        }
    }

    fn outgoing(&mut self, _now: Micros) -> Vec<OutgoingFrame> {
        std::mem::take(&mut self.out_queue)
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        self.recv.pop()
    }

    fn is_active(&self) -> bool {
        !self.out_queue.is_empty()
            || !matches!(self.send, SendState::Idle)
            || self.recv.in_progress()
    }
}

/// Offline reassembly of one direction of ISO-TP traffic from a capture.
///
/// This is the sniffer-side algorithm of the paper's Step 2: it never sends
/// flow control (the live peers did that); it only watches SF/FF/CF frames
/// of a single CAN id and emits completed payloads. Malformed or
/// out-of-sequence input aborts the in-progress message but keeps the
/// decoder usable — a sniffer must survive mid-capture glitches. An SF or
/// FF arriving mid-transfer aborts it too, as ISO 15765-2 specifies, and
/// is counted `superseded`.
///
/// [`IsoTpEndpoint`] receives through this decoder as well, so live and
/// offline reassembly are one code path.
#[derive(Debug, Default)]
pub struct IsoTpStreamDecoder {
    /// The open transfer: announced length, bytes so far, next sequence
    /// number.
    state: Option<(usize, Vec<u8>, u8)>,
    complete: VecDeque<Vec<u8>>,
}

impl IsoTpStreamDecoder {
    /// Creates an idle decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the data bytes of one sniffed CAN frame.
    ///
    /// Flow-control frames are ignored (the screening step normally removes
    /// them, but tolerating them makes the decoder robust).
    ///
    /// # Errors
    ///
    /// Says why a frame was refused: [`TransportError::MalformedFrame`]
    /// for bytes that do not parse, [`TransportError::SequenceMismatch`]
    /// for a CF out of order (both drop the open transfer), and
    /// [`TransportError::UnexpectedFrame`] for a CF with no transfer open.
    /// The decoder stays usable either way, so a sniffer may ignore it.
    pub fn push(&mut self, data: &[u8]) -> Result<(), TransportError> {
        self.push_parsed(IsoTpFrame::parse(data))
    }

    /// [`push`](Self::push) for a frame the caller already parsed.
    pub(crate) fn push_parsed(
        &mut self,
        frame: Result<IsoTpFrame, TransportError>,
    ) -> Result<(), TransportError> {
        match frame {
            Err(err) => {
                self.supersede();
                crate::reject("isotp", "malformed_frame");
                return Err(err);
            }
            Ok(IsoTpFrame::Single { data }) => {
                self.supersede();
                self.deliver(data);
            }
            Ok(IsoTpFrame::First { total_len, data }) => {
                self.supersede();
                let mut buf = Vec::with_capacity(usize::from(total_len));
                buf.extend_from_slice(&data[..FF_PAYLOAD.min(data.len())]);
                self.state = Some((usize::from(total_len), buf, 1));
            }
            Ok(IsoTpFrame::Consecutive { seq, data }) => {
                let Some((total, mut buf, expected)) = self.state.take() else {
                    return Err(TransportError::UnexpectedFrame {
                        kind: "consecutive",
                        state: "idle receiver",
                    });
                };
                if seq != expected {
                    crate::reject("isotp", "sequence_mismatch");
                    return Err(TransportError::SequenceMismatch { expected, got: seq });
                }
                let remaining = total - buf.len();
                buf.extend_from_slice(&data[..remaining.min(data.len())]);
                if buf.len() >= total {
                    self.deliver(buf);
                } else {
                    self.state = Some((total, buf, (seq + 1) & 0x0F));
                }
            }
            Ok(IsoTpFrame::FlowControl { .. }) => {}
        }
        Ok(())
    }

    /// Drops the open transfer, if any, counting it `superseded`.
    pub(crate) fn supersede(&mut self) {
        if self.state.take().is_some() {
            crate::reject("isotp", "superseded");
        }
    }

    fn deliver(&mut self, payload: Vec<u8>) {
        dpr_telemetry::counter("transport.isotp.reassembled").inc(1);
        dpr_telemetry::histogram("transport.isotp.sdu_bytes").record(payload.len() as f64);
        self.complete.push_back(payload);
    }

    /// Pops the next completed payload.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        self.complete.pop_front()
    }

    /// Drains all completed payloads.
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        self.complete.drain(..).collect()
    }

    /// Whether a multi-frame message is partially assembled.
    pub fn in_progress(&self) -> bool {
        self.state.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pump;
    use dpr_can::CanBus;

    fn ids() -> (CanId, CanId) {
        (
            CanId::standard(0x7E0).unwrap(),
            CanId::standard(0x7E8).unwrap(),
        )
    }

    fn round_trip(payload: &[u8]) -> (Vec<u8>, usize) {
        let (req, rsp) = ids();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        let mut tool = IsoTpEndpoint::new(req, rsp);
        let mut ecu = IsoTpEndpoint::new(rsp, req);
        tool.send(payload, Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        let got = ecu.receive().expect("message should arrive");
        (got, bus.log().len())
    }

    #[test]
    fn single_frame_round_trip() {
        let (got, frames) = round_trip(&[0x22, 0xF4, 0x0D]);
        assert_eq!(got, vec![0x22, 0xF4, 0x0D]);
        assert_eq!(frames, 1);
    }

    #[test]
    fn seven_bytes_still_single_frame() {
        let (got, frames) = round_trip(&[1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(got.len(), 7);
        assert_eq!(frames, 1);
    }

    #[test]
    fn eight_bytes_become_multi_frame() {
        let (got, frames) = round_trip(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // FF + FC + CF = 3 frames.
        assert_eq!(frames, 3);
    }

    #[test]
    fn long_payload_round_trip_with_multiple_blocks() {
        let payload: Vec<u8> = (0..200u16).map(|v| (v % 251) as u8).collect();
        let (got, frames) = round_trip(&payload);
        assert_eq!(got, payload);
        // 200 bytes: FF(6) + 28 CFs; block size 8 → several FCs.
        assert!(frames > 30, "expected >30 frames, got {frames}");
    }

    #[test]
    fn max_payload_round_trips() {
        let payload = vec![0xAB; MAX_ISOTP_PAYLOAD];
        let (got, _) = round_trip(&payload);
        assert_eq!(got.len(), MAX_ISOTP_PAYLOAD);
    }

    /// Block size 0 means "no further FC": neither side may count CFs in
    /// a `u8` towards a block that never closes (585 CFs here).
    #[test]
    fn unlimited_block_size_receives_max_payload() {
        let (req, rsp) = ids();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        let mut tool = IsoTpEndpoint::new(req, rsp);
        let mut ecu = IsoTpEndpoint::with_config(
            rsp,
            req,
            IsoTpConfig {
                block_size: 0,
                ..IsoTpConfig::default()
            },
        );
        let payload = vec![0xAB; MAX_ISOTP_PAYLOAD];
        tool.send(&payload, Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        assert_eq!(ecu.receive(), Some(payload));
    }

    #[test]
    fn oversized_payload_rejected() {
        let (req, rsp) = ids();
        let mut ep = IsoTpEndpoint::new(req, rsp);
        let err = ep.send(&vec![0; MAX_ISOTP_PAYLOAD + 1], Micros::ZERO);
        assert_eq!(
            err,
            Err(TransportError::PayloadTooLarge {
                len: MAX_ISOTP_PAYLOAD + 1,
                max: MAX_ISOTP_PAYLOAD
            })
        );
        assert_eq!(ep.send(&[], Micros::ZERO), Err(TransportError::EmptyPayload));
    }

    #[test]
    fn sender_is_busy_during_multiframe() {
        let (req, rsp) = ids();
        let mut ep = IsoTpEndpoint::new(req, rsp);
        ep.send(&[0; 20], Micros::ZERO).unwrap();
        assert_eq!(ep.send(&[1], Micros::ZERO), Err(TransportError::Busy));
    }

    #[test]
    fn overflow_when_receiver_buffer_too_small() {
        let (req, rsp) = ids();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        let mut tool = IsoTpEndpoint::new(req, rsp);
        let mut ecu = IsoTpEndpoint::with_config(
            rsp,
            req,
            IsoTpConfig {
                max_receive: 16,
                ..IsoTpConfig::default()
            },
        );
        tool.send(&[0; 64], Micros::ZERO).unwrap();
        let err = pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]);
        assert_eq!(err, Err(TransportError::Overflow));
        assert!(ecu.receive().is_none());
    }

    #[test]
    fn fc_timeout_fires() {
        let (req, rsp) = ids();
        let mut ep = IsoTpEndpoint::new(req, rsp);
        ep.send(&[0; 20], Micros::ZERO).unwrap();
        assert!(ep.check_timers(Micros::from_millis(999)).is_ok());
        assert_eq!(
            ep.check_timers(Micros::from_millis(1001)),
            Err(TransportError::Timeout { timer: "N_Bs" })
        );
    }

    #[test]
    fn st_min_paces_consecutive_frames() {
        let (req, rsp) = ids();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        let mut tool = IsoTpEndpoint::new(req, rsp);
        let mut ecu = IsoTpEndpoint::with_config(
            rsp,
            req,
            IsoTpConfig {
                st_min: StMin::from_millis(10),
                block_size: 0,
                ..IsoTpConfig::default()
            },
        );
        tool.send(&(0..30).collect::<Vec<u8>>(), Micros::ZERO).unwrap();
        let end = pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        // 24 bytes after the FF → 4 CFs, ≥10 ms apart.
        assert!(end >= Micros::from_millis(30), "end was {end}");
        assert_eq!(ecu.receive().unwrap().len(), 30);
    }

    #[test]
    fn frame_parse_encode_round_trip() {
        let id = CanId::standard(0x700).unwrap();
        let samples = vec![
            IsoTpFrame::Single {
                data: vec![0x3E, 0x00],
            },
            IsoTpFrame::First {
                total_len: 100,
                data: vec![1, 2, 3, 4, 5, 6],
            },
            IsoTpFrame::Consecutive {
                seq: 5,
                data: vec![7; 7],
            },
            IsoTpFrame::FlowControl {
                status: FlowStatus::Wait,
                block_size: 4,
                st_min: StMin::from_raw(0xF3),
            },
        ];
        for frame in samples {
            let can = frame.to_can_frame(id);
            let parsed = IsoTpFrame::parse(can.data()).unwrap();
            match (&frame, &parsed) {
                // CF payload is padded on the wire; compare prefix.
                (
                    IsoTpFrame::Consecutive { seq: s1, data: d1 },
                    IsoTpFrame::Consecutive { seq: s2, data: d2 },
                ) => {
                    assert_eq!(s1, s2);
                    assert_eq!(&d2[..d1.len()], &d1[..]);
                }
                (IsoTpFrame::First { data: d1, .. }, IsoTpFrame::First { data: d2, .. }) => {
                    assert_eq!(&d2[..d1.len()], &d1[..]);
                }
                _ => assert_eq!(&frame, &parsed),
            }
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(IsoTpFrame::parse(&[]).is_err());
        assert!(IsoTpFrame::parse(&[0x00]).is_err()); // SF with len 0
        assert!(IsoTpFrame::parse(&[0x08, 0, 0, 0, 0, 0, 0, 0]).is_err()); // SF len 8
        assert!(IsoTpFrame::parse(&[0x40]).is_err()); // reserved PCI
        assert!(IsoTpFrame::parse(&[0x33, 0, 0]).is_err()); // reserved flow status
        assert!(IsoTpFrame::parse(&[0x10, 0x05, 1, 2, 3, 4, 5, 6]).is_err()); // FF too short
    }

    #[test]
    fn st_min_encodings() {
        assert_eq!(StMin::from_millis(5).as_micros(), Micros::from_millis(5));
        assert_eq!(StMin::from_millis(200).as_micros(), Micros::from_millis(127));
        assert_eq!(
            StMin::from_raw(0xF1).as_micros(),
            Micros::from_micros(100)
        );
        assert_eq!(
            StMin::from_raw(0xF9).as_micros(),
            Micros::from_micros(900)
        );
        // Reserved encoding falls back to the defensive maximum.
        assert_eq!(StMin::from_raw(0x80).as_micros(), Micros::from_millis(127));
    }

    #[test]
    fn stream_decoder_reassembles_sniffed_traffic() {
        let (req, rsp) = ids();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        let mut tool = IsoTpEndpoint::new(req, rsp);
        let mut ecu = IsoTpEndpoint::new(rsp, req);
        let payload: Vec<u8> = (0..50).collect();
        tool.send(&payload, Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();

        let mut decoder = IsoTpStreamDecoder::new();
        for entry in bus.log().frames_with_id(req) {
            decoder.push(entry.frame.data()).unwrap();
        }
        assert_eq!(decoder.pop(), Some(payload));
        assert!(!decoder.in_progress());
    }

    #[test]
    fn stream_decoder_survives_sequence_gap() {
        let mut decoder = IsoTpStreamDecoder::new();
        // FF announcing 20 bytes, then a CF with the wrong sequence.
        decoder.push(&[0x10, 20, 1, 2, 3, 4, 5, 6]).unwrap();
        assert_eq!(
            decoder.push(&[0x23, 9, 9, 9, 9, 9, 9, 9]), // expected seq 1, got 3
            Err(TransportError::SequenceMismatch { expected: 1, got: 3 })
        );
        assert!(decoder.pop().is_none());
        assert!(!decoder.in_progress());
        // A fresh single frame still decodes.
        decoder.push(&[0x02, 0xAA, 0xBB]).unwrap();
        assert_eq!(decoder.pop(), Some(vec![0xAA, 0xBB]));
    }

    #[test]
    fn stream_decoder_ignores_flow_control() {
        let mut decoder = IsoTpStreamDecoder::new();
        decoder.push(&[0x30, 0, 0]).unwrap();
        decoder.push(&[0x01, 0x3E]).unwrap();
        assert_eq!(decoder.pop(), Some(vec![0x3E]));
    }

    /// An SF or a malformed frame in the middle of a transfer aborts it on
    /// the live endpoint, as in the sniffer: the stale CFs that follow
    /// are refused instead of being spliced onto a later message.
    #[test]
    fn live_receiver_drops_a_transfer_interrupted_mid_way() {
        let (req, rsp) = ids();
        let frame = |data: &[u8]| CanFrame::new(req, data).unwrap();
        for interruption in [&[0x01, 0x3E][..], &[0x40, 0, 0][..]] {
            let mut ecu = IsoTpEndpoint::new(rsp, req);
            ecu.handle_frame(&frame(&[0x10, 20, 1, 2, 3, 4, 5, 6]), Micros::ZERO)
                .unwrap();
            assert!(ecu.is_active());
            let _ = ecu.handle_frame(&frame(interruption), Micros::ZERO);
            assert_eq!(
                ecu.handle_frame(&frame(&[0x21, 7, 8, 9, 10, 11, 12, 13]), Micros::ZERO),
                Err(TransportError::UnexpectedFrame {
                    kind: "consecutive",
                    state: "idle receiver"
                })
            );
            let _ = ecu.outgoing(Micros::ZERO);
            assert!(!ecu.is_active());
        }
    }
}
