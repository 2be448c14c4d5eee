//! VW TP 2.0, the Volkswagen-group transport protocol.
//!
//! VW TP 2.0 carries KWP 2000 on Volkswagen-group vehicles (the paper's
//! Cars B and C). Unlike ISO-TP it is channel-oriented:
//!
//! 1. the tester broadcasts a **channel setup** request on id `0x200`
//!    naming the destination ECU; the ECU answers with the CAN ids the data
//!    channel will use;
//! 2. both sides exchange **channel parameters** (timing, block size);
//! 3. **data-transmission frames** carry the payload. Byte 0 packs a 4-bit
//!    opcode and a 4-bit sequence number. Crucially for the paper's Step 2,
//!    data frames carry *no length field* — the opcode alone
//!    (`0x1`/`0x3` = "last frame") marks message boundaries, so the sniffer
//!    must concatenate chunks until it sees a last-frame opcode;
//! 4. the receiver acknowledges blocks with **ACK** frames.
//!
//! The paper's screening step removes broadcast, channel-setup, and
//! channel-parameter frames and keeps only data-transmission frames; the
//! [`VwTpStreamDecoder`] here implements exactly the opcode-driven
//! reassembly the paper describes.

use std::collections::VecDeque;

use dpr_can::{CanFrame, CanId, Micros};
use serde::{Deserialize, Serialize};

use crate::{Endpoint, OutgoingFrame, TransportError};

/// The broadcast identifier used for channel setup requests.
pub const SETUP_BROADCAST_ID: u16 = 0x200;
/// Payload bytes per data frame (8 minus the opcode/sequence byte).
pub const DATA_CHUNK: usize = 7;
/// Maximum payload we accept for one message (generous; VW TP has no
/// intrinsic 12-bit limit like ISO-TP).
pub const MAX_VWTP_PAYLOAD: usize = 16 * 1024;
/// How many data frames the sender emits before expecting an ACK.
pub const ACK_INTERVAL: u8 = 4;

/// High-nibble opcodes of VW TP 2.0 frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VwOpcode {
    /// More data follows; an ACK is expected after this frame.
    DataExpectAck,
    /// Last frame of the message; an ACK is expected.
    DataLastExpectAck,
    /// More data follows; no ACK expected.
    Data,
    /// Last frame of the message; no ACK expected.
    DataLast,
    /// Acknowledgement, ready for more.
    Ack,
    /// Acknowledgement, not ready (sender must pause).
    AckNotReady,
    /// Channel setup request (sent on the broadcast id).
    ChannelSetupRequest,
    /// Positive channel setup response.
    ChannelSetupResponse,
    /// Channel parameters request.
    ParamsRequest,
    /// Channel parameters response.
    ParamsResponse,
    /// Channel test (keep-alive).
    ChannelTest,
    /// Disconnect.
    Disconnect,
}

impl VwOpcode {
    /// Parses the first byte of a VW TP 2.0 frame into its opcode.
    pub fn from_first_byte(b: u8) -> Option<VwOpcode> {
        match b >> 4 {
            0x0 => Some(VwOpcode::DataExpectAck),
            0x1 => Some(VwOpcode::DataLastExpectAck),
            0x2 => Some(VwOpcode::Data),
            0x3 => Some(VwOpcode::DataLast),
            0x9 => Some(VwOpcode::Ack),
            0xB => Some(VwOpcode::AckNotReady),
            0xA => match b {
                0xA0 => Some(VwOpcode::ParamsRequest),
                0xA1 => Some(VwOpcode::ParamsResponse),
                0xA3 => Some(VwOpcode::ChannelTest),
                0xA8 => Some(VwOpcode::Disconnect),
                _ => None,
            },
            0xC => Some(VwOpcode::ChannelSetupRequest),
            0xD => Some(VwOpcode::ChannelSetupResponse),
            _ => None,
        }
    }

    /// Whether the frame carries message payload (the only kind the paper's
    /// screening step keeps).
    pub fn is_data(self) -> bool {
        matches!(
            self,
            VwOpcode::DataExpectAck
                | VwOpcode::DataLastExpectAck
                | VwOpcode::Data
                | VwOpcode::DataLast
        )
    }

    /// Whether a data frame with this opcode ends its message.
    pub fn is_last(self) -> bool {
        matches!(self, VwOpcode::DataLastExpectAck | VwOpcode::DataLast)
    }

    /// Whether the sender expects an ACK after this data frame.
    pub fn expects_ack(self) -> bool {
        matches!(self, VwOpcode::DataExpectAck | VwOpcode::DataLastExpectAck)
    }
}

/// Classifies a sniffed frame for the screening step.
///
/// Returns `None` for frames that do not parse as VW TP 2.0 at all.
pub fn classify(frame: &CanFrame) -> Option<VwOpcode> {
    if frame.id().raw() == u32::from(SETUP_BROADCAST_ID) {
        return Some(VwOpcode::ChannelSetupRequest);
    }
    frame.data().first().and_then(|&b| VwOpcode::from_first_byte(b))
}

#[derive(Debug)]
enum ChannelState {
    /// No channel; the initiator must set one up.
    Closed,
    /// Setup request sent, waiting for the response.
    SettingUp,
    /// Channel established; data may flow.
    Open,
}

#[derive(Debug)]
struct SendJob {
    payload: Vec<u8>,
    offset: usize,
    awaiting_ack: bool,
}

/// A live VW TP 2.0 endpoint.
///
/// The *initiator* side (the diagnostic tool) performs channel setup on
/// first send; the *responder* side (the ECU) answers it. Data frames are
/// paced by [`ACK_INTERVAL`]-sized blocks.
///
/// Incoming data frames are reassembled by a [`VwTpStreamDecoder`], the
/// sniffer's; the endpoint adds the channel duties a sniffer lacks —
/// checking each data frame's sequence number and sending the ACKs.
#[derive(Debug)]
pub struct VwTpEndpoint {
    tx_id: CanId,
    rx_id: CanId,
    ecu_addr: u8,
    initiator: bool,
    state: ChannelState,
    tx_seq: u8,
    rx_seq: u8,
    job: Option<SendJob>,
    recv: VwTpStreamDecoder,
    out_queue: Vec<OutgoingFrame>,
}

impl VwTpEndpoint {
    /// Creates the initiator (tester) side for a channel to `ecu_addr`.
    pub fn initiator(tx_id: CanId, rx_id: CanId, ecu_addr: u8) -> Self {
        Self::new_inner(tx_id, rx_id, ecu_addr, true)
    }

    /// Creates the responder (ECU) side.
    pub fn responder(tx_id: CanId, rx_id: CanId, ecu_addr: u8) -> Self {
        Self::new_inner(tx_id, rx_id, ecu_addr, false)
    }

    fn new_inner(tx_id: CanId, rx_id: CanId, ecu_addr: u8, initiator: bool) -> Self {
        VwTpEndpoint {
            tx_id,
            rx_id,
            ecu_addr,
            initiator,
            state: ChannelState::Closed,
            tx_seq: 0,
            rx_seq: 0,
            job: None,
            recv: VwTpStreamDecoder::new(),
            out_queue: Vec::new(),
        }
    }

    /// The identifier this endpoint transmits on.
    pub fn tx_id(&self) -> CanId {
        self.tx_id
    }

    /// Whether the data channel is established.
    pub fn is_open(&self) -> bool {
        matches!(self.state, ChannelState::Open)
    }

    fn queue_raw(&mut self, ready_at: Micros, id: CanId, data: &[u8]) {
        self.out_queue.push(OutgoingFrame {
            ready_at,
            frame: CanFrame::new(id, data).expect("vwtp frames fit 8 bytes"),
        });
    }

    /// Emits data frames until the next ACK boundary or end of message.
    fn emit_data(&mut self, now: Micros) {
        let Some(mut job) = self.job.take() else {
            return;
        };
        if job.awaiting_ack {
            self.job = Some(job);
            return;
        }
        let mut sent = 0u8;
        let mut at = now;
        loop {
            let end = (job.offset + DATA_CHUNK).min(job.payload.len());
            let is_last = end == job.payload.len();
            sent += 1;
            let expects_ack = is_last || sent == ACK_INTERVAL;
            let op: u8 = match (is_last, expects_ack) {
                (true, true) => 0x1,
                (true, false) => 0x3,
                (false, true) => 0x0,
                (false, false) => 0x2,
            };
            let mut data = vec![(op << 4) | (self.tx_seq & 0x0F)];
            data.extend_from_slice(&job.payload[job.offset..end]);
            let id = self.tx_id;
            self.queue_raw(at, id, &data);
            self.tx_seq = (self.tx_seq + 1) & 0x0F;
            job.offset = end;
            at += Micros::from_micros(500);
            if is_last {
                self.job = None;
                return;
            }
            if expects_ack {
                job.awaiting_ack = true;
                self.job = Some(job);
                return;
            }
        }
    }

    fn handle_data(&mut self, op: VwOpcode, data: &[u8], now: Micros) -> Result<(), TransportError> {
        let seq = data[0] & 0x0F;
        if seq != self.rx_seq {
            return Err(TransportError::SequenceMismatch {
                expected: self.rx_seq,
                got: seq,
            });
        }
        self.rx_seq = (self.rx_seq + 1) & 0x0F;
        self.recv.push(data)?;
        if op.expects_ack() {
            // ACK carries the next expected sequence number.
            let ack = [(0x9u8 << 4) | (self.rx_seq & 0x0F)];
            let id = self.tx_id;
            self.queue_raw(now, id, &ack);
        }
        Ok(())
    }
}

impl Endpoint for VwTpEndpoint {
    fn send(&mut self, payload: &[u8], now: Micros) -> Result<(), TransportError> {
        if payload.is_empty() {
            return Err(TransportError::EmptyPayload);
        }
        if payload.len() > MAX_VWTP_PAYLOAD {
            return Err(TransportError::PayloadTooLarge {
                len: payload.len(),
                max: MAX_VWTP_PAYLOAD,
            });
        }
        if self.job.is_some() {
            return Err(TransportError::Busy);
        }
        self.job = Some(SendJob {
            payload: payload.to_vec(),
            offset: 0,
            awaiting_ack: false,
        });
        match self.state {
            ChannelState::Open => self.emit_data(now),
            ChannelState::Closed if self.initiator => {
                // Channel setup request on the broadcast id: destination
                // ECU address, opcode 0xC0, then the ids we will listen on.
                let setup = [
                    self.ecu_addr,
                    0xC0,
                    (self.rx_id.raw() & 0xFF) as u8,
                    ((self.rx_id.raw() >> 8) & 0x07) as u8,
                    (self.tx_id.raw() & 0xFF) as u8,
                    ((self.tx_id.raw() >> 8) & 0x07) as u8,
                    0x01,
                ];
                let id = CanId::standard(SETUP_BROADCAST_ID).expect("0x200 is a valid standard id");
                self.queue_raw(now, id, &setup);
                self.state = ChannelState::SettingUp;
            }
            ChannelState::Closed => return Err(TransportError::ChannelNotOpen),
            ChannelState::SettingUp => {}
        }
        Ok(())
    }

    fn handle_frame(&mut self, frame: &CanFrame, now: Micros) -> Result<(), TransportError> {
        // The responder watches the broadcast id for setup requests that
        // name its ECU address.
        if !self.initiator
            && frame.id().raw() == u32::from(SETUP_BROADCAST_ID)
            && frame.data().first() == Some(&self.ecu_addr)
            && frame.data().get(1) == Some(&0xC0)
        {
            let response = [
                0xD0,
                (self.rx_id.raw() & 0xFF) as u8,
                ((self.rx_id.raw() >> 8) & 0x07) as u8,
                (self.tx_id.raw() & 0xFF) as u8,
                ((self.tx_id.raw() >> 8) & 0x07) as u8,
                0x01,
            ];
            let id = self.tx_id;
            self.queue_raw(now, id, &response);
            self.state = ChannelState::Open;
            self.tx_seq = 0;
            self.rx_seq = 0;
            return Ok(());
        }
        if frame.id() != self.rx_id {
            return Ok(());
        }
        let Some(&first) = frame.data().first() else {
            return Err(TransportError::MalformedFrame("empty VW TP frame".into()));
        };
        let Some(op) = VwOpcode::from_first_byte(first) else {
            return Err(TransportError::MalformedFrame(format!(
                "unknown VW TP opcode byte {first:#04x}"
            )));
        };
        match op {
            VwOpcode::ChannelSetupResponse => {
                if matches!(self.state, ChannelState::SettingUp) {
                    self.state = ChannelState::Open;
                    self.tx_seq = 0;
                    self.rx_seq = 0;
                    self.emit_data(now);
                }
                Ok(())
            }
            VwOpcode::Ack => {
                if let Some(job) = &mut self.job {
                    job.awaiting_ack = false;
                }
                self.emit_data(now);
                Ok(())
            }
            VwOpcode::AckNotReady => Ok(()),
            VwOpcode::ParamsRequest => {
                let id = self.tx_id;
                self.queue_raw(now, id, &[0xA1, 0x0F, 0x8A, 0xFF, 0x32, 0xFF]);
                Ok(())
            }
            VwOpcode::ParamsResponse | VwOpcode::ChannelTest => Ok(()),
            VwOpcode::Disconnect => {
                self.state = ChannelState::Closed;
                Ok(())
            }
            VwOpcode::ChannelSetupRequest => Ok(()),
            data_op if data_op.is_data() => self.handle_data(data_op, frame.data(), now),
            _ => Ok(()),
        }
    }

    fn outgoing(&mut self, _now: Micros) -> Vec<OutgoingFrame> {
        std::mem::take(&mut self.out_queue)
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        self.recv.pop()
    }

    fn is_active(&self) -> bool {
        !self.out_queue.is_empty() || self.job.is_some() || self.recv.in_progress()
    }
}

/// Offline reassembly of one direction of VW TP 2.0 data traffic.
///
/// Implements the paper's observation verbatim: *"the data transmission
/// frames do not contain the data length fields. We check their opcodes to
/// determine if the current frame is the last frame or not."* Non-data
/// frames are ignored (screening removes them anyway).
///
/// With no length field, a stream of "more follows" frames never ends a
/// message. A message that would grow past [`MAX_VWTP_PAYLOAD`] is
/// dropped: the buffer is cleared, one `transport.vwtp.reject.overflow` is
/// counted, and the rest of that message, up to its last frame, is
/// discarded.
///
/// [`VwTpEndpoint`] receives through this decoder as well, so live and
/// offline reassembly are one code path.
#[derive(Debug, Default)]
pub struct VwTpStreamDecoder {
    assembling: Vec<u8>,
    /// Discarding the remainder of an over-long message.
    overflowed: bool,
    complete: VecDeque<Vec<u8>>,
}

impl VwTpStreamDecoder {
    /// Creates an idle decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the data bytes of one sniffed frame from the watched direction.
    ///
    /// # Errors
    ///
    /// Says why a frame was refused: [`TransportError::MalformedFrame`]
    /// for an unknown opcode, and [`TransportError::Overflow`] for the
    /// frame that pushed a message past [`MAX_VWTP_PAYLOAD`]. The decoder
    /// stays usable either way, so a sniffer may ignore it.
    pub fn push(&mut self, data: &[u8]) -> Result<(), TransportError> {
        let Some(&first) = data.first() else {
            return Ok(());
        };
        let Some(op) = VwOpcode::from_first_byte(first) else {
            crate::reject("vwtp", "malformed_frame");
            return Err(TransportError::MalformedFrame(format!(
                "unknown VW TP opcode byte {first:#04x}"
            )));
        };
        if !op.is_data() {
            return Ok(());
        }
        if self.overflowed {
            self.overflowed = !op.is_last();
            return Ok(());
        }
        let chunk = &data[1..];
        if self.assembling.len() + chunk.len() > MAX_VWTP_PAYLOAD {
            self.assembling.clear();
            crate::reject("vwtp", "overflow");
            self.overflowed = !op.is_last();
            return Err(TransportError::Overflow);
        }
        self.assembling.extend_from_slice(chunk);
        if op.is_last() {
            dpr_telemetry::counter("transport.vwtp.reassembled").inc(1);
            dpr_telemetry::histogram("transport.vwtp.sdu_bytes").record(self.assembling.len() as f64);
            self.complete.push_back(std::mem::take(&mut self.assembling));
        }
        Ok(())
    }

    /// Pops the next completed payload.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        self.complete.pop_front()
    }

    /// Drains all completed payloads.
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        self.complete.drain(..).collect()
    }

    /// Whether the decoder holds a partial message ("needs to wait for the
    /// next frames" in the paper's Tab. 9 terminology).
    pub fn in_progress(&self) -> bool {
        !self.assembling.is_empty() || self.overflowed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pump;
    use dpr_can::CanBus;

    fn channel() -> (VwTpEndpoint, VwTpEndpoint) {
        let tool_tx = CanId::standard(0x740).unwrap();
        let ecu_tx = CanId::standard(0x300).unwrap();
        (
            VwTpEndpoint::initiator(tool_tx, ecu_tx, 0x01),
            VwTpEndpoint::responder(ecu_tx, tool_tx, 0x01),
        )
    }

    fn round_trip(payload: &[u8]) -> (Vec<u8>, dpr_can::BusLog) {
        let (mut tool, mut ecu) = channel();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        tool.send(payload, Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        let got = ecu.receive().expect("payload should arrive");
        (got, bus.into_log())
    }

    #[test]
    fn setup_then_short_payload() {
        let (got, log) = round_trip(&[0x21, 0x07]);
        assert_eq!(got, vec![0x21, 0x07]);
        // setup req + setup rsp + 1 data frame + 1 ack
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn long_payload_spans_blocks_with_acks() {
        let payload: Vec<u8> = (0..100).collect();
        let (got, log) = round_trip(&payload);
        assert_eq!(got, payload);
        // 100 bytes → 15 data frames; ACK every 4th + final.
        let data_frames = log
            .iter()
            .filter(|e| {
                classify(&e.frame).is_some_and(|op| op.is_data())
            })
            .count();
        assert_eq!(data_frames, 15);
    }

    #[test]
    fn channel_reused_for_second_message() {
        let (mut tool, mut ecu) = channel();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        tool.send(&[1, 2, 3], Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        assert_eq!(ecu.receive(), Some(vec![1, 2, 3]));
        let frames_after_first = bus.log().len();

        tool.send(&[4, 5], bus.now()).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        assert_eq!(ecu.receive(), Some(vec![4, 5]));
        // No second channel setup: only data + ack added.
        assert_eq!(bus.log().len(), frames_after_first + 2);
    }

    #[test]
    fn responder_can_reply() {
        let (mut tool, mut ecu) = channel();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        tool.send(&[0x21, 0x07], Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        assert!(ecu.receive().is_some());

        // ECU responds over the now-open channel.
        let response: Vec<u8> = (0..30).collect();
        ecu.send(&response, bus.now()).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        assert_eq!(tool.receive(), Some(response));
    }

    #[test]
    fn responder_cannot_send_without_channel() {
        let (_, mut ecu) = channel();
        assert_eq!(
            ecu.send(&[1], Micros::ZERO),
            Err(TransportError::ChannelNotOpen)
        );
    }

    #[test]
    fn stream_decoder_uses_opcode_for_boundaries() {
        let payload: Vec<u8> = (0..40).collect();
        let (_, log) = round_trip(&payload);
        let tool_tx = CanId::standard(0x740).unwrap();
        let mut decoder = VwTpStreamDecoder::new();
        for entry in log.frames_with_id(tool_tx) {
            decoder.push(entry.frame.data()).unwrap();
        }
        assert_eq!(decoder.pop(), Some(payload));
        assert!(!decoder.in_progress());
    }

    #[test]
    fn decoder_ignores_control_frames() {
        let mut decoder = VwTpStreamDecoder::new();
        decoder.push(&[0xA0, 0x0F, 0x8A, 0xFF, 0x32, 0xFF]).unwrap(); // params
        decoder.push(&[0x91]).unwrap(); // ack
        decoder.push(&[0x30, 0xDE, 0xAD]).unwrap(); // data last, no ack
        assert_eq!(decoder.pop(), Some(vec![0xDE, 0xAD]));
    }

    #[test]
    fn stream_decoder_bounds_a_more_follows_flood() {
        let registry = std::sync::Arc::new(dpr_telemetry::Registry::new());
        let popped = dpr_telemetry::scoped(std::sync::Arc::clone(&registry), || {
            let mut decoder = VwTpStreamDecoder::new();
            // 20 000 "more follows" frames of 7 bytes: 140 kB, never ended
            // by a length field, then the flooded message's last frame.
            let mut overflows = 0;
            for seq in 0..20_000u32 {
                let pushed = decoder.push(&[0x20 | (seq & 0x0F) as u8, 1, 2, 3, 4, 5, 6, 7]);
                if pushed == Err(TransportError::Overflow) {
                    overflows += 1;
                }
                assert!(decoder.assembling.len() <= MAX_VWTP_PAYLOAD);
            }
            assert_eq!(overflows, 1, "only the frame that overflowed is refused");
            decoder.push(&[0x30, 8]).unwrap();
            assert!(decoder.pop().is_none(), "the flooded message is dropped");
            assert!(!decoder.in_progress());
            // The next clean message reassembles untouched.
            decoder.push(&[0x20, 0x61, 0x01]).unwrap();
            decoder.push(&[0x31, 0x2A]).unwrap();
            decoder.pop()
        });
        assert_eq!(popped, Some(vec![0x61, 0x01, 0x2A]));
        let counters = registry.snapshot().counters;
        assert_eq!(counters.get("transport.vwtp.reject.overflow"), Some(&1));
    }

    /// The live endpoint reassembles through the same decoder: an
    /// over-long "more follows" run is refused once with `Overflow`, the
    /// rest of it is discarded up to its last frame — no truncated tail
    /// is delivered — and the next message arrives clean.
    #[test]
    fn live_receiver_discards_an_overflowed_message() {
        let (_, mut ecu) = channel();
        let setup = CanFrame::new(
            CanId::standard(SETUP_BROADCAST_ID).unwrap(),
            &[0x01, 0xC0, 0x00, 0x03, 0x40, 0x07, 0x01],
        )
        .unwrap();
        ecu.handle_frame(&setup, Micros::ZERO).unwrap();
        assert!(ecu.is_open());
        let tool_tx = CanId::standard(0x740).unwrap();
        let mut seq = 0u8;
        let mut feed = |ecu: &mut VwTpEndpoint, op: u8, chunk: &[u8]| {
            let mut data = vec![(op << 4) | seq];
            data.extend_from_slice(chunk);
            seq = (seq + 1) & 0x0F;
            ecu.handle_frame(&CanFrame::new(tool_tx, &data).unwrap(), Micros::ZERO)
        };
        let frames = MAX_VWTP_PAYLOAD / DATA_CHUNK + 10;
        let errors: Vec<_> = (0..frames)
            .filter_map(|_| feed(&mut ecu, 0x2, &[0xEE; DATA_CHUNK]).err())
            .collect();
        assert_eq!(errors, vec![TransportError::Overflow]);
        feed(&mut ecu, 0x3, &[0xEE]).unwrap();
        assert_eq!(ecu.receive(), None, "no truncated tail is delivered");
        let _ = ecu.outgoing(Micros::ZERO);
        assert!(!ecu.is_active(), "nothing of the flood is held");

        feed(&mut ecu, 0x2, &[0x21, 0x07]).unwrap();
        feed(&mut ecu, 0x1, &[0x2A]).unwrap();
        assert_eq!(ecu.receive(), Some(vec![0x21, 0x07, 0x2A]));
        assert_eq!(ecu.receive(), None);
    }

    #[test]
    fn opcode_classification() {
        assert_eq!(VwOpcode::from_first_byte(0x05), Some(VwOpcode::DataExpectAck));
        assert_eq!(VwOpcode::from_first_byte(0x1F), Some(VwOpcode::DataLastExpectAck));
        assert_eq!(VwOpcode::from_first_byte(0x23), Some(VwOpcode::Data));
        assert_eq!(VwOpcode::from_first_byte(0x3A), Some(VwOpcode::DataLast));
        assert_eq!(VwOpcode::from_first_byte(0x92), Some(VwOpcode::Ack));
        assert_eq!(VwOpcode::from_first_byte(0xA0), Some(VwOpcode::ParamsRequest));
        assert_eq!(VwOpcode::from_first_byte(0xC0), Some(VwOpcode::ChannelSetupRequest));
        assert_eq!(VwOpcode::from_first_byte(0x45), None);
        assert!(VwOpcode::Data.is_data());
        assert!(!VwOpcode::Data.is_last());
        assert!(VwOpcode::DataLastExpectAck.expects_ack());
    }

    #[test]
    fn sequence_mismatch_detected() {
        let (mut tool, mut ecu) = channel();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        tool.send(&[1], Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        ecu.receive().unwrap();

        // Inject a data frame with a bad sequence number directly.
        let bad = CanFrame::new(CanId::standard(0x740).unwrap(), &[0x17, 0xFF]).unwrap();
        let err = ecu.handle_frame(&bad, Micros::ZERO);
        assert_eq!(
            err,
            Err(TransportError::SequenceMismatch { expected: 1, got: 7 })
        );
    }
}
