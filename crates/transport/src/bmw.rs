//! The raw ECU-id-prefix scheme observed on BMW and Mini Cooper.
//!
//! The paper (§3.2, Step 2) observes: *"some vehicles like BMW and Mini
//! Cooper do not directly adopt the ISO 15765-2 protocol. Instead, the first
//! byte of each CAN frame stores the ID of the target ECU. The remaining
//! bytes are the payload of the diagnostic message. [...] we ignore the
//! first byte and put the remaining bytes together."*
//!
//! The paper does not publish how message boundaries are recovered; real
//! BMW diagnostics prepend a one-byte length to the application payload
//! (as in the classic DS2/ediabas framing). We adopt that convention —
//! **substitution note**: the payload carried after the ECU-id byte starts
//! with a single length byte covering the application message, which is what
//! lets both the live endpoint and the offline decoder delimit messages
//! while still exercising the paper's "strip the first byte and
//! concatenate" code path.

use std::collections::VecDeque;

use dpr_can::{CanFrame, CanId, Micros};

use crate::{Endpoint, OutgoingFrame, TransportError};

/// Payload bytes per frame (8 minus the ECU-id byte).
pub const CHUNK: usize = 7;
/// Maximum application payload (one length byte).
pub const MAX_BMW_PAYLOAD: usize = 255;

/// A live endpoint for the BMW raw scheme.
///
/// Both directions run on fixed CAN ids; every frame starts with the target
/// ECU address. There is no flow control — frames are paced by a fixed
/// inter-frame gap.
#[derive(Debug)]
pub struct BmwRawEndpoint {
    tx_id: CanId,
    rx_id: CanId,
    /// ECU address written into byte 0 of outgoing frames.
    peer_addr: u8,
    /// ECU address expected in byte 0 of incoming frames.
    own_addr: u8,
    out_queue: Vec<OutgoingFrame>,
    decoder: BmwStreamDecoder,
    /// Earliest time the next outgoing frame may be scheduled, so that
    /// back-to-back messages never interleave on the bus.
    next_slot: Micros,
}

impl BmwRawEndpoint {
    /// Creates an endpoint that transmits to `peer_addr` on `tx_id` and
    /// accepts frames addressed to `own_addr` on `rx_id`.
    pub fn new(tx_id: CanId, rx_id: CanId, peer_addr: u8, own_addr: u8) -> Self {
        BmwRawEndpoint {
            tx_id,
            rx_id,
            peer_addr,
            own_addr,
            out_queue: Vec::new(),
            decoder: BmwStreamDecoder::new(),
            next_slot: Micros::ZERO,
        }
    }

    /// The identifier this endpoint transmits on.
    pub fn tx_id(&self) -> CanId {
        self.tx_id
    }
}

impl Endpoint for BmwRawEndpoint {
    fn send(&mut self, payload: &[u8], now: Micros) -> Result<(), TransportError> {
        if payload.is_empty() {
            return Err(TransportError::EmptyPayload);
        }
        if payload.len() > MAX_BMW_PAYLOAD {
            return Err(TransportError::PayloadTooLarge {
                len: payload.len(),
                max: MAX_BMW_PAYLOAD,
            });
        }
        // Length-prefixed application payload, chunked into 7-byte slices.
        let mut framed = Vec::with_capacity(payload.len() + 1);
        framed.push(payload.len() as u8);
        framed.extend_from_slice(payload);

        let mut at = now.max(self.next_slot);
        for chunk in framed.chunks(CHUNK) {
            let mut data = Vec::with_capacity(chunk.len() + 1);
            data.push(self.peer_addr);
            data.extend_from_slice(chunk);
            self.out_queue.push(OutgoingFrame {
                ready_at: at,
                frame: CanFrame::new(self.tx_id, &data).expect("chunk fits 8 bytes"),
            });
            at += Micros::from_micros(500);
        }
        self.next_slot = at;
        Ok(())
    }

    fn handle_frame(&mut self, frame: &CanFrame, _now: Micros) -> Result<(), TransportError> {
        if frame.id() != self.rx_id {
            return Ok(());
        }
        if frame.data().first() != Some(&self.own_addr) {
            return Ok(());
        }
        self.decoder.push(frame.data());
        Ok(())
    }

    fn outgoing(&mut self, _now: Micros) -> Vec<OutgoingFrame> {
        std::mem::take(&mut self.out_queue)
    }

    fn receive(&mut self) -> Option<Vec<u8>> {
        self.decoder.pop()
    }

    fn is_active(&self) -> bool {
        !self.out_queue.is_empty() || self.decoder.in_progress()
    }
}

/// Offline reassembly for the BMW raw scheme: strip byte 0 of every frame
/// and concatenate, delimiting messages by the leading length byte.
#[derive(Debug, Default)]
pub struct BmwStreamDecoder {
    buf: Vec<u8>,
    expected: Option<usize>,
    complete: VecDeque<Vec<u8>>,
}

impl BmwStreamDecoder {
    /// Creates an idle decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the data bytes of one sniffed frame (including the ECU-id
    /// byte, which is ignored per the paper).
    pub fn push(&mut self, data: &[u8]) {
        if data.len() < 2 {
            return;
        }
        let mut chunk = &data[1..];
        while !chunk.is_empty() {
            match self.expected {
                None => {
                    let len = usize::from(chunk[0]);
                    chunk = &chunk[1..];
                    if len == 0 {
                        continue;
                    }
                    self.expected = Some(len);
                    self.buf.clear();
                }
                Some(len) => {
                    let take = (len - self.buf.len()).min(chunk.len());
                    self.buf.extend_from_slice(&chunk[..take]);
                    chunk = &chunk[take..];
                    if self.buf.len() == len {
                        self.complete.push_back(std::mem::take(&mut self.buf));
                        self.expected = None;
                        // Anything after the message in this frame is
                        // padding; stop scanning the chunk.
                        break;
                    }
                }
            }
        }
    }

    /// Pops the next completed payload.
    pub fn pop(&mut self) -> Option<Vec<u8>> {
        self.complete.pop_front()
    }

    /// Drains all completed payloads.
    pub fn drain(&mut self) -> Vec<Vec<u8>> {
        self.complete.drain(..).collect()
    }

    /// Whether a message is partially assembled.
    pub fn in_progress(&self) -> bool {
        self.expected.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pump;
    use dpr_can::CanBus;

    fn pair() -> (BmwRawEndpoint, BmwRawEndpoint) {
        let tool_tx = CanId::standard(0x6F1).unwrap();
        let ecu_tx = CanId::standard(0x640).unwrap();
        (
            BmwRawEndpoint::new(tool_tx, ecu_tx, 0x40, 0xF1),
            BmwRawEndpoint::new(ecu_tx, tool_tx, 0xF1, 0x40),
        )
    }

    fn round_trip(payload: &[u8]) -> (Vec<u8>, usize) {
        let (mut tool, mut ecu) = pair();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        tool.send(payload, Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        (ecu.receive().expect("message should arrive"), bus.log().len())
    }

    #[test]
    fn short_payload_single_frame() {
        let (got, frames) = round_trip(&[0x22, 0xDB, 0xE5]);
        assert_eq!(got, vec![0x22, 0xDB, 0xE5]);
        assert_eq!(frames, 1);
    }

    #[test]
    fn long_payload_spans_frames() {
        let payload: Vec<u8> = (0..50).collect();
        let (got, frames) = round_trip(&payload);
        assert_eq!(got, payload);
        // 51 framed bytes / 7 per frame = 8 frames.
        assert_eq!(frames, 8);
    }

    #[test]
    fn max_payload_round_trips() {
        let payload = vec![7u8; MAX_BMW_PAYLOAD];
        let (got, _) = round_trip(&payload);
        assert_eq!(got.len(), MAX_BMW_PAYLOAD);
    }

    #[test]
    fn rejects_bad_sizes() {
        let (mut tool, _) = pair();
        assert_eq!(tool.send(&[], Micros::ZERO), Err(TransportError::EmptyPayload));
        assert_eq!(
            tool.send(&[0; 256], Micros::ZERO),
            Err(TransportError::PayloadTooLarge { len: 256, max: 255 })
        );
    }

    #[test]
    fn frames_to_other_addresses_ignored() {
        let (_, mut ecu) = pair();
        // Addressed to 0x99, not 0x40.
        let frame = CanFrame::new(CanId::standard(0x6F1).unwrap(), &[0x99, 2, 1, 2]).unwrap();
        ecu.handle_frame(&frame, Micros::ZERO).unwrap();
        assert!(ecu.receive().is_none());
    }

    #[test]
    fn two_messages_back_to_back() {
        let (mut tool, mut ecu) = pair();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        tool.send(&[1, 2, 3], Micros::ZERO).unwrap();
        tool.send(&[9, 8], Micros::from_millis(1)).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        assert_eq!(ecu.receive(), Some(vec![1, 2, 3]));
        assert_eq!(ecu.receive(), Some(vec![9, 8]));
    }

    #[test]
    fn decoder_strips_ecu_id_byte() {
        let mut dec = BmwStreamDecoder::new();
        dec.push(&[0x12, 3, 0x22, 0xDE]); // len 3, first two bytes
        assert!(dec.in_progress());
        dec.push(&[0x12, 0x9C]);
        assert_eq!(dec.pop(), Some(vec![0x22, 0xDE, 0x9C]));
    }

    #[test]
    fn decoder_ignores_runt_frames() {
        let mut dec = BmwStreamDecoder::new();
        dec.push(&[0x12]);
        dec.push(&[]);
        assert!(dec.pop().is_none());
        assert!(!dec.in_progress());
    }
}
