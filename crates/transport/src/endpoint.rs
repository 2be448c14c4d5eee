//! The transport endpoint abstraction and the bus pump helper.

use dpr_can::{CanBus, CanFrame, Micros, NodeHandle};

use crate::TransportError;

/// A frame the endpoint wants to transmit, with the earliest logical time at
/// which it may contend for the bus (used to honour ISO-TP STmin pacing and
/// response delays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutgoingFrame {
    /// Earliest time the frame may be offered to the bus.
    pub ready_at: Micros,
    /// The frame itself.
    pub frame: CanFrame,
}

/// A transport endpoint: one side of a diagnostic conversation.
///
/// Endpoints are *sans-io* state machines — they never touch the bus
/// directly. The caller feeds incoming frames via
/// [`handle_frame`](Endpoint::handle_frame), drains frames to transmit via
/// [`outgoing`](Endpoint::outgoing), and collects reassembled messages via
/// [`receive`](Endpoint::receive). The [`pump`] helper wires endpoints to a
/// [`CanBus`] for simulations and tests.
pub trait Endpoint {
    /// Queues a complete diagnostic payload for segmentation and
    /// transmission starting no earlier than `now`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Busy`] if a previous transmission is still
    /// in flight, [`TransportError::PayloadTooLarge`] /
    /// [`TransportError::EmptyPayload`] for unrepresentable payloads.
    fn send(&mut self, payload: &[u8], now: Micros) -> Result<(), TransportError>;

    /// Feeds one frame received from the bus at time `now`.
    ///
    /// Frames not addressed to this endpoint are ignored silently.
    ///
    /// # Errors
    ///
    /// Returns a protocol error for malformed, out-of-sequence, or
    /// state-violating frames addressed to this endpoint.
    fn handle_frame(&mut self, frame: &CanFrame, now: Micros) -> Result<(), TransportError>;

    /// Drains frames that are ready (or will become ready) for transmission.
    fn outgoing(&mut self, now: Micros) -> Vec<OutgoingFrame>;

    /// Pops the next fully reassembled incoming payload, if any.
    fn receive(&mut self) -> Option<Vec<u8>>;

    /// Whether the endpoint still has work in flight (segments to send or a
    /// partially received message).
    fn is_active(&self) -> bool;
}

/// Drives a set of endpoints over a bus until the system is quiescent: no
/// endpoint has outgoing frames and the bus has nothing pending.
///
/// Each endpoint is paired with the bus node it transmits as. Returns the
/// logical time at which the system went quiescent.
///
/// # Errors
///
/// Propagates the first protocol error any endpoint raises.
pub fn pump(
    bus: &mut CanBus,
    endpoints: &mut [(NodeHandle, &mut dyn Endpoint)],
) -> Result<Micros, TransportError> {
    loop {
        let mut moved = false;
        let now = bus.now();
        for (node, ep) in endpoints.iter_mut() {
            for out in ep.outgoing(now) {
                bus.transmit(*node, out.frame, out.ready_at);
                moved = true;
            }
        }
        // Deliver exactly one frame per iteration so endpoints can react
        // (e.g. emit a flow-control frame) before the next arbitration
        // round.
        if let Some(entry) = bus.step() {
            moved = true;
            for (_, ep) in endpoints.iter_mut() {
                ep.handle_frame(&entry.frame, entry.at)?;
            }
        }
        if !moved && bus.pending_len() == 0 {
            // Endpoints emit frames eagerly (future pacing is expressed via
            // `ready_at`, not by withholding frames), so an idle bus plus no
            // drained frames means the whole system is quiescent.
            return Ok(bus.now());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_can::CanId;
    use std::collections::VecDeque;

    /// A trivial endpoint that sends each payload as one raw frame.
    struct RawEndpoint {
        tx: CanId,
        rx: CanId,
        queue: Vec<OutgoingFrame>,
        received: VecDeque<Vec<u8>>,
    }

    impl RawEndpoint {
        fn new(tx: CanId, rx: CanId) -> Self {
            RawEndpoint {
                tx,
                rx,
                queue: Vec::new(),
                received: VecDeque::new(),
            }
        }
    }

    impl Endpoint for RawEndpoint {
        fn send(&mut self, payload: &[u8], now: Micros) -> Result<(), TransportError> {
            if payload.is_empty() {
                return Err(TransportError::EmptyPayload);
            }
            if payload.len() > 8 {
                return Err(TransportError::PayloadTooLarge {
                    len: payload.len(),
                    max: 8,
                });
            }
            self.queue.push(OutgoingFrame {
                ready_at: now,
                frame: CanFrame::new(self.tx, payload).expect("checked length"),
            });
            Ok(())
        }

        fn handle_frame(&mut self, frame: &CanFrame, _now: Micros) -> Result<(), TransportError> {
            if frame.id() == self.rx {
                self.received.push_back(frame.data().to_vec());
            }
            Ok(())
        }

        fn outgoing(&mut self, _now: Micros) -> Vec<OutgoingFrame> {
            std::mem::take(&mut self.queue)
        }

        fn receive(&mut self) -> Option<Vec<u8>> {
            self.received.pop_front()
        }

        fn is_active(&self) -> bool {
            !self.queue.is_empty()
        }
    }

    #[test]
    fn pump_moves_payloads_between_endpoints() {
        let mut bus = CanBus::new();
        let na = bus.attach("a");
        let nb = bus.attach("b");
        let ida = CanId::standard(0x10).unwrap();
        let idb = CanId::standard(0x20).unwrap();
        let mut a = RawEndpoint::new(ida, idb);
        let mut b = RawEndpoint::new(idb, ida);

        a.send(&[1, 2, 3], Micros::ZERO).unwrap();
        b.send(&[9], Micros::ZERO).unwrap();
        let t = pump(&mut bus, &mut [(na, &mut a), (nb, &mut b)]).unwrap();

        assert!(t > Micros::ZERO);
        assert_eq!(b.receive(), Some(vec![1, 2, 3]));
        assert_eq!(a.receive(), Some(vec![9]));
        assert!(a.receive().is_none());
    }

    #[test]
    fn pump_is_quiescent_with_no_work() {
        let mut bus = CanBus::new();
        let na = bus.attach("a");
        let mut a = RawEndpoint::new(
            CanId::standard(1).unwrap(),
            CanId::standard(2).unwrap(),
        );
        let t = pump(&mut bus, &mut [(na, &mut a)]).unwrap();
        assert_eq!(t, Micros::ZERO);
    }
}
