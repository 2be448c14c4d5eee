//! Property-based tests: any payload survives segmentation + reassembly on
//! every transport scheme, both through live endpoints and through the
//! offline stream decoders the sniffer pipeline uses.

use dpr_can::{CanBus, CanFrame, CanId, Micros};
use dpr_transport::bmw::{BmwRawEndpoint, BmwStreamDecoder};
use dpr_transport::isotp::{IsoTpConfig, IsoTpEndpoint, IsoTpStreamDecoder, StMin};
use dpr_transport::vwtp::{VwTpEndpoint, VwTpStreamDecoder};
use dpr_transport::{pump, Endpoint};
use proptest::prelude::*;

fn payload_strategy(max: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 1..=max)
}

/// Frame bytes biased towards ISO-TP: arbitrary bytes mixed with
/// well-formed SFs, short FFs and CFs with low sequence numbers, so that
/// interrupted and resumed transfers are common.
fn isotp_frame_strategy() -> impl Strategy<Value = Vec<u8>> {
    let bytes = |n| proptest::collection::vec(any::<u8>(), n);
    prop_oneof![
        bytes(0..=8),
        (1u8..=7, bytes(7..=7)).prop_map(|(len, data)| {
            let mut frame = vec![len];
            frame.extend_from_slice(&data[..usize::from(len)]);
            frame
        }),
        (8u8..=20, bytes(6..=6)).prop_map(|(len, data)| [vec![0x10, len], data].concat()),
        (0u8..=2, bytes(7..=7)).prop_map(|(seq, data)| [vec![0x20 | seq], data].concat()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ISO-TP round trip + sniffer decode agree with the original payload
    /// for arbitrary payloads and arbitrary receiver flow-control tuning.
    #[test]
    fn isotp_round_trip(
        payload in payload_strategy(600),
        block_size in 0u8..=16,
        st_min_ms in 0u8..=3,
    ) {
        let req = CanId::standard(0x7E0).unwrap();
        let rsp = CanId::standard(0x7E8).unwrap();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        let mut tool = IsoTpEndpoint::new(req, rsp);
        let mut ecu = IsoTpEndpoint::with_config(
            rsp,
            req,
            IsoTpConfig {
                block_size,
                st_min: StMin::from_millis(st_min_ms),
                ..IsoTpConfig::default()
            },
        );
        tool.send(&payload, Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        let got = ecu.receive(); prop_assert_eq!(got.as_deref(), Some(&payload[..]));

        // The sniffer decoder sees the same payload from the capture.
        let mut decoder = IsoTpStreamDecoder::new();
        for entry in bus.log().frames_with_id(req) {
            decoder.push(entry.frame.data()).unwrap();
        }
        let dec = decoder.pop(); prop_assert_eq!(dec.as_deref(), Some(&payload[..]));
    }

    /// VW TP 2.0 round trip + opcode-driven sniffer decode.
    #[test]
    fn vwtp_round_trip(payloads in proptest::collection::vec(payload_strategy(120), 1..4)) {
        let tool_tx = CanId::standard(0x740).unwrap();
        let ecu_tx = CanId::standard(0x300).unwrap();
        let mut tool = VwTpEndpoint::initiator(tool_tx, ecu_tx, 0x01);
        let mut ecu = VwTpEndpoint::responder(ecu_tx, tool_tx, 0x01);
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");

        for p in &payloads {
            tool.send(p, bus.now()).unwrap();
            pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
            let got = ecu.receive(); prop_assert_eq!(got.as_deref(), Some(&p[..]));
        }

        let mut decoder = VwTpStreamDecoder::new();
        for entry in bus.log().frames_with_id(tool_tx) {
            decoder.push(entry.frame.data()).unwrap();
        }
        let decoded = decoder.drain();
        prop_assert_eq!(decoded, payloads);
    }

    /// BMW raw round trip + strip-and-concatenate sniffer decode.
    #[test]
    fn bmw_round_trip(payloads in proptest::collection::vec(payload_strategy(255), 1..4)) {
        let tool_tx = CanId::standard(0x6F1).unwrap();
        let ecu_tx = CanId::standard(0x640).unwrap();
        let mut tool = BmwRawEndpoint::new(tool_tx, ecu_tx, 0x40, 0xF1);
        let mut ecu = BmwRawEndpoint::new(ecu_tx, tool_tx, 0xF1, 0x40);
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");

        for p in &payloads {
            tool.send(p, bus.now()).unwrap();
        }
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        for p in &payloads {
            let got = ecu.receive(); prop_assert_eq!(got.as_deref(), Some(&p[..]));
        }

        let mut decoder = BmwStreamDecoder::new();
        for entry in bus.log().frames_with_id(tool_tx) {
            decoder.push(entry.frame.data());
        }
        let decoded = decoder.drain();
        prop_assert_eq!(decoded, payloads);
    }

    /// The ISO-TP stream decoder never panics on arbitrary frame bytes,
    /// and a live endpoint fed the same frames on its `rx_id` receives
    /// exactly the payloads the sniffer reassembles.
    #[test]
    fn isotp_decoder_total(frames in proptest::collection::vec(isotp_frame_strategy(), 0..64)) {
        let rx = CanId::standard(0x7E0).unwrap();
        let mut decoder = IsoTpStreamDecoder::new();
        let mut live = IsoTpEndpoint::new(CanId::standard(0x7E8).unwrap(), rx);
        let mut received = Vec::new();
        for f in &frames {
            let _ = decoder.push(f);
            let _ = live.handle_frame(&CanFrame::new(rx, f).unwrap(), Micros::ZERO);
            received.extend(std::iter::from_fn(|| live.receive()));
        }
        prop_assert_eq!(received, decoder.drain());
    }

    /// The VW TP and BMW stream decoders, and a live VW TP endpoint, never
    /// panic on arbitrary bytes.
    #[test]
    fn other_decoders_total(frames in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..=8), 0..64)
    ) {
        let rx = CanId::standard(0x740).unwrap();
        let mut vw = VwTpStreamDecoder::new();
        let mut bmw = BmwStreamDecoder::new();
        let mut live = VwTpEndpoint::responder(CanId::standard(0x300).unwrap(), rx, 0x01);
        for f in &frames {
            let _ = vw.push(f);
            bmw.push(f);
            let _ = live.handle_frame(&CanFrame::new(rx, f).unwrap(), Micros::ZERO);
            let _ = live.receive();
        }
        let _ = vw.drain();
        let _ = bmw.drain();
    }
}
