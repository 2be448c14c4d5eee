//! Steps 1 and 2: screening frames and assembling payloads.

use std::collections::BTreeMap;

use dpr_can::{BusLog, CanId, Micros};
use dpr_transport::bmw::BmwStreamDecoder;
use dpr_transport::isotp::IsoTpFrame;
use dpr_transport::vwtp::{self, VwOpcode, VwTpStreamDecoder};
use serde::{Deserialize, Serialize};

use crate::extract::{extract_fields, Extraction};
use crate::stats::FrameStats;

/// Which transport scheme a capture (or an id within it) uses. The paper
/// lists knowledge of the transport standard as prerequisite domain
/// knowledge (§6, limitation 4); experiments pass the scheme of the car
/// under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// ISO 15765-2.
    IsoTp,
    /// VW TP 2.0.
    VwTp,
    /// The BMW/Mini raw ECU-id-prefix scheme.
    BmwRaw,
}

/// One reassembled diagnostic payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssembledMessage {
    /// Completion time (the timestamp of the frame that completed it).
    pub at: Micros,
    /// The CAN id the payload travelled on.
    pub id: CanId,
    /// The assembled application payload.
    pub payload: Vec<u8>,
}

/// The result of running the full frames analysis over a capture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaptureAnalysis {
    /// Reassembled payloads in completion order.
    pub messages: Vec<AssembledMessage>,
    /// Frame-kind tally (Tab. 9).
    pub stats: FrameStats,
    /// Step 3's extracted fields.
    pub extraction: Extraction,
}

enum AnyDecoder {
    IsoTp(dpr_transport::isotp::IsoTpStreamDecoder),
    VwTp(VwTpStreamDecoder),
    Bmw(BmwStreamDecoder),
}

impl AnyDecoder {
    fn new(scheme: Scheme) -> Self {
        match scheme {
            Scheme::IsoTp => AnyDecoder::IsoTp(Default::default()),
            Scheme::VwTp => AnyDecoder::VwTp(Default::default()),
            Scheme::BmwRaw => AnyDecoder::Bmw(Default::default()),
        }
    }

    /// Feeds one frame and drains the payloads it completed. A refused
    /// frame needs no handling here: the decoder has booked the reject
    /// and stays usable.
    fn push(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        match self {
            AnyDecoder::IsoTp(d) => {
                let _ = d.push(data);
                d.drain()
            }
            AnyDecoder::VwTp(d) => {
                let _ = d.push(data);
                d.drain()
            }
            AnyDecoder::Bmw(d) => {
                d.push(data);
                d.drain()
            }
        }
    }

    fn in_progress(&self) -> bool {
        match self {
            AnyDecoder::IsoTp(d) => d.in_progress(),
            AnyDecoder::VwTp(d) => d.in_progress(),
            AnyDecoder::Bmw(d) => d.in_progress(),
        }
    }
}

/// The scheme tag evidence events and the `transport.<scheme>.*`
/// counter family share.
fn scheme_tag(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::IsoTp => "isotp",
        Scheme::VwTp => "vwtp",
        Scheme::BmwRaw => "bmw",
    }
}

/// Records a screening-level reject (a frame that parses as nothing of
/// the scheme) in the evidence log — unlike the decoder-level rejects,
/// screening still knows which CAN id and timestamp the frame had.
fn record_screen_reject(scheme: Scheme, id: CanId, at: Micros) {
    if dpr_evidence::active() {
        dpr_evidence::record(dpr_evidence::Event::ReassemblyReject(
            dpr_evidence::ReassemblyReject {
                scheme: scheme_tag(scheme).to_string(),
                kind: "malformed_frame".to_string(),
                id: Some(id.raw()),
                at_us: Some(at.as_micros()),
            },
        ));
    }
}

/// Classifies one frame for the screening tally. Returns `None` for a
/// frame the assembler should not see, else `Some(opens)`: whether the
/// frame opens a new message (an ISO-TP SF or FF), abandoning whatever
/// its id had in flight.
fn screen(scheme: Scheme, id: CanId, data: &[u8], stats: &mut FrameStats) -> Option<bool> {
    match scheme {
        Scheme::IsoTp => match IsoTpFrame::parse(data) {
            Ok(IsoTpFrame::Single { .. }) => {
                stats.single += 1;
                Some(true)
            }
            Ok(IsoTpFrame::First { .. }) => {
                stats.multi += 1;
                Some(true)
            }
            Ok(IsoTpFrame::Consecutive { .. }) => {
                stats.multi += 1;
                Some(false)
            }
            Ok(IsoTpFrame::FlowControl { .. }) => {
                stats.control += 1;
                None
            }
            Err(_) => {
                stats.unknown += 1;
                None
            }
        },
        Scheme::VwTp => {
            if id.raw() == u32::from(vwtp::SETUP_BROADCAST_ID) {
                stats.control += 1;
                return None;
            }
            match data.first().and_then(|&b| VwOpcode::from_first_byte(b)) {
                Some(op) if op.is_data() => {
                    if op.is_last() {
                        stats.single += 1;
                    } else {
                        stats.multi += 1;
                    }
                    Some(false)
                }
                Some(_) => {
                    stats.control += 1;
                    None
                }
                None => {
                    stats.unknown += 1;
                    None
                }
            }
        }
        Scheme::BmwRaw => {
            if data.len() < 2 {
                stats.unknown += 1;
                None
            } else {
                // Without a length field every raw frame is potentially
                // part of a longer message; tally by whether it opens a
                // message that fits entirely in this frame.
                let announced = usize::from(data[1]);
                if announced > 0 && announced <= data.len().saturating_sub(2) {
                    stats.single += 1;
                } else {
                    stats.multi += 1;
                }
                Some(false)
            }
        }
    }
}

impl Scheme {
    /// Guesses the transport scheme from a capture's frame statistics —
    /// going one step beyond the paper, which assumes the scheme as
    /// prerequisite domain knowledge (§6, limitation 4).
    ///
    /// Heuristics, in order:
    /// 1. VW TP 2.0 announces itself: channel-setup broadcasts on id
    ///    0x200 with opcode 0xC0, answered by 0xD0.
    /// 2. ISO-TP traffic parses almost entirely as valid SF/FF/CF/FC
    ///    frames with consistent FF/CF pairing.
    /// 3. Otherwise the BMW raw scheme (every frame is addr + payload).
    pub fn detect(log: &BusLog) -> Scheme {
        let mut setup_broadcasts = 0usize;
        let mut isotp_valid = 0usize;
        let mut isotp_invalid = 0usize;
        let mut isotp_ff = 0usize;
        let mut isotp_fc = 0usize;
        for entry in log.iter() {
            let data = entry.frame.data();
            if entry.frame.id().raw() == u32::from(vwtp::SETUP_BROADCAST_ID)
                && data.get(1) == Some(&0xC0)
            {
                setup_broadcasts += 1;
            }
            match IsoTpFrame::parse(data) {
                Ok(IsoTpFrame::First { .. }) => {
                    isotp_ff += 1;
                    isotp_valid += 1;
                }
                Ok(IsoTpFrame::FlowControl { .. }) => {
                    isotp_fc += 1;
                    isotp_valid += 1;
                }
                Ok(_) => isotp_valid += 1,
                Err(_) => isotp_invalid += 1,
            }
        }
        if setup_broadcasts > 0 {
            return Scheme::VwTp;
        }
        let total = isotp_valid + isotp_invalid;
        // Genuine ISO-TP parses nearly everywhere AND shows the
        // first-frame/flow-control dance; BMW raw traffic often parses
        // byte-accidentally as ISO-TP but never produces FC frames.
        if total > 0
            && isotp_valid * 100 >= total * 95
            && (isotp_fc > 0 || isotp_ff == 0)
        {
            Scheme::IsoTp
        } else {
            Scheme::BmwRaw
        }
    }
}

/// Runs the full frames analysis with an auto-detected scheme
/// ([`Scheme::detect`]).
pub fn analyze_capture_auto(log: &BusLog) -> CaptureAnalysis {
    analyze_capture(log, Scheme::detect(log))
}

/// Runs the complete frames analysis (Steps 1–3) over a capture, given the
/// transport scheme the car uses.
pub fn analyze_capture(log: &BusLog, scheme: Scheme) -> CaptureAnalysis {
    let mut stats = FrameStats::default();
    let mut decoders: BTreeMap<CanId, AnyDecoder> = BTreeMap::new();
    let mut messages = Vec::new();
    // Raw frame timestamps fed to each id's decoder since its last
    // completed payload — the per-payload provenance the evidence
    // ledger records. Only maintained while a capture is active.
    let evidence = dpr_evidence::active();
    let mut pending_frames: BTreeMap<CanId, Vec<u64>> = BTreeMap::new();

    for entry in log.iter() {
        let id = entry.frame.id();
        let data = entry.frame.data();
        let unknown_before = stats.unknown;
        let Some(opens) = screen(scheme, id, data, &mut stats) else {
            if evidence && stats.unknown > unknown_before {
                record_screen_reject(scheme, id, entry.at);
            }
            continue;
        };
        let decoder = decoders
            .entry(id)
            .or_insert_with(|| AnyDecoder::new(scheme));
        if evidence {
            let pending = pending_frames.entry(id).or_default();
            if opens {
                // Whatever was in flight is abandoned; its frames fed
                // no payload.
                pending.clear();
            }
            pending.push(entry.at.as_micros());
        }
        let payloads = decoder.push(data);
        if evidence && payloads.is_empty() && !decoder.in_progress() {
            // The transfer was rejected or discarded: nothing pending
            // belongs to a later payload.
            pending_frames.entry(id).or_default().clear();
        }
        for (nth, payload) in payloads.into_iter().enumerate() {
            if evidence {
                // The accumulated frames fed the first payload this
                // frame completed; a rare second payload in the same
                // drain was completed by this frame alone.
                let frame_times_us = if nth == 0 {
                    std::mem::take(pending_frames.entry(id).or_default())
                } else {
                    vec![entry.at.as_micros()]
                };
                dpr_evidence::record(dpr_evidence::Event::Reassembled(
                    dpr_evidence::Reassembled {
                        scheme: scheme_tag(scheme).to_string(),
                        id: id.raw(),
                        at_us: entry.at.as_micros(),
                        frame_times_us,
                        len: payload.len() as u32,
                    },
                ));
            }
            messages.push(AssembledMessage {
                at: entry.at,
                id,
                payload,
            });
        }
    }

    let extraction = extract_fields(&messages);
    CaptureAnalysis {
        messages,
        stats,
        extraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpr_can::{CanBus, CanFrame, Micros};
    use dpr_transport::isotp::IsoTpEndpoint;
    use dpr_transport::{pump, Endpoint};

    /// Builds a capture of one long ISO-TP exchange and checks screening,
    /// assembly, and the Tab. 9-style tally.
    #[test]
    fn isotp_capture_screens_and_assembles() {
        let req = CanId::standard(0x7E0).unwrap();
        let rsp = CanId::standard(0x7E8).unwrap();
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        let mut tool = IsoTpEndpoint::new(req, rsp);
        let mut ecu = IsoTpEndpoint::new(rsp, req);

        // Short request, long response.
        tool.send(&[0x22, 0xF4, 0x0D], Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();
        let long_response: Vec<u8> = std::iter::once(0x62u8)
            .chain((0..48).map(|i| i as u8))
            .collect();
        ecu.send(&long_response, bus.now()).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();

        let analysis = analyze_capture(bus.log(), Scheme::IsoTp);
        assert_eq!(analysis.messages.len(), 2);
        assert_eq!(analysis.messages[0].payload, vec![0x22, 0xF4, 0x0D]);
        assert_eq!(analysis.messages[1].payload, long_response);
        // 1 SF + (1 FF + 7 CF) + 1 FC = 10 frames.
        assert_eq!(analysis.stats.single, 1);
        assert_eq!(analysis.stats.multi, 8);
        assert_eq!(analysis.stats.control, 1);
        assert_eq!(analysis.stats.total(), bus.log().len());
    }

    #[test]
    fn vwtp_capture_drops_control_frames() {
        use dpr_transport::vwtp::VwTpEndpoint;
        let tool_tx = CanId::standard(0x740).unwrap();
        let ecu_tx = CanId::standard(0x300).unwrap();
        let mut tool = VwTpEndpoint::initiator(tool_tx, ecu_tx, 0x01);
        let mut ecu = VwTpEndpoint::responder(ecu_tx, tool_tx, 0x01);
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        let payload: Vec<u8> = (0..30).collect();
        tool.send(&payload, Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();

        let analysis = analyze_capture(bus.log(), Scheme::VwTp);
        assert_eq!(analysis.messages.len(), 1);
        assert_eq!(analysis.messages[0].payload, payload);
        // Setup request (broadcast), setup response, and ACKs are control.
        assert!(analysis.stats.control >= 2);
        // 30 bytes → 5 data frames: 4 waiting + 1 last.
        assert_eq!(analysis.stats.single, 1);
        assert_eq!(analysis.stats.multi, 4);
    }

    #[test]
    fn bmw_capture_strips_address_bytes() {
        use dpr_transport::bmw::BmwRawEndpoint;
        let tool_tx = CanId::standard(0x6F1).unwrap();
        let ecu_tx = CanId::standard(0x640).unwrap();
        let mut tool = BmwRawEndpoint::new(tool_tx, ecu_tx, 0x40, 0xF1);
        let mut ecu = BmwRawEndpoint::new(ecu_tx, tool_tx, 0xF1, 0x40);
        let mut bus = CanBus::new();
        let tn = bus.attach("tool");
        let en = bus.attach("ecu");
        let payload: Vec<u8> = (0..20).collect();
        tool.send(&payload, Micros::ZERO).unwrap();
        pump(&mut bus, &mut [(tn, &mut tool), (en, &mut ecu)]).unwrap();

        let analysis = analyze_capture(bus.log(), Scheme::BmwRaw);
        assert_eq!(analysis.messages.len(), 1);
        assert_eq!(analysis.messages[0].payload, payload);
    }

    #[test]
    fn malformed_frames_counted_as_unknown() {
        let mut log = BusLog::new();
        let id = CanId::standard(0x123).unwrap();
        log.record(
            Micros::ZERO,
            CanFrame::new(id, &[0xF0, 1, 2]).unwrap(), // reserved PCI
        );
        let analysis = analyze_capture(&log, Scheme::IsoTp);
        assert_eq!(analysis.stats.unknown, 1);
        assert!(analysis.messages.is_empty());
    }

    /// The frame times an evidence capture attributes to each payload.
    fn provenance(log: &BusLog, scheme: Scheme) -> Vec<Vec<u64>> {
        let (_, events) = dpr_evidence::capture(|| analyze_capture(log, scheme));
        events
            .into_iter()
            .filter_map(|event| match event {
                dpr_evidence::Event::Reassembled(r) => Some(r.frame_times_us),
                _ => None,
            })
            .collect()
    }

    /// Frames of a transfer that was rejected, superseded or discarded
    /// are not listed as feeding the next payload on their id.
    #[test]
    fn provenance_skips_abandoned_transfers() {
        let id = CanId::standard(0x7E8).unwrap();
        let mut log = BusLog::new();
        let frames: [(u64, &[u8]); 8] = [
            // A sequence gap drops the first transfer...
            (10, &[0x10, 20, 1, 2, 3, 4, 5, 6]),
            (20, &[0x23, 9, 9, 9, 9, 9, 9, 9]),
            (30, &[0x10, 8, 1, 2, 3, 4, 5, 6]),
            (40, &[0x21, 7, 8, 0x55, 0x55, 0x55, 0x55, 0x55]),
            // ...and an FF supersedes the open third one.
            (50, &[0x10, 20, 1, 2, 3, 4, 5, 6]),
            (60, &[0x21, 7, 8, 9, 10, 11, 12, 13]),
            (70, &[0x10, 8, 1, 2, 3, 4, 5, 6]),
            (80, &[0x21, 7, 8, 0x55, 0x55, 0x55, 0x55, 0x55]),
        ];
        for (at, data) in frames {
            log.record(Micros::from_micros(at), CanFrame::new(id, data).unwrap());
        }
        assert_eq!(provenance(&log, Scheme::IsoTp), vec![vec![30, 40], vec![70, 80]]);

        // A VW TP message that overflows is discarded up to its last frame.
        let id = CanId::standard(0x300).unwrap();
        let mut log = BusLog::new();
        let flood = dpr_transport::vwtp::MAX_VWTP_PAYLOAD / 7 + 1;
        for i in 0..flood {
            let data = [0x20 | (i & 0x0F) as u8, 1, 2, 3, 4, 5, 6, 7];
            log.record(Micros::from_micros(i as u64), CanFrame::new(id, &data).unwrap());
        }
        let at = flood as u64;
        log.record(Micros::from_micros(at), CanFrame::new(id, &[0x30, 8]).unwrap());
        log.record(Micros::from_micros(at + 1), CanFrame::new(id, &[0x21, 0x61]).unwrap());
        log.record(Micros::from_micros(at + 2), CanFrame::new(id, &[0x32, 0x01]).unwrap());
        assert_eq!(provenance(&log, Scheme::VwTp), vec![vec![at + 1, at + 2]]);
    }

    #[test]
    fn interleaved_ids_assemble_independently() {
        // Two conversations interleaved frame-by-frame must not corrupt
        // each other: per-id decoders.
        let id_a = CanId::standard(0x7E8).unwrap();
        let id_b = CanId::standard(0x7E9).unwrap();
        let mut log = BusLog::new();
        // Message A: FF announcing 12 bytes + 1 CF; message B: SF.
        log.record(
            Micros::from_micros(1),
            CanFrame::new(id_a, &[0x10, 12, 1, 2, 3, 4, 5, 6]).unwrap(),
        );
        log.record(
            Micros::from_micros(2),
            CanFrame::new_padded(id_b, &[0x02, 0x50, 0x01], 0x55).unwrap(),
        );
        log.record(
            Micros::from_micros(3),
            CanFrame::new(id_a, &[0x21, 7, 8, 9, 10, 11, 12]).unwrap(),
        );
        let analysis = analyze_capture(&log, Scheme::IsoTp);
        assert_eq!(analysis.messages.len(), 2);
        // Completion order: B's SF first, then A's CF completes A.
        assert_eq!(analysis.messages[0].id, id_b);
        assert_eq!(analysis.messages[1].id, id_a);
        assert_eq!(analysis.messages[1].payload.len(), 12);
    }
}
