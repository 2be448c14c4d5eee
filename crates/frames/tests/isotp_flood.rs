//! A capture of ISO-TP first frames, each on its own 29-bit CAN id,
//! must not make the analysis reserve each frame's announced length.
//!
//! `analyze_capture` keeps one decoder per CAN id and applies no id
//! filter, so every first frame opens a transfer. A first frame carries
//! six payload bytes but may announce up to 4095; a decoder that
//! reserved the announced length would turn each 8-byte frame into a
//! 4 KB buffer, held until the analysis returns.
//!
//! The counting allocator is installed for this test binary. The test
//! counts bytes requested on its own thread and never times anything,
//! so it is deterministic.

use dpr_can::{BusLog, CanFrame, CanId, Micros};
use dpr_frames::{analyze_capture, Scheme};
use dpr_prof::alloc::{set_counting, thread_alloc_stats, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap bytes the analysis may request per flooding frame: the frame's
/// own six bytes plus its share of the per-id decoder map.
const MAX_BYTES_PER_FRAME: u64 = 512;

const FRAMES: u32 = 2_000;

#[test]
fn first_frame_flood_does_not_reserve_announced_lengths() {
    let mut log = BusLog::new();
    for i in 0..FRAMES {
        let id = CanId::extended(0x18DA_0000 + i).expect("29-bit id");
        // FF announcing 0xFFF = 4095 bytes, then six payload bytes.
        let frame = CanFrame::new(id, &[0x1F, 0xFF, 0x62, 0xF4, 0x0D, 1, 2, 3]).expect("frame");
        log.record(Micros::from_millis(u64::from(i)), frame);
    }

    set_counting(true);
    let before = thread_alloc_stats();
    let analysis = analyze_capture(&log, Scheme::IsoTp);
    let bytes = thread_alloc_stats().since(before).bytes;
    set_counting(false);

    assert!(analysis.messages.is_empty(), "no transfer completes");
    assert_eq!(analysis.stats.multi, FRAMES as usize);
    let per_frame = bytes / u64::from(FRAMES);
    eprintln!("{bytes} bytes requested for {FRAMES} first frames: {per_frame} per frame");
    assert!(
        per_frame < MAX_BYTES_PER_FRAME,
        "{bytes} bytes requested for {FRAMES} first frames: {per_frame} per frame"
    );
}
