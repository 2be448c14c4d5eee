//! Golden-result regression: the analysis of each checked-in golden
//! capture (`crates/capture/tests/golden/car_{m,c,e}.dprcap`, one per
//! transport scheme) is pinned across commits by the length and an
//! FNV-1a 64 digest of its canonical result JSON.
//!
//! Each capture runs through `dpr_bench::capture_pipeline`, the path
//! `dpr-bench analyze` takes: the experiment config of the capture's
//! car/seed metadata, then `DpReverser::analyze_capture`. The other identity tests compare two
//! runs inside one build (thread counts, live against replay); this one
//! compares against constants, so a change that moves any recovered
//! formula, evidence chain or counter fails here even when it is
//! deterministic. A deliberate change re-pins the constants from the
//! failure message.

use dpr_bench::capture_pipeline;
use std::path::Path;

/// `(file, bytes, FNV-1a 64)` of the canonical result, paper GP budget.
const PAPER: [(&str, usize, u64); 3] = [
    ("car_m.dprcap", 191367, 0xef2df58f4db60d07),
    ("car_c.dprcap", 61536, 0x5480645a2f446947),
    ("car_e.dprcap", 67647, 0x319b73fc42928e5a),
];

/// The same under quick mode's reduced GP budget.
const QUICK: [(&str, usize, u64); 3] = [
    ("car_m.dprcap", 192310, 0x536c13c8137f02c4),
    ("car_c.dprcap", 54818, 0xf3ed836c62ed0bab),
    ("car_e.dprcap", 68587, 0x63e45dfb755a8bc7),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The canonical result JSON of one golden capture.
fn analyze(file: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../capture/tests/golden")
        .join(file);
    let (pipeline, reader) = capture_pipeline(&path).expect("golden capture opens");
    pipeline.analyze_capture(reader).canonical_json()
}

#[test]
fn golden_capture_results_are_pinned() {
    let pinned = if dpr_bench::quick() { &QUICK } else { &PAPER };
    let measured: Vec<(&str, usize, u64)> = pinned
        .iter()
        .map(|&(file, _, _)| {
            let json = analyze(file);
            (file, json.len(), fnv1a64(json.as_bytes()))
        })
        .collect();
    let render = |rows: &[(&str, usize, u64)]| {
        rows.iter()
            .map(|(file, len, digest)| format!("    ({file:?}, {len}, {digest:#018x}),\n"))
            .collect::<String>()
    };
    assert!(
        measured == pinned,
        "golden capture results moved; measured:\n{}pinned:\n{}",
        render(&measured),
        render(pinned)
    );
}

#[test]
fn fnv1a64_matches_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
