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
//!
//! A second pin covers what the evidence ledger says about alignment,
//! independent of how it is stored: for every chain, the number of
//! candidates that formed no pairs, and the set of the others as
//! `(series, label, key, screen, label, score bits, pairs, decision)`.

use dp_reverser::ReverseEngineeringResult;
use dpr_bench::capture_pipeline;
use std::path::Path;
use std::sync::OnceLock;

/// `(file, bytes, FNV-1a 64)` of the canonical result, paper GP budget.
const PAPER: [(&str, usize, u64); 3] = [
    ("car_m.dprcap", 86869, 0xa432490f3012ba82),
    ("car_c.dprcap", 29934, 0xa4a49ebcdef3d959),
    ("car_e.dprcap", 35337, 0xef3d225a51d8efbe),
];

/// The same under quick mode's reduced GP budget.
const QUICK: [(&str, usize, u64); 3] = [
    ("car_m.dprcap", 87712, 0x3ceadc16cfbe24cf),
    ("car_c.dprcap", 25866, 0x1ad0d5d73a2aad03),
    ("car_e.dprcap", 35877, 0xede657f4961cfccd),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(file, chains, zero-pair candidates, other candidates, FNV-1a 64 of
/// the candidate view)`. Alignment runs before inference, so both GP
/// budgets give the same view.
const CANDIDATES: [(&str, usize, usize, usize, u64); 3] = [
    ("car_m.dprcap", 18, 128, 502, 0x571776770e8d1b01),
    ("car_c.dprcap", 5, 87, 83, 0x8acf817dd628f91a),
    ("car_e.dprcap", 9, 72, 81, 0x5131e736bb0d4430),
];

const FILES: [&str; 3] = ["car_m.dprcap", "car_c.dprcap", "car_e.dprcap"];

/// The result of each golden capture, analyzed once per test binary.
fn results() -> &'static [ReverseEngineeringResult] {
    static RESULTS: OnceLock<Vec<ReverseEngineeringResult>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        FILES
            .iter()
            .map(|file| {
                let path = Path::new(env!("CARGO_MANIFEST_DIR"))
                    .join("../capture/tests/golden")
                    .join(file);
                let (pipeline, reader) = capture_pipeline(&path).expect("golden capture opens");
                pipeline.analyze_capture(reader)
            })
            .collect()
    })
}

/// One chain's alignment candidates: how many formed no pairs, and the
/// others as sorted `(series, label, key, screen, label, score bits,
/// pairs, decision)` tuples.
type CandidateView = (usize, Vec<CandidateRow>);

/// `(series, label, key, screen, label, score bits, pairs, decision)`.
type CandidateRow = (u32, u32, String, String, String, Option<u64>, u32, &'static str);

/// Every chain's [`CandidateView`], in chain order: the ledger's
/// zero-pair count, and its candidate table rows expanded by name.
fn candidate_views(result: &ReverseEngineeringResult) -> Vec<CandidateView> {
    let ledger = &result.evidence;
    ledger
        .chains
        .iter()
        .map(|chain| {
            let mut rest: Vec<_> = ledger
                .expand(chain)
                .candidates
                .into_iter()
                .map(|c| {
                    (
                        c.series_idx,
                        c.label_idx,
                        c.key,
                        c.screen,
                        c.label,
                        c.score.map(f64::to_bits),
                        c.pairs,
                        c.decision.code(),
                    )
                })
                .collect();
            rest.sort();
            (chain.zero_pair_candidates as usize, rest)
        })
        .collect()
}

#[test]
fn golden_capture_results_are_pinned() {
    let pinned = if dpr_bench::quick() { &QUICK } else { &PAPER };
    let measured: Vec<(&str, usize, u64)> = FILES
        .iter()
        .zip(results())
        .map(|(&file, result)| {
            let json = result.canonical_json();
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
fn golden_candidate_views_are_pinned() {
    let pinned = &CANDIDATES;
    let measured: Vec<(&str, usize, usize, usize, u64)> = FILES
        .iter()
        .zip(results())
        .map(|(&file, result)| {
            let views = candidate_views(result);
            let zero = views.iter().map(|(zero, _)| zero).sum();
            let rest = views.iter().map(|(_, rest)| rest.len()).sum();
            let digest = fnv1a64(format!("{views:?}").as_bytes());
            (file, views.len(), zero, rest, digest)
        })
        .collect();
    let render = |rows: &[(&str, usize, usize, usize, u64)]| {
        rows.iter()
            .map(|(file, chains, zero, rest, digest)| {
                format!("    ({file:?}, {chains}, {zero}, {rest}, {digest:#018x}),\n")
            })
            .collect::<String>()
    };
    assert!(
        measured == pinned,
        "golden candidate views moved; measured:\n{}pinned:\n{}",
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
