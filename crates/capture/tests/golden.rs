//! Golden-trace regression: one small capture per transport scheme is
//! checked into the repo under `tests/golden/` — Car M (ISO-TP), Car C
//! (VW TP 2.0) and Car E (BMW raw). The whole stack under them —
//! vehicle simulator, tool, live transport endpoints, bus timing,
//! collector, capture encoding — runs on seeded logical time, so
//! re-recording the same car with the same seed must reproduce each
//! file **byte for byte**. A mismatch means a simulator, transport or
//! format change silently altered recorded data; bump
//! [`dpr_capture::FORMAT_VERSION`] or regenerate deliberately with:
//!
//! ```text
//! DPR_REGEN_GOLDEN=1 cargo test -p dpr-capture --test golden
//! ```

use dpr_can::Micros;
use dpr_capture::{record_report, CaptureReader, CaptureWriter};
use dpr_cps::{collect_vehicle, CollectConfig};
use dpr_tool::{ToolProfile, ToolSession};
use dpr_vehicle::profiles::{self, CarId};
use std::path::PathBuf;

/// One pinned recording: the car, its seed, the dwell and the file.
struct Golden {
    car: CarId,
    seed: u64,
    read_secs: u64,
    file: &'static str,
}

/// The smallest car of each transport scheme.
const GOLDENS: [Golden; 3] = [
    Golden {
        car: CarId::M,
        seed: 31,
        read_secs: 2,
        file: "car_m.dprcap",
    },
    Golden {
        car: CarId::C,
        seed: 31,
        read_secs: 2,
        file: "car_c.dprcap",
    },
    Golden {
        car: CarId::E,
        seed: 31,
        read_secs: 2,
        file: "car_e.dprcap",
    },
];

fn golden_path(golden: &Golden) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(golden.file)
}

/// Records one golden session deterministically.
fn record_golden(golden: &Golden) -> Vec<u8> {
    let car = profiles::build(golden.car, golden.seed);
    let spec = profiles::spec(golden.car);
    let session = ToolSession::new(car, ToolProfile::by_name(spec.tool).unwrap());
    let report = collect_vehicle(
        session,
        &CollectConfig {
            read_wait: Micros::from_secs(golden.read_secs),
            ..CollectConfig::default()
        },
    )
    .unwrap();
    let mut writer = CaptureWriter::new(Vec::new()).unwrap();
    writer.write_meta("car", &format!("{:?}", golden.car)).unwrap();
    writer.write_meta("seed", &golden.seed.to_string()).unwrap();
    writer
        .write_meta("read_secs", &golden.read_secs.to_string())
        .unwrap();
    writer.write_meta("tool", spec.tool).unwrap();
    record_report(&report, &mut writer).unwrap();
    writer.finish().unwrap()
}

#[test]
fn golden_capture_is_reproducible_byte_for_byte() {
    let regen = std::env::var("DPR_REGEN_GOLDEN").is_ok();
    for golden in &GOLDENS {
        let path = golden_path(golden);
        let fresh = record_golden(golden);
        if regen {
            std::fs::write(&path, &fresh).unwrap();
            println!("regenerated {} ({} bytes)", path.display(), fresh.len());
            continue;
        }
        let checked_in = std::fs::read(&path).unwrap_or_else(|e| {
            panic!(
                "{} unreadable ({e}); regenerate with DPR_REGEN_GOLDEN=1",
                path.display()
            )
        });
        assert!(
            checked_in == fresh,
            "car {:?}: recorded capture diverged from {} ({} vs {} bytes) — \
             a simulator, transport or capture-format change altered recorded \
             data; if intentional, regenerate with DPR_REGEN_GOLDEN=1",
            golden.car,
            golden.file,
            fresh.len(),
            checked_in.len()
        );
    }
}

#[test]
fn golden_capture_replays_cleanly() {
    for golden in &GOLDENS {
        let path = golden_path(golden);
        if !path.exists() {
            panic!(
                "{} missing; regenerate with DPR_REGEN_GOLDEN=1",
                path.display()
            );
        }
        let reader = CaptureReader::open(&path).unwrap();
        let (session, stats) = reader.read_session();
        let car = format!("{:?}", golden.car);
        assert!(stats.is_clean(), "car {car}: {stats:?}");
        assert!(
            session.log.len() > 100,
            "car {car}: CAN capture too small: {}",
            session.log.len()
        );
        assert!(
            session.frames.len() > 20,
            "car {car}: too few frames: {}",
            session.frames.len()
        );
        assert!(!session.execution.entries.is_empty(), "car {car}");
        assert!(!session.clock_syncs.is_empty(), "car {car}");
        assert_eq!(session.meta.get("car"), Some(&car));
        assert_eq!(session.estimated_offset_us(), Some(0), "car {car}");
    }
}
