//! The ring buffer's bounded-loss contract under contention:
//! concurrent writers with a small capacity must never deadlock,
//! never lose a record silently (overwritten == pushed - retained),
//! and the retained records must be the *most recent* tail of the
//! total push order.

use dpr_telemetry::log::{FieldValue, Level, Record, Ring};
use std::sync::Arc;

fn record(writer: usize, n: usize) -> Arc<Record> {
    Arc::new(Record {
        t_us: n as u64,
        level: Level::Info,
        target: "test".into(),
        message: format!("w{writer}-{n}"),
        fields: vec![("writer".into(), FieldValue::U64(writer as u64))],
    })
}

#[test]
fn concurrent_writers_account_for_every_record() {
    const WRITERS: usize = 8;
    const PER_WRITER: usize = 500;
    const CAPACITY: usize = 32;
    let ring = Arc::new(Ring::new(CAPACITY));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                for n in 0..PER_WRITER {
                    ring.push(record(w, n));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let total = (WRITERS * PER_WRITER) as u64;
    assert_eq!(ring.pushed(), total);
    assert_eq!(ring.len(), CAPACITY);
    // Drop counting: everything not retained was counted overwritten.
    assert_eq!(ring.overwritten(), total - CAPACITY as u64);

    // Wrap-around ordering: the snapshot is the contiguous tail of the
    // push order — strictly increasing seq, ending at pushed - 1.
    let entries = ring.snapshot();
    assert_eq!(entries.len(), CAPACITY);
    for pair in entries.windows(2) {
        assert_eq!(pair[1].seq, pair[0].seq + 1, "non-contiguous ring");
    }
    assert_eq!(entries.last().unwrap().seq, total - 1);
    assert_eq!(entries.first().unwrap().seq, total - CAPACITY as u64);

    // Per-writer order is preserved within the retained tail: each
    // writer's surviving records appear in its own push order.
    for w in 0..WRITERS {
        let ns: Vec<u64> = entries
            .iter()
            .filter(|e| e.record.field("writer") == Some(&FieldValue::U64(w as u64)))
            .map(|e| e.record.t_us)
            .collect();
        assert!(ns.windows(2).all(|p| p[0] < p[1]), "writer {w} reordered: {ns:?}");
    }
}

#[test]
fn wrap_around_keeps_newest_and_counts_drops_exactly() {
    let ring = Ring::new(4);
    for n in 0..10u64 {
        let seq = ring.push(record(0, n as usize));
        assert_eq!(seq, n);
    }
    assert_eq!(ring.capacity(), 4);
    assert_eq!(ring.overwritten(), 6);
    let kept: Vec<String> = ring
        .snapshot()
        .iter()
        .map(|e| e.record.message.clone())
        .collect();
    assert_eq!(kept, vec!["w0-6", "w0-7", "w0-8", "w0-9"]);
}

#[test]
fn under_capacity_nothing_is_dropped() {
    let ring = Ring::new(16);
    for n in 0..5 {
        ring.push(record(1, n));
    }
    assert_eq!(ring.len(), 5);
    assert_eq!(ring.overwritten(), 0);
    assert!(!ring.is_empty());
}
