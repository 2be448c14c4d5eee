//! The bounded in-memory record ring.
//!
//! Every record the logger accepts lands here regardless of which
//! sinks are enabled, so `GET /debug/snapshot` can always show the
//! recent history of a process that was started with no logging
//! configured at all. The ring is a single short-critical-section
//! mutex around a [`crate::Ring`]: a push is one lock and one
//! bounded append, and overwritten records are counted, never silently
//! lost.

use super::Record;
use parking_lot::Mutex;
use std::sync::Arc;

/// One retained record plus its global sequence number. Sequence
/// numbers are assigned under the ring lock, so snapshot order ==
/// sequence order even under concurrent writers.
#[derive(Debug, Clone)]
pub struct RingEntry {
    /// Position in the total push order (0-based).
    pub seq: u64,
    /// The record itself.
    pub record: Arc<Record>,
}

/// A bounded ring of the most recent log records.
pub struct Ring {
    inner: Mutex<crate::Ring<RingEntry>>,
}

impl Ring {
    /// A ring retaining at most `capacity` records (floored to 1).
    pub fn new(capacity: usize) -> Ring {
        Ring {
            inner: Mutex::new(crate::Ring::new(capacity)),
        }
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity()
    }

    /// Appends a record, evicting (and counting) the oldest when full.
    /// Returns the record's sequence number.
    pub fn push(&self, record: Arc<Record>) -> u64 {
        let mut inner = self.inner.lock();
        let seq = pushed(&inner);
        inner.push(RingEntry { seq, record });
        seq
    }

    /// The retained records, oldest first, in sequence order.
    pub fn snapshot(&self) -> Vec<RingEntry> {
        self.inner.lock().iter().cloned().collect()
    }

    /// Total records ever pushed.
    pub fn pushed(&self) -> u64 {
        pushed(&self.inner.lock())
    }

    /// Records evicted to respect the capacity bound.
    pub fn overwritten(&self) -> u64 {
        self.inner.lock().dropped()
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether nothing has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

/// Every record pushed is either still retained or was evicted.
fn pushed(ring: &crate::Ring<RingEntry>) -> u64 {
    ring.len() as u64 + ring.dropped()
}

impl std::fmt::Debug for Ring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Ring")
            .field("len", &inner.len())
            .field("capacity", &inner.capacity())
            .field("pushed", &pushed(&inner))
            .field("overwritten", &inner.dropped())
            .finish()
    }
}
