//! The workspace's one bounded history: a fixed-capacity ring whose
//! `push` evicts (and returns) the oldest entry once full, so retained
//! memory stays bounded no matter how long a process runs.
//!
//! Every history in the observability stack sits on it: the log record
//! ring, the recent pool profiles, the published-run store, and the
//! service's per-job event replay and finished-job history. Storage grows lazily with use, so
//! a large bound costs nothing until it fills.

use std::collections::VecDeque;

/// A bounded FIFO history. `push` beyond `capacity` drops the oldest
/// entry, counts it, and hands it back, so retention is exact and
/// observable.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: VecDeque<T>,
    capacity: usize,
    dropped: u64,
}

impl<T> Ring<T> {
    /// An empty ring holding at most `capacity` entries (floored to 1).
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Appends `value`. When the ring was full, the oldest entry is
    /// evicted, counted in [`dropped`](Ring::dropped), and returned.
    pub fn push(&mut self, value: T) -> Option<T> {
        let evicted = if self.buf.len() == self.capacity {
            self.dropped += 1;
            self.buf.pop_front()
        } else {
            None
        };
        self.buf.push_back(value);
        evicted
    }

    /// Evicts the oldest entry ahead of the capacity bound, for an
    /// owner that keeps a second bound of its own (bytes held); it is
    /// counted in [`dropped`](Ring::dropped) like a capacity eviction.
    pub fn evict_oldest(&mut self) -> Option<T> {
        let evicted = self.buf.pop_front();
        self.dropped += u64::from(evicted.is_some());
        evicted
    }

    /// The retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many entries eviction has discarded so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The most recently pushed entry.
    pub fn last(&self) -> Option<&T> {
        self.buf.back()
    }

    /// Entries oldest-first.
    pub fn iter(&self) -> std::collections::vec_deque::Iter<'_, T> {
        self.buf.iter()
    }

    /// The newest `n` entries, oldest-first.
    pub fn tail(&self, n: usize) -> impl Iterator<Item = &T> {
        self.buf.iter().skip(self.buf.len().saturating_sub(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_evicts_oldest_beyond_capacity() {
        let mut ring = Ring::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(ring.last(), Some(&4));
        assert_eq!(ring.tail(2).copied().collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn evict_oldest_is_counted_as_dropped() {
        let mut ring = Ring::new(3);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.evict_oldest(), Some(1));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(ring.dropped(), 1);
        assert_eq!(ring.evict_oldest(), Some(2));
        assert_eq!(ring.evict_oldest(), None);
        assert_eq!(ring.dropped(), 2);
    }

    #[test]
    fn capacity_floors_to_one() {
        let mut ring = Ring::new(0);
        ring.push(1);
        ring.push(2);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.last(), Some(&2));
    }

    #[test]
    fn push_returns_the_evicted_value() {
        let mut ring = Ring::new(2);
        assert_eq!(ring.push("a"), None);
        assert_eq!(ring.push("b"), None);
        assert_eq!(ring.push("c"), Some("a"));
        assert_eq!(ring.push("d"), Some("b"));
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec!["c", "d"]);
    }
}
