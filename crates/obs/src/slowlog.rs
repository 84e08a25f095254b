//! The bounded slow-query ring log.
//!
//! Queries whose total latency crosses the server's threshold keep their
//! full [`TraceRecord`] here; the ring holds the most recent `capacity`
//! of them and counts what it evicted, so memory stays fixed while the
//! operator can always see how much history was lost. Dumped over the
//! wire by the `TraceDump` frame and rendered by `oasis admin slowlog`.

use crate::sync::{Deque, Mutex};
use crate::trace::TraceRecord;

/// Bounded ring of finished slow-query traces.
pub struct SlowLog {
    inner: Mutex<Inner>,
    capacity: usize,
}

struct Inner {
    entries: Deque<TraceRecord>,
    dropped: u64,
}

/// A point-in-time copy of the slow log's contents.
#[derive(Clone, Debug)]
pub struct SlowLogSnapshot {
    /// Retained traces, oldest first.
    pub entries: Vec<TraceRecord>,
    /// Traces evicted to keep the ring bounded.
    pub dropped: u64,
    /// The ring's fixed capacity.
    pub capacity: usize,
}

impl SlowLog {
    /// An empty ring holding at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> SlowLog {
        SlowLog {
            inner: Mutex::new(Inner {
                entries: Deque::new(),
                dropped: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Record a finished slow query, evicting the oldest when full.
    pub fn push(&self, rec: TraceRecord) {
        let mut inner = self.inner.lock();
        if inner.entries.len() == self.capacity {
            inner.entries.pop_front();
            inner.dropped += 1;
        }
        inner.entries.push_back(rec);
    }

    /// Copy out the retained traces (oldest first) and eviction count.
    pub fn snapshot(&self) -> SlowLogSnapshot {
        let inner = self.inner.lock();
        SlowLogSnapshot {
            entries: inner.entries.iter().cloned().collect(),
            dropped: inner.dropped,
            capacity: self.capacity,
        }
    }

    /// Number of traces currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64) -> TraceRecord {
        TraceRecord {
            id,
            query_len: 4,
            total_us: id * 1000,
            counters: Default::default(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let log = SlowLog::new(3);
        assert!(log.is_empty());
        for id in 0..5 {
            log.push(rec(id));
        }
        let snap = log.snapshot();
        assert_eq!(snap.capacity, 3);
        assert_eq!(snap.dropped, 2);
        let ids: Vec<u64> = snap.entries.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        // Memory stays bounded no matter how many more arrive.
        for id in 5..5000 {
            log.push(rec(id));
        }
        let snap = log.snapshot();
        assert_eq!(snap.entries.len(), 3);
        assert_eq!(snap.dropped, 4997);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let log = SlowLog::new(0);
        log.push(rec(1));
        log.push(rec(2));
        let snap = log.snapshot();
        assert_eq!(snap.entries.len(), 1);
        assert_eq!(snap.entries[0].id, 2);
        assert_eq!(snap.dropped, 1);
    }
}
