//! Bounded ring-buffer event tracer.

use crate::event::{kind, TraceEvent, TraceRecord};
use std::collections::VecDeque;

/// A typed, bounded trace ring. When full, the oldest record is dropped and
/// counted — recent history wins, which is what a postmortem wants.
#[derive(Debug, Default)]
pub struct Tracer {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    mask: u32,
    next_seq: u64,
    dropped: u64,
}

impl Tracer {
    /// A tracer keeping every event kind.
    pub fn new(capacity: usize) -> Tracer {
        Tracer::with_mask(capacity, kind::ALL)
    }

    /// A tracer keeping only the kinds selected by `mask` (bits from
    /// [`kind`]).
    pub fn with_mask(capacity: usize, mask: u32) -> Tracer {
        Tracer {
            buf: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            mask,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Whether events of `k` (a [`kind`] bit) would currently be kept; lets
    /// hot paths skip building the event payload entirely.
    #[inline]
    pub fn wants(&self, k: u32) -> bool {
        self.capacity > 0 && self.mask & k != 0
    }

    /// Append an event at sim-time `at_ns`. O(1); evicts the oldest record
    /// when at capacity.
    #[inline]
    pub fn record(&mut self, at_ns: u64, event: TraceEvent) {
        if !self.wants(event.kind()) {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.buf.push_back(TraceRecord { seq, at_ns, event });
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records evicted by overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total records ever offered and accepted (held + dropped).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resume(sw: u32) -> TraceEvent {
        TraceEvent::PfcResume {
            switch: sw,
            port: 0,
            class: 0,
        }
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut t = Tracer::new(3);
        for i in 0..5u32 {
            t.record(i as u64 * 10, resume(i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.recorded(), 5);
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let times: Vec<u64> = t.records().map(|r| r.at_ns).collect();
        assert_eq!(times, vec![20, 30, 40]);
    }

    #[test]
    fn mask_filters_kinds_without_consuming_seq() {
        let mut t = Tracer::with_mask(8, kind::PFC);
        t.record(1, resume(0));
        t.record(
            2,
            TraceEvent::Detection {
                victim_src: 0,
                victim_dst: 1,
                victim_sport: 5,
                rtt_ns: 9,
            },
        );
        t.record(3, resume(1));
        assert_eq!(t.len(), 2);
        assert!(!t.wants(kind::DETECTION));
        assert!(t.wants(kind::PFC));
        // Sequence numbers stay dense over *kept* records.
        let seqs: Vec<u64> = t.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn zero_capacity_keeps_nothing() {
        let mut t = Tracer::new(0);
        t.record(1, resume(0));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(!t.wants(kind::PFC));
    }
}
