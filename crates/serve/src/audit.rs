//! Verdict audit trail: why did the daemon say what it said?
//!
//! Every Diagnose the daemon answers deposits an [`ExplainRecord`] — the
//! provenance of the verdict itself: which switches and epochs contributed
//! evidence, what incremental-engine state was pending (dirty switches,
//! fragment-cache hit/miss), which signature row of the paper's Table 2
//! matched, and where the wall-clock went stage by stage. Records live in
//! a bounded ring ([`AuditTrail`]) and are queryable after the fact over
//! the `OP_EXPLAIN` wire op, so a verdict can be explained long after the
//! telemetry behind it has been compacted away.

use std::collections::VecDeque;

// The record itself crosses the wire (`OP_EXPLAIN`), so it lives with the
// protocol in the client crate; the trail that rings it is daemon-side.
use hawkeye_client::ExplainRecord;

/// Bounded ring of [`ExplainRecord`]s, newest last. Lookup is by `seq`.
#[derive(Debug, Default)]
pub struct AuditTrail {
    buf: VecDeque<ExplainRecord>,
    capacity: usize,
    next_seq: u64,
    dropped: u64,
}

impl AuditTrail {
    pub fn new(capacity: usize) -> AuditTrail {
        AuditTrail {
            buf: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Journal a record, assigning and returning its `seq`. With capacity
    /// 0 nothing is stored (the record is counted as dropped).
    pub fn push(&mut self, mut rec: ExplainRecord) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        rec.seq = seq;
        if self.capacity == 0 {
            self.dropped += 1;
            return seq;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
        seq
    }

    /// Replace the trail with a checkpointed image: `records` newest
    /// last, `next_seq` the counter at checkpoint time. The capacity
    /// bound still applies (only the newest `capacity` records are kept).
    pub fn restore(&mut self, records: Vec<ExplainRecord>, next_seq: u64) {
        self.buf.clear();
        let skip = records.len().saturating_sub(self.capacity);
        self.buf.extend(records.into_iter().skip(skip));
        self.next_seq = next_seq;
        self.dropped = next_seq - self.buf.len() as u64;
    }

    /// Re-journal a recovered record under its *original* seq (crash
    /// recovery replays verdicts in WAL order). Records already covered
    /// by a restored checkpoint (seq below the counter) are skipped, so
    /// replay over a checkpoint is idempotent.
    pub fn replay(&mut self, rec: ExplainRecord) {
        if rec.seq < self.next_seq {
            return;
        }
        self.next_seq = rec.seq + 1;
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Retained records, oldest first — the checkpoint writer's view.
    pub fn records(&self) -> impl Iterator<Item = &ExplainRecord> {
        self.buf.iter()
    }

    /// The record for verdict `seq`, if still in the ring.
    pub fn get(&self, seq: u64) -> Option<&ExplainRecord> {
        // Seqs are contiguous, so the ring is indexable directly.
        let first = self.buf.front()?.seq;
        let idx = seq.checked_sub(first)? as usize;
        self.buf.get(idx)
    }

    /// The most recent record.
    pub fn latest(&self) -> Option<&ExplainRecord> {
        self.buf.back()
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

    /// Records evicted (or never stored) under the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Verdicts journaled since construction (evicted ones included).
    pub fn total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(victim: &str) -> ExplainRecord {
        ExplainRecord {
            seq: 0,
            victim: victim.into(),
            window_from_ns: 100,
            window_to_ns: 900,
            anomaly: "PfcStorm".into(),
            signature_row: "pfc_storm".into(),
            confidence: "complete".into(),
            root_causes: vec![3],
            contributing_switches: vec![1, 2, 3],
            contributing_epochs: 12,
            dirty_switches: vec![2],
            frags_reused: 30,
            frags_recomputed: 4,
            stage_collect_ns: 1000,
            stage_graph_ns: 5000,
            stage_match_ns: 200,
        }
    }

    #[test]
    fn push_assigns_contiguous_seqs_and_get_finds_them() {
        let mut trail = AuditTrail::new(4);
        for i in 0..3 {
            assert_eq!(trail.push(rec(&format!("v{i}"))), i);
        }
        assert_eq!(trail.get(1).unwrap().victim, "v1");
        assert_eq!(trail.latest().unwrap().victim, "v2");
        assert!(trail.get(9).is_none());
    }

    #[test]
    fn ring_evicts_oldest_but_seq_lookup_stays_correct() {
        let mut trail = AuditTrail::new(2);
        for i in 0..5 {
            trail.push(rec(&format!("v{i}")));
        }
        assert_eq!(trail.len(), 2);
        assert_eq!(trail.dropped(), 3);
        assert_eq!(trail.total(), 5);
        assert!(trail.get(2).is_none(), "evicted record still served");
        assert_eq!(trail.get(3).unwrap().victim, "v3");
        assert_eq!(trail.get(4).unwrap().victim, "v4");
    }

    #[test]
    fn capacity_zero_journals_nothing_but_counts() {
        let mut trail = AuditTrail::new(0);
        assert_eq!(trail.push(rec("v")), 0);
        assert_eq!(trail.push(rec("w")), 1);
        assert!(trail.is_empty());
        assert_eq!(trail.total(), 2);
    }

    #[test]
    fn restore_then_replay_is_idempotent_and_seq_stable() {
        let mut live = AuditTrail::new(4);
        for i in 0..3 {
            live.push(rec(&format!("v{i}")));
        }
        // Checkpoint at seq 2, then one more verdict lands after it.
        let ckpt: Vec<ExplainRecord> = live.records().cloned().collect();
        let at = live.total();
        let last = live.push(rec("v3"));

        let mut recovered = AuditTrail::new(4);
        recovered.restore(ckpt, at);
        // Replaying a verdict the checkpoint already covers is a no-op…
        let mut dup = rec("v1");
        dup.seq = 1;
        recovered.replay(dup);
        assert_eq!(recovered.len(), 3);
        // …and the post-checkpoint verdict lands under its original seq.
        let mut tail = rec("v3");
        tail.seq = last;
        recovered.replay(tail);
        assert_eq!(recovered.get(last).unwrap().victim, "v3");
        assert_eq!(recovered.total(), live.total());
        // Numbering continues, not restarts.
        assert_eq!(recovered.push(rec("v4")), live.push(rec("v4")));
    }

    #[test]
    fn restore_respects_capacity() {
        let mut t = AuditTrail::new(2);
        let records: Vec<ExplainRecord> = (0..4)
            .map(|i| {
                let mut r = rec(&format!("v{i}"));
                r.seq = i;
                r
            })
            .collect();
        t.restore(records, 4);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 2);
        assert!(t.get(1).is_none());
        assert_eq!(t.get(3).unwrap().victim, "v3");
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = rec("0:7->5");
        let js = serde_json::to_string(&r).unwrap();
        let back: ExplainRecord = serde_json::from_str(&js).unwrap();
        assert_eq!(back, r);
    }
}
