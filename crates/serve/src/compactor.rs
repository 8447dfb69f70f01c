//! The folded tier's owner: bucket management for ring-evicted epochs.
//!
//! The eviction/fold loop is the largest stage of the store+engine ingest
//! wall (`stage_fold_ns`), so the fold work is factored out of
//! [`TelemetryStore::append`](crate::TelemetryStore::append) into this
//! type, which can run in either of two places:
//!
//! - **Inline** (`StoreConfig::deferred_fold = false`, the standalone
//!   default): the store embeds a `Compactor` and folds synchronously
//!   inside `append`, exactly the pre-PR-7 behaviour — every store unit
//!   test and the `compaction_preserves_totals_and_watermarks` proptest
//!   pin this path.
//! - **Deferred** (`deferred_fold = true`, the daemon's mode): `append`
//!   only *stages* evicted epochs
//!   ([`take_pending_folds`](crate::TelemetryStore::take_pending_folds))
//!   and the daemon's core thread owns a `Compactor`, absorbing staged
//!   folds via message passing — no locks, and the single consumer means
//!   no fold contention. The store's cheap bookkeeping (the `folded`
//!   dedup map and the retention horizon) stays synchronous in `append`,
//!   because admission decisions and horizon advancement cannot wait.
//!
//! Fold totals are identical in both modes: folding is commutative and
//! per-switch arrival order is preserved (one channel, FIFO), so bucket
//! boundaries match the inline path's too.

use crate::store::StoreConfig;
use hawkeye_client::{Fidelity, FlowObservation};
use hawkeye_sim::{FlowKey, NodeId};
use hawkeye_telemetry::{CompactedEpoch, EpochSnapshot};
use std::collections::{BTreeMap, VecDeque};

/// One ring-evicted epoch staged for folding, with the switch it came
/// from. Moves (never clones) the epoch out of the raw ring.
#[derive(Debug)]
pub struct PendingFold {
    pub switch: NodeId,
    pub epoch: EpochSnapshot,
}

/// Compacted buckets retained per switch, each one ring's worth
/// (`StoreConfig::epoch_budget` epochs): coarse history reaches ~16x
/// beyond the raw ring. The oldest bucket drops first, counted.
pub(crate) const COMPACT_BUDGET: usize = 16;

/// Fold-side counters, disjoint from [`StoreStats`](crate::store::StoreStats)
/// so the deferred mode can report them from the core thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactorStats {
    /// Evicted epochs folded into buckets.
    pub epochs_compacted: u64,
    /// Buckets dropped to enforce `COMPACT_BUDGET`.
    pub buckets_dropped: u64,
    /// Raw epochs that were summed inside those dropped buckets.
    pub epochs_dropped: u64,
    /// Wall nanoseconds spent folding (only accumulated by
    /// [`Compactor::absorb`]).
    pub fold_ns: u64,
}

/// See module docs.
#[derive(Debug)]
pub struct Compactor {
    cfg: StoreConfig,
    /// Per-switch compacted buckets, oldest first; the back bucket is
    /// still open.
    switches: BTreeMap<NodeId, VecDeque<CompactedEpoch>>,
    stats: CompactorStats,
}

impl Compactor {
    pub fn new(cfg: StoreConfig) -> Self {
        Compactor {
            cfg,
            switches: BTreeMap::new(),
            stats: CompactorStats::default(),
        }
    }

    /// Fold one evicted epoch into `switch`'s open bucket, sealing it at
    /// one ring's worth of epochs and dropping the oldest bucket past
    /// `COMPACT_BUDGET` (16).
    pub fn fold(&mut self, switch: NodeId, ep: &EpochSnapshot) {
        let chunk = self.cfg.epoch_budget.max(1);
        let buckets = self.switches.entry(switch).or_default();
        if buckets.back().is_none_or(|b| b.epochs as usize >= chunk) {
            buckets.push_back(CompactedEpoch::default());
        }
        buckets.back_mut().expect("bucket just ensured").fold(ep);
        self.stats.epochs_compacted += 1;
        while buckets.len() > COMPACT_BUDGET {
            let dropped = buckets.pop_front().expect("over-budget tier");
            self.stats.buckets_dropped += 1;
            self.stats.epochs_dropped += u64::from(dropped.epochs);
        }
    }

    /// Absorb a batch of staged folds (the deferred path). Returns the
    /// wall nanoseconds spent.
    pub fn absorb(&mut self, pending: Vec<PendingFold>) -> u64 {
        let t0 = std::time::Instant::now();
        for f in pending {
            self.fold(f.switch, &f.epoch);
        }
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.fold_ns += ns;
        ns
    }

    /// Compacted-tier rows for one flow, unsorted (the caller merges them
    /// with raw rows and sorts once).
    pub fn flow_history(&self, key: &FlowKey) -> Vec<FlowObservation> {
        let mut out = Vec::new();
        for (&sw, buckets) in &self.switches {
            for bucket in buckets {
                for (fk, out_port, t) in &bucket.flows {
                    if fk == key {
                        out.push(FlowObservation {
                            switch: sw,
                            from: bucket.from,
                            to: bucket.to,
                            fidelity: Fidelity::Compacted,
                            out_port: *out_port,
                            pkt_count: t.pkt_count,
                            paused_count: t.paused_count,
                            qdepth_sum: t.qdepth_sum,
                            epochs: t.epochs_active,
                        });
                    }
                }
            }
        }
        out
    }

    /// Raw epochs summed inside currently retained buckets.
    pub fn epochs_held(&self) -> u64 {
        self.switches
            .values()
            .flat_map(|b| b.iter())
            .map(|b| u64::from(b.epochs))
            .sum()
    }

    /// Buckets currently retained across all switches.
    pub fn buckets_held(&self) -> usize {
        self.switches.values().map(|b| b.len()).sum()
    }

    /// One switch's buckets, oldest first.
    pub fn buckets_of(&self, sw: NodeId) -> Vec<&CompactedEpoch> {
        self.switches
            .get(&sw)
            .map(|b| b.iter().collect())
            .unwrap_or_default()
    }

    /// Install one switch's checkpointed buckets (oldest first),
    /// replacing whatever is held for that switch. Like
    /// [`TelemetryStore::restore_switch`](crate::TelemetryStore::restore_switch),
    /// counters are observability and are not restored.
    pub fn restore_switch(&mut self, sw: NodeId, buckets: Vec<CompactedEpoch>) {
        if buckets.is_empty() {
            self.switches.remove(&sw);
        } else {
            self.switches.insert(sw, buckets.into());
        }
    }

    pub fn stats(&self) -> &CompactorStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_sim::Nanos;
    use hawkeye_telemetry::FlowRecord;

    fn epoch(slot: usize, id: u8, start: u64) -> EpochSnapshot {
        EpochSnapshot {
            slot,
            id,
            start: Nanos(start),
            len: Nanos(1 << 20),
            flows: vec![(
                FlowKey::roce(NodeId(90), NodeId(91), u16::from(id)),
                FlowRecord {
                    pkt_count: 10,
                    paused_count: 2,
                    qdepth_sum: 30,
                    out_port: 1,
                },
            )],
            ports: vec![],
            meter: vec![],
        }
    }

    #[test]
    fn absorb_matches_direct_folds() {
        let cfg = StoreConfig {
            epoch_budget: 2,
            ..StoreConfig::default()
        };
        let mut direct = Compactor::new(cfg);
        let mut batched = Compactor::new(cfg);
        let eps: Vec<_> = (0..5u64)
            .map(|i| epoch(i as usize, i as u8, i << 20))
            .collect();
        for ep in &eps {
            direct.fold(NodeId(3), ep);
        }
        batched.absorb(
            eps.iter()
                .map(|ep| PendingFold {
                    switch: NodeId(3),
                    epoch: ep.clone(),
                })
                .collect(),
        );
        assert_eq!(direct.epochs_held(), batched.epochs_held());
        assert_eq!(direct.buckets_held(), batched.buckets_held());
        assert_eq!(direct.buckets_of(NodeId(3)), batched.buckets_of(NodeId(3)));
        assert_eq!(
            direct.stats().epochs_compacted,
            batched.stats().epochs_compacted
        );
    }

    #[test]
    fn bucket_budget_enforced() {
        // A one-epoch ring seals a bucket per fold: 20 folds, 4 past the
        // cap.
        let mut c = Compactor::new(StoreConfig {
            epoch_budget: 1,
            ..StoreConfig::default()
        });
        for i in 0..20u64 {
            c.fold(NodeId(3), &epoch(i as usize, i as u8, i << 20));
        }
        assert_eq!(c.buckets_held(), COMPACT_BUDGET);
        assert_eq!(c.stats().buckets_dropped, 4);
        assert_eq!(c.stats().epochs_dropped, 4);
    }
}
