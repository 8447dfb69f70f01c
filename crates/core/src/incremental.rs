//! Incremental maintenance of the wait-for provenance graph (Algorithm 1)
//! under a stream of telemetry snapshots.
//!
//! The batch pipeline rebuilds [`AggTelemetry`] and the whole graph for
//! every diagnosis, while a single snapshot only changes the evidence of
//! *one* switch (and, through the causality meters, the port-level edges of
//! its upstream neighbors). The expensive step of a graph is the per-epoch
//! FIFO contention replay
//! ([`contribution`](crate::provenance::contribution)): one step per
//! claimed packet in every epoch where two or more flows contend. The batch
//! build defers it per port to the first read of that port's weights, and
//! a verdict reads few ports, so in the daemon's `serve-diagnose` benchmark
//! it is off the Diagnose path altogether (DESIGN §9.2). This engine still
//! replays every affected port on refresh: its fragments are the eager
//! path, which `assemble_graph` takes as given.
//!
//! [`IncrementalProvenance`] therefore keeps, per switch, the deduplicated
//! epoch ring (keep-latest by `taken_at`, mirroring
//! [`AggTelemetry::build`]'s reconciliation exactly) and incrementally
//! maintained global aggregates, plus a cache of per-port edge fragments.
//! On refresh only the fragments of *dirty* switches — those that received
//! new epochs, aged some out, or sit downstream of one that did — are
//! recomputed; everything else is reused. Graph assembly then replays the
//! deterministic construction order of the batch builder, so the result is
//! **positionally identical** to `build_graph` over the same evidence: the
//! `rebuild == incremental` equivalence property is testable with plain
//! `==` on the adjacency lists.
//!
//! Node lifecycle follows the evidence: a port/flow node appears when a
//! snapshot first carries it and is retired when the epochs mentioning it
//! age past the retention horizon ([`IncrementalProvenance::retire_before`])
//! or fall off the per-switch ring budget.

use crate::aggregate::{sort_epoch_flows, AggTelemetry, Window};
use crate::provenance::{
    assemble_graph, port_causality_edges, port_contention, ProvenanceGraph, ReplayConfig,
};
use hawkeye_sim::{FlowKey, Nanos, NodeId, PortId, Topology};
use hawkeye_telemetry::{EpochSnapshot, EvictedFlow, TelemetrySnapshot};
use std::collections::{BTreeSet, HashMap};

/// Counters describing how much work the engine did — and, more to the
/// point, how much it avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrStats {
    pub snapshots_applied: u64,
    /// Epochs newly inserted into a switch ring.
    pub epochs_applied: u64,
    /// Epochs replaced by a fresher version of themselves (re-collection).
    pub epochs_superseded: u64,
    /// Epochs rejected on arrival because they ended before the horizon.
    pub epochs_skipped: u64,
    /// Epochs removed by aging ([`IncrementalProvenance::retire_before`])
    /// or the per-switch ring budget.
    pub epochs_retired: u64,
    /// Graph reassemblies performed.
    pub refreshes: u64,
    /// Per-port edge fragments recomputed across all refreshes.
    pub frags_recomputed: u64,
    /// Per-port edge fragments served from cache across all refreshes.
    pub frags_reused: u64,
}

/// Per-switch slice of the engine's state: the deduplicated epoch ring and
/// the aggregate keys this switch currently contributes, so its entire
/// contribution can be subtracted in O(own size) when it changes.
#[derive(Debug, Default)]
struct SwitchState {
    /// (ring slot, epoch id) -> (taken_at, epoch); keep-latest by
    /// `taken_at` with later arrivals winning ties — the exact dedup rule
    /// of [`AggTelemetry::build`].
    epochs: HashMap<(usize, u8), (Nanos, EpochSnapshot)>,
    /// Eviction order: `(start, slot, id)` of exactly the epochs in
    /// `epochs`, maintained on insert, on a superseding re-collection that
    /// moves `start`, and on every removal — so the ring budget pops the
    /// oldest instead of scanning the map. An exact ordered set rather
    /// than the store's lazily-invalidated heap: horizon retirement
    /// removes epochs from the middle of the order and, in the daemon,
    /// fires far more often than the budget does, so a heap that is only
    /// cleaned when popped would grow without bound.
    evict_order: BTreeSet<(Nanos, usize, u8)>,
    /// The cumulative eviction list from the switch's latest snapshot.
    evicted_taken: Nanos,
    evicted: Vec<EvictedFlow>,
    k_ports: Vec<PortId>,
    k_flows: Vec<(FlowKey, PortId)>,
    k_meters: Vec<(NodeId, u8, u8)>,
    k_pes: Vec<PortId>,
}

/// See module docs.
#[derive(Debug)]
pub struct IncrementalProvenance {
    replay: ReplayConfig,
    /// Maximum epochs retained per switch (the paper's ring depth, enforced
    /// analyzer-side); oldest-starting epochs fall off first.
    ring_budget: usize,
    /// Epochs ending at or before this never enter (or stay in) the state.
    horizon: Nanos,
    switches: HashMap<NodeId, SwitchState>,
    agg: AggTelemetry,
    dirty: BTreeSet<NodeId>,
    frag_port: HashMap<PortId, Vec<(PortId, f64)>>,
    frag_cont: HashMap<PortId, Vec<(FlowKey, f64)>>,
    graph: ProvenanceGraph,
    graph_valid: bool,
    /// Epoch length changed (mixed telemetry configs): every contention
    /// fragment depends on it, so everything goes dirty.
    len_changed: bool,
    stats: IncrStats,
}

impl IncrementalProvenance {
    pub fn new(replay: ReplayConfig, ring_budget: usize) -> Self {
        IncrementalProvenance {
            replay,
            ring_budget: ring_budget.max(1),
            horizon: Nanos::ZERO,
            switches: HashMap::new(),
            agg: AggTelemetry::default(),
            dirty: BTreeSet::new(),
            frag_port: HashMap::new(),
            frag_cont: HashMap::new(),
            graph: ProvenanceGraph::default(),
            graph_valid: false,
            len_changed: false,
            stats: IncrStats::default(),
        }
    }

    /// [`apply_owned`](Self::apply_owned) for a caller that keeps its
    /// snapshot.
    pub fn apply(&mut self, snap: &TelemetrySnapshot) -> bool {
        self.apply_owned(snap.clone())
    }

    /// Ingest one snapshot: dedup its epochs into the switch's ring
    /// (keep-latest), adopt its eviction list if newer, enforce the ring
    /// budget. Epochs and the eviction list are moved into the ring, never
    /// cloned. Returns whether any evidence actually changed.
    pub fn apply_owned(&mut self, snap: TelemetrySnapshot) -> bool {
        self.stats.snapshots_applied += 1;
        self.agg.collected.insert(snap.switch);
        let st = self.switches.entry(snap.switch).or_default();
        let mut changed = false;
        for ep in snap.epochs {
            if ep.end() <= self.horizon {
                self.stats.epochs_skipped += 1;
                continue;
            }
            if self.agg.epoch_len != Nanos::ZERO && ep.len != self.agg.epoch_len {
                self.len_changed = true;
            }
            let key = (ep.slot, ep.id);
            match st.epochs.get_mut(&key) {
                Some(cur) if snap.taken_at < cur.0 => {} // stale re-delivery
                Some(cur) => {
                    self.stats.epochs_superseded += 1;
                    if cur.1 != ep {
                        changed = true;
                    }
                    if cur.1.start != ep.start {
                        // Ring-key reuse: the epoch moves in the order.
                        st.evict_order.remove(&(cur.1.start, key.0, key.1));
                        st.evict_order.insert((ep.start, key.0, key.1));
                    }
                    *cur = (snap.taken_at, ep);
                }
                None => {
                    st.evict_order.insert((ep.start, key.0, key.1));
                    st.epochs.insert(key, (snap.taken_at, ep));
                    self.stats.epochs_applied += 1;
                    changed = true;
                }
            }
        }
        // Ring budget: oldest-starting epochs age out first.
        while st.epochs.len() > self.ring_budget {
            let (_, slot, id) = st
                .evict_order
                .pop_first()
                .expect("every ring epoch has an eviction-order entry");
            st.epochs.remove(&(slot, id));
            self.stats.epochs_retired += 1;
            changed = true;
        }
        if snap.taken_at >= st.evicted_taken {
            st.evicted_taken = snap.taken_at;
            if st.evicted != snap.evicted {
                st.evicted = snap.evicted;
                changed = true;
            }
        }
        if changed {
            self.dirty.insert(snap.switch);
            self.graph_valid = false;
        }
        changed
    }

    /// Age out every epoch ending at or before `horizon`; port and flow
    /// nodes whose evidence is gone disappear from the next graph. The
    /// horizon only moves forward.
    pub fn retire_before(&mut self, horizon: Nanos) -> u64 {
        if horizon <= self.horizon {
            return 0;
        }
        self.horizon = horizon;
        let mut retired = 0;
        for (&sw, st) in &mut self.switches {
            let before = st.epochs.len();
            let order = &mut st.evict_order;
            st.epochs.retain(|&(slot, id), (_, ep)| {
                let keep = ep.end() > horizon;
                if !keep {
                    order.remove(&(ep.start, slot, id));
                }
                keep
            });
            let gone = (before - st.epochs.len()) as u64;
            if gone > 0 {
                retired += gone;
                self.dirty.insert(sw);
                self.graph_valid = false;
            }
        }
        self.stats.epochs_retired += retired;
        retired
    }

    /// Re-aggregate dirty switches, recompute the affected per-port edge
    /// fragments, and reassemble the graph. No-op when nothing changed.
    pub fn refresh(&mut self, topo: &Topology) {
        if self.graph_valid && self.dirty.is_empty() {
            return;
        }
        if self.len_changed {
            // Every contention fragment normalizes by the epoch length.
            let all: Vec<NodeId> = self.switches.keys().copied().collect();
            self.dirty.extend(all);
            self.len_changed = false;
        }
        let dirty: Vec<NodeId> = self.dirty.iter().copied().collect();
        for &sw in &dirty {
            self.reaggregate_switch(sw);
        }
        // Fragments of removed ports die with them.
        let live = &self.agg.ports;
        self.frag_port.retain(|p, _| live.contains_key(p));
        self.frag_cont.retain(|p, _| live.contains_key(p));
        // A port's fragments depend on its own switch (counters, per-epoch
        // flow lists) and on its link peer (meters, downstream queue
        // depths) — recompute exactly those touching a dirty switch.
        let affected: Vec<PortId> = self
            .agg
            .ports
            .keys()
            .copied()
            .filter(|p| self.dirty.contains(&p.node) || self.dirty.contains(&topo.peer(*p).node))
            .collect();
        for &pi in &affected {
            self.frag_port
                .insert(pi, port_causality_edges(&self.agg, topo, self.replay, pi));
            self.frag_cont
                .insert(pi, port_contention(&self.agg, topo, self.replay, pi));
        }
        self.stats.frags_recomputed += affected.len() as u64;
        self.stats.frags_reused += (self.agg.ports.len() - affected.len()) as u64;
        self.graph = assemble_graph(&self.agg, &self.frag_port, &self.frag_cont);
        self.graph_valid = true;
        self.dirty.clear();
        self.stats.refreshes += 1;
    }

    /// Subtract one switch's previous contribution from the global
    /// aggregates and re-add it from its current epoch ring through
    /// [`AggTelemetry::add_epoch`] / [`AggTelemetry::add_evicted`] — the
    /// arithmetic [`AggTelemetry::build`] runs — recording the keys the
    /// switch now contributes.
    fn reaggregate_switch(&mut self, sw: NodeId) {
        let Some(st) = self.switches.get_mut(&sw) else {
            return;
        };
        for p in std::mem::take(&mut st.k_ports) {
            self.agg.ports.remove(&p);
        }
        for k in std::mem::take(&mut st.k_flows) {
            self.agg.flows.remove(&k);
        }
        for k in std::mem::take(&mut st.k_meters) {
            self.agg.meters.remove(&k);
        }
        for p in std::mem::take(&mut st.k_pes) {
            self.agg.port_epochs.remove(&p);
        }
        let mut eps: Vec<&(Nanos, EpochSnapshot)> = st.epochs.values().collect();
        eps.sort_unstable_by_key(|(_, ep)| (ep.start, ep.slot, ep.id));
        let mut k_ports: BTreeSet<PortId> = BTreeSet::new();
        let mut k_flows: BTreeSet<(FlowKey, PortId)> = BTreeSet::new();
        let mut k_meters: BTreeSet<(NodeId, u8, u8)> = BTreeSet::new();
        let mut k_pes: BTreeSet<PortId> = BTreeSet::new();
        for (_, ep) in eps {
            self.agg.add_epoch(sw, ep);
            for (key, rec) in &ep.flows {
                let port = PortId::new(sw, rec.out_port);
                k_flows.insert((*key, port));
                k_pes.insert(port);
            }
            for (port, _) in &ep.ports {
                let pid = PortId::new(sw, *port);
                k_ports.insert(pid);
                k_pes.insert(pid);
            }
            for (ip, op, _) in &ep.meter {
                k_meters.insert((sw, *ip, *op));
            }
        }
        self.agg.add_evicted(sw, &st.evicted);
        for ev in &st.evicted {
            k_flows.insert((ev.key, PortId::new(sw, ev.record.out_port)));
        }
        for p in &k_pes {
            if let Some(epochs) = self.agg.port_epochs.get_mut(p) {
                sort_epoch_flows(epochs);
            }
        }
        st.k_ports = k_ports.into_iter().collect();
        st.k_flows = k_flows.into_iter().collect();
        st.k_meters = k_meters.into_iter().collect();
        st.k_pes = k_pes.into_iter().collect();
    }

    /// The current graph, refreshing first if needed.
    pub fn graph(&mut self, topo: &Topology) -> &ProvenanceGraph {
        self.refresh(topo);
        &self.graph
    }

    /// The incrementally maintained aggregate (refresh first for a current
    /// view).
    pub fn agg(&self) -> &AggTelemetry {
        &self.agg
    }

    /// Switches that have delivered at least one snapshot.
    pub fn collected(&self) -> &BTreeSet<NodeId> {
        &self.agg.collected
    }

    /// Total epochs currently held across all switch rings.
    pub fn epochs_held(&self) -> usize {
        self.switches.values().map(|s| s.epochs.len()).sum()
    }

    /// Cached per-port fragments currently held (pause + contention
    /// caches). Bounded by the live port set, which retirement shrinks —
    /// the serve daemon's bounded-memory assertion watches this.
    pub fn fragments_held(&self) -> usize {
        self.frag_port.len() + self.frag_cont.len()
    }

    /// Nodes (ports + flows) in the graph as of the last refresh.
    pub fn node_count(&self) -> usize {
        self.graph.ports.len() + self.graph.flows.len()
    }

    /// The retention horizon (epochs ending at or before it are gone).
    pub fn horizon(&self) -> Nanos {
        self.horizon
    }

    pub fn stats(&self) -> &IncrStats {
        &self.stats
    }

    /// Switches whose fragments are pending recomputation: dirtied by
    /// apply/retire since the last [`refresh`](Self::refresh). The serve
    /// daemon's audit trail records this set at diagnose time — it is
    /// exactly the telemetry that changed since the graph was last
    /// rebuilt.
    pub fn dirty_switches(&self) -> Vec<NodeId> {
        self.dirty.iter().copied().collect()
    }

    /// The batch-equivalent window of the current state: everything after
    /// the horizon. Feeding [`AggTelemetry::build`] the same snapshots with
    /// this window yields the aggregate this engine maintains.
    pub fn window(&self) -> Window {
        Window {
            from: self.horizon,
            to: Nanos::MAX,
        }
    }
}

/// Merge per-shard evidence fragment sets into one fleet-wide snapshot
/// set: the disjoint union over switches, keeping the latest-taken
/// snapshot wherever shards overlap (a switch mid-migration between two
/// shard daemons may briefly be reported by both), in switch-id order —
/// exactly the shape the monolithic daemon's own gather produces, so
/// everything downstream of the merge is oblivious to sharding.
pub fn merge_fragment_sets(shards: Vec<Vec<TelemetrySnapshot>>) -> Vec<TelemetrySnapshot> {
    let mut all: Vec<TelemetrySnapshot> = shards.into_iter().flatten().collect();
    // Latest-taken first within a switch, so the dedup keeps it; later
    // shard position wins ties, matching the store's keep-latest rule —
    // reversed first, the stable sort keeps later positions ahead among
    // equal stamps.
    all.reverse();
    all.sort_by(|a, b| a.switch.cmp(&b.switch).then(b.taken_at.cmp(&a.taken_at)));
    all.dedup_by_key(|s| s.switch);
    all
}

/// Build the fleet-wide aggregates and provenance graph from per-shard
/// fragment sets, through the same `assemble_graph` construction order the
/// batch builder and the incremental engine share. Because the merge
/// reproduces the monolithic gather's switch-sorted snapshot set, the
/// result is **positionally identical** to `build_graph` over a single
/// unsharded store holding the same evidence — the cross-shard parity
/// property `tests/fragment_merge.rs` pins down. This is deliberately a
/// *central* assembly: port-causality edges read the link-peer switch's
/// meters and aggregates, which may live in another shard, so per-shard
/// graph fragments would be wrong at every shard boundary.
pub fn assemble_from_fragments(
    shards: Vec<Vec<TelemetrySnapshot>>,
    window: Window,
    topo: &Topology,
    replay: ReplayConfig,
) -> (AggTelemetry, ProvenanceGraph) {
    let merged = merge_fragment_sets(shards);
    let agg = AggTelemetry::build(&merged, window);
    let graph = crate::provenance::build_graph(&agg, topo, replay);
    (agg, graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::build_graph;
    use hawkeye_telemetry::{FlowRecord, PortRecord};

    fn key(i: u16) -> FlowKey {
        FlowKey::roce(NodeId(100), NodeId(101), i)
    }

    fn epoch(slot: usize, id: u8, start: u64, nflows: u16) -> EpochSnapshot {
        EpochSnapshot {
            slot,
            id,
            start: Nanos(start),
            len: Nanos(1 << 20),
            flows: (0..nflows)
                .map(|i| {
                    (
                        key(i),
                        FlowRecord {
                            pkt_count: 40 + u32::from(i),
                            paused_count: 4,
                            qdepth_sum: 200,
                            out_port: 1,
                        },
                    )
                })
                .collect(),
            ports: vec![(
                1,
                PortRecord {
                    pkt_count: 50,
                    paused_count: 8,
                    qdepth_sum: 600,
                },
            )],
            meter: vec![(0, 1, 52_400)],
        }
    }

    fn snap(sw: u32, taken: u64, epochs: Vec<EpochSnapshot>) -> TelemetrySnapshot {
        TelemetrySnapshot {
            switch: NodeId(sw),
            taken_at: Nanos(taken),
            nports: 4,
            max_flows: 64,
            epochs,
            evicted: vec![],
        }
    }

    fn topo() -> Topology {
        hawkeye_sim::chain(3, 1, hawkeye_sim::EVAL_BANDWIDTH, hawkeye_sim::EVAL_DELAY)
    }

    fn assert_matches_batch(
        eng: &mut IncrementalProvenance,
        fed: &[TelemetrySnapshot],
        topo: &Topology,
    ) {
        let batch = build_graph(
            &AggTelemetry::build(fed, eng.window()),
            topo,
            ReplayConfig::default(),
        );
        let g = eng.graph(topo);
        assert_eq!(g.ports, batch.ports);
        assert_eq!(g.flows, batch.flows);
        assert_eq!(g.port_edges, batch.port_edges);
        assert_eq!(g.flow_port_edges, batch.flow_port_edges);
        assert_eq!(g.port_flow_edges(), batch.port_flow_edges());
    }

    #[test]
    fn single_snapshot_matches_batch() {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let s = snap(sws[0].0, 2_000_000, vec![epoch(0, 1, 0, 3)]);
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 64);
        assert!(eng.apply(&s));
        assert_matches_batch(&mut eng, &[s], &topo);
    }

    #[test]
    fn duplicate_redelivery_changes_nothing() {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let s = snap(sws[0].0, 2_000_000, vec![epoch(0, 1, 0, 3)]);
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 64);
        assert!(eng.apply(&s));
        eng.refresh(&topo);
        let before = eng.stats;
        assert!(!eng.apply(&s), "byte-identical redelivery is a no-op");
        eng.refresh(&topo);
        assert_eq!(eng.stats.frags_recomputed, before.frags_recomputed);
        assert_matches_batch(&mut eng, &[s.clone(), s], &topo);
    }

    #[test]
    fn fresher_version_of_same_epoch_supersedes() {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let partial = snap(sws[0].0, 1_500_000, vec![epoch(0, 1, 0, 2)]);
        let complete = snap(sws[0].0, 2_000_000, vec![epoch(0, 1, 0, 5)]);
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 64);
        eng.apply(&partial);
        eng.apply(&complete);
        assert_eq!(eng.stats().epochs_superseded, 1);
        assert_matches_batch(&mut eng, &[partial, complete], &topo);
    }

    #[test]
    fn stale_redelivery_is_ignored() {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let complete = snap(sws[0].0, 2_000_000, vec![epoch(0, 1, 0, 5)]);
        let partial = snap(sws[0].0, 1_500_000, vec![epoch(0, 1, 0, 2)]);
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 64);
        eng.apply(&complete);
        assert!(!eng.apply(&partial), "older taken_at never wins");
        // Batch sees both, keeps the later-taken one: still equivalent.
        assert_matches_batch(&mut eng, &[complete, partial], &topo);
    }

    #[test]
    fn untouched_switch_fragments_are_reused() {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        // sw2 is not adjacent to sw0 in the 3-switch chain.
        let far = snap(sws[2].0, 2_000_000, vec![epoch(0, 1, 0, 3)]);
        let near = snap(sws[0].0, 2_100_000, vec![epoch(0, 2, 1 << 20, 2)]);
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 64);
        eng.apply(&far);
        eng.refresh(&topo);
        eng.apply(&near);
        eng.refresh(&topo);
        assert!(
            eng.stats().frags_reused > 0,
            "sw2's fragments must be served from cache: {:?}",
            eng.stats()
        );
        assert_matches_batch(&mut eng, &[far, near], &topo);
    }

    #[test]
    fn retire_before_ages_nodes_out() {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let old = epoch(0, 1, 0, 3);
        let new = epoch(1, 2, 1 << 20, 2);
        let s = snap(sws[0].0, 3_000_000, vec![old, new]);
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 64);
        eng.apply(&s);
        eng.refresh(&topo);
        assert_eq!(eng.epochs_held(), 2);
        assert_eq!(eng.retire_before(Nanos(1 << 20)), 1);
        assert_eq!(eng.epochs_held(), 1);
        // Batch over the post-horizon window agrees with the aged state.
        assert_matches_batch(&mut eng, std::slice::from_ref(&s), &topo);
        // Retiring everything empties the graph.
        eng.retire_before(Nanos(1 << 22));
        assert_matches_batch(&mut eng, &[s], &topo);
        assert!(eng.graph(&topo).ports.is_empty());
    }

    #[test]
    fn ring_budget_keeps_newest_epochs() {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 2);
        let mut fed = Vec::new();
        for i in 0u64..4 {
            let s = snap(
                sws[0].0,
                3_000_000 + i,
                vec![epoch(i as usize % 2, i as u8, i << 20, 2)],
            );
            eng.apply(&s);
            fed.push(s);
        }
        assert_eq!(eng.epochs_held(), 2);
        assert_eq!(eng.stats().epochs_retired, 2);
        let g = eng.graph(&topo).clone();
        // The engine's ring equals batch over only the snapshots that
        // survive the budget (the two newest-starting epochs).
        let batch = build_graph(
            &AggTelemetry::build(&fed[2..], Window::default()),
            &topo,
            ReplayConfig::default(),
        );
        assert_eq!(g.ports, batch.ports);
        assert_eq!(g.port_flow_edges(), batch.port_flow_edges());
    }

    #[test]
    fn eviction_list_tracks_latest_snapshot() {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let mut s1 = snap(sws[0].0, 2_000_000, vec![epoch(0, 1, 0, 2)]);
        s1.evicted = vec![EvictedFlow {
            key: key(40),
            record: FlowRecord {
                pkt_count: 9,
                paused_count: 1,
                qdepth_sum: 12,
                out_port: 1,
            },
            epoch_id: 0,
            slot: 0,
        }];
        let mut s2 = snap(sws[0].0, 2_500_000, vec![epoch(1, 2, 1 << 20, 2)]);
        s2.evicted = s1.evicted.clone();
        s2.evicted.push(EvictedFlow {
            key: key(41),
            record: FlowRecord {
                pkt_count: 3,
                paused_count: 0,
                qdepth_sum: 4,
                out_port: 1,
            },
            epoch_id: 1,
            slot: 1,
        });
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 64);
        eng.apply(&s1);
        eng.apply(&s2);
        assert_matches_batch(&mut eng, &[s1, s2], &topo);
    }

    /// Merging per-shard fragment sets reproduces the monolithic gather:
    /// switch-sorted disjoint union, latest-taken winning overlaps.
    #[test]
    fn merge_fragment_sets_is_sorted_keep_latest_union() {
        let a = snap(3, 100, vec![epoch(0, 1, 0, 1)]);
        let b = snap(1, 100, vec![epoch(0, 1, 0, 2)]);
        let c = snap(2, 100, vec![epoch(0, 1, 0, 1)]);
        // Switch 1 reported by two shards (mid-migration): the later-taken
        // snapshot must win regardless of shard order.
        let b_newer = snap(1, 200, vec![epoch(1, 2, 1 << 20, 2)]);
        let merged = merge_fragment_sets(vec![
            vec![a.clone(), b.clone()],
            vec![c.clone(), b_newer.clone()],
        ]);
        assert_eq!(
            merged.iter().map(|s| s.switch.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(merged[0], b_newer, "latest-taken snapshot must win");
        assert_eq!(merged[1], c);
        assert_eq!(merged[2], a);

        // Equal stamps: the later shard position wins, as in the store.
        let narrow = TelemetrySnapshot {
            nports: 1,
            ..b.clone()
        };
        let wide = TelemetrySnapshot { nports: 2, ..b };
        for (first, second) in [(&narrow, &wide), (&wide, &narrow)] {
            let merged = merge_fragment_sets(vec![vec![first.clone()], vec![second.clone()]]);
            assert_eq!(merged, vec![second.clone()], "later shard loses a tie");
        }
    }

    /// A graph assembled from arbitrarily partitioned fragments is
    /// positionally identical to `build_graph` over the whole set.
    #[test]
    fn assemble_from_fragments_matches_build_graph() {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let snaps: Vec<TelemetrySnapshot> = sws
            .iter()
            .map(|sw| snap(sw.0, 2_000_000, vec![epoch(0, 1, 0, 3)]))
            .collect();
        let window = Window {
            from: Nanos::ZERO,
            to: Nanos::MAX,
        };
        let whole = AggTelemetry::build(&snaps, window);
        let expect = build_graph(&whole, &topo, ReplayConfig::default());
        for parts in [1usize, 2, 3] {
            let mut shards: Vec<Vec<TelemetrySnapshot>> = vec![Vec::new(); parts];
            for (i, s) in snaps.iter().enumerate() {
                shards[i % parts].push(s.clone());
            }
            let (agg, graph) =
                assemble_from_fragments(shards, window, &topo, ReplayConfig::default());
            assert_eq!(graph, expect, "{parts}-way partition diverged");
            assert_eq!(agg.ports.len(), whole.ports.len());
        }
    }
}

/// The ring-budget eviction index against the O(ring) scan it replaced.
#[cfg(test)]
mod eviction_props {
    use super::*;
    use proptest::prelude::*;

    const EPOCH_LEN: u64 = 1 << 10;

    type Ring = HashMap<(usize, u8), (Nanos, EpochSnapshot)>;

    /// The engine's ring bookkeeping as it was before the ordered index:
    /// same dedup rule, same counters, eviction by a full `min()` scan
    /// over the map. Kept as the reference the index is checked against.
    #[derive(Default)]
    struct ScanOracle {
        budget: usize,
        horizon: Nanos,
        rings: HashMap<NodeId, Ring>,
        evicted: HashMap<NodeId, (Nanos, Vec<EvictedFlow>)>,
        stats: IncrStats,
    }

    impl ScanOracle {
        fn apply(&mut self, snap: &TelemetrySnapshot) -> bool {
            self.stats.snapshots_applied += 1;
            let ring = self.rings.entry(snap.switch).or_default();
            let mut changed = false;
            for ep in &snap.epochs {
                if ep.end() <= self.horizon {
                    self.stats.epochs_skipped += 1;
                    continue;
                }
                match ring.get_mut(&(ep.slot, ep.id)) {
                    Some(cur) if snap.taken_at < cur.0 => {}
                    Some(cur) => {
                        self.stats.epochs_superseded += 1;
                        changed |= cur.1 != *ep;
                        *cur = (snap.taken_at, ep.clone());
                    }
                    None => {
                        ring.insert((ep.slot, ep.id), (snap.taken_at, ep.clone()));
                        self.stats.epochs_applied += 1;
                        changed = true;
                    }
                }
            }
            while ring.len() > self.budget {
                let oldest = ring
                    .iter()
                    .map(|(&k, v)| (v.1.start, k.0, k.1))
                    .min()
                    .map(|(_, slot, id)| (slot, id))
                    .expect("non-empty ring has an oldest epoch");
                ring.remove(&oldest);
                self.stats.epochs_retired += 1;
                changed = true;
            }
            let ev = self.evicted.entry(snap.switch).or_default();
            if snap.taken_at >= ev.0 {
                ev.0 = snap.taken_at;
                if ev.1 != snap.evicted {
                    ev.1 = snap.evicted.clone();
                    changed = true;
                }
            }
            changed
        }

        fn retire_before(&mut self, horizon: Nanos) -> u64 {
            if horizon <= self.horizon {
                return 0;
            }
            self.horizon = horizon;
            let mut retired = 0;
            for ring in self.rings.values_mut() {
                let before = ring.len();
                ring.retain(|_, (_, ep)| ep.end() > horizon);
                retired += (before - ring.len()) as u64;
            }
            self.stats.epochs_retired += retired;
            retired
        }

        fn held(&self) -> BTreeSet<(NodeId, usize, u8, Nanos)> {
            self.rings
                .iter()
                .flat_map(|(&sw, ring)| ring.iter().map(move |(k, v)| (sw, k.0, k.1, v.1.start)))
                .collect()
        }
    }

    fn held(eng: &IncrementalProvenance) -> BTreeSet<(NodeId, usize, u8, Nanos)> {
        eng.switches
            .iter()
            .flat_map(|(&sw, st)| {
                // The index is exactly the ring, re-keyed.
                let ring: BTreeSet<_> = st
                    .epochs
                    .iter()
                    .map(|(k, v)| (v.1.start, k.0, k.1))
                    .collect();
                assert_eq!(st.evict_order, ring, "index drifted from the ring");
                ring.into_iter()
                    .map(move |(start, slot, id)| (sw, slot, id, start))
            })
            .collect()
    }

    #[derive(Debug, Clone)]
    enum Op {
        Apply(TelemetrySnapshot),
        Retire(Nanos),
    }

    /// Slot, id and start are drawn independently, so a ring key is
    /// re-collected stale, fresher, and fresher *under a different start*.
    fn op_strategy() -> impl Strategy<Value = Op> {
        (
            (0..9u8, 0..2u32, 0..3usize, 0..3u8),
            (0..12u64, 0..16u64, 0..3u16, 0..2u8),
        )
            .prop_map(|((kind, sw, slot, id), (step, taken, nflows, nev))| {
                if kind == 0 {
                    return Op::Retire(Nanos(step * EPOCH_LEN));
                }
                let flow = |i: u16| FlowKey::roce(NodeId(100), NodeId(101), i);
                let record = hawkeye_telemetry::FlowRecord {
                    pkt_count: 10 + u32::from(nflows),
                    paused_count: 1,
                    qdepth_sum: 20,
                    out_port: 1,
                };
                Op::Apply(TelemetrySnapshot {
                    switch: NodeId(sw),
                    taken_at: Nanos(taken),
                    nports: 4,
                    max_flows: 64,
                    epochs: vec![EpochSnapshot {
                        slot,
                        id,
                        start: Nanos(step * EPOCH_LEN),
                        len: Nanos(EPOCH_LEN),
                        flows: (0..nflows).map(|i| (flow(i), record)).collect(),
                        ports: vec![],
                        meter: vec![],
                    }],
                    evicted: (0..u16::from(nev))
                        .map(|i| EvictedFlow {
                            key: flow(40 + i),
                            record,
                            epoch_id: id,
                            slot,
                        })
                        .collect(),
                })
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// After every operation the engine holds exactly the epochs the
        /// scan oracle holds, with equal counters, at budgets that evict
        /// on nearly every apply (1, 2) and never (ring-sized) — and the
        /// borrowing entry is the owning one.
        #[test]
        fn index_evicts_what_the_scan_evicted(
            ops in proptest::collection::vec(op_strategy(), 1..64),
            budget in (0..3usize).prop_map(|i| [1, 2, 9][i]),
        ) {
            let mut owned = IncrementalProvenance::new(ReplayConfig::default(), budget);
            let mut borrowed = IncrementalProvenance::new(ReplayConfig::default(), budget);
            let mut oracle = ScanOracle { budget, ..ScanOracle::default() };
            for op in ops {
                match op {
                    Op::Apply(snap) => {
                        let expect = oracle.apply(&snap);
                        prop_assert_eq!(borrowed.apply(&snap), expect);
                        prop_assert_eq!(owned.apply_owned(snap), expect);
                    }
                    Op::Retire(h) => {
                        let expect = oracle.retire_before(h);
                        prop_assert_eq!(borrowed.retire_before(h), expect);
                        prop_assert_eq!(owned.retire_before(h), expect);
                    }
                }
                prop_assert_eq!(&held(&owned), &oracle.held());
                prop_assert_eq!(held(&borrowed), oracle.held());
                prop_assert_eq!(owned.stats, oracle.stats);
                prop_assert_eq!(borrowed.stats, oracle.stats);
                prop_assert_eq!(&owned.dirty, &borrowed.dirty);
            }
        }
    }
}
