//! Aggregation of collected telemetry snapshots into the per-port /
//! per-flow / per-port-pair statistics consumed by provenance construction
//! (the "P - Port list in reported telemetry; F - Flow list" inputs of
//! Algorithm 1).

use crate::hash::BoundedKeys;
use hawkeye_sim::{FlowKey, Nanos, NodeId, PortId};
use hawkeye_telemetry::{EpochSnapshot, EvictedFlow, FlowRecord, TelemetrySnapshot};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Aggregated egress-port statistics over the diagnosis window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PortAgg {
    pub pkt_num: u64,
    pub paused_num: u64,
    pub qdepth_sum: u64,
}

impl PortAgg {
    /// Average queue depth per enqueued packet (Algorithm 1 line 4).
    pub fn avg_qdepth(&self) -> f64 {
        if self.pkt_num == 0 {
            0.0
        } else {
            self.qdepth_sum as f64 / self.pkt_num as f64
        }
    }
}

/// Aggregated per-flow statistics at one egress port.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FlowAgg {
    pub pkt_num: u64,
    pub paused_num: u64,
    pub qdepth_sum: u64,
    /// Number of distinct epochs in which the flow appeared at this port
    /// (burst classification input).
    pub epochs_active: u32,
}

impl FlowAgg {
    /// Packets attributable to local flow contention — enqueues while the
    /// port was paused are excluded from contention analysis (§3.5.1,
    /// "the port-flow edge construction excludes the paused packets").
    /// The wire does not tie the two counters together, so a record
    /// claiming more paused enqueues than enqueues has none.
    pub fn contention_pkts(&self) -> u64 {
        self.pkt_num.saturating_sub(self.paused_num)
    }

    pub fn avg_qdepth(&self) -> f64 {
        if self.pkt_num == 0 {
            0.0
        } else {
            self.qdepth_sum as f64 / self.pkt_num as f64
        }
    }
}

/// The time window a diagnosis covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    pub from: Nanos,
    pub to: Nanos,
}

impl Default for Window {
    /// The all-covering window.
    fn default() -> Self {
        Window {
            from: Nanos::ZERO,
            to: Nanos::MAX,
        }
    }
}

impl Window {
    /// Window ending at the collection trigger and reaching `epochs_back`
    /// epoch lengths into the past.
    pub fn lookback(at: Nanos, epoch_len: Nanos, epochs_back: u64) -> Window {
        Window {
            from: at.saturating_sub(Nanos(epoch_len.as_nanos() * epochs_back)),
            to: at,
        }
    }

    pub fn overlaps(&self, start: Nanos, end: Nanos) -> bool {
        start < self.to && end > self.from
    }
}

/// One epoch's record at one port: the port counters plus the per-flow
/// records observed there.
pub type PortEpoch = (PortAgg, Vec<(FlowKey, FlowAgg)>);

/// Sort every per-epoch flow list of one port by flow key — the order the
/// contention replay breaks same-time arrivals in. Whoever fills
/// [`AggTelemetry::port_epochs`] calls this once the port's lists are
/// complete; readers borrow the lists as they are.
pub fn sort_epoch_flows(epochs: &mut BTreeMap<u64, PortEpoch>) {
    for (_, flows) in epochs.values_mut() {
        flows.sort_unstable_by_key(|(k, _)| *k);
    }
}

/// All reported telemetry, flattened for graph construction.
///
/// The maps keyed by switch and port ids — `ports`, `meters`,
/// `port_epochs` — hash with the fixed [`BoundedKeys`]: every ingest gate
/// has checked those ids against the fabric, so nothing an uploader sends
/// can pile them into one bucket. `flows` is keyed by flow five-tuples,
/// which the uploader chooses freely, so it keeps the randomly seeded std
/// hasher.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggTelemetry {
    pub ports: HashMap<PortId, PortAgg, BoundedKeys>,
    /// (switch, ingress port, egress port) -> bytes (the causality meter).
    pub meters: HashMap<(NodeId, u8, u8), u64, BoundedKeys>,
    pub flows: HashMap<(FlowKey, PortId), FlowAgg>,
    /// Switches whose telemetry was reported.
    pub collected: BTreeSet<NodeId>,
    /// Epoch length of the underlying telemetry (for rate estimates).
    pub epoch_len: Nanos,
    /// The window that was aggregated.
    pub window: Window,
    /// Per-port, per-epoch records (epoch keyed by start time): the port's
    /// own counters plus the flow records at that port. Contention replay
    /// runs per epoch — Algorithm 1's `ReplayQueue` spreads a flow's
    /// packets over `T`, the *epoch* size — so bursts are not smeared
    /// across the whole window; the per-epoch port queue depths drive
    /// congestion-onset location. Each flow list is sorted by key
    /// ([`sort_epoch_flows`]) where the aggregate is built.
    pub port_epochs: HashMap<PortId, BTreeMap<u64, PortEpoch>, BoundedKeys>,
}

impl AggTelemetry {
    /// Build from collected snapshots, keeping only epochs overlapping the
    /// window.
    ///
    /// A switch re-collected while an anomaly persists reports the same
    /// epochs again, more complete; epochs are deduplicated by
    /// (switch, ring slot, epoch id), keeping the latest-taken version, and
    /// the (cumulative) eviction list is taken from each switch's latest
    /// snapshot only. Both "latest" rules break `taken_at` ties toward the
    /// later position in `snapshots` (and, within a snapshot, in its epoch
    /// list), and the chosen epochs are added in (snapshot, epoch) position
    /// order, so the result is a function of the input sequence alone.
    pub fn build(snapshots: &[TelemetrySnapshot], window: Window) -> AggTelemetry {
        // Sorted, the last candidate of each (switch, slot, id) run is the
        // latest-taken version at the latest position.
        let mut versions: Vec<(NodeId, usize, u8, Nanos, usize, usize)> = snapshots
            .iter()
            .enumerate()
            .flat_map(|(si, s)| {
                s.epochs
                    .iter()
                    .enumerate()
                    .map(move |(ei, ep)| (s.switch, ep.slot, ep.id, s.taken_at, si, ei))
            })
            .collect();
        versions.sort_unstable();
        let (mut flow_recs, mut port_recs, mut meter_recs) = (0, 0, 0);
        let mut chosen: Vec<(usize, usize)> = Vec::with_capacity(versions.len());
        for run in versions.chunk_by(|a, b| (a.0, a.1, a.2) == (b.0, b.1, b.2)) {
            let &(.., si, ei) = run.last().expect("runs are non-empty");
            let ep = &snapshots[si].epochs[ei];
            if window.overlaps(ep.start, ep.end()) {
                chosen.push((si, ei));
                flow_recs += ep.flows.len();
                port_recs += ep.ports.len();
                meter_recs += ep.meter.len();
            }
        }
        chosen.sort_unstable();
        // Evicted entries: per-switch cumulative, so use the latest
        // snapshot's list only — again the last of each switch's run.
        let mut stamps: Vec<(NodeId, Nanos, usize)> = snapshots
            .iter()
            .enumerate()
            .map(|(si, s)| (s.switch, s.taken_at, si))
            .collect();
        stamps.sort_unstable();
        let latest: Vec<usize> = stamps
            .chunk_by(|a, b| a.0 == b.0)
            .map(|run| run.last().expect("runs are non-empty").2)
            .collect();
        let evicted_recs: usize = latest.iter().map(|&si| snapshots[si].evicted.len()).sum();

        let mut agg = AggTelemetry {
            ports: HashMap::with_capacity_and_hasher(port_recs, BoundedKeys::default()),
            meters: HashMap::with_capacity_and_hasher(meter_recs, BoundedKeys::default()),
            flows: HashMap::with_capacity(flow_recs + evicted_recs),
            port_epochs: HashMap::with_capacity_and_hasher(port_recs, BoundedKeys::default()),
            window,
            ..Default::default()
        };
        for (si, ei) in chosen {
            agg.add_epoch(snapshots[si].switch, &snapshots[si].epochs[ei]);
        }
        for si in latest {
            let snap = &snapshots[si];
            agg.collected.insert(snap.switch);
            agg.add_evicted(snap.switch, &snap.evicted);
        }
        agg.port_epochs.values_mut().for_each(sort_epoch_flows);
        agg
    }

    /// Fold one epoch of `switch` into the aggregates: per-flow and
    /// per-port window totals, the per-epoch detail at each port, and the
    /// causality meter. The one accumulation both builders run — [`build`]
    /// over the deduplicated epochs of a snapshot set, the incremental
    /// engine over one switch's ring — so the caller has already chosen
    /// which epochs count, and sorts the per-epoch flow lists
    /// ([`sort_epoch_flows`]) once it has added them all.
    ///
    /// [`build`]: AggTelemetry::build
    pub fn add_epoch(&mut self, switch: NodeId, ep: &EpochSnapshot) {
        self.epoch_len = ep.len;
        for (key, rec) in &ep.flows {
            let (port, ef) = self.add_flow(switch, *key, rec);
            self.port_epochs
                .entry(port)
                .or_default()
                .entry(ep.start.as_nanos())
                .or_default()
                .1
                .push((*key, ef));
        }
        for (port, rec) in &ep.ports {
            let pid = PortId::new(switch, *port);
            let pe = PortAgg {
                pkt_num: rec.pkt_count as u64,
                paused_num: rec.paused_count as u64,
                qdepth_sum: rec.qdepth_sum,
            };
            let p = self.ports.entry(pid).or_default();
            p.pkt_num += pe.pkt_num;
            p.paused_num += pe.paused_num;
            p.qdepth_sum += pe.qdepth_sum;
            self.port_epochs
                .entry(pid)
                .or_default()
                .entry(ep.start.as_nanos())
                .or_default()
                .0 = pe;
        }
        for (ip, op, bytes) in &ep.meter {
            *self.meters.entry((switch, *ip, *op)).or_default() += bytes;
        }
    }

    /// Fold a switch's cumulative eviction list into the per-flow totals.
    /// Their out_port association is kept; the slot's reconstructed timing
    /// is gone, so treat them as in-window, which errs toward completeness.
    pub fn add_evicted(&mut self, switch: NodeId, evicted: &[EvictedFlow]) {
        for ev in evicted {
            self.add_flow(switch, ev.key, &ev.record);
        }
    }

    /// Count one flow record at the egress port it names into the flow's
    /// window totals; returns that port and the record as a one-epoch
    /// [`FlowAgg`].
    fn add_flow(&mut self, switch: NodeId, key: FlowKey, rec: &FlowRecord) -> (PortId, FlowAgg) {
        let port = PortId::new(switch, rec.out_port);
        let one = FlowAgg {
            pkt_num: rec.pkt_count as u64,
            paused_num: rec.paused_count as u64,
            qdepth_sum: rec.qdepth_sum,
            epochs_active: 1,
        };
        let f = self.flows.entry((key, port)).or_default();
        f.pkt_num += one.pkt_num;
        f.paused_num += one.paused_num;
        f.qdepth_sum += one.qdepth_sum;
        f.epochs_active += 1;
        (port, one)
    }

    /// Egress ports of `sw` fed by ingress `in_port`, with byte volumes.
    pub fn meter_out_ports(&self, sw: NodeId, in_port: u8) -> Vec<(u8, u64)> {
        let mut v: Vec<(u8, u64)> = self
            .meters
            .iter()
            .filter(|((s, ip, _), _)| *s == sw && *ip == in_port)
            .map(|((_, _, op), b)| (*op, *b))
            .collect();
        v.sort_unstable();
        v
    }

    /// Per-epoch (port counters, flow list) pairs at `port`, ordered by
    /// epoch start, borrowed: the contention-replay and onset-attribution
    /// input.
    pub fn epoch_detail_at(&self, port: PortId) -> impl Iterator<Item = &PortEpoch> {
        self.port_epochs
            .get(&port)
            .into_iter()
            .flat_map(|eps| eps.values())
    }

    /// The port's peak per-epoch average queue depth (packets) — the
    /// congestion-evidence measure for port-level edges. A transiently
    /// congested port (e.g. a deadlock ring member that froze quickly)
    /// shows a deep queue in one epoch even if the window-wide average is
    /// diluted. Falls back to the window average when per-epoch port data
    /// is absent.
    pub fn peak_qdepth(&self, port: PortId) -> f64 {
        let peak = self
            .epoch_detail_at(port)
            .map(|(pa, _)| pa.avg_qdepth())
            .fold(0.0f64, f64::max);
        if peak > 0.0 {
            peak
        } else {
            self.ports.get(&port).map_or(0.0, |a| a.avg_qdepth())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_telemetry::{EpochSnapshot, FlowRecord, PortRecord};

    fn key(i: u16) -> FlowKey {
        FlowKey::roce(NodeId(0), NodeId(1), i)
    }

    fn snap(switch: u32, start: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            switch: NodeId(switch),
            taken_at: Nanos(start + 100),
            nports: 4,
            max_flows: 64,
            epochs: vec![EpochSnapshot {
                slot: 0,
                id: 0,
                start: Nanos(start),
                len: Nanos(1 << 20),
                flows: vec![(
                    key(1),
                    FlowRecord {
                        pkt_count: 10,
                        paused_count: 4,
                        qdepth_sum: 50,
                        out_port: 2,
                    },
                )],
                ports: vec![(
                    2,
                    PortRecord {
                        pkt_count: 10,
                        paused_count: 4,
                        qdepth_sum: 50,
                    },
                )],
                meter: vec![(0, 2, 10480)],
            }],
            evicted: vec![],
        }
    }

    #[test]
    fn aggregates_within_window() {
        let w = Window {
            from: Nanos(0),
            to: Nanos(2 << 20),
        };
        let agg = AggTelemetry::build(&[snap(7, 0)], w);
        let port = PortId::new(NodeId(7), 2);
        assert_eq!(agg.ports[&port].paused_num, 4);
        assert_eq!(agg.ports[&port].avg_qdepth(), 5.0);
        let fa = agg.flows[&(key(1), port)];
        assert_eq!(fa.contention_pkts(), 6);
        assert_eq!(agg.meter_out_ports(NodeId(7), 0), vec![(2, 10480)]);
        assert!(agg.collected.contains(&NodeId(7)));
    }

    #[test]
    fn excludes_epochs_outside_window() {
        let w = Window {
            from: Nanos(0),
            to: Nanos(100),
        };
        // Epoch starts at 2^21, entirely after the window.
        let agg = AggTelemetry::build(&[snap(7, 1 << 21)], w);
        assert!(agg.ports.is_empty());
        assert!(agg.flows.is_empty());
        // The switch still counts as collected.
        assert!(agg.collected.contains(&NodeId(7)));
    }

    #[test]
    fn merges_multiple_epochs_and_switches() {
        let w = Window {
            from: Nanos(0),
            to: Nanos(4 << 20),
        };
        let mut s1 = snap(7, 0);
        let mut e2 = s1.epochs[0].clone();
        e2.slot = 1;
        e2.start = Nanos(1 << 20);
        s1.epochs.push(e2);
        let s2 = snap(8, 0);
        let agg = AggTelemetry::build(&[s1, s2], w);
        let p7 = PortId::new(NodeId(7), 2);
        assert_eq!(agg.ports[&p7].pkt_num, 20, "two epochs merged");
        assert_eq!(agg.flows[&(key(1), p7)].epochs_active, 2);
        assert_eq!(agg.collected.len(), 2);
    }

    /// Chosen epochs are added in (snapshot, epoch) position order, not in
    /// start order: `epoch_len` is the last added epoch's.
    #[test]
    fn epochs_are_added_in_position_order() {
        let mut late = snap(7, 5 << 20);
        late.epochs[0].len = Nanos(1 << 19);
        let mut early = snap(7, 0);
        early.epochs[0].slot = 1;
        early.epochs[0].len = Nanos(1 << 21);
        let w = Window::default();
        let build = |s: &[TelemetrySnapshot]| AggTelemetry::build(s, w).epoch_len;
        assert_eq!(build(&[late.clone(), early.clone()]), Nanos(1 << 21));
        assert_eq!(build(&[early, late]), Nanos(1 << 19));
    }

    #[test]
    fn window_lookback_constructor() {
        let w = Window::lookback(Nanos(10_000_000), Nanos(1 << 20), 2);
        assert_eq!(w.to, Nanos(10_000_000));
        assert_eq!(w.from, Nanos(10_000_000 - 2 * (1 << 20)));
        assert!(w.overlaps(Nanos(9_000_000), Nanos(9_500_000)));
        assert!(!w.overlaps(Nanos(0), Nanos(1000)));
    }
}

#[cfg(test)]
mod build_props {
    use super::*;
    use hawkeye_telemetry::PortRecord;
    use proptest::prelude::*;

    const L: u64 = 1 << 20;

    /// One upload: (switch, taken_at, epochs as (ring key, variant),
    /// eviction-list variant). Few stamps, so equal-`taken_at`
    /// re-deliveries with different content are common.
    type Upload = (u32, u64, Vec<(u8, u8)>, u8);

    fn upload() -> impl Strategy<Value = Upload> {
        (
            0..3u32,
            0..3u64,
            proptest::collection::vec((0..6u8, 0..4u8), 0..4),
            0..3u8,
        )
    }

    /// Ring key `k` is (slot k % 3, id k); odd variants reuse the key for
    /// an epoch six lengths later, so which version wins decides whether
    /// the window holds it. The content differs by variant; flow keys and
    /// ports are unique within an epoch.
    fn materialize(&(sw, taken, ref eps, ev): &Upload) -> TelemetrySnapshot {
        let epoch = |k: u8, v: u8| EpochSnapshot {
            slot: usize::from(k % 3),
            id: k,
            start: Nanos((u64::from(k) + 6 * u64::from(v % 2)) * L),
            len: Nanos(L),
            flows: (0..=u16::from(v))
                .map(|i| {
                    let rec = FlowRecord {
                        pkt_count: 10 + u32::from(v) * 7 + u32::from(i),
                        paused_count: u32::from(v),
                        qdepth_sum: 5 * u64::from(v) + 1,
                        out_port: 1 + (i % 2) as u8,
                    };
                    (FlowKey::roce(NodeId(0), NodeId(1), i), rec)
                })
                .collect(),
            ports: vec![(
                1,
                PortRecord {
                    pkt_count: 20 + u32::from(v),
                    paused_count: u32::from(v),
                    qdepth_sum: 9 * u64::from(v),
                },
            )],
            meter: vec![(0, 1, 1000 * u64::from(v) + 1)],
        };
        TelemetrySnapshot {
            switch: NodeId(sw),
            taken_at: Nanos(taken),
            nports: 4,
            max_flows: 64,
            epochs: eps.iter().map(|&(k, v)| epoch(k, v)).collect(),
            evicted: (0..ev)
                .map(|i| EvictedFlow {
                    key: FlowKey::roce(NodeId(0), NodeId(1), 20 + u16::from(i)),
                    record: FlowRecord {
                        pkt_count: 3 + u32::from(ev),
                        paused_count: 0,
                        qdepth_sum: 2,
                        out_port: 2,
                    },
                    epoch_id: 0,
                    slot: 0,
                })
                .collect(),
        }
    }

    /// The rule, stated as a walk: a version replaces the held one unless
    /// it was taken strictly earlier — the latest `taken_at` wins, and
    /// among equal stamps the later (snapshot, epoch) position. The same
    /// for each switch's snapshot-level fields. The result holds one
    /// snapshot per switch with its winning epochs in start order.
    fn canonical(seq: &[TelemetrySnapshot]) -> Vec<TelemetrySnapshot> {
        let mut snaps: BTreeMap<NodeId, TelemetrySnapshot> = BTreeMap::new();
        let mut held: BTreeMap<(NodeId, usize, u8), (Nanos, EpochSnapshot)> = BTreeMap::new();
        for s in seq {
            let cur = snaps.entry(s.switch).or_insert_with(|| s.clone());
            if s.taken_at >= cur.taken_at {
                cur.taken_at = s.taken_at;
                cur.evicted = s.evicted.clone();
            }
            for e in &s.epochs {
                let key = (s.switch, e.slot, e.id);
                if held.get(&key).is_none_or(|(t, _)| s.taken_at >= *t) {
                    held.insert(key, (s.taken_at, e.clone()));
                }
            }
        }
        for s in snaps.values_mut() {
            s.epochs.clear();
        }
        for ((sw, ..), (_, e)) in held {
            snaps
                .get_mut(&sw)
                .expect("held epochs have a switch")
                .epochs
                .push(e);
        }
        for s in snaps.values_mut() {
            s.epochs.sort_by_key(|e| (e.start, e.slot, e.id));
        }
        snaps.into_values().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `build` over any delivery — shuffled, with duplicates spliced
        /// in — equals `build` over the canonical set the stated rule
        /// picks from that delivery.
        #[test]
        fn build_keeps_the_latest_later_position(
            uploads in proptest::collection::vec((upload(), 0..1000u32), 1..12),
            dups in proptest::collection::vec((0..64usize, 0..64usize), 0..6),
            window_at in 0..4u8,
        ) {
            let mut order: Vec<usize> = (0..uploads.len()).collect();
            order.sort_by_key(|&i| (uploads[i].1, i));
            let mut seq: Vec<TelemetrySnapshot> =
                order.iter().map(|&i| materialize(&uploads[i].0)).collect();
            for &(which, at) in &dups {
                let copy = seq[which % seq.len()].clone();
                seq.insert(at % (seq.len() + 1), copy);
            }
            let w = match window_at {
                0 => Window::default(),
                1 => Window { from: Nanos(2 * L + 1), to: Nanos(5 * L) },
                2 => Window { from: Nanos(5 * L), to: Nanos(9 * L) },
                _ => Window { from: Nanos(7 * L), to: Nanos(7 * L) },
            };
            prop_assert_eq!(AggTelemetry::build(&seq, w), AggTelemetry::build(&canonical(&seq), w));
        }
    }
}
