//! Aggregation of collected telemetry snapshots into the per-port /
//! per-flow / per-port-pair statistics consumed by provenance construction
//! (the "P - Port list in reported telemetry; F - Flow list" inputs of
//! Algorithm 1).

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
#[derive(Debug, Clone, Default)]
pub struct AggTelemetry {
    pub ports: HashMap<PortId, PortAgg>,
    /// (switch, ingress port, egress port) -> bytes (the causality meter).
    pub meters: HashMap<(NodeId, u8, u8), u64>,
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
    pub port_epochs: HashMap<PortId, BTreeMap<u64, PortEpoch>>,
}

impl AggTelemetry {
    /// Build from collected snapshots, keeping only epochs overlapping the
    /// window.
    ///
    /// A switch re-collected while an anomaly persists reports the same
    /// epochs again, more complete; epochs are deduplicated by
    /// (switch, ring slot, epoch id), keeping the latest-taken version, and
    /// the (cumulative) eviction list is taken from each switch's latest
    /// snapshot only.
    pub fn build(snapshots: &[TelemetrySnapshot], window: Window) -> AggTelemetry {
        let mut agg = AggTelemetry {
            window,
            ..Default::default()
        };
        // (switch, slot, id) -> (taken_at, snapshot idx, epoch idx)
        let mut latest_epoch: HashMap<(NodeId, usize, u8), (Nanos, usize, usize)> = HashMap::new();
        let mut latest_snap: HashMap<NodeId, (Nanos, usize)> = HashMap::new();
        for (si, snap) in snapshots.iter().enumerate() {
            agg.collected.insert(snap.switch);
            let ls = latest_snap
                .entry(snap.switch)
                .or_insert((snap.taken_at, si));
            if snap.taken_at >= ls.0 {
                *ls = (snap.taken_at, si);
            }
            for (ei, ep) in snap.epochs.iter().enumerate() {
                let key = (snap.switch, ep.slot, ep.id);
                let cand = (snap.taken_at, si, ei);
                let e = latest_epoch.entry(key).or_insert(cand);
                if cand.0 >= e.0 {
                    *e = cand;
                }
            }
        }
        let mut chosen: Vec<(usize, usize)> = latest_epoch
            .into_values()
            .map(|(_, si, ei)| (si, ei))
            .collect();
        chosen.sort_unstable();
        for (si, ei) in chosen {
            let snap = &snapshots[si];
            let ep = &snap.epochs[ei];
            if window.overlaps(ep.start, ep.end()) {
                agg.add_epoch(snap.switch, ep);
            }
        }
        // Evicted entries: per-switch cumulative, so use the latest
        // snapshot's list only.
        let mut latest: Vec<(NodeId, usize)> = latest_snap
            .into_iter()
            .map(|(sw, (_, si))| (sw, si))
            .collect();
        latest.sort_unstable();
        for (_, si) in latest {
            let snap = &snapshots[si];
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

    #[test]
    fn window_lookback_constructor() {
        let w = Window::lookback(Nanos(10_000_000), Nanos(1 << 20), 2);
        assert_eq!(w.to, Nanos(10_000_000));
        assert_eq!(w.from, Nanos(10_000_000 - 2 * (1 << 20)));
        assert!(w.overlaps(Nanos(9_000_000), Nanos(9_500_000)));
        assert!(!w.overlaps(Nanos(0), Nanos(1000)));
    }
}
