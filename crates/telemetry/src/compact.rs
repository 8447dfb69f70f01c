//! Compacted telemetry aggregates: the lossy tier behind the raw epoch
//! ring.
//!
//! A long-running controller cannot keep raw [`EpochSnapshot`]s forever —
//! the paper's ring holds ~25 ms — but aged epochs still answer coarse
//! questions ("how much did this flow move through switch 7 last second?")
//! if they are folded into per-flow/per-port *sums* instead of dropped:
//! the same memory-vs-fidelity trade switch-side sketching systems make,
//! applied controller-side. A [`CompactedEpoch`] is one such bucket: the
//! additive counters of every raw epoch folded into it, over the time
//! range those epochs covered. Folding is commutative and associative, so
//! bucket *totals* are independent of fold order even though bucket
//! boundaries are not.
//!
//! What survives compaction: per-flow packet/pause/queue-depth sums and
//! active-epoch counts, per-port sums, causality-meter byte totals, and
//! the covered `[from, to)` range. What is lost: per-epoch alignment —
//! a bucket cannot participate in a diagnosis window, which is why the
//! store serves windowed reads from the raw ring only.

use crate::snapshot::EpochSnapshot;
use hawkeye_sim::{FlowKey, Nanos};
use serde::{Deserialize, Serialize};

/// Additive per-flow counters summed over every folded epoch the flow was
/// active in. Widened to `u64` — a compacted bucket may cover hours.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowTotals {
    pub pkt_count: u64,
    pub paused_count: u64,
    pub qdepth_sum: u64,
    /// Folded epochs in which the flow had a record.
    pub epochs_active: u32,
}

/// Additive per-port counters summed over every folded epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortTotals {
    pub pkt_count: u64,
    pub paused_count: u64,
    pub qdepth_sum: u64,
}

/// One compacted bucket: the additive aggregate of a set of raw epochs
/// from a single switch. All three tables are kept sorted by key, so a
/// bucket has exactly one representation per value — the property the
/// wire codec's canonical-encoding guarantee rests on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompactedEpoch {
    /// Earliest start among folded epochs.
    pub from: Nanos,
    /// Latest end among folded epochs.
    pub to: Nanos,
    /// Raw epochs folded in.
    pub epochs: u32,
    /// Per-(flow, out port) sums, sorted by (key, out_port).
    pub flows: Vec<(FlowKey, u8, FlowTotals)>,
    /// Per-port sums, sorted by port.
    pub ports: Vec<(u8, PortTotals)>,
    /// Causality-meter byte totals, sorted by (in_port, out_port).
    pub meter: Vec<(u8, u8, u64)>,
}

impl Default for CompactedEpoch {
    fn default() -> Self {
        CompactedEpoch {
            from: Nanos::MAX,
            to: Nanos::ZERO,
            epochs: 0,
            flows: Vec::new(),
            ports: Vec::new(),
            meter: Vec::new(),
        }
    }
}

impl CompactedEpoch {
    /// Whether anything has been folded in yet.
    pub fn is_empty(&self) -> bool {
        self.epochs == 0
    }

    /// Fold one raw epoch's counters into this bucket.
    ///
    /// Existing keys are accumulated in place; keys new to the bucket are
    /// gathered, appended in one reserved extend and re-sorted once —
    /// never a per-entry `Vec::insert` shifting the tail. In steady state
    /// (the same flow set epoch after epoch) a fold is pure accumulation
    /// with zero allocation, which is what `stage_fold_ns` measures on the
    /// compactor thread.
    pub fn fold(&mut self, ep: &EpochSnapshot) {
        self.epochs += 1;
        self.from = self.from.min(ep.start);
        self.to = self.to.max(ep.end());

        let mut new_flows: Vec<(FlowKey, u8, FlowTotals)> = Vec::new();
        for (key, rec) in &ep.flows {
            let k = (*key, rec.out_port);
            let t = match self
                .flows
                .binary_search_by_key(&k, |(fk, op, _)| (*fk, *op))
            {
                Ok(i) => &mut self.flows[i].2,
                Err(_) => match new_flows.iter_mut().find(|(fk, op, _)| (*fk, *op) == k) {
                    Some(row) => &mut row.2,
                    None => {
                        new_flows.push((k.0, k.1, FlowTotals::default()));
                        &mut new_flows.last_mut().expect("just pushed").2
                    }
                },
            };
            t.pkt_count += u64::from(rec.pkt_count);
            t.paused_count += u64::from(rec.paused_count);
            t.qdepth_sum += rec.qdepth_sum;
            t.epochs_active += 1;
        }
        if !new_flows.is_empty() {
            self.flows.reserve(new_flows.len());
            self.flows.append(&mut new_flows);
            self.flows.sort_unstable_by_key(|(fk, op, _)| (*fk, *op));
        }

        let mut new_ports: Vec<(u8, PortTotals)> = Vec::new();
        for (port, rec) in &ep.ports {
            let t = match self.ports.binary_search_by_key(port, |(p, _)| *p) {
                Ok(i) => &mut self.ports[i].1,
                Err(_) => match new_ports.iter_mut().find(|(p, _)| p == port) {
                    Some(row) => &mut row.1,
                    None => {
                        new_ports.push((*port, PortTotals::default()));
                        &mut new_ports.last_mut().expect("just pushed").1
                    }
                },
            };
            t.pkt_count += u64::from(rec.pkt_count);
            t.paused_count += u64::from(rec.paused_count);
            t.qdepth_sum += rec.qdepth_sum;
        }
        if !new_ports.is_empty() {
            self.ports.reserve(new_ports.len());
            self.ports.append(&mut new_ports);
            self.ports.sort_unstable_by_key(|(p, _)| *p);
        }

        let mut new_meter: Vec<(u8, u8, u64)> = Vec::new();
        for (ip, op, bytes) in &ep.meter {
            let k = (*ip, *op);
            match self.meter.binary_search_by_key(&k, |(i, o, _)| (*i, *o)) {
                Ok(i) => self.meter[i].2 += bytes,
                Err(_) => match new_meter.iter_mut().find(|(i, o, _)| (*i, *o) == k) {
                    Some(row) => row.2 += bytes,
                    None => new_meter.push((*ip, *op, *bytes)),
                },
            }
        }
        if !new_meter.is_empty() {
            self.meter.reserve(new_meter.len());
            self.meter.append(&mut new_meter);
            self.meter.sort_unstable_by_key(|(i, o, _)| (*i, *o));
        }
    }

    /// Totals for one flow key summed across out-ports, if the flow was
    /// seen in this bucket.
    pub fn flow_total(&self, key: &FlowKey) -> Option<FlowTotals> {
        let mut acc: Option<FlowTotals> = None;
        for (fk, _, t) in &self.flows {
            if fk == key {
                let a = acc.get_or_insert_with(FlowTotals::default);
                a.pkt_count += t.pkt_count;
                a.paused_count += t.paused_count;
                a.qdepth_sum += t.qdepth_sum;
                a.epochs_active += t.epochs_active;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::{FlowRecord, PortRecord};
    use hawkeye_sim::NodeId;

    fn key(i: u16) -> FlowKey {
        FlowKey::roce(NodeId(1), NodeId(2), i)
    }

    fn epoch(start: u64, flows: &[(u16, u32, u8)]) -> EpochSnapshot {
        EpochSnapshot {
            slot: 0,
            id: (start >> 20) as u8,
            start: Nanos(start),
            len: Nanos(1 << 20),
            flows: flows
                .iter()
                .map(|&(i, pkt, port)| {
                    (
                        key(i),
                        FlowRecord {
                            pkt_count: pkt,
                            paused_count: pkt / 4,
                            qdepth_sum: u64::from(pkt) * 3,
                            out_port: port,
                        },
                    )
                })
                .collect(),
            ports: vec![(
                1,
                PortRecord {
                    pkt_count: 9,
                    paused_count: 2,
                    qdepth_sum: 77,
                },
            )],
            meter: vec![(0, 1, 1024)],
        }
    }

    #[test]
    fn fold_sums_counters_and_extends_range() {
        let mut c = CompactedEpoch::default();
        assert!(c.is_empty());
        c.fold(&epoch(0, &[(1, 10, 0)]));
        c.fold(&epoch(1 << 20, &[(1, 30, 0), (2, 5, 1)]));
        assert_eq!(c.epochs, 2);
        assert_eq!(c.from, Nanos(0));
        assert_eq!(c.to, Nanos(2 << 20));
        let t = c.flow_total(&key(1)).expect("flow 1 folded");
        assert_eq!(t.pkt_count, 40);
        assert_eq!(t.epochs_active, 2);
        assert_eq!(c.flow_total(&key(2)).unwrap().pkt_count, 5);
        assert!(c.flow_total(&key(9)).is_none());
        assert_eq!(c.ports[0].1.pkt_count, 18);
        assert_eq!(c.meter, vec![(0, 1, 2048)]);
    }

    #[test]
    fn fold_order_does_not_change_totals() {
        let eps = [
            epoch(0, &[(1, 10, 0)]),
            epoch(1 << 20, &[(2, 7, 1)]),
            epoch(2 << 20, &[(1, 3, 0), (2, 2, 1)]),
        ];
        let mut a = CompactedEpoch::default();
        let mut b = CompactedEpoch::default();
        for e in &eps {
            a.fold(e);
        }
        for e in eps.iter().rev() {
            b.fold(e);
        }
        assert_eq!(a, b, "folding is commutative over sorted tables");
    }

    #[test]
    fn same_flow_on_two_ports_keeps_separate_rows() {
        let mut c = CompactedEpoch::default();
        c.fold(&epoch(0, &[(1, 10, 0)]));
        c.fold(&epoch(1 << 20, &[(1, 20, 3)]));
        assert_eq!(c.flows.len(), 2, "keyed by (flow, out_port)");
        assert_eq!(c.flow_total(&key(1)).unwrap().pkt_count, 30);
    }
}
