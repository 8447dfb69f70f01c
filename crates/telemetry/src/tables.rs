//! Per-epoch telemetry tables: hash-indexed flow slots, per-port counters,
//! and the port-pair causality meter (§3.3, Figs. 3–4).

use hawkeye_sim::FlowKey;
use serde::{Deserialize, Serialize};

/// Telemetry accumulated for one flow within one epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Packets enqueued.
    pub pkt_count: u32,
    /// Packets enqueued while the egress port's PFC register said "paused".
    pub paused_count: u32,
    /// Sum over packets of the egress queue depth (in packets) seen at
    /// enqueue; divide by `pkt_count` for the average.
    pub qdepth_sum: u64,
    /// Egress port the flow used (first observed; one per switch since
    /// routing is deterministic per 5-tuple).
    pub out_port: u8,
}

impl FlowRecord {
    pub fn avg_qdepth(&self) -> f64 {
        if self.pkt_count == 0 {
            0.0
        } else {
            self.qdepth_sum as f64 / self.pkt_count as f64
        }
    }
}

/// A flow entry evicted from the data-plane table by a hash collision
/// ("the existing entry will be evicted and stored at the controller").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictedFlow {
    pub key: FlowKey,
    pub record: FlowRecord,
    /// Epoch ID the entry belonged to when evicted.
    pub epoch_id: u8,
    /// Ring slot it occupied.
    pub slot: usize,
}

/// The per-epoch hash-indexed flow table.
///
/// A slot holds one flow; the incoming packet's 5-tuple is XOR-compared
/// against the stored one (result 0 = same flow, update; otherwise evict
/// and install). Evictions go to `evicted`, emulating the controller-side
/// store.
///
/// The table **costs what it holds**: the paper's collector ships only the
/// non-zero slots (§3.4, Fig. 14), and this model of it keeps the indices
/// of the occupied slots, so `reset`, `entries` and `occupancy` touch those
/// and nothing else, and the slot array itself is not allocated until the
/// first install. An epoch holds tens of flows in a 4096-slot table; a
/// dense scan per snapshot and a dense `memset` per epoch roll-over were
/// most of what the telemetry layer did.
#[derive(Debug, Clone)]
pub struct FlowTable {
    size: usize,
    /// Empty until the first install, then `size` long.
    slots: Vec<Option<(FlowKey, FlowRecord)>>,
    /// Indices of the `Some` slots, ascending — the order a scan of `slots`
    /// would meet them, which is the order snapshots and the wire carry.
    occupied: Vec<u32>,
}

impl FlowTable {
    pub fn new(size: usize) -> Self {
        assert!(
            size.is_power_of_two(),
            "flow table size must be a power of two"
        );
        FlowTable {
            size,
            slots: Vec::new(),
            occupied: Vec::new(),
        }
    }

    pub fn size(&self) -> usize {
        self.size
    }

    pub fn reset(&mut self) {
        for &i in &self.occupied {
            self.slots[i as usize] = None;
        }
        self.occupied.clear();
    }

    fn index(&self, key: &FlowKey) -> usize {
        (key.hash32() as usize) & (self.size - 1)
    }

    /// Record one enqueued packet for `key`; returns the evicted occupant
    /// on hash collision.
    pub fn update(
        &mut self,
        key: &FlowKey,
        paused: bool,
        qdepth_pkts: u32,
        out_port: u8,
    ) -> Option<(FlowKey, FlowRecord)> {
        let i = self.index(key);
        if self.slots.is_empty() {
            self.slots = vec![None; self.size];
        }
        if let Some((k, rec)) = &mut self.slots[i] {
            if k == key {
                rec.pkt_count += 1;
                rec.paused_count += paused as u32;
                rec.qdepth_sum += qdepth_pkts as u64;
                return None;
            }
        }
        let evicted = self.slots[i].replace((
            *key,
            FlowRecord {
                pkt_count: 1,
                paused_count: paused as u32,
                qdepth_sum: qdepth_pkts as u64,
                out_port,
            },
        ));
        if evicted.is_none() {
            let at = self.occupied.partition_point(|&o| (o as usize) < i);
            self.occupied.insert(at, i as u32);
        }
        evicted
    }

    pub fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
        match self.slots.get(self.index(key))? {
            Some((k, rec)) if k == key => Some(rec),
            _ => None,
        }
    }

    /// All occupied slots, in slot-index order.
    pub fn entries(&self) -> impl Iterator<Item = (&FlowKey, &FlowRecord)> {
        self.occupied.iter().map(|&i| {
            let (k, r) = self.slots[i as usize]
                .as_ref()
                .expect("invariant: `occupied` lists exactly the Some slots");
            (k, r)
        })
    }

    pub fn occupancy(&self) -> usize {
        self.occupied.len()
    }
}

/// Per-epoch per-port counters (paused packets + queue depth), kept at port
/// granularity in the data plane so diagnosis does not have to aggregate
/// flow telemetry (§3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortRecord {
    pub pkt_count: u32,
    pub paused_count: u32,
    pub qdepth_sum: u64,
}

impl PortRecord {
    pub fn avg_qdepth(&self) -> f64 {
        if self.pkt_count == 0 {
            0.0
        } else {
            self.qdepth_sum as f64 / self.pkt_count as f64
        }
    }
}

/// Per-epoch port table, indexed by egress port number.
#[derive(Debug, Clone)]
pub struct PortTable {
    ports: Vec<PortRecord>,
}

impl PortTable {
    pub fn new(nports: usize) -> Self {
        PortTable {
            ports: vec![PortRecord::default(); nports],
        }
    }

    pub fn reset(&mut self) {
        self.ports.fill(PortRecord::default());
    }

    pub fn update(&mut self, out_port: u8, paused: bool, qdepth_pkts: u32) {
        let r = &mut self.ports[out_port as usize];
        r.pkt_count += 1;
        r.paused_count += paused as u32;
        r.qdepth_sum += qdepth_pkts as u64;
    }

    pub fn get(&self, port: u8) -> &PortRecord {
        &self.ports[port as usize]
    }

    pub fn iter(&self) -> impl Iterator<Item = (u8, &PortRecord)> {
        self.ports.iter().enumerate().map(|(i, r)| (i as u8, r))
    }
}

/// The PFC causality structure (Fig. 3): a traffic meter per (ingress,
/// egress) port pair, recording how many bytes entering on `in_port` left
/// via `out_port` during the epoch. When the upstream switch behind
/// `in_port` complains about PFC backpressure, the causally relevant
/// egresses are exactly those with non-zero meters — far finer-grained than
/// ITSY's single presence bit.
#[derive(Debug, Clone)]
pub struct CausalityMeter {
    nports: usize,
    bytes: Vec<u64>, // row-major [in_port][out_port]
}

impl CausalityMeter {
    pub fn new(nports: usize) -> Self {
        CausalityMeter {
            nports,
            bytes: vec![0; nports * nports],
        }
    }

    pub fn reset(&mut self) {
        self.bytes.fill(0);
    }

    pub fn add(&mut self, in_port: u8, out_port: u8, bytes: u32) {
        self.bytes[in_port as usize * self.nports + out_port as usize] += bytes as u64;
    }

    pub fn get(&self, in_port: u8, out_port: u8) -> u64 {
        self.bytes[in_port as usize * self.nports + out_port as usize]
    }

    /// Egress ports that carried traffic from `in_port`.
    pub fn causal_out_ports(&self, in_port: u8) -> impl Iterator<Item = (u8, u64)> + '_ {
        let base = in_port as usize * self.nports;
        self.bytes[base..base + self.nports]
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, &b)| (i as u8, b))
    }

    pub fn nports(&self) -> usize {
        self.nports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_sim::NodeId;
    use proptest::prelude::*;

    fn key(sp: u16) -> FlowKey {
        FlowKey::roce(NodeId(1), NodeId(2), sp)
    }

    #[test]
    fn flow_table_updates_in_place() {
        let mut t = FlowTable::new(16);
        assert!(t.update(&key(1), false, 3, 2).is_none());
        assert!(t.update(&key(1), true, 5, 2).is_none());
        let r = t.get(&key(1)).unwrap();
        assert_eq!(r.pkt_count, 2);
        assert_eq!(r.paused_count, 1);
        assert_eq!(r.qdepth_sum, 8);
        assert_eq!(r.avg_qdepth(), 4.0);
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn flow_table_evicts_on_collision() {
        // Size-1 table forces every distinct flow to collide.
        let mut t = FlowTable::new(1);
        assert!(t.update(&key(1), false, 0, 0).is_none());
        let ev = t.update(&key(2), false, 0, 0).expect("collision evicts");
        assert_eq!(ev.0, key(1));
        assert_eq!(ev.1.pkt_count, 1);
        assert!(t.get(&key(1)).is_none());
        assert!(t.get(&key(2)).is_some());
    }

    #[test]
    fn flow_table_reset_clears() {
        let mut t = FlowTable::new(8);
        t.update(&key(1), false, 0, 0);
        t.reset();
        assert_eq!(t.occupancy(), 0);
        assert!(t.get(&key(1)).is_none());
    }

    /// Oracle: the flow table as a dense array that `reset` fills and
    /// `entries`/`occupancy` scan whole — the body [`FlowTable`] had before
    /// it kept its occupied-slot list.
    struct ScanTable {
        slots: Vec<Option<(FlowKey, FlowRecord)>>,
    }

    impl ScanTable {
        fn new(size: usize) -> Self {
            ScanTable {
                slots: vec![None; size],
            }
        }

        fn reset(&mut self) {
            self.slots.fill(None);
        }

        fn index(&self, key: &FlowKey) -> usize {
            (key.hash32() as usize) & (self.slots.len() - 1)
        }

        fn update(
            &mut self,
            key: &FlowKey,
            paused: bool,
            qdepth_pkts: u32,
            out_port: u8,
        ) -> Option<(FlowKey, FlowRecord)> {
            let i = self.index(key);
            let mut evicted = None;
            match &mut self.slots[i] {
                Some((k, rec)) if k == key => {
                    rec.pkt_count += 1;
                    rec.paused_count += paused as u32;
                    rec.qdepth_sum += qdepth_pkts as u64;
                    return None;
                }
                occ => {
                    if let Some(old) = occ.take() {
                        evicted = Some(old);
                    }
                    *occ = Some((
                        *key,
                        FlowRecord {
                            pkt_count: 1,
                            paused_count: paused as u32,
                            qdepth_sum: qdepth_pkts as u64,
                            out_port,
                        },
                    ));
                }
            }
            evicted
        }

        fn get(&self, key: &FlowKey) -> Option<&FlowRecord> {
            let i = self.index(key);
            match &self.slots[i] {
                Some((k, rec)) if k == key => Some(rec),
                _ => None,
            }
        }

        fn entries(&self) -> impl Iterator<Item = (&FlowKey, &FlowRecord)> {
            self.slots.iter().flatten().map(|(k, r)| (k, r))
        }

        fn occupancy(&self) -> usize {
            self.slots.iter().flatten().count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Under any sequence of updates (installs, in-place updates,
        /// collision evictions), resets and reads, the occupied-list table
        /// answers what the dense scan answers: the same evictions, the
        /// same `get`, the same `occupancy`, and `entries()` in the same
        /// (slot-index) order — which is the order snapshots and wire
        /// bytes carry. Sizes 1 and 8 collide constantly; 4096 is the
        /// shipped size.
        #[test]
        fn occupied_list_matches_dense_scan(
            ops in proptest::collection::vec((0u8..16, 0u16..300, 0u32..50), 1..400),
            size_pick in 0usize..3,
        ) {
            let size = [1usize, 8, 4096][size_pick];
            let mut table = FlowTable::new(size);
            let mut oracle = ScanTable::new(size);
            prop_assert_eq!(table.size(), size);
            for (op, sport, qdepth) in ops {
                let k = key(sport);
                match op {
                    // A reset now and then: the epoch roll-over.
                    0 => {
                        table.reset();
                        oracle.reset();
                    }
                    1..=3 => prop_assert_eq!(table.get(&k), oracle.get(&k)),
                    _ => {
                        let (paused, port) = (op % 2 == 0, op % 5);
                        prop_assert_eq!(
                            table.update(&k, paused, qdepth, port),
                            oracle.update(&k, paused, qdepth, port)
                        );
                    }
                }
                prop_assert_eq!(table.occupancy(), oracle.occupancy());
                prop_assert!(table.entries().eq(oracle.entries()));
            }
        }
    }

    /// A table costs nothing until something is installed in it: no slot
    /// array, no index list, and reads and resets of the empty table work.
    #[test]
    fn flow_table_allocates_at_first_install() {
        let mut t = FlowTable::new(4096);
        t.reset();
        assert!(t.get(&key(1)).is_none());
        assert_eq!((t.occupancy(), t.entries().count()), (0, 0));
        assert_eq!((t.slots.capacity(), t.occupied.capacity()), (0, 0));
        t.update(&key(1), false, 0, 0);
        assert_eq!(t.slots.len(), 4096);
    }

    #[test]
    #[should_panic(expected = "power of")]
    fn flow_table_requires_power_of_two() {
        FlowTable::new(10);
    }

    #[test]
    fn port_table_counts() {
        let mut t = PortTable::new(4);
        t.update(2, true, 7);
        t.update(2, false, 3);
        t.update(0, false, 0);
        assert_eq!(t.get(2).pkt_count, 2);
        assert_eq!(t.get(2).paused_count, 1);
        assert_eq!(t.get(2).avg_qdepth(), 5.0);
        assert_eq!(t.get(1).pkt_count, 0);
        assert_eq!(t.iter().filter(|(_, r)| r.pkt_count > 0).count(), 2);
    }

    #[test]
    fn meter_tracks_port_pairs() {
        let mut m = CausalityMeter::new(4);
        m.add(1, 3, 1000);
        m.add(1, 3, 500);
        m.add(1, 2, 100);
        m.add(0, 3, 700);
        assert_eq!(m.get(1, 3), 1500);
        let causal: Vec<_> = m.causal_out_ports(1).collect();
        assert_eq!(causal, vec![(2, 100), (3, 1500)]);
        // Fig. 3's point: an egress with no traffic from this ingress is
        // not causal, even if it is PFC-congested.
        assert!(m.causal_out_ports(1).all(|(p, _)| p != 0));
        m.reset();
        assert_eq!(m.causal_out_ports(1).count(), 0);
    }
}
