//! The complete Hawkeye telemetry state of one switch: PFC status
//! registers, and an epoch ring of {flow table, port table, causality
//! meter}, updated per enqueued packet exactly as the P4 pipeline would.

use crate::epoch::EpochConfig;
use crate::snapshot::{EpochSnapshot, TelemetrySnapshot};
use crate::status::PortStatusRegisters;
use crate::tables::{CausalityMeter, EvictedFlow, FlowTable, PortTable};
use hawkeye_sim::{EnqueueRecord, FlowKey, Nanos, NodeId, PfcEvent};

/// Sizing of the telemetry state (per switch).
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    pub epochs: EpochConfig,
    /// Flow-table slots per epoch (the paper's testbed uses 4096).
    pub max_flows: usize,
}

/// Ring epochs (newest first) an in-switch causality query consults, at
/// most the whole ring: a slowly-developing anomaly (a deadlock loop takes
/// hundreds of microseconds to close) stays traceable by later polls.
const QUERY_LOOKBACK: usize = 4;

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            epochs: EpochConfig::DEFAULT,
            max_flows: 4096,
        }
    }
}

#[derive(Debug, Clone)]
struct EpochSlot {
    id: Option<u8>,
    flows: FlowTable,
    ports: PortTable,
    meter: CausalityMeter,
}

/// Telemetry pipeline state of one switch.
#[derive(Debug, Clone)]
pub struct SwitchTelemetry {
    switch: NodeId,
    nports: usize,
    cfg: TelemetryConfig,
    status: PortStatusRegisters,
    ring: Vec<EpochSlot>,
    /// Hash-collision evictions ("stored at the controller").
    pub evicted: Vec<EvictedFlow>,
}

impl SwitchTelemetry {
    pub fn new(switch: NodeId, nports: usize, cfg: TelemetryConfig) -> Self {
        let ring = (0..cfg.epochs.epoch_count())
            .map(|_| EpochSlot {
                id: None,
                flows: FlowTable::new(cfg.max_flows),
                ports: PortTable::new(nports),
                meter: CausalityMeter::new(nports),
            })
            .collect();
        SwitchTelemetry {
            switch,
            nports,
            cfg,
            status: PortStatusRegisters::new(nports),
            ring,
            evicted: Vec::new(),
        }
    }

    pub fn switch(&self) -> NodeId {
        self.switch
    }

    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    pub fn status(&self) -> &PortStatusRegisters {
        &self.status
    }

    /// Data-packet enqueue: the per-packet register update path.
    pub fn on_enqueue(&mut self, rec: &EnqueueRecord) {
        let paused = self.status.is_paused(rec.out_port, rec.timestamp);
        let slot_idx = self.cfg.epochs.slot(rec.timestamp);
        let id = self.cfg.epochs.epoch_id(rec.timestamp);
        let slot = &mut self.ring[slot_idx];
        if slot.id != Some(id) {
            // Wrap-around: a newer epoch ID claims this ring slot.
            slot.flows.reset();
            slot.ports.reset();
            slot.meter.reset();
            slot.id = Some(id);
        }
        if let Some((key, record)) =
            slot.flows
                .update(&rec.key, paused, rec.qdepth_pkts, rec.out_port)
        {
            self.evicted.push(EvictedFlow {
                key,
                record,
                epoch_id: id,
                slot: slot_idx,
            });
        }
        slot.ports.update(rec.out_port, paused, rec.qdepth_pkts);
        slot.meter.add(rec.in_port, rec.out_port, rec.size);
    }

    /// PFC frame observed: update the status register.
    pub fn on_pfc(&mut self, ev: &PfcEvent) {
        self.status.on_pfc(ev);
    }

    /// Ring slots ordered newest-first starting from the epoch containing
    /// `now`, limited to [`QUERY_LOOKBACK`] and to slots whose stored ID
    /// matches what the timestamp arithmetic expects (stale slots excluded).
    fn recent_slots(&self, now: Nanos) -> impl Iterator<Item = &EpochSlot> {
        let ec = self.cfg.epochs;
        let count = ec.epoch_count();
        let lookback = QUERY_LOOKBACK.min(count);
        (0..lookback).filter_map(move |back| {
            let delta = ec.epoch_len().as_nanos() * back as u64;
            if delta > now.as_nanos() {
                return None; // before the simulation epoch 0
            }
            let ts = Nanos(now.as_nanos() - delta);
            let slot = &self.ring[ec.slot(ts)];
            (slot.id == Some(ec.epoch_id(ts))).then_some(slot)
        })
    }

    /// Paused-packet count of `key` over the recent epochs — the egress
    /// check a switch performs on a victim-path polling packet (Fig. 6).
    pub fn flow_paused_count(&self, key: &FlowKey, now: Nanos) -> u32 {
        self.recent_slots(now)
            .filter_map(|s| s.flows.get(key))
            .map(|r| r.paused_count)
            .sum()
    }

    /// Paused-packet count of an egress port over the recent epochs.
    pub fn port_paused_count(&self, port: u8, now: Nanos) -> u32 {
        self.recent_slots(now)
            .map(|s| s.ports.get(port).paused_count)
            .sum()
    }

    /// Causal egress ports for PFC backpressure arriving from `in_port`:
    /// ports that carried traffic from `in_port` in the recent epochs,
    /// with the byte volumes (Fig. 3 check).
    pub fn causal_out_ports(&self, in_port: u8, now: Nanos) -> Vec<(u8, u64)> {
        let mut acc = vec![0u64; self.nports];
        for s in self.recent_slots(now) {
            for (p, b) in s.meter.causal_out_ports(in_port) {
                acc[p as usize] += b;
            }
        }
        acc.into_iter()
            .enumerate()
            .filter(|&(_, b)| b > 0)
            .map(|(p, b)| (p as u8, b))
            .collect()
    }

    /// Controller read-out: every valid epoch's non-zero telemetry, plus
    /// evictions and sizing, for upload to the analyzer.
    pub fn snapshot(&self, now: Nanos) -> TelemetrySnapshot {
        let ec = self.cfg.epochs;
        let mut epochs = Vec::new();
        for (slot_idx, slot) in self.ring.iter().enumerate() {
            let Some(id) = slot.id else { continue };
            let Some(start) = ec.locate(slot_idx, id, now) else {
                continue;
            };
            epochs.push(EpochSnapshot {
                slot: slot_idx,
                id,
                start,
                len: ec.epoch_len(),
                flows: slot.flows.entries().map(|(k, r)| (*k, *r)).collect(),
                ports: slot
                    .ports
                    .iter()
                    .filter(|(_, r)| r.pkt_count > 0)
                    .map(|(p, r)| (p, *r))
                    .collect(),
                meter: (0..self.nports as u8)
                    .flat_map(|i| {
                        slot.meter
                            .causal_out_ports(i)
                            .map(move |(o, b)| (i, o, b))
                            .collect::<Vec<_>>()
                    })
                    .collect(),
            });
        }
        epochs.sort_by_key(|e| e.start);
        TelemetrySnapshot {
            switch: self.switch,
            taken_at: now,
            nports: self.nports,
            max_flows: self.cfg.max_flows,
            epochs,
            evicted: self.evicted.clone(),
        }
    }
}

impl EpochConfig {
    /// Find the start time of the most recent epoch at or before `now`
    /// occupying ring `slot` with epoch ID `id`. Returns `None` if no epoch
    /// within one full ID wrap matches (the slot data would be too old to
    /// interpret).
    pub fn locate(&self, slot: usize, id: u8, now: Nanos) -> Option<Nanos> {
        let mut start = self.epoch_start(now);
        // One ID wrap covers epoch_count * 256 epochs.
        for _ in 0..self.epoch_count() * (1 << crate::epoch::EPOCH_ID_BITS) {
            if self.slot(start) == slot && self.epoch_id(start) == id {
                return Some(start);
            }
            if start.as_nanos() < self.epoch_len().as_nanos() {
                return None;
            }
            start = start - self.epoch_len();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_sim::NodeId;

    fn rec(key: FlowKey, in_port: u8, out_port: u8, qdepth: u32, ts: Nanos) -> EnqueueRecord {
        EnqueueRecord {
            switch: NodeId(100),
            in_port,
            out_port,
            flow: hawkeye_sim::FlowId(0),
            key,
            size: 1048,
            qdepth_pkts: qdepth,
            qdepth_bytes: qdepth as u64 * 1048,
            egress_paused: false,
            timestamp: ts,
        }
    }

    fn pfc(port: u8, pause: bool, dur: u64, now: Nanos) -> PfcEvent {
        PfcEvent {
            switch: NodeId(100),
            port,
            class: 0,
            pause,
            pause_time: Nanos(dur),
            now,
        }
    }

    fn tele() -> SwitchTelemetry {
        SwitchTelemetry::new(NodeId(100), 4, TelemetryConfig::default())
    }

    #[test]
    fn paused_packets_follow_the_status_register() {
        let mut t = tele();
        let key = FlowKey::roce(NodeId(0), NodeId(1), 7);
        let now = Nanos(1000);
        t.on_enqueue(&rec(key, 0, 2, 1, now));
        assert_eq!(t.flow_paused_count(&key, now), 0);
        // Pause port 2, enqueue again: counted as paused.
        t.on_pfc(&pfc(2, true, 100_000, Nanos(2000)));
        t.on_enqueue(&rec(key, 0, 2, 2, Nanos(3000)));
        assert_eq!(t.flow_paused_count(&key, Nanos(3000)), 1);
        assert_eq!(t.port_paused_count(2, Nanos(3000)), 1);
        // Port 3 untouched.
        assert_eq!(t.port_paused_count(3, Nanos(3000)), 0);
        // Resume: new enqueues not counted.
        t.on_pfc(&pfc(2, false, 0, Nanos(4000)));
        t.on_enqueue(&rec(key, 0, 2, 3, Nanos(5000)));
        assert_eq!(t.flow_paused_count(&key, Nanos(5000)), 1);
    }

    #[test]
    fn causal_ports_reflect_the_meter() {
        let mut t = tele();
        let k1 = FlowKey::roce(NodeId(0), NodeId(1), 1);
        let k2 = FlowKey::roce(NodeId(0), NodeId(2), 2);
        let now = Nanos(1000);
        t.on_enqueue(&rec(k1, 1, 3, 0, now));
        t.on_enqueue(&rec(k2, 1, 2, 0, now));
        t.on_enqueue(&rec(k2, 0, 2, 0, now));
        let causal = t.causal_out_ports(1, now);
        assert_eq!(causal, vec![(2, 1048), (3, 1048)]);
        assert_eq!(t.causal_out_ports(2, now), vec![]);
    }

    #[test]
    fn epoch_wraparound_resets_slots() {
        let mut t = tele();
        let key = FlowKey::roce(NodeId(0), NodeId(1), 7);
        let ec = t.cfg.epochs;
        let t0 = Nanos(100);
        t.on_enqueue(&rec(key, 0, 2, 0, t0));
        assert_eq!(t.flow_paused_count(&key, t0), 0);
        // Same ring slot, one full ring later: different epoch ID.
        let t1 = t0 + ec.ring_span();
        assert_eq!(ec.slot(t0), ec.slot(t1));
        assert_ne!(ec.epoch_id(t0), ec.epoch_id(t1));
        t.on_enqueue(&rec(key, 0, 2, 0, t1));
        let snap = t.snapshot(t1);
        // Only the new epoch's data exists in that slot.
        let e = snap.epochs.iter().find(|e| e.slot == ec.slot(t1)).unwrap();
        let (_, fr) = e.flows.iter().find(|(k, _)| *k == key).unwrap();
        assert_eq!(fr.pkt_count, 1, "old epoch data must be gone");
    }

    #[test]
    fn lookback_spans_epoch_boundary() {
        let mut t = SwitchTelemetry::new(NodeId(100), 4, TelemetryConfig::default());
        let key = FlowKey::roce(NodeId(0), NodeId(1), 7);
        let ec = t.cfg.epochs;
        assert_eq!(ec.epoch_count(), QUERY_LOOKBACK);
        t.on_pfc(&pfc(2, true, u64::MAX / 2, Nanos(0)));
        // Enqueue near the end of epoch 0.
        let late = ec.epoch_len() - Nanos(10);
        t.on_enqueue(&rec(key, 0, 2, 0, late));
        // Query early in epoch 1: the lookback must still see it.
        let early = ec.epoch_len() + Nanos(10);
        assert_eq!(t.flow_paused_count(&key, early), 1);
        // Early in epoch 3, the lookback's oldest epoch: still seen.
        let last = Nanos(ec.epoch_len().as_nanos() * 3 + 10);
        assert_eq!(t.flow_paused_count(&key, last), 1);
        // Four epochs later: out of lookback.
        let later = Nanos(ec.epoch_len().as_nanos() * 4 + 10);
        assert_eq!(t.flow_paused_count(&key, later), 0);
    }

    #[test]
    fn evictions_are_preserved() {
        let mut t = SwitchTelemetry::new(
            NodeId(100),
            4,
            TelemetryConfig {
                max_flows: 1,
                ..Default::default()
            },
        );
        let k1 = FlowKey::roce(NodeId(0), NodeId(1), 1);
        let k2 = FlowKey::roce(NodeId(0), NodeId(2), 2);
        let now = Nanos(1000);
        t.on_enqueue(&rec(k1, 0, 2, 0, now));
        t.on_enqueue(&rec(k2, 0, 2, 0, now));
        assert_eq!(t.evicted.len(), 1);
        assert_eq!(t.evicted[0].key, k1);
        let snap = t.snapshot(now);
        assert_eq!(snap.evicted.len(), 1);
    }

    #[test]
    fn locate_reconstructs_epoch_start() {
        let ec = EpochConfig::DEFAULT;
        let e = ec.epoch_len().as_nanos();
        // Epoch starting at 5*e occupies slot 1 (5 mod 4).
        let start = Nanos(5 * e);
        let id = ec.epoch_id(start);
        let now = Nanos(6 * e + 123);
        assert_eq!(ec.locate(1, id, now), Some(start));
        // A mismatching ID locates the previous ring pass.
        let old_id = ec.epoch_id(Nanos(e)); // slot 1, one ring earlier
        assert_eq!(ec.locate(1, old_id, now), Some(Nanos(e)));
    }

    #[test]
    fn snapshot_contains_only_nonzero_rows() {
        let mut t = tele();
        let key = FlowKey::roce(NodeId(0), NodeId(1), 7);
        let now = Nanos(1000);
        t.on_enqueue(&rec(key, 1, 2, 4, now));
        let snap = t.snapshot(now);
        assert_eq!(snap.epochs.len(), 1);
        let e = &snap.epochs[0];
        assert_eq!(e.flows.len(), 1);
        assert_eq!(e.ports.len(), 1);
        assert_eq!(e.meter, vec![(1, 2, 1048)]);
        assert_eq!(snap.max_flows, 4096);
    }
}
