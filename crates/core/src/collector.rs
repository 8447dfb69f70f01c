//! Controller-assisted telemetry collection (§3.4).
//!
//! When a polling packet is mirrored to a switch CPU, the controller reads
//! the telemetry registers (DMA-synced on real Tofino), filters zero-valued
//! slots, batches the rest into MTU-sized report packets, and ships them to
//! the analyzer. A per-switch dedup interval prevents repeated collection
//! when several victims' polling packets cross the same switch.
//!
//! Uploads are best-effort in deployment, so the collector is the
//! resilience boundary of the pipeline: it applies the upload-path faults
//! of an active [`FaultPlan`] (loss, delay, stale/truncated snapshots,
//! corrupted causality-meter entries, dead switch CPUs), reconciles
//! out-of-order/stale snapshots, and records an explicit
//! [`MissingTelemetry`] marker for every gap instead of staying silent.

use hawkeye_sim::{
    Fault, FaultPlan, FaultRng, FlowKey, Nanos, NodeId, STREAM_UPLOAD, UPLOAD_DELAY_MAX,
};
use hawkeye_telemetry::{SwitchTelemetry, TelemetrySnapshot};
use std::collections::HashMap;

/// Minimum spacing between two collections of the same switch: short
/// enough that a persisting anomaly is re-collected with its epochs
/// complete; the analyzer dedups epochs keep-latest. It also makes every
/// re-delivery of a collected register read a suppressed offer, since a
/// read is stamped with its offer time.
const DEDUP_INTERVAL: Nanos = Nanos::from_micros(100);
/// Usable payload per report packet (MTU batching, §4.5).
const REPORT_PAYLOAD: usize = 1500;

/// Why a switch's telemetry never reached the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingReason {
    /// The upload was lost on its way to the controller.
    UploadDropped,
    /// The upload arrived older than what the switch had already
    /// delivered.
    UploadLate,
    /// The switch's CPU path was dead (a flapping CPU).
    CpuDown,
}

/// An explicit record of telemetry that was requested (a polling packet
/// reached the switch) but never became available to diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissingTelemetry {
    pub switch: NodeId,
    pub at: Nanos,
    /// Victim whose polling packet triggered the failed collection.
    pub victim: FlowKey,
    pub reason: MissingReason,
}

/// Counters for the collector's fault handling: uploads faulted on the way
/// in, plus the resilience machinery's own actions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CollectorFaultStats {
    pub uploads_dropped: u64,
    pub uploads_delayed: u64,
    /// Snapshots delivered with their newest epoch missing (stale read).
    pub snapshots_stale: u64,
    pub snapshots_truncated: u64,
    pub meter_entries_corrupted: u64,
    /// Uploads suppressed because the switch CPU was dead.
    pub cpu_down_drops: u64,
    /// Delivered snapshots discarded because a fresher one for the same
    /// switch had already arrived (out-of-order reconciliation).
    pub snapshots_stale_dropped: u64,
}

/// One completed per-switch collection.
#[derive(Debug, Clone)]
pub struct CollectionEvent {
    pub switch: NodeId,
    pub at: Nanos,
    /// The victim 5-tuple of the polling packet that triggered this
    /// collection (per-diagnosis overhead attribution, Fig. 11).
    pub victim: FlowKey,
    pub snapshot: TelemetrySnapshot,
}

/// The telemetry collector.
#[derive(Debug)]
pub struct Collector {
    last: HashMap<NodeId, Nanos>,
    pub events: Vec<CollectionEvent>,
    /// Every offer, including dedup-suppressed ones: (switch, time,
    /// triggering victim). A suppressed offer means fresh-enough telemetry
    /// already existed — it still serves that victim's diagnosis, so
    /// per-diagnosis attribution (Fig. 11) reads this log.
    pub offers: Vec<(NodeId, Nanos, FlowKey)>,
    /// Every collection that was requested but never became available.
    pub missing: Vec<MissingTelemetry>,
    pub fault_stats: CollectorFaultStats,
    faults: FaultPlan,
    frng: FaultRng,
    /// Newest epoch end delivered per switch, for out-of-order/stale
    /// reconciliation.
    freshest: HashMap<NodeId, Nanos>,
}

impl Collector {
    /// A collector whose upload path is subjected to `faults` (its own
    /// deterministic decision stream, disjoint from the simulator's);
    /// [`FaultPlan::none()`] is the fault-free collector.
    pub fn new(faults: FaultPlan) -> Self {
        Collector {
            last: HashMap::new(),
            events: Vec::new(),
            offers: Vec::new(),
            missing: Vec::new(),
            fault_stats: CollectorFaultStats::default(),
            faults,
            frng: FaultRng::new(faults.seed, STREAM_UPLOAD),
            freshest: HashMap::new(),
        }
    }

    fn note_missing(&mut self, switch: NodeId, at: Nanos, victim: FlowKey, reason: MissingReason) {
        self.missing.push(MissingTelemetry {
            switch,
            at,
            victim,
            reason,
        });
    }

    /// A polling packet was mirrored to `switch`'s CPU at `now`: collect
    /// its telemetry unless collected within the dedup interval. Must be
    /// called at (simulated) mirror time — the registers are read "live".
    /// Returns whether a collection happened.
    pub fn offer(
        &mut self,
        switch: NodeId,
        now: Nanos,
        victim: FlowKey,
        tele: &SwitchTelemetry,
    ) -> bool {
        self.offers.push((switch, now, victim));
        if let Some(&last) = self.last.get(&switch) {
            if now.saturating_sub(last) < DEDUP_INTERVAL {
                return false;
            }
        }
        // A dead CPU never sees the mirror: no register read, no dedup
        // update (the next probe may find it alive again).
        if self.faults.cpu_down(now) {
            self.fault_stats.cpu_down_drops += 1;
            self.note_missing(switch, now, victim, MissingReason::CpuDown);
            return false;
        }
        self.last.insert(switch, now);
        let mut snapshot = tele.snapshot(now);
        let mut delivered_at = now;
        // Upload-path faults (the registers WERE read, so dedup stands).
        if self.faults.upload_faults_active() {
            let plan = self.faults;
            if self.frng.chance(plan.probability(Fault::UploadDrop)) {
                self.fault_stats.uploads_dropped += 1;
                self.note_missing(switch, now, victim, MissingReason::UploadDropped);
                return false;
            }
            if self.frng.chance(plan.probability(Fault::UploadDelay)) {
                self.fault_stats.uploads_delayed += 1;
                delivered_at = now + self.frng.delay(UPLOAD_DELAY_MAX);
            }
            if self.frng.chance(plan.probability(Fault::SnapshotStale)) && snapshot.make_stale() {
                self.fault_stats.snapshots_stale += 1;
            }
            if self.frng.chance(plan.probability(Fault::SnapshotTruncate))
                && snapshot.truncate_flows() > 0
            {
                self.fault_stats.snapshots_truncated += 1;
            }
            // A corrupted meter cell fails its checksum and is discarded
            // row-wise by the controller.
            let corrupt = plan.probability(Fault::MeterCorrupt);
            let (frng, stats) = (&mut self.frng, &mut self.fault_stats);
            for e in &mut snapshot.epochs {
                e.meter.retain(|_| {
                    let hit = frng.chance(corrupt);
                    stats.meter_entries_corrupted += u64::from(hit);
                    !hit
                });
            }
        }
        // Resilience machinery (always on; a no-op on a fault-free run):
        // reconcile out-of-order arrivals — a snapshot strictly older than
        // what this switch has already delivered adds nothing and would
        // only confuse keep-latest epoch aggregation.
        let newest = snapshot.newest_epoch_end();
        if let Some(&fresh) = self.freshest.get(&switch) {
            if newest < fresh {
                self.fault_stats.snapshots_stale_dropped += 1;
                self.note_missing(switch, now, victim, MissingReason::UploadLate);
                return false;
            }
        }
        self.freshest.insert(switch, newest);
        self.events.push(CollectionEvent {
            switch,
            at: delivered_at,
            victim,
            snapshot,
        });
        true
    }

    /// Switches with at least one failed collection in `[from, to]`,
    /// deduplicated and sorted — the analyzer's "known gaps" input.
    pub fn missing_switches(&self, from: Nanos, to: Nanos) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .missing
            .iter()
            .filter(|m| m.at >= from && m.at <= to)
            .map(|m| m.switch)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Switches whose telemetry a victim's polling packets requested within
    /// a window (whether freshly collected or dedup-served).
    pub fn attributed_switches(&self, victim: &FlowKey, from: Nanos, to: Nanos) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self
            .offers
            .iter()
            .filter(|(_, at, k)| k == victim && *at >= from && *at <= to)
            .map(|(sw, _, _)| *sw)
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// One representative (largest filtered) snapshot per attributed
    /// switch within the window — the telemetry volume this diagnosis
    /// consumed.
    pub fn attributed_snapshots(
        &self,
        victim: &FlowKey,
        from: Nanos,
        to: Nanos,
    ) -> Vec<TelemetrySnapshot> {
        let switches = self.attributed_switches(victim, from, to);
        switches
            .into_iter()
            .filter_map(|sw| {
                self.events
                    .iter()
                    .filter(|e| e.switch == sw && e.at >= from && e.at <= to)
                    .max_by_key(|e| e.snapshot.wire_size_filtered())
                    .map(|e| e.snapshot.clone())
            })
            .collect()
    }

    /// Collected snapshots (for graph construction).
    pub fn snapshots(&self) -> Vec<TelemetrySnapshot> {
        self.events.iter().map(|e| e.snapshot.clone()).collect()
    }

    /// Distinct switches collected.
    pub fn switch_count(&self) -> usize {
        let mut v: Vec<NodeId> = self.events.iter().map(|e| e.switch).collect();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    /// Total bytes shipped to the analyzer (zero-filtered).
    pub fn total_bytes(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.snapshot.wire_size_filtered())
            .sum()
    }

    /// Bytes a full register dump would have shipped.
    pub fn total_bytes_full_dump(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.snapshot.wire_size_full())
            .sum()
    }

    /// Report packets at the configured MTU payload.
    pub fn report_packets(&self) -> usize {
        self.events
            .iter()
            .map(|e| e.snapshot.report_packets(REPORT_PAYLOAD))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_sim::{EnqueueRecord, FlowId};
    use hawkeye_telemetry::TelemetryConfig;

    fn victim() -> FlowKey {
        FlowKey::roce(NodeId(100), NodeId(101), 7)
    }

    /// A switch with traffic in two consecutive epochs (default epoch is
    /// 2^20 ns), so stale-read degradation has an older epoch to fall back
    /// to.
    fn tele(sw: NodeId) -> SwitchTelemetry {
        tele_epochs(sw, 2)
    }

    /// A switch with traffic in its first `epochs` epochs.
    fn tele_epochs(sw: NodeId, epochs: u64) -> SwitchTelemetry {
        let mut t = SwitchTelemetry::new(sw, 4, TelemetryConfig::default());
        for epoch in 0..epochs {
            for i in 0..4u16 {
                t.on_enqueue(&EnqueueRecord {
                    switch: sw,
                    in_port: 0,
                    out_port: 1,
                    flow: FlowId(u32::from(i)),
                    key: FlowKey::roce(NodeId(100 + u32::from(i)), NodeId(101), i),
                    size: 1048,
                    qdepth_pkts: i as u32,
                    qdepth_bytes: u64::from(i) * 1048,
                    egress_paused: false,
                    timestamp: Nanos(epoch * (1 << 20) + 1000 + u64::from(i)),
                });
            }
        }
        t
    }

    /// Snapshot time inside epoch 1 so both epochs are in the lookback.
    const SNAP_AT: Nanos = Nanos((1 << 20) + 500_000);

    #[test]
    fn fault_free_offer_collects_and_dedups() {
        let sw = NodeId(1);
        let t = tele(sw);
        let mut c = Collector::new(FaultPlan::none());
        assert!(c.offer(sw, SNAP_AT, victim(), &t));
        // Within the dedup interval: suppressed, but attributed.
        assert!(!c.offer(sw, SNAP_AT + Nanos(10), victim(), &t));
        assert_eq!(c.events.len(), 1);
        assert_eq!(c.offers.len(), 2);
        assert!(c.missing.is_empty());
        assert_eq!(c.fault_stats, CollectorFaultStats::default());
        // Past the interval with fresher telemetry: collected again.
        let later = SNAP_AT + Nanos::from_micros(200);
        assert!(c.offer(sw, later, victim(), &t));
        assert_eq!(c.events.len(), 2);
        assert_eq!(c.fault_stats.snapshots_stale_dropped, 0);
    }

    /// Switches offered in one faulted collector, one offer each, so no
    /// dedup interval or freshness check couples two draws.
    const SWITCHES: u32 = 64;

    /// Every fault test runs the one mix at this seed and rate: 30 % stays
    /// below the CPU flap, so each offer reaches the upload path.
    const PLAN: FaultPlan = FaultPlan { seed: 7, rate: 0.3 };

    /// `SWITCHES` offers under `PLAN` at `SNAP_AT`, plus the fault-free
    /// snapshot each switch would have delivered.
    fn faulted_offers() -> (Collector, TelemetrySnapshot) {
        let mut c = Collector::new(PLAN);
        for sw in 0..SWITCHES {
            let sw = NodeId(sw);
            c.offer(sw, SNAP_AT, victim(), &tele(sw));
        }
        let full = tele(NodeId(0)).snapshot(SNAP_AT);
        assert!(full.epochs.len() >= 2, "fixture must span two epochs");
        (c, full)
    }

    #[test]
    fn upload_drop_records_missing_marker() {
        let (c, _) = faulted_offers();
        let dropped: Vec<NodeId> = c
            .missing
            .iter()
            .filter(|m| m.reason == MissingReason::UploadDropped)
            .map(|m| m.switch)
            .collect();
        assert!(c.fault_stats.uploads_dropped > 0);
        assert_eq!(dropped.len() as u64, c.fault_stats.uploads_dropped);
        // Every offer is delivered or accounted for as missing.
        assert_eq!(c.events.len() + c.missing.len(), SWITCHES as usize);
        assert_eq!(c.missing_switches(Nanos::ZERO, Nanos(u64::MAX)), dropped);
        assert!(c.events.iter().all(|e| !dropped.contains(&e.switch)));
    }

    #[test]
    fn delay_within_bound_shifts_delivery_time() {
        let (c, _) = faulted_offers();
        assert!(c.fault_stats.uploads_delayed > 0);
        let delayed = c.events.iter().filter(|e| e.at != SNAP_AT).count();
        assert_eq!(delayed as u64, c.fault_stats.uploads_delayed);
        for e in &c.events {
            assert_eq!(e.snapshot.taken_at, SNAP_AT);
            assert!(e.at >= SNAP_AT && e.at <= SNAP_AT + UPLOAD_DELAY_MAX);
        }
    }

    #[test]
    fn stale_and_truncated_snapshots_are_degraded_not_lost() {
        let (c, full) = faulted_offers();
        let rows = full.epochs[0].flows.len();
        assert!(rows >= 2 && full.epochs.iter().all(|e| e.flows.len() == rows));
        let stale = c
            .events
            .iter()
            .filter(|e| e.snapshot.epochs.len() == full.epochs.len() - 1)
            .count();
        let truncated = c
            .events
            .iter()
            .filter(|e| {
                e.snapshot
                    .epochs
                    .iter()
                    .all(|ep| ep.flows.len() == rows / 2)
            })
            .count();
        assert!(c.fault_stats.snapshots_stale > 0 && c.fault_stats.snapshots_truncated > 0);
        assert_eq!(stale as u64, c.fault_stats.snapshots_stale);
        assert_eq!(truncated as u64, c.fault_stats.snapshots_truncated);
        // Degraded delivery is still a delivery: only drops are missing.
        assert!(c
            .missing
            .iter()
            .all(|m| m.reason == MissingReason::UploadDropped));
    }

    #[test]
    fn meter_corruption_discards_entries() {
        let (c, full) = faulted_offers();
        let meter_of = |id: u8| {
            full.epochs
                .iter()
                .find(|e| e.id == id)
                .map_or(0, |e| e.meter.len())
        };
        assert!(
            full.epochs.iter().all(|e| !e.meter.is_empty()),
            "fixture must have meter volume"
        );
        // What each delivered epoch carried before corruption, less what
        // arrived, is exactly what was discarded.
        let read: usize = c
            .events
            .iter()
            .flat_map(|e| &e.snapshot.epochs)
            .map(|e| meter_of(e.id))
            .sum();
        let kept: usize = c
            .events
            .iter()
            .flat_map(|e| &e.snapshot.epochs)
            .map(|e| e.meter.len())
            .sum();
        assert!(c.fault_stats.meter_entries_corrupted > 0);
        assert_eq!((read - kept) as u64, c.fault_stats.meter_entries_corrupted);
    }

    #[test]
    fn cpu_flap_blocks_then_recovers() {
        // At 50 % every CPU flaps with a 200 µs period, dead first: dead
        // just before 1.5 ms, alive from it.
        let sw = NodeId(1);
        let t = tele(sw);
        let plan = FaultPlan { seed: 7, rate: 0.5 };
        let mut c = Collector::new(plan);
        let alive = Nanos(1_500_000);
        assert!(!c.offer(sw, alive - Nanos(10), victim(), &t));
        assert_eq!(c.fault_stats.cpu_down_drops, 1);
        assert_eq!(c.missing[0].reason, MissingReason::CpuDown);
        // A dead CPU must not arm the dedup timer: the next offer, inside
        // what would be the dedup interval, collects.
        assert!(c.offer(sw, alive, victim(), &t));
        assert_eq!(c.events.len(), 1);
        assert_eq!(c.fault_stats.cpu_down_drops, 1);
    }

    #[test]
    fn duplicate_and_out_of_order_deliveries_are_reconciled() {
        let sw = NodeId(1);
        let t = tele(sw);
        let mut c = Collector::new(FaultPlan::none());
        assert!(c.offer(sw, SNAP_AT, victim(), &t));
        // Same switch, same register read: the re-delivery falls inside
        // the dedup interval and is suppressed.
        assert!(!c.offer(sw, SNAP_AT, victim(), &t));
        assert_eq!(c.events.len(), 1);
        // Past the interval, a read of a register state that never saw
        // epoch 1: its horizon is older than what was delivered: stale.
        let old = tele_epochs(sw, 1);
        let later = SNAP_AT + Nanos::from_micros(200);
        assert!(old.snapshot(later).newest_epoch_end() < t.snapshot(SNAP_AT).newest_epoch_end());
        assert!(!c.offer(sw, later, victim(), &old));
        assert_eq!(c.fault_stats.snapshots_stale_dropped, 1);
        assert_eq!(c.missing[0].reason, MissingReason::UploadLate);
        assert_eq!(c.events.len(), 1);
    }
}
