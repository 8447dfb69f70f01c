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
//! corrupted causality-meter entries, dead switch CPUs), enforces a
//! per-switch upload deadline, reconciles out-of-order/stale snapshots,
//! and records an explicit [`MissingTelemetry`] marker for every gap
//! instead of staying silent.

use hawkeye_sim::{FaultPlan, FaultRng, FlowKey, Nanos, NodeId, STREAM_UPLOAD};
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
/// Per-switch upload deadline: a snapshot delivered more than this after
/// it was taken is discarded as late (its window has been re-collected by
/// then; acting on it would mix timelines).
const UPLOAD_DEADLINE: Nanos = Nanos::from_micros(500);

/// Why a switch's telemetry never reached the analyzer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissingReason {
    /// The upload was lost on its way to the controller.
    UploadDropped,
    /// The upload arrived past the per-switch deadline.
    UploadLate,
    /// The switch's CPU path was dead (kill/flap fault).
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
    /// Delayed uploads that missed the per-switch deadline.
    pub uploads_late_dropped: u64,
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
        if self.faults.cpu_fault.is_some() && self.faults.cpu_down(switch, now) {
            self.fault_stats.cpu_down_drops += 1;
            self.note_missing(switch, now, victim, MissingReason::CpuDown);
            return false;
        }
        self.last.insert(switch, now);
        let mut snapshot = tele.snapshot(now);
        let mut delivered_at = now;
        // Upload-path faults (the registers WERE read, so dedup stands).
        if self.faults.upload_faults_active() {
            if self.frng.chance(self.faults.upload_drop) {
                self.fault_stats.uploads_dropped += 1;
                self.note_missing(switch, now, victim, MissingReason::UploadDropped);
                return false;
            }
            if self.frng.chance(self.faults.upload_delay) {
                let d = self.frng.delay(self.faults.upload_delay_max);
                self.fault_stats.uploads_delayed += 1;
                if d > UPLOAD_DEADLINE {
                    self.fault_stats.uploads_late_dropped += 1;
                    self.note_missing(switch, now, victim, MissingReason::UploadLate);
                    return false;
                }
                delivered_at = now + d;
            }
            if self.frng.chance(self.faults.snapshot_stale) && snapshot.make_stale() {
                self.fault_stats.snapshots_stale += 1;
            }
            if self.frng.chance(self.faults.snapshot_truncate) && snapshot.truncate_flows() > 0 {
                self.fault_stats.snapshots_truncated += 1;
            }
            if self.faults.meter_corrupt > 0.0 {
                // A corrupted meter cell fails its checksum and is
                // discarded row-wise by the controller.
                for e in &mut snapshot.epochs {
                    let mut kept = Vec::with_capacity(e.meter.len());
                    for m in e.meter.drain(..) {
                        if self.frng.chance(self.faults.meter_corrupt) {
                            self.fault_stats.meter_entries_corrupted += 1;
                        } else {
                            kept.push(m);
                        }
                    }
                    e.meter = kept;
                }
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
    use hawkeye_sim::{CpuPathFault, EnqueueRecord, FlowId};
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

    #[test]
    fn upload_drop_records_missing_marker() {
        let sw = NodeId(1);
        let t = tele(sw);
        let plan = FaultPlan {
            seed: 7,
            upload_drop: 1.0,
            ..FaultPlan::none()
        };
        let mut c = Collector::new(plan);
        assert!(!c.offer(sw, SNAP_AT, victim(), &t));
        assert!(c.events.is_empty());
        assert_eq!(c.fault_stats.uploads_dropped, 1);
        assert_eq!(c.missing.len(), 1);
        assert_eq!(c.missing[0].reason, MissingReason::UploadDropped);
        assert_eq!(c.missing_switches(Nanos::ZERO, Nanos(u64::MAX)), vec![sw]);
    }

    #[test]
    fn delay_beyond_deadline_drops_as_late() {
        let sw = NodeId(1);
        let t = tele(sw);
        // Seed 7 draws a delay past the 500 µs deadline from the 10 ms
        // range.
        let plan = FaultPlan {
            seed: 7,
            upload_delay: 1.0,
            upload_delay_max: Nanos::from_millis(10),
            ..FaultPlan::none()
        };
        let mut c = Collector::new(plan);
        assert!(!c.offer(sw, SNAP_AT, victim(), &t));
        assert_eq!(c.fault_stats.uploads_delayed, 1);
        assert_eq!(c.fault_stats.uploads_late_dropped, 1);
        assert_eq!(c.missing[0].reason, MissingReason::UploadLate);
    }

    #[test]
    fn delay_within_deadline_shifts_delivery_time() {
        let sw = NodeId(1);
        let t = tele(sw);
        let plan = FaultPlan {
            seed: 7,
            upload_delay: 1.0,
            upload_delay_max: Nanos(100),
            ..FaultPlan::none()
        };
        let mut c = Collector::new(plan);
        assert!(c.offer(sw, SNAP_AT, victim(), &t));
        assert_eq!(c.fault_stats.uploads_delayed, 1);
        assert_eq!(c.fault_stats.uploads_late_dropped, 0);
        let ev = &c.events[0];
        assert!(ev.at > SNAP_AT && ev.at <= SNAP_AT + Nanos(100));
        assert_eq!(ev.snapshot.taken_at, SNAP_AT);
    }

    #[test]
    fn stale_and_truncated_snapshots_are_degraded_not_lost() {
        let sw = NodeId(1);
        let t = tele(sw);
        let full = t.snapshot(SNAP_AT);
        assert!(full.epochs.len() >= 2, "fixture must span two epochs");
        let full_flows: usize = full.epochs.iter().map(|e| e.flows.len()).sum();

        let plan = FaultPlan {
            seed: 7,
            snapshot_stale: 1.0,
            snapshot_truncate: 1.0,
            ..FaultPlan::none()
        };
        let mut c = Collector::new(plan);
        assert!(c.offer(sw, SNAP_AT, victim(), &t));
        assert_eq!(c.fault_stats.snapshots_stale, 1);
        assert_eq!(c.fault_stats.snapshots_truncated, 1);
        let got = &c.events[0].snapshot;
        assert_eq!(got.epochs.len(), full.epochs.len() - 1);
        let got_flows: usize = got.epochs.iter().map(|e| e.flows.len()).sum();
        assert!(got_flows < full_flows);
        // Degraded delivery is still a delivery: no missing marker.
        assert!(c.missing.is_empty());
    }

    #[test]
    fn meter_corruption_discards_entries() {
        let sw = NodeId(1);
        let t = tele(sw);
        let full: usize = t
            .snapshot(SNAP_AT)
            .epochs
            .iter()
            .map(|e| e.meter.len())
            .sum();
        assert!(full > 0, "fixture must have meter volume");
        let plan = FaultPlan {
            seed: 7,
            meter_corrupt: 1.0,
            ..FaultPlan::none()
        };
        let mut c = Collector::new(plan);
        assert!(c.offer(sw, SNAP_AT, victim(), &t));
        assert_eq!(c.fault_stats.meter_entries_corrupted, full as u64);
        assert!(c.events[0]
            .snapshot
            .epochs
            .iter()
            .all(|e| e.meter.is_empty()));
    }

    #[test]
    fn cpu_down_window_blocks_then_recovers() {
        let sw = NodeId(1);
        let t = tele(sw);
        let plan = FaultPlan {
            seed: 7,
            cpu_fault: Some(CpuPathFault {
                switch: Some(sw),
                down_from: Nanos::ZERO,
                down_to: SNAP_AT + Nanos(1),
                flap_period: None,
            }),
            ..FaultPlan::none()
        };
        let mut c = Collector::new(plan);
        assert!(!c.offer(sw, SNAP_AT, victim(), &t));
        assert_eq!(c.fault_stats.cpu_down_drops, 1);
        assert_eq!(c.missing[0].reason, MissingReason::CpuDown);
        // A dead CPU must not arm the dedup timer: the next offer after the
        // window (still inside what would be the dedup interval) collects.
        let after = SNAP_AT + Nanos(10);
        assert!(c.offer(sw, after, victim(), &t));
        assert_eq!(c.events.len(), 1);
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
