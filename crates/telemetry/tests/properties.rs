//! Property-based tests of the telemetry layer: count conservation under
//! hash-collision eviction, epoch wrap-around hygiene, and snapshot
//! consistency.

use hawkeye_sim::{EnqueueRecord, FlowId, FlowKey, Nanos, NodeId};
use hawkeye_telemetry::{EpochConfig, SwitchTelemetry, TelemetryConfig};
use proptest::prelude::*;

fn rec(key: FlowKey, out_port: u8, ts: u64) -> EnqueueRecord {
    EnqueueRecord {
        switch: NodeId(0),
        in_port: 0,
        out_port,
        flow: FlowId(0),
        key,
        size: 1048,
        qdepth_pkts: 1,
        qdepth_bytes: 1048,
        egress_paused: false,
        timestamp: Nanos(ts),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Packet counts are conserved across table slots and evictions: the
    /// per-epoch sum of (live + evicted) packet counts equals the number of
    /// enqueues in that epoch.
    #[test]
    fn counts_conserved_under_eviction(
        sports in proptest::collection::vec(0u16..64, 1..200),
        table_bits in 1u32..5,
    ) {
        let cfg = TelemetryConfig {
            epochs: EpochConfig::DEFAULT,
            max_flows: 1 << table_bits,
        };
        let mut t = SwitchTelemetry::new(NodeId(0), 4, cfg);
        // All enqueues in epoch 0.
        for (i, sp) in sports.iter().enumerate() {
            let key = FlowKey::roce(NodeId(1), NodeId(2), *sp);
            t.on_enqueue(&rec(key, 1, 100 + i as u64));
        }
        let snap = t.snapshot(Nanos(100_000));
        let live: u64 = snap.epochs.iter()
            .flat_map(|e| e.flows.iter())
            .map(|(_, r)| r.pkt_count as u64)
            .sum();
        let evicted: u64 = snap.evicted.iter().map(|e| e.record.pkt_count as u64).sum();
        prop_assert_eq!(live + evicted, sports.len() as u64);
        // The port table agrees.
        let port: u64 = snap.epochs.iter()
            .flat_map(|e| e.ports.iter())
            .map(|(_, r)| r.pkt_count as u64)
            .sum();
        prop_assert_eq!(port, sports.len() as u64);
    }

    /// Wrap-around: a slot reused by a newer epoch never mixes in stale
    /// counts, no matter the timestamp pattern.
    #[test]
    fn wraparound_never_mixes_epochs(
        offsets in proptest::collection::vec(0u64..(1u64 << 22), 1..100),
        rounds in 1u64..4,
    ) {
        let ec = EpochConfig::DEFAULT;
        let cfg = TelemetryConfig { epochs: ec, max_flows: 64 };
        let mut t = SwitchTelemetry::new(NodeId(0), 4, cfg);
        let key = FlowKey::roce(NodeId(1), NodeId(2), 9);
        let span = ec.ring_span().as_nanos();
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        let mut last = 0;
        for r in 0..rounds {
            for &o in &sorted {
                let ts = r * span + o;
                if ts < last { continue; }
                last = ts;
                t.on_enqueue(&rec(key, 1, ts));
            }
        }
        // Snapshot at the final time: every epoch's packet count must be
        // <= the number of enqueues that could fall into that exact epoch.
        let snap = t.snapshot(Nanos(last));
        for e in &snap.epochs {
            for (_, fr) in &e.flows {
                prop_assert!(fr.pkt_count as usize <= sorted.len());
            }
            // Epoch identity is self-consistent.
            prop_assert_eq!(ec.slot(e.start), e.slot);
            prop_assert_eq!(ec.epoch_id(e.start), e.id);
            prop_assert!(e.start <= Nanos(last));
        }
    }

    /// Snapshot wire sizes: filtered <= full, and filtered grows with
    /// occupancy.
    #[test]
    fn snapshot_size_sanity(n in 1usize..60) {
        let cfg = TelemetryConfig { epochs: EpochConfig::DEFAULT, max_flows: 256 };
        let mut t = SwitchTelemetry::new(NodeId(0), 8, cfg);
        for i in 0..n {
            let key = FlowKey::roce(NodeId(1), NodeId(2), i as u16);
            t.on_enqueue(&rec(key, (i % 8) as u8, 50 + i as u64));
        }
        let snap = t.snapshot(Nanos(1000));
        prop_assert!(snap.wire_size_filtered() <= snap.wire_size_full());
        prop_assert!(snap.distinct_flows() <= n);
        prop_assert!(snap.report_packets(1500) >= 1);
    }
}
