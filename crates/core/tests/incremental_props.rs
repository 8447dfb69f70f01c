//! Property tests for the incremental provenance engine: an arbitrary
//! stream of epoch observations — out of order, duplicated, partially
//! stale — applied through [`IncrementalProvenance`] must yield exactly
//! the wait-for graph the batch pipeline builds from scratch over the
//! same snapshots (`AggTelemetry::build` + `build_graph`). The engine's
//! dedup rule (keep-latest by `taken_at`, later arrival wins ties) is the
//! batch aggregator's rule, so equivalence holds for every delivery
//! permutation, not just well-behaved ones.

use hawkeye_core::{build_graph, AggTelemetry, IncrementalProvenance, ReplayConfig};
use hawkeye_sim::{chain, FlowKey, Nanos, NodeId, Topology, EVAL_BANDWIDTH, EVAL_DELAY};
use hawkeye_telemetry::{EpochSnapshot, EvictedFlow, FlowRecord, PortRecord, TelemetrySnapshot};
use proptest::prelude::*;

/// One generated epoch observation, pre-topology: indices instead of ids.
///
/// `slot` and `id` are DERIVED from the epoch step the way the real ring
/// buffer derives them (slot = step mod nslots, id = step mod 2^id_bits):
/// two distinct (slot, id) keys can therefore never share a start time —
/// the one delivery shape the batch aggregator's per-start overwrite
/// semantics leaves arrival-order-dependent, and one no switch emits.
/// Key *reuse* across different starts (ring wraparound) is still
/// generated and must reconcile by `taken_at`.
#[derive(Debug, Clone)]
struct Obs {
    sw_idx: usize,
    start_step: u64,
    taken_jitter: u64,
    nflows: u16,
    pkt: u32,
    out_port: u8,
    nevicted: u8,
}

impl Obs {
    fn slot(&self) -> usize {
        (self.start_step % 2) as usize
    }

    fn id(&self) -> u8 {
        (self.start_step % 4) as u8
    }

    /// Collection time: after the epoch ends, with jitter below one epoch.
    /// Re-collections of the SAME epoch get different jitters (stale and
    /// supersede paths); a ring key reused at a later start is always
    /// collected later than the epoch it overwrote — time moves forward on
    /// a switch — so `taken_at` is monotone in `start_step` per key, which
    /// is the invariant that lets the engine forget retired epochs.
    fn taken_at(&self) -> Nanos {
        Nanos((self.start_step + 1) * EPOCH_LEN + self.taken_jitter)
    }
}

const EPOCH_LEN: u64 = 1 << 20;

fn obs_strategy() -> impl Strategy<Value = Obs> {
    (
        (
            0..3usize,    // switch index into the chain's switches
            0..8u64,      // start = step * EPOCH_LEN (wraps the ring twice)
            0..EPOCH_LEN, // collection jitter past the epoch end
        ),
        (
            0..4u16,  // flows in the epoch
            4..80u32, // per-flow packet count
            0..2u8,   // egress port (valid on every chain(3,1) switch)
            0..2u8,   // evicted entries on the snapshot
        ),
    )
        .prop_map(
            |((sw_idx, start_step, taken_jitter), (nflows, pkt, out_port, nevicted))| Obs {
                sw_idx,
                start_step,
                taken_jitter,
                nflows,
                pkt,
                out_port,
                nevicted,
            },
        )
}

fn flow(i: u16) -> FlowKey {
    FlowKey::roce(NodeId(100), NodeId(101), i)
}

fn materialize(o: &Obs, sws: &[NodeId]) -> TelemetrySnapshot {
    let epoch = EpochSnapshot {
        slot: o.slot(),
        id: o.id(),
        start: Nanos(o.start_step * EPOCH_LEN),
        len: Nanos(EPOCH_LEN),
        flows: (0..o.nflows)
            .map(|i| {
                (
                    flow(i),
                    FlowRecord {
                        pkt_count: o.pkt + u32::from(i),
                        paused_count: o.pkt / 8,
                        qdepth_sum: u64::from(o.pkt) * 4,
                        out_port: o.out_port,
                    },
                )
            })
            .collect(),
        ports: vec![(
            o.out_port,
            PortRecord {
                pkt_count: o.pkt * u32::from(o.nflows).max(1),
                paused_count: o.pkt / 4,
                qdepth_sum: u64::from(o.pkt) * 12,
            },
        )],
        meter: vec![(1 - o.out_port, o.out_port, u64::from(o.pkt) * 1048)],
    };
    TelemetrySnapshot {
        switch: sws[o.sw_idx],
        taken_at: o.taken_at(),
        nports: 4,
        max_flows: 64,
        epochs: vec![epoch],
        evicted: (0..o.nevicted)
            .map(|i| EvictedFlow {
                key: flow(40 + u16::from(i)),
                record: FlowRecord {
                    pkt_count: 7 + u32::from(i),
                    paused_count: 1,
                    qdepth_sum: 30,
                    out_port: o.out_port,
                },
                epoch_id: o.id(),
                slot: o.slot(),
            })
            .collect(),
    }
}

fn topo() -> Topology {
    chain(3, 1, EVAL_BANDWIDTH, EVAL_DELAY)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary streams — duplicates and supersedes arise naturally from
    /// the small (slot, id) key space — match the batch rebuild at a
    /// mid-stream checkpoint and at the end.
    #[test]
    fn incremental_equals_batch_rebuild(
        stream in proptest::collection::vec(obs_strategy(), 1..24),
        checkpoint_frac in 0..4usize,
    ) {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let snaps: Vec<TelemetrySnapshot> =
            stream.iter().map(|o| materialize(o, &sws)).collect();
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 1024);

        let checkpoint = snaps.len() * checkpoint_frac / 4;
        for (i, s) in snaps.iter().enumerate() {
            eng.apply(s);
            if i + 1 == checkpoint {
                assert_matches_batch(&mut eng, &snaps[..checkpoint], &topo);
            }
        }
        assert_matches_batch(&mut eng, &snaps, &topo);
    }

    /// Exact redelivery of any prefix is a no-op: the graph is unchanged
    /// and no fragments are recomputed by the following refresh.
    #[test]
    fn duplicate_redelivery_is_noop(
        stream in proptest::collection::vec(obs_strategy(), 1..16),
        dup_from in 0..8usize,
    ) {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let snaps: Vec<TelemetrySnapshot> =
            stream.iter().map(|o| materialize(o, &sws)).collect();
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 1024);
        for s in &snaps {
            eng.apply(s);
        }
        eng.refresh(&topo);
        let before = *eng.stats();

        let start = dup_from.min(snaps.len().saturating_sub(1));
        let mut changed = false;
        for s in &snaps[start..] {
            // A later snapshot may have superseded this epoch already, in
            // which case redelivery loses on taken_at and changes nothing;
            // if it is still current, byte-identical redelivery supersedes
            // with identical content, which must also change nothing.
            changed |= eng.apply(s);
        }
        prop_assert!(!changed, "redelivered prefix dirtied the engine");
        eng.refresh(&topo);
        prop_assert_eq!(eng.stats().frags_recomputed, before.frags_recomputed);
        let mut fed = snaps.clone();
        fed.extend_from_slice(&snaps[start..]);
        assert_matches_batch(&mut eng, &fed, &topo);
    }

    /// Retiring a horizon mid-stream matches the batch build over the same
    /// snapshots with the window clamped to that horizon — including
    /// late-arriving epochs that fall entirely behind it (skipped by the
    /// engine, filtered by the batch window).
    #[test]
    fn retire_matches_windowed_batch(
        stream in proptest::collection::vec(obs_strategy(), 2..24),
        split_frac in 1..4usize,
        horizon_step in 1..4u64,
    ) {
        let topo = topo();
        let sws: Vec<NodeId> = topo.switches().collect();
        let snaps: Vec<TelemetrySnapshot> =
            stream.iter().map(|o| materialize(o, &sws)).collect();
        let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 1024);

        let split = (snaps.len() * split_frac / 4).max(1);
        for s in &snaps[..split] {
            eng.apply(s);
        }
        eng.retire_before(Nanos(horizon_step * EPOCH_LEN));
        for s in &snaps[split..] {
            eng.apply(s);
        }
        prop_assert_eq!(eng.horizon(), Nanos(horizon_step * EPOCH_LEN));
        assert_matches_batch(&mut eng, &snaps, &topo);
    }
}
