//! Property: cross-shard fragment merge is lossless. For ANY way of
//! cutting a fabric's switches across 2/3/4 shard daemons — contiguous
//! ranges or arbitrary scatter — routing each switch's raw telemetry
//! stream into its owner's [`TelemetryStore`], gathering every store's
//! canonical fragment set, and assembling through
//! [`assemble_from_fragments`] must yield a provenance graph positionally
//! identical (node for node, edge for edge, in order) to `build_graph`
//! over one monolithic store fed the very same stream. This is the
//! invariant the front-end's `Diagnose` gather/merge path leans on: the
//! shard cut is invisible downstream of the merge.

use std::sync::OnceLock;

use hawkeye_client::VecSink;
use hawkeye_core::{
    assemble_from_fragments, build_graph, AggTelemetry, ProvenanceGraph, ReplayConfig, Window,
};
use hawkeye_eval::RunConfig;
use hawkeye_serve::{replay_streaming, StoreConfig, TelemetryStore};
use hawkeye_telemetry::TelemetrySnapshot;
use hawkeye_workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};
use proptest::prelude::*;

/// The scenarios the property sweeps (replayed once, shared by cases).
const KINDS: [ScenarioKind; 2] = [ScenarioKind::MicroBurstIncast, ScenarioKind::PfcStorm];

fn cases() -> &'static Vec<(Scenario, Vec<TelemetrySnapshot>)> {
    static CASES: OnceLock<Vec<(Scenario, Vec<TelemetrySnapshot>)>> = OnceLock::new();
    CASES.get_or_init(|| {
        KINDS
            .iter()
            .map(|&kind| {
                let sc = build_scenario(kind, ScenarioParams::default());
                let (_, sink) = replay_streaming(&sc, &RunConfig::default(), VecSink::default());
                assert!(!sink.snaps.is_empty(), "{kind:?} streamed no telemetry");
                (sc, sink.snaps)
            })
            .collect()
    })
}

fn assert_graphs_equal(ctx: &str, g: &ProvenanceGraph, b: &ProvenanceGraph) {
    assert_eq!(g.ports, b.ports, "port nodes diverged: {ctx}");
    assert_eq!(g.flows, b.flows, "flow nodes diverged: {ctx}");
    assert_eq!(g.port_edges, b.port_edges, "port edges diverged: {ctx}");
    assert_eq!(
        g.flow_port_edges, b.flow_port_edges,
        "flow→port edges diverged: {ctx}"
    );
    assert_eq!(
        g.port_flow_edges(),
        b.port_flow_edges(),
        "port→flow edges diverged: {ctx}"
    );
}

/// Deterministic switch→shard assignment: a cheap hash of (salt, switch)
/// so proptest's shrinker can walk salts toward a minimal failing cut.
fn owner(salt: u64, switch: u32, k: usize) -> usize {
    let mut h = salt ^ (u64::from(switch).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h % k as u64) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// 2/3/4-way scatter cuts: sharded gather + merge == monolith build.
    #[test]
    fn sharded_fragment_merge_equals_monolith_graph(
        case in 0..KINDS.len(),
        k in 2..5usize,
        salt in 0..u64::MAX,
    ) {
        let (sc, snaps) = &cases()[case];

        let mut mono = TelemetryStore::new(StoreConfig::default());
        let mut shards: Vec<TelemetryStore> =
            (0..k).map(|_| TelemetryStore::new(StoreConfig::default())).collect();
        for s in snaps {
            mono.append(s);
            shards[owner(salt, s.switch.0, k)].append(s);
        }

        let window = Window::default();
        let replay = ReplayConfig::default();
        let reference = build_graph(
            &AggTelemetry::build(&mono.snapshots(), window),
            &sc.topo,
            replay,
        );
        let fragments: Vec<Vec<TelemetrySnapshot>> =
            shards.iter().map(|st| st.snapshots()).collect();
        // Every shard must have gathered a disjoint, jointly-complete cut.
        let total: usize = fragments.iter().map(Vec::len).sum();
        prop_assert_eq!(total, mono.snapshots().len()); // cut lost/duplicated a switch otherwise
        let (_, merged) = assemble_from_fragments(fragments, window, &sc.topo, replay);

        let ctx = format!("{:?} k={k} salt={salt:#x}", KINDS[case]);
        assert_graphs_equal(&ctx, &merged, &reference);
    }

    /// Shard-local evidence staleness: when two shards both report a
    /// switch (mid-migration overlap), the merge keeps the latest-taken
    /// snapshot — the graph equals a monolith that saw only the fresher
    /// stream, regardless of which shard position the stale copy sat in.
    #[test]
    fn overlapping_shards_resolve_to_latest(
        case in 0..KINDS.len(),
        dup_every in 1..6usize,
        flip_bit in 0..2u8,
    ) {
        let flip = flip_bit == 1;
        let (sc, snaps) = &cases()[case];

        // The last stream position of each switch: a duplicated copy is
        // only a *strictly stale* overlap if it misses that position
        // (equal `taken_at` with partial content would make the merge
        // winner an arbitrary shard-order artifact, which real migration
        // never produces — the old owner stops getting appends first).
        let mut last_of = std::collections::HashMap::new();
        for (i, s) in snaps.iter().enumerate() {
            last_of.insert(s.switch, i);
        }

        let mut mono = TelemetryStore::new(StoreConfig::default());
        let mut a = TelemetryStore::new(StoreConfig::default());
        let mut b = TelemetryStore::new(StoreConfig::default());
        for (i, s) in snaps.iter().enumerate() {
            mono.append(s);
            if (s.switch.0 as usize).is_multiple_of(2) {
                a.append(s)
            } else {
                b.append(s)
            }
            // Every dup_every-th snapshot also lands in the *other* shard:
            // an overlapping previous owner whose copy went stale.
            if i % dup_every == 0 && last_of[&s.switch] != i {
                if (s.switch.0 as usize).is_multiple_of(2) {
                    b.append(s)
                } else {
                    a.append(s)
                }
            }
        }

        let window = Window::default();
        let replay = ReplayConfig::default();
        let reference = build_graph(
            &AggTelemetry::build(&mono.snapshots(), window),
            &sc.topo,
            replay,
        );
        let fragments = if flip {
            vec![b.snapshots(), a.snapshots()]
        } else {
            vec![a.snapshots(), b.snapshots()]
        };
        let (_, merged) = assemble_from_fragments(fragments, window, &sc.topo, replay);
        let ctx = format!("{:?} dup_every={dup_every} flip={flip}", KINDS[case]);
        assert_graphs_equal(&ctx, &merged, &reference);
    }
}
