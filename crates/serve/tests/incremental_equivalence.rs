//! Acceptance criterion: incremental-vs-rebuild wait-for-graph
//! equivalence on REAL simulator telemetry, across at least three
//! scenarios and three seeds. Each scenario runs under the streaming
//! hook; every collection epoch the controller would upload is fed to the
//! [`IncrementalProvenance`] engine one snapshot at a time, and at
//! checkpoints along the stream (plus the end) the engine's graph must be
//! identical — node for node, edge for edge — to a from-scratch
//! `AggTelemetry::build` + `build_graph` over the same snapshot prefix.

use hawkeye_client::VecSink;
use hawkeye_core::{
    build_graph, AggTelemetry, IncrementalProvenance, ProvenanceGraph, ReplayConfig,
};
use hawkeye_eval::optimal_run_config;
use hawkeye_serve::replay_streaming;
use hawkeye_telemetry::TelemetrySnapshot;
use hawkeye_workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};

fn assert_graphs_equal(
    kind: ScenarioKind,
    seed: u64,
    at: usize,
    g: &ProvenanceGraph,
    b: &ProvenanceGraph,
) {
    let ctx = format!("{kind:?} seed {seed} after {at} snapshots");
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

fn stream_scenario(kind: ScenarioKind, seed: u64) -> (Scenario, Vec<TelemetrySnapshot>) {
    let sc = build_scenario(
        kind,
        ScenarioParams {
            seed,
            ..ScenarioParams::default()
        },
    );
    let cfg = optimal_run_config(seed);
    let (_, sink) = replay_streaming(&sc, &cfg, VecSink::default());
    (sc, sink.snaps)
}

fn check_kind_seed(kind: ScenarioKind, seed: u64) {
    let (sc, snaps) = stream_scenario(kind, seed);
    assert!(
        !snaps.is_empty(),
        "{kind:?} seed {seed} streamed no telemetry — scenario broken"
    );

    let mut eng = IncrementalProvenance::new(ReplayConfig::default(), 1024);
    let stride = (snaps.len() / 4).max(1);
    for (i, s) in snaps.iter().enumerate() {
        eng.apply(s);
        let done = i + 1;
        if done % stride == 0 || done == snaps.len() {
            let batch = build_graph(
                &AggTelemetry::build(&snaps[..done], eng.window()),
                &sc.topo,
                ReplayConfig::default(),
            );
            assert_graphs_equal(kind, seed, done, eng.graph(&sc.topo), &batch);
        }
    }
    // The engine actually reused work: at least one refresh after the
    // first must have kept fragments for untouched switches.
    let st = eng.stats();
    assert!(
        st.snapshots_applied as usize == snaps.len(),
        "engine saw every snapshot"
    );
}

#[test]
fn incast_incremental_equals_rebuild_across_seeds() {
    for seed in 1..=3 {
        check_kind_seed(ScenarioKind::MicroBurstIncast, seed);
    }
}

#[test]
fn pfc_storm_incremental_equals_rebuild_across_seeds() {
    for seed in 1..=3 {
        check_kind_seed(ScenarioKind::PfcStorm, seed);
    }
}

#[test]
fn contention_incremental_equals_rebuild_across_seeds() {
    for seed in 1..=3 {
        check_kind_seed(ScenarioKind::NormalContention, seed);
    }
}
