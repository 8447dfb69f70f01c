//! One ring per daemon: the daemon's wait-for graph reads the store's raw
//! ring instead of applying every snapshot to a ring of its own, and what
//! it reports is what a standalone [`IncrementalProvenance`] fed the same
//! snapshots reports.

use hawkeye_client::{ServeClient, VecSink};
use hawkeye_core::{IncrementalProvenance, ReplayConfig};
use hawkeye_eval::RunConfig;
use hawkeye_serve::{spawn, Endpoint, ServeConfig, StoreConfig, TelemetryStore};
use hawkeye_telemetry::TelemetrySnapshot;
use hawkeye_workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};

/// The self-contained `replay incast` capture: the ft4 incast scenario at
/// its default seed.
fn capture() -> (
    Scenario,
    hawkeye_serve::ReplayOutcome,
    Vec<TelemetrySnapshot>,
) {
    let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
    let (outcome, sink) =
        hawkeye_serve::replay_streaming(&sc, &RunConfig::default(), VecSink::default());
    (sc, outcome, sink.snaps)
}

fn stat(stats: &serde::Value, key: &str) -> u64 {
    stats
        .get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("stats missing {key}: {stats:?}"))
}

fn daemon(sc: &Scenario, store: StoreConfig) -> (hawkeye_serve::DaemonHandle, ServeClient) {
    let handle = spawn(
        sc.topo.clone(),
        ServeConfig {
            store,
            ..ServeConfig::default()
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind daemon");
    let addr = handle.local_addr.expect("tcp daemon has an address");
    let client = ServeClient::connect_tcp(&addr.to_string()).expect("connect");
    (handle, client)
}

fn ingest(client: &mut ServeClient, snaps: &[TelemetrySnapshot]) {
    for frame in snaps.chunks(4) {
        client.ingest_batch(frame).expect("ingest frame");
    }
    assert_eq!(client.finish_ingest().expect("settle acks").shed, 0);
}

/// On a capture that never evicts, the daemon's graph over the store's
/// ring and a standalone engine over its own ring agree on every
/// `engine_*` key, on `incremental_updates`, and on the pending state the
/// verdict's audit record reports — so the store thread marks dirty
/// exactly the snapshots that change a ring.
#[test]
fn daemon_graph_reports_what_a_standalone_engine_reports() {
    let (sc, outcome, snaps) = capture();
    let w = outcome.window.expect("victim was detected");
    let store = StoreConfig::default();

    let mut engine = IncrementalProvenance::new(ReplayConfig::default(), store.epoch_budget);
    let updates = snaps.iter().filter(|s| engine.apply(s)).count() as u64;
    assert!(
        engine.stats().epochs_superseded > 0,
        "the capture must re-collect epochs, or the supersede path goes untested"
    );
    let pending = (
        engine
            .dirty_switches()
            .iter()
            .map(|n| n.0)
            .collect::<Vec<_>>(),
        engine.stats().frags_reused,
        engine.stats().frags_recomputed,
    );
    engine.refresh(&sc.topo);
    let st = *engine.stats();
    let expect = [
        ("engine_snapshots_applied", st.snapshots_applied),
        ("engine_frags_recomputed", st.frags_recomputed),
        ("engine_frags_reused", st.frags_reused),
        ("engine_epochs_held", engine.epochs_held() as u64),
        ("engine_epochs_retired_total", st.epochs_retired),
        ("engine_horizon", engine.horizon().0),
        ("engine_fragments", engine.fragments_held() as u64),
        ("engine_nodes", engine.node_count() as u64),
        ("engine_epochs_retired", 0),
        ("incremental_updates", updates),
    ];
    assert_eq!(st.epochs_retired, 0, "the capture must not evict");

    let (handle, mut client) = daemon(&sc, store);
    ingest(&mut client, &snaps);
    client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("served diagnosis");
    let rec = client.explain(None).expect("explain latest");
    assert_eq!(
        (rec.dirty_switches, rec.frags_reused, rec.frags_recomputed),
        pending,
        "the verdict's pending graph state"
    );
    let stats = client.stats().expect("stats");
    let got = expect.map(|(k, _)| (k, stat(&stats, k)));
    assert_eq!(got, expect, "daemon vs standalone engine");
    client.shutdown().expect("shutdown");
    handle.wait();
}

/// Where the ring evicts, the graph holds exactly the store's epochs and
/// retires exactly the epochs the store evicted.
#[test]
fn daemon_graph_retires_what_the_store_evicts() {
    let (sc, _, snaps) = capture();
    let store = StoreConfig {
        epoch_budget: 2,
        ..StoreConfig::default()
    };
    let mut reference = TelemetryStore::new(store);
    for s in &snaps {
        reference.append(s);
    }
    let evicted = reference.stats().epochs_evicted;
    assert!(evicted > 0, "a 2-epoch ring must evict");

    let (handle, mut client) = daemon(&sc, store);
    ingest(&mut client, &snaps);
    let stats = client.stats().expect("stats");
    assert_eq!(
        stat(&stats, "engine_epochs_held"),
        stat(&stats, "store_epochs_held")
    );
    assert_eq!(
        stat(&stats, "engine_epochs_held"),
        reference.epochs_held() as u64
    );
    assert_eq!(stat(&stats, "engine_epochs_retired_total"), evicted);
    assert_eq!(stat(&stats, "engine_epochs_retired"), evicted);
    client.shutdown().expect("shutdown");
    handle.wait();
}
