//! Serve-plane observability, end to end over a real socket: after a
//! replayed scenario, the `Metrics` wire op returns per-op latency
//! histograms with nonzero counts plus the flight ring, and the `Explain`
//! op round-trips the Diagnose verdict's audit record — the "explain the
//! answer after the fact" acceptance path.

use hawkeye_client::ServeClient;
use hawkeye_eval::{optimal_run_config, Verdict};
use hawkeye_obs::names;
use hawkeye_serve::{spawn, Endpoint, ServeConfig};
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};

fn incast() -> hawkeye_workloads::Scenario {
    build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default())
}

#[test]
fn metrics_and_explain_round_trip_after_replay() {
    let sc = incast();
    let cfg = optimal_run_config(1);
    let handle = spawn(
        sc.topo.clone(),
        ServeConfig::default(),
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind daemon");
    let addr = handle.local_addr.expect("tcp daemon has an address");
    let client = ServeClient::connect_tcp(&addr.to_string()).expect("connect");

    let (outcome, mut client) = hawkeye_serve::replay_streaming(&sc, &cfg, client);
    assert!(outcome.stream.pushed > 0, "no epochs streamed");
    assert_eq!(outcome.verdict, Some(Verdict::Correct));
    let w = outcome.window.expect("victim was detected");
    let served = client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("served diagnosis");

    // --- Metrics op: latency histograms populated by the replay itself.
    let (snap, flight) = client.metrics().expect("metrics op");
    let ingest = snap
        .histogram(names::OP_INGEST_BATCH_NS)
        .expect("ingest latency histogram registered");
    assert_eq!(
        ingest.count, outcome.stream.pushed,
        "one ingest latency sample per streamed frame of one"
    );
    let diag = snap
        .histogram(names::OP_DIAGNOSE_NS)
        .expect("diagnose latency histogram registered");
    assert_eq!(diag.count, 1);
    assert!(diag.percentile(0.99).unwrap() > 0, "diagnose took >0 ns");
    assert!(
        diag.percentile(0.50) <= diag.percentile(0.99),
        "percentiles must be monotone"
    );
    assert!(snap.counter_total(names::EPOCHS_INGESTED) > 0);
    // A daemon backpressures and never sheds: every streamed snapshot
    // reached the store.
    let stats = client.stats().expect("stats op");
    assert_eq!(
        stats
            .get("store_snapshots_appended")
            .and_then(|v| v.as_u64()),
        Some(outcome.stream.pushed),
        "stats: {stats:?}"
    );
    // Stage split: the ingest path attributed wall-clock somewhere.
    assert!(
        snap.counter_total(names::STAGE_APPEND_NS) > 0,
        "append stage timing missing: {snap:?}"
    );
    assert!(snap.counter_total(names::STAGE_ENGINE_APPLY_NS) > 0);
    // Fault-free replay: flight ring holds no warnings.
    let events = flight.as_array().expect("flight dump is an array");
    assert!(
        events
            .iter()
            .all(|e| e.get("kind").and_then(|k| k.as_str()) != Some("warning")),
        "fault-free replay produced warnings: {events:?}"
    );

    // --- Explain op: the verdict's provenance survives the round trip.
    let rec = client.explain(None).expect("explain latest");
    assert_eq!(rec.anomaly, format!("{:?}", served.anomaly));
    assert_eq!(rec.signature_row, "microburst_incast");
    assert_eq!(rec.confidence, "complete");
    assert_eq!(rec.window_from_ns, w.from.0);
    assert_eq!(rec.window_to_ns, w.to.0);
    assert!(
        rec.contributing_epochs > 0 && !rec.contributing_switches.is_empty(),
        "verdict must name its evidence: {rec:?}"
    );
    assert!(
        rec.stage_collect_ns > 0 && rec.stage_graph_ns > 0,
        "stage timings must be wall-clock, not zero: {rec:?}"
    );
    // By-seq lookup returns the identical record.
    let by_seq = client.explain(Some(rec.seq)).expect("explain by seq");
    assert_eq!(by_seq, rec);
    // A seq that was never journaled is a remote error, not a hang.
    assert!(client.explain(Some(rec.seq + 1000)).is_err());

    client.shutdown().expect("shutdown");
    handle.wait();
}

/// With observability disabled the daemon still serves (bare hot path):
/// Metrics answers with empty histograms and Explain reports no verdicts.
#[test]
fn disabled_obs_serves_without_journaling() {
    let sc = incast();
    let cfg = optimal_run_config(1);
    let handle = spawn(
        sc.topo.clone(),
        ServeConfig {
            obs: false,
            ..ServeConfig::default()
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind daemon");
    let addr = handle.local_addr.expect("tcp daemon has an address");
    let client = ServeClient::connect_tcp(&addr.to_string()).expect("connect");

    let (outcome, mut client) = hawkeye_serve::replay_streaming(&sc, &cfg, client);
    let w = outcome.window.expect("victim was detected");
    client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("served diagnosis");

    let (snap, flight) = client.metrics().expect("metrics op still answers");
    assert!(
        snap.histogram(names::OP_DIAGNOSE_NS).is_none(),
        "disabled obs must not record op latency"
    );
    assert_eq!(snap.counter_total(names::STAGE_ENGINE_APPLY_NS), 0);
    // Ingest accounting is part of the service contract, not optional obs.
    assert!(snap.counter_total(names::EPOCHS_INGESTED) > 0);
    assert_eq!(flight.as_array().map(|a| a.len()), Some(0));
    assert!(client.explain(None).is_err(), "no verdict journaled");

    client.shutdown().expect("shutdown");
    handle.wait();
}
