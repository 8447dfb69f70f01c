//! End-to-end durability: a `spawn_durable` daemon journals a streamed
//! scenario, is restarted against the same directory, and must come back
//! with the same flow history, verdict and audit trail as before — and as
//! a durability-off daemon fed the identical stream.

use hawkeye_client::{FlowObservation, ProtoError, ServeClient, ShardRange, VecSink};
use hawkeye_eval::{RunConfig, Verdict};
use hawkeye_serve::{
    replay_streaming, spawn, spawn_durable, DaemonHandle, Endpoint, FsyncPolicy, ReplayOutcome,
    ServeConfig, StoreConfig, WalConfig,
};
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};
use std::path::{Path, PathBuf};

fn incast() -> hawkeye_workloads::Scenario {
    build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default())
}

fn tiered_cfg() -> ServeConfig {
    ServeConfig {
        store: StoreConfig {
            epoch_budget: 2,
            ..StoreConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hawkeye-durable-{tag}-{}", std::process::id()))
}

/// Stream the scenario into a daemon over a unix socket, take a Stats
/// barrier (flush ⟹ journaled on a durable daemon), and return the
/// outcome plus the daemon's view of the victim's flow history.
fn stream_into(
    sc: &hawkeye_workloads::Scenario,
    sock: &Path,
) -> (ReplayOutcome, Vec<FlowObservation>) {
    let client = ServeClient::connect_unix(sock).expect("connect");
    let cfg = RunConfig::default();
    let (outcome, mut client) = replay_streaming(sc, &cfg, client);
    assert_eq!(outcome.stream.errors, 0, "stream: {:?}", outcome.stream);
    client.stats().expect("stats barrier");
    let history = client.flow_history(sc.truth.victim).expect("history");
    (outcome, history)
}

fn query_history(sc: &hawkeye_workloads::Scenario, sock: &Path) -> Vec<FlowObservation> {
    let mut client = ServeClient::connect_unix(sock).expect("connect");
    client.flow_history(sc.truth.victim).expect("history")
}

/// Graceful restart: everything journaled must come back — flow history
/// (both tiers), the served verdict, and the audit trail with its seq.
#[test]
fn durable_daemon_state_survives_restart() {
    let sc = incast();
    let dir = tmp("restart");
    let _ = std::fs::remove_dir_all(&dir);
    let sock = tmp("restart.sock");

    // First incarnation: stream, diagnose, stop.
    let wal = WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::new(&dir)
    };
    let handle = spawn_durable(
        sc.topo.clone(),
        tiered_cfg(),
        Endpoint::Unix(sock.clone()),
        Some(wal.clone()),
    )
    .expect("bind durable daemon");
    let rep = handle.recovery.expect("durable handle reports recovery");
    assert_eq!(rep.records_scanned, 0, "fresh dir: {rep:?}");
    let (outcome, history1) = stream_into(&sc, &sock);
    assert_eq!(outcome.verdict, Some(Verdict::Correct));
    let w = outcome.window.expect("victim detected");
    let mut client = ServeClient::connect_unix(&sock).expect("connect");
    let served1 = client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("diagnosis");
    let explain1 = client.explain(None).expect("audit record");
    drop(client);
    let mut shut = ServeClient::connect_unix(&sock).expect("connect");
    shut.shutdown().expect("graceful shutdown");
    handle.wait();
    assert!(!sock.exists(), "graceful stop must remove the socket");

    // Second incarnation, same directory: recovered, not re-streamed.
    let handle = spawn_durable(
        sc.topo.clone(),
        tiered_cfg(),
        Endpoint::Unix(sock.clone()),
        Some(wal),
    )
    .expect("restart durable daemon");
    let rep = handle.recovery.expect("recovery report");
    assert!(rep.records_scanned > 0, "nothing recovered: {rep:?}");
    assert_eq!(rep.truncated_records, 0, "clean log truncated: {rep:?}");
    assert!(rep.verdicts_replayed > 0 || rep.checkpoint_restored);

    let history2 = query_history(&sc, &sock);
    assert_eq!(history2, history1, "flow history changed across restart");

    let mut client = ServeClient::connect_unix(&sock).expect("connect");
    let served2 = client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("post-recovery diagnosis");
    assert!(
        outcome.parity_with(&served2),
        "verdict diverged after recovery:\n  before: {served1:?}\n  after:  {served2:?}"
    );
    // The audit trail recovered its ring *and* its counter: the recovered
    // record is served under its original seq, and new verdicts continue
    // the numbering instead of restarting at 0.
    let replayed = client
        .explain(Some(explain1.seq))
        .expect("recovered record");
    assert_eq!(replayed, explain1);
    let explain2 = client.explain(None).expect("latest");
    assert!(explain2.seq > explain1.seq, "seq restarted: {explain2:?}");

    client.shutdown().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durable path (with checkpoints forced via tiny segments) must
/// produce exactly the state a durability-off daemon builds from the same
/// stream — recovery included.
#[test]
fn recovered_state_matches_durability_off() {
    let sc = incast();

    // Reference: durability off.
    let sock_ref = tmp("off.sock");
    let handle = spawn(
        sc.topo.clone(),
        tiered_cfg(),
        Endpoint::Unix(sock_ref.clone()),
    )
    .expect("bind reference daemon");
    assert!(handle.recovery.is_none(), "off daemon has no recovery");
    let (_, history_ref) = stream_into(&sc, &sock_ref);
    shutdown_daemon(handle, &sock_ref);

    // Durable with small segments: rotation and the checkpoint protocol
    // both fire mid-stream.
    let dir = tmp("ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    let sock = tmp("ckpt.sock");
    let wal = WalConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes: 1024,
        retire_segments: 2,
        ..WalConfig::new(&dir)
    };
    let handle = spawn_durable(
        sc.topo.clone(),
        tiered_cfg(),
        Endpoint::Unix(sock.clone()),
        Some(wal.clone()),
    )
    .expect("bind durable daemon");
    let (_, history_durable) = stream_into(&sc, &sock);
    assert_eq!(
        history_durable, history_ref,
        "durable-on changed live query results"
    );
    shutdown_daemon(handle, &sock);

    // Restart and compare again: checkpoint restore + tail replay.
    let handle = spawn_durable(
        sc.topo.clone(),
        tiered_cfg(),
        Endpoint::Unix(sock.clone()),
        Some(wal),
    )
    .expect("restart durable daemon");
    let rep = handle.recovery.expect("recovery report");
    assert!(
        rep.checkpoint_restored,
        "tiny segments must have checkpointed: {rep:?}"
    );
    let history_rec = query_history(&sc, &sock);
    assert_eq!(
        history_rec, history_ref,
        "recovered state diverged from the uninterrupted reference"
    );
    shutdown_daemon(handle, &sock);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Batch frames, each journaled as *one* record: recovered must equal
/// uncrashed must equal durability-off fed snapshot by snapshot.
#[test]
fn batches_recover_to_the_unbatched_state() {
    let sc = incast();
    let (_, sink) = replay_streaming(&sc, &RunConfig::default(), VecSink::default());
    let frames: Vec<&[_]> = sink.snaps.chunks(8).collect();

    let sock_ref = tmp("span-off.sock");
    let handle = spawn(
        sc.topo.clone(),
        tiered_cfg(),
        Endpoint::Unix(sock_ref.clone()),
    )
    .expect("bind reference daemon");
    let mut client = ServeClient::connect_unix(&sock_ref).expect("connect");
    for snap in &sink.snaps {
        client
            .ingest_batch(std::slice::from_ref(snap))
            .expect("ingest");
    }
    assert_eq!(client.finish_ingest().expect("settle acks").shed, 0);
    client.stats().expect("stats barrier");
    let history_ref = client.flow_history(sc.truth.victim).expect("history");
    drop(client);
    shutdown_daemon(handle, &sock_ref);

    let dir = tmp("span");
    let _ = std::fs::remove_dir_all(&dir);
    let sock = tmp("span.sock");
    let wal = WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::new(&dir)
    };
    let handle = spawn_durable(
        sc.topo.clone(),
        tiered_cfg(),
        Endpoint::Unix(sock.clone()),
        Some(wal.clone()),
    )
    .expect("bind durable daemon");
    let mut client = ServeClient::connect_unix(&sock).expect("connect");
    for frame in &frames {
        client.ingest_batch(frame).expect("ingest batch");
    }
    assert_eq!(client.finish_ingest().expect("settle acks").shed, 0);
    let stats = client.stats().expect("stats barrier");
    assert_eq!(
        stats.get("wal_records_appended").and_then(|v| v.as_u64()),
        Some(frames.len() as u64),
        "one batch record per frame: {stats:?}"
    );
    let history_live = client.flow_history(sc.truth.victim).expect("history");
    assert_eq!(
        history_live, history_ref,
        "batched durable != unbatched off"
    );
    drop(client);
    shutdown_daemon(handle, &sock);

    let handle = spawn_durable(
        sc.topo.clone(),
        tiered_cfg(),
        Endpoint::Unix(sock.clone()),
        Some(wal),
    )
    .expect("restart durable daemon");
    assert_eq!(
        query_history(&sc, &sock),
        history_ref,
        "recovered state diverged from the uninterrupted reference"
    );
    shutdown_daemon(handle, &sock);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A frame a shard daemon refuses (one switch outside its range) leaves
/// no trace: nothing of it is stored, nothing journaled, and a restart
/// recovers exactly what an uncrashed daemon holds. Routed snapshot by
/// snapshot, the in-range part ahead of the fault was stored and served
/// while the batch record was dropped — recovered != uncrashed.
#[test]
fn refused_frame_is_neither_stored_nor_journaled() {
    let sc = incast();
    let (_, sink) = replay_streaming(&sc, &RunConfig::default(), VecSink::default());
    // Own exactly the switches below the largest reporting id.
    let stray_switch = sink.snaps.iter().map(|s| s.switch).max().expect("stream");
    let cfg = ServeConfig {
        shard_range: Some(ShardRange {
            lo: 0,
            hi: stray_switch.0,
            epoch: 0,
        }),
        ..tiered_cfg()
    };
    let (owned, stray): (Vec<_>, Vec<_>) = sink
        .snaps
        .iter()
        .cloned()
        .partition(|s| s.switch != stray_switch);
    let (accepted, held_back) = owned.split_at(owned.len() / 2);
    // The refused frame: in-range snapshots carrying the victim (so the
    // history would show them), then the stray one.
    let mut refused: Vec<_> = held_back.to_vec();
    refused.push(stray[0].clone());

    let dir = tmp("refused");
    let _ = std::fs::remove_dir_all(&dir);
    let sock = tmp("refused.sock");
    let wal = WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::new(&dir)
    };
    let handle = spawn_durable(
        sc.topo.clone(),
        cfg,
        Endpoint::Unix(sock.clone()),
        Some(wal.clone()),
    )
    .expect("bind durable shard daemon");
    let mut client = ServeClient::connect_unix(&sock).expect("connect");
    client.ingest_batch(accepted).expect("ingest batch");
    client.finish_ingest().expect("settle acks");
    let before = client.stats().expect("stats barrier");
    let history_before = client.flow_history(sc.truth.victim).expect("history");

    client.ingest_batch(&refused).expect("frame sent");
    let err = client
        .finish_ingest()
        .expect_err("a frame with a stray switch is refused");
    assert!(matches!(err, ProtoError::WrongShard(_)), "untyped: {err}");
    drop(client);
    let mut client = ServeClient::connect_unix(&sock).expect("reconnect");
    let after = client.stats().expect("stats barrier");
    for key in ["wal_records_appended", "store_snapshots_appended"] {
        assert_eq!(after.get(key), before.get(key), "{key} moved on a refusal");
    }
    assert_eq!(
        after.get("ingest_wrong_shard").and_then(|v| v.as_u64()),
        Some(1)
    );
    let history_after = client.flow_history(sc.truth.victim).expect("history");
    assert_eq!(history_after, history_before, "refused frame was stored");
    drop(client);
    shutdown_daemon(handle, &sock);

    let handle = spawn_durable(
        sc.topo.clone(),
        cfg,
        Endpoint::Unix(sock.clone()),
        Some(wal),
    )
    .expect("restart durable shard daemon");
    assert_eq!(
        query_history(&sc, &sock),
        history_before,
        "recovered != uncrashed after a refused frame"
    );
    shutdown_daemon(handle, &sock);
    let _ = std::fs::remove_dir_all(&dir);
}

fn shutdown_daemon(handle: DaemonHandle, sock: &Path) {
    let mut c = ServeClient::connect_unix(sock).expect("connect for shutdown");
    c.shutdown().expect("shutdown");
    handle.wait();
}
