//! Fleet end-to-end: three sharded `hawkeye-serve` daemons behind a
//! `hawkeye-cluster` front-end must be indistinguishable from one big
//! daemon — identical verdicts on the fault-free path, an explicit
//! `Degraded` verdict (never a panic or a failure) when a shard daemon
//! dies mid-replay, and a typed `wrong_shard` refusal when the front
//! routes under a stale shard-map generation. A frame naming a port its
//! switch lacks gets the typed `foreign_evidence` refusal from the front.

use hawkeye_client::{EpochSink, ProtoError, ServeClient, ShardRange, SinkAck, VecSink};
use hawkeye_cluster::{spawn_front, BackendEndpoint, FrontConfig, ShardEntry, ShardMap};
use hawkeye_core::{analyze_victim_window, AnalyzerConfig};
use hawkeye_eval::optimal_run_config;
use hawkeye_serve::{replay_streaming, spawn, DaemonHandle, Endpoint, ServeConfig};
use hawkeye_sim::{FlowKey, NodeId};
use hawkeye_workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};

fn incast() -> Scenario {
    build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default())
}

fn analyzer(seed: u64) -> AnalyzerConfig {
    AnalyzerConfig::for_epoch_len(optimal_run_config(seed).epoch.epoch_len())
}

/// Contiguous switch-id ranges splitting `[0, n)` across `k` daemons.
fn split_ranges(n: u32, k: usize, epoch: u64) -> Vec<ShardRange> {
    let dummies = vec![BackendEndpoint::Tcp("unused:0".into()); k];
    ShardMap::even_split(n, dummies, epoch)
        .shards
        .into_iter()
        .map(|e| e.range)
        .collect()
}

/// Spawn one sharded daemon per range on an ephemeral TCP port; return
/// the handles and a shard map pointing at the bound addresses.
fn spawn_fleet(
    sc: &Scenario,
    ranges: &[ShardRange],
    seed: u64,
    epoch: u64,
) -> (Vec<DaemonHandle>, ShardMap) {
    let mut handles = Vec::new();
    let mut shards = Vec::new();
    for &range in ranges {
        let cfg = ServeConfig {
            analyzer: analyzer(seed),
            shard_range: Some(range),
            ..ServeConfig::default()
        };
        let h = spawn(sc.topo.clone(), cfg, Endpoint::Tcp("127.0.0.1:0".into()))
            .expect("bind shard daemon");
        let addr = h.local_addr.expect("tcp daemon has an address");
        shards.push(ShardEntry {
            range,
            endpoint: BackendEndpoint::Tcp(addr.to_string()),
        });
        handles.push(h);
    }
    (handles, ShardMap { epoch, shards })
}

fn max_switch_id(sc: &Scenario) -> u32 {
    sc.topo
        .switches()
        .map(|s| s.0)
        .max()
        .expect("topology has switches")
}

/// Fault-free incast through a 3-shard fleet: the front's verdict must be
/// byte-identical (JSON) to a monolithic daemon's over the same replay.
#[test]
fn fleet_verdict_matches_monolith_byte_for_byte() {
    let sc = incast();
    let seed = 1;
    let runcfg = optimal_run_config(seed);

    // Monolith reference.
    let mono = spawn(
        sc.topo.clone(),
        ServeConfig {
            analyzer: analyzer(seed),
            ..ServeConfig::default()
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind monolith");
    let mono_client =
        ServeClient::connect_tcp(&mono.local_addr.expect("addr").to_string()).expect("connect");
    let (mono_out, mut mono_client) = replay_streaming(&sc, &runcfg, mono_client);
    let w = mono_out.window.expect("victim detected");
    let mono_report = mono_client
        .diagnose(sc.truth.victim, w.from, w.to, mono_out.missing.clone())
        .expect("monolith diagnosis");
    let mono_frags = mono_client
        .fragments_in(w.from, w.to)
        .expect("monolith fragments");
    let mono_rings = mono_client.fragments().expect("monolith rings");
    mono_client.shutdown().expect("monolith shutdown");
    mono.wait();

    // The same replay through a 3-shard fleet.
    let epoch = 7;
    let ranges = split_ranges(max_switch_id(&sc) + 1, 3, epoch);
    let (handles, map) = spawn_fleet(&sc, &ranges, seed, epoch);
    let front = spawn_front(
        sc.topo.clone(),
        map,
        FrontConfig {
            analyzer: analyzer(seed),
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind front");
    let front_client =
        ServeClient::connect_tcp(&front.local_addr.expect("addr").to_string()).expect("connect");
    let (fleet_out, mut front_client) = replay_streaming(&sc, &runcfg, front_client);
    assert_eq!(fleet_out.stream.errors, 0, "fleet stream errors");
    assert_eq!(
        fleet_out.stream.shed, 0,
        "healthy fleet must not shed: {:?}",
        fleet_out.stream
    );
    assert_eq!(
        fleet_out.window, mono_out.window,
        "detection windows diverged"
    );
    let fleet_report = front_client
        .diagnose(sc.truth.victim, w.from, w.to, fleet_out.missing.clone())
        .expect("fleet diagnosis");

    // An out-of-fabric victim is refused by the front itself, by name, and
    // the session lives on.
    let stranger = FlowKey::roce(NodeId(1_000_000), sc.truth.victim.dst, 7);
    match front_client.diagnose(stranger, w.from, w.to, Vec::new()) {
        Err(ProtoError::Remote(msg)) => {
            assert!(msg.contains(&stranger.to_string()), "{msg}")
        }
        other => panic!("out-of-fabric victim answered {other:?}"),
    }

    // A frame naming a port its switch lacks is refused whole by the front,
    // typed: its well-formed half reaches no shard (the rings compared
    // below would differ), and the session lives on.
    let mut kept = mono_rings[0].clone();
    kept.taken_at += hawkeye_sim::Nanos(1);
    kept.epochs.truncate(1);
    kept.epochs[0].slot = 1000;
    let mut foreign = kept.clone();
    foreign.epochs[0].flows = vec![(
        sc.truth.victim,
        hawkeye_telemetry::FlowRecord {
            pkt_count: 10,
            paused_count: 0,
            qdepth_sum: 0,
            out_port: 250,
        },
    )];
    match front_client
        .ingest_batch(&[kept, foreign])
        .and_then(|_| front_client.finish_ingest())
    {
        Err(ProtoError::ForeignEvidence(msg)) => assert!(msg.contains("port 250"), "{msg}"),
        other => panic!("foreign port through the front answered {other:?}"),
    }

    let mono_json = serde_json::to_string(&mono_report).expect("serialize");
    let fleet_json = serde_json::to_string(&fleet_report).expect("serialize");
    assert_eq!(
        fleet_json, mono_json,
        "fleet verdict diverged from the monolith's"
    );

    // The gather under that verdict, as a wire op: the front forwards the
    // caller's window to every shard, and the merge is the monolith's
    // windowed read snapshot for snapshot — narrower than the rings.
    let fleet_frags = front_client
        .fragments_in(w.from, w.to)
        .expect("fleet fragments");
    assert_eq!(fleet_frags, mono_frags, "front Fragments(w) != monolith's");
    assert_eq!(
        front_client.fragments().expect("fleet rings"),
        mono_rings,
        "front Fragments(all) != monolith's"
    );
    let held = |set: &[hawkeye_telemetry::TelemetrySnapshot]| {
        set.iter().map(|s| s.epochs.len()).sum::<usize>()
    };
    assert!(
        held(&fleet_frags) < held(&mono_rings),
        "the window shipped the whole rings"
    );

    // The front's own stats surface: everything forwarded, nothing lost.
    let stats = front_client.stats().expect("front stats");
    let obj = stats.as_object().expect("stats object");
    let get = |k: &str| {
        obj.iter()
            .find(|(n, _)| n == k)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0)
    };
    assert!(get("epochs_ingested") > 0, "stats: {stats:?}");
    assert_eq!(get("ingest_wrong_shard"), 0, "stats: {stats:?}");
    assert_eq!(get("front_shed_down"), 0, "stats: {stats:?}");
    assert_eq!(get("front_shards"), 3, "stats: {stats:?}");

    // A malformed request is answered with an error and lands in the
    // front's flight ring, the same as on a daemon.
    let mut raw = std::net::TcpStream::connect(front.local_addr.expect("addr")).expect("connect");
    hawkeye_client::proto::write_frame(&mut raw, 2, b"not a diagnose body").expect("write");
    let (op, body) = hawkeye_client::proto::read_frame(&mut raw)
        .expect("front answers")
        .expect("frame");
    assert!(matches!(
        hawkeye_client::proto::decode_response(op, &body),
        Ok(hawkeye_client::Response::Error(_))
    ));
    let (_, flight) = front_client.metrics().expect("front metrics");
    let events = flight.as_array().expect("flight dump is an array");
    assert!(
        events
            .iter()
            .any(|e| e.get("what").and_then(|w| w.as_str()) == Some("request_error")),
        "malformed request missing from the front's flight ring: {events:?}"
    );

    front_client.shutdown().expect("front shutdown");
    front.wait();
    for h in handles {
        assert!(
            !h.is_stopped(),
            "front Shutdown must not stop shard daemons"
        );
        h.shutdown();
    }
}

/// The front's `epochs_ingested` counts what its name says, as a daemon
/// does: the epochs of the snapshots it forwarded — after a replay through
/// a front over two shards, the sum of its backends' counts, which is more
/// than the number of snapshots.
#[test]
fn front_counts_epochs_as_its_backends_do() {
    let sc = incast();
    let seed = 1;
    let epoch = 2;
    let ranges = split_ranges(max_switch_id(&sc) + 1, 2, epoch);
    let (handles, map) = spawn_fleet(&sc, &ranges, seed, epoch);
    let front = spawn_front(
        sc.topo.clone(),
        map,
        FrontConfig {
            analyzer: analyzer(seed),
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind front");
    let client =
        ServeClient::connect_tcp(&front.local_addr.expect("addr").to_string()).expect("connect");
    let (out, mut client) = replay_streaming(&sc, &optimal_run_config(seed), client);
    assert_eq!(out.stream.shed, 0, "healthy fleet shed: {:?}", out.stream);

    let stats = client.stats().expect("front stats");
    let count = |v: &serde::Value| {
        v.get("epochs_ingested")
            .and_then(|n| n.as_u64())
            .expect("epochs_ingested reported")
    };
    let backends = stats
        .get("backends")
        .and_then(|b| b.as_array())
        .expect("per-backend stats");
    assert_eq!(backends.len(), 2);
    let held: Vec<u64> = backends.iter().map(count).collect();
    assert!(
        held.iter().all(|&n| n > 0),
        "a shard held nothing: {held:?}"
    );
    assert_eq!(
        count(&stats),
        held.iter().sum::<u64>(),
        "front epochs_ingested != its backends' sum: {stats:?}"
    );
    assert!(
        count(&stats) > out.stream.pushed,
        "epochs counted as snapshots: {stats:?}"
    );

    client.shutdown().expect("front shutdown");
    front.wait();
    for h in handles {
        h.shutdown();
    }
}

/// Kill one of three shard daemons mid-replay: streaming must keep going
/// (sheds, not errors), and Diagnose must return an explicit Degraded
/// verdict naming the dead shard's switches — never panic, never fail.
#[test]
fn dead_shard_degrades_the_verdict_not_the_service() {
    let sc = incast();
    let seed = 1;
    let runcfg = optimal_run_config(seed);

    // Local replay for the snapshot list, the window and the reference
    // anomaly.
    let (out, sink) = replay_streaming(&sc, &runcfg, VecSink::default());
    let snaps = sink.snaps;
    assert!(!snaps.is_empty());
    let w = out.window.expect("victim detected");
    let reference = out.oneshot.as_ref().expect("one-shot report");

    // Pick a sacrificial switch whose loss leaves the anomaly still
    // diagnosable (highest-id first: the fat-tree's hot pod sits low).
    let mut switches: Vec<u32> = sc.topo.switches().map(|s| s.0).collect();
    switches.sort_unstable_by(|a, b| b.cmp(a));
    let victim_sw = switches
        .iter()
        .copied()
        .find(|&cand| {
            let without: Vec<_> = snaps
                .iter()
                .filter(|s| s.switch.0 != cand)
                .cloned()
                .collect();
            let (rep, _, _) =
                analyze_victim_window(&sc.truth.victim, w, &without, &sc.topo, &analyzer(seed));
            rep.anomaly == reference.anomaly
        })
        .expect("some switch is expendable");

    // Three contiguous ranges: [0, victim_sw), [victim_sw, victim_sw+1),
    // [victim_sw+1, n) — the middle one is the shard we will kill.
    let epoch = 3;
    let n = max_switch_id(&sc) + 1;
    let mut ranges = Vec::new();
    if victim_sw > 0 {
        ranges.push(ShardRange {
            lo: 0,
            hi: victim_sw,
            epoch,
        });
    }
    let kill_idx = ranges.len();
    ranges.push(ShardRange {
        lo: victim_sw,
        hi: victim_sw + 1,
        epoch,
    });
    if victim_sw + 1 < n {
        ranges.push(ShardRange {
            lo: victim_sw + 1,
            hi: n,
            epoch,
        });
    }
    let (handles, map) = spawn_fleet(&sc, &ranges, seed, epoch);
    let mut handles: Vec<Option<DaemonHandle>> = handles.into_iter().map(Some).collect();

    let front = spawn_front(
        sc.topo.clone(),
        map,
        FrontConfig {
            analyzer: analyzer(seed),
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind front");
    let mut client =
        ServeClient::connect_tcp(&front.local_addr.expect("addr").to_string()).expect("connect");

    // First half streams against a healthy fleet...
    let half = snaps.len() / 2;
    for snap in &snaps[..half] {
        client
            .push_batch(std::slice::from_ref(snap))
            .expect("healthy-fleet ingest");
    }
    assert_eq!(client.finish().expect("healthy-fleet acks").shed, 0);
    // ...then one shard daemon dies mid-replay. The front forwards frames
    // optimistically, so it learns of the death from its next exchange
    // with that backend that awaits an answer; `Stats` (the fleet-wide
    // barrier) is one, and reports the unreachable shard as null.
    handles[kill_idx].take().expect("handle").shutdown();
    let stats = client.stats().expect("front stats");
    let backends = stats.get("backends").and_then(|b| b.as_array());
    assert_eq!(
        backends.expect("per-backend stats")[kill_idx],
        serde::Value::Null,
        "the dead shard must read as unreachable"
    );
    let mut ack = SinkAck::default();
    for snap in &snaps[half..] {
        // Sheds are expected for the dead shard's switches; hard errors
        // are not.
        ack.merge(
            client
                .push_batch(std::slice::from_ref(snap))
                .expect("degraded-fleet ingest must not error"),
        );
    }
    ack.merge(client.finish().expect("degraded-fleet acks"));
    let shed = ack.shed;

    let report = client
        .diagnose(sc.truth.victim, w.from, w.to, out.missing.clone())
        .expect("degraded diagnosis must still answer");
    assert_eq!(
        report.anomaly, reference.anomaly,
        "anomaly should survive the loss of an expendable shard"
    );
    assert!(
        report.confidence.is_degraded(),
        "verdict must be explicitly degraded, got {:?}",
        report.confidence
    );
    assert!(
        report.confidence.missing().iter().any(|m| m.0 == victim_sw),
        "missing set {:?} must name the dead shard's switch {victim_sw}",
        report.confidence.missing()
    );
    // The dead shard owned a reporting switch, so at least the second
    // half of its snapshots was shed (it may be zero only if the switch
    // never reported in the second half — rule that out).
    let dead_in_second_half = snaps[half..]
        .iter()
        .filter(|s| s.switch.0 == victim_sw)
        .count();
    assert_eq!(
        shed as usize, dead_in_second_half,
        "exactly the dead shard's traffic sheds"
    );

    client.shutdown().expect("front shutdown");
    front.wait();
    for h in handles.into_iter().flatten() {
        h.shutdown();
    }
}

/// A front-end cut from shard-map generation 6 talking to a daemon pinned
/// at generation 5 gets the typed `wrong_shard` refusal — end to end, the
/// front's own caller sees `ProtoError::WrongShard`, not a generic error.
#[test]
fn stale_map_epoch_is_a_typed_wrong_shard_error() {
    let sc = incast();
    let seed = 1;
    let n = max_switch_id(&sc) + 1;
    let daemon = spawn(
        sc.topo.clone(),
        ServeConfig {
            analyzer: analyzer(seed),
            shard_range: Some(ShardRange {
                lo: 0,
                hi: n,
                epoch: 5,
            }),
            ..ServeConfig::default()
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind daemon");
    let addr = daemon.local_addr.expect("addr").to_string();

    // Direct client on the stale generation: refused at Hello.
    let mut stale = ServeClient::connect_tcp(&addr)
        .expect("connect")
        .with_map_epoch(6);
    let (_out, sink) = replay_streaming(&sc, &optimal_run_config(seed), VecSink::default());
    let snap = &sink.snaps[0];
    match stale.ingest_batch(std::slice::from_ref(snap)) {
        Err(ProtoError::WrongShard(msg)) => {
            assert!(
                msg.contains("epoch 6"),
                "refusal names the stale epoch: {msg}"
            )
        }
        other => panic!("expected WrongShard, got {other:?}"),
    }

    // The same staleness through a front-end: the typed error crosses the
    // hop intact.
    let map = ShardMap {
        epoch: 6,
        shards: vec![ShardEntry {
            range: ShardRange {
                lo: 0,
                hi: n,
                epoch: 6,
            },
            endpoint: BackendEndpoint::Tcp(addr.clone()),
        }],
    };
    let front = spawn_front(
        sc.topo.clone(),
        map,
        FrontConfig {
            analyzer: analyzer(seed),
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind front");
    let mut client =
        ServeClient::connect_tcp(&front.local_addr.expect("addr").to_string()).expect("connect");
    // The front hits the refusal when it first dials the backend, i.e.
    // while routing this frame, and answers the frame with it.
    match client
        .ingest_batch(std::slice::from_ref(snap))
        .and_then(|_| client.finish_ingest())
    {
        Err(ProtoError::WrongShard(msg)) => {
            assert!(
                msg.contains("epoch"),
                "front-relayed refusal still names the epoch clash: {msg}"
            )
        }
        other => panic!("expected WrongShard through the front, got {other:?}"),
    }

    client.shutdown().expect("front shutdown");
    front.wait();

    // Both refused sessions count as wrong-shard refusals at the daemon,
    // although neither got past its Hello. A client announcing no epoch
    // is not refused, so it can read them.
    let stats = ServeClient::connect_tcp(&addr)
        .expect("connect")
        .stats()
        .expect("daemon stats");
    assert_eq!(
        stats.get("ingest_wrong_shard").and_then(|v| v.as_u64()),
        Some(2),
        "{stats:?}"
    );
    daemon.shutdown();
}
