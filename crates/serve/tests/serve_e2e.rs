//! End-to-end daemon tests: a live `hawkeye-serve` daemon on an ephemeral
//! TCP port (and a unix socket) ingesting a replayed scenario over the
//! wire, with the served `Diagnose` verdict required to be identical —
//! anomaly label, culprits, confidence — to the local one-shot reference.

use hawkeye_client::proto::{decode_response, read_frame, write_frame};
use hawkeye_client::{EpochSink, ProtoError, Response, ServeClient, VecSink};
use hawkeye_eval::corpus::cell_params;
use hawkeye_eval::{optimal_run_config, run_method, Method, ScoreConfig, Verdict};
use hawkeye_serve::{spawn, Endpoint, ServeConfig, StoreConfig};
use hawkeye_sim::{FlowKey, Nanos, NodeId};
use hawkeye_telemetry::wire::encode_batch;
use hawkeye_telemetry::{EpochSnapshot, EvictedFlow, FlowRecord, PortRecord, TelemetrySnapshot};
use hawkeye_workloads::{
    build_scenario, build_scenario_on, ScenarioKind, ScenarioParams, TopologySpec,
};

fn incast() -> hawkeye_workloads::Scenario {
    build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default())
}

/// The figures and the daemon's one-shot reference measure the same
/// system: `run_method` reads every collected snapshot, as the replay's
/// reference (and the daemon's windowed store read) does. On this corpus
/// cell, dropping the snapshots taken outside the window changes the
/// report, so the cell tells the two evidence rules apart.
#[test]
fn run_method_report_is_the_replay_reference() {
    let spec = TopologySpec::EVAL;
    let sc = build_scenario_on(&spec, ScenarioKind::MicroBurstIncast, cell_params(&spec, 1))
        .expect("ft4 scripts every scenario");
    let cfg = optimal_run_config(1);
    let out = run_method(&sc, &cfg, Method::Hawkeye, &ScoreConfig::default());
    let (replay, _) = hawkeye_serve::replay_streaming(&sc, &cfg, VecSink::default());
    assert!(out.report.is_some(), "the cell must be diagnosed");
    assert_eq!(out.report, replay.oneshot);
    assert_eq!((out.window, out.verdict), (replay.window, replay.verdict));
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// What a replay sends is pinned across commits: for each scenario kind on
/// the benchmark's `ft8` fabric at seed 1 — the cell the daemon workloads
/// capture first — an FNV-1a digest of the wire encoding of the whole
/// `VecSink` capture, and its snapshot count. A change that means to alter
/// what a daemon receives updates them on purpose.
#[test]
fn same_seed_captures_are_byte_identical() {
    let spec = TopologySpec::FatTree { k: 8 };
    // (kind, capture digest, snapshots)
    let pinned: [(ScenarioKind, u64, usize); 6] = [
        (ScenarioKind::MicroBurstIncast, 0xf9b58967f98776a2, 23),
        (ScenarioKind::PfcStorm, 0xe09604169dfbeae0, 55),
        (ScenarioKind::InLoopDeadlock, 0x3abc5d15c3c477e8, 86),
        (
            ScenarioKind::OutOfLoopDeadlockContention,
            0x3756397df7f62123,
            94,
        ),
        (
            ScenarioKind::OutOfLoopDeadlockInjection,
            0x87731fa887d8cd28,
            68,
        ),
        (ScenarioKind::NormalContention, 0x848c2e3683e0c0f3, 28),
    ];
    let actual = pinned.map(|(k, ..)| {
        let sc = build_scenario_on(&spec, k, cell_params(&spec, 1)).expect("ft8 scripts it");
        let (_, sink) =
            hawkeye_serve::replay_streaming(&sc, &optimal_run_config(1), VecSink::default());
        (k, fnv1a(&encode_batch(&sink.snaps)), sink.snaps.len())
    });
    let rows: String = actual
        .iter()
        .map(|(k, d, n)| format!("\n    (ScenarioKind::{k:?}, {d:#018x}, {n}),"))
        .collect();
    assert_eq!(
        actual, pinned,
        "the replay's capture drifted from its pinned digests; actual:{rows}"
    );
}

/// Fault-free incast, streamed over TCP: served diagnosis == one-shot.
#[test]
fn served_diagnosis_matches_oneshot_over_tcp() {
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
    assert_eq!(
        outcome.stream.errors, 0,
        "stream errors: {:?}",
        outcome.stream
    );
    assert_eq!(
        outcome.verdict,
        Some(Verdict::Correct),
        "one-shot reference must be Correct on fault-free incast"
    );

    let w = outcome.window.expect("victim was detected");
    let served = client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("served diagnosis");
    assert!(
        outcome.parity_with(&served),
        "served diagnosis diverged from one-shot:\n  one-shot: {:?}\n  served:   {:?}",
        outcome.oneshot,
        served
    );

    let stats = client.stats().expect("stats");
    let obj = stats.as_object().expect("stats is an object");
    let get = |k: &str| {
        obj.iter()
            .find(|(n, _)| n == k)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0)
    };
    assert!(get("epochs_ingested") > 0, "stats: {stats:?}");
    assert!(get("serve_sessions") >= 1, "stats: {stats:?}");
    assert_eq!(
        stats
            .get("store_snapshots_appended")
            .and_then(|v| v.as_u64()),
        Some(outcome.stream.pushed),
        "fault-free replay must deliver every snapshot: {stats:?}"
    );
    assert!(get("store_epochs_held") > 0, "stats: {stats:?}");

    client.shutdown().expect("shutdown handshake");
    handle.wait();
}

/// A ring ten times deeper than the window: the replay, then enough later
/// epochs on every reporting switch that the diagnosis window is a tenth
/// (or less) of what each ring holds. The verdict must not move — the
/// daemon gathers the window, and the window is all the analyzer ever
/// used — `fragments_in(w)` must ship exactly the overlapping epochs of
/// every reporting switch, and `fragments()` the whole rings.
#[test]
fn deep_rings_serve_the_window_only() {
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
    let w = outcome.window.expect("victim was detected");

    let replayed = client.fragments().expect("whole rings");
    let in_window = |s: &TelemetrySnapshot| {
        s.epochs
            .iter()
            .filter(|e| w.overlaps(e.start, e.end()))
            .count()
    };
    let widest = replayed.iter().map(in_window).max().expect("switches");
    assert!(widest > 0, "the window holds no evidence at all");
    let deepest = replayed
        .iter()
        .map(|s| s.epochs.len())
        .max()
        .expect("switches");
    let later = 10 * widest;
    assert!(
        deepest + later <= StoreConfig::default().epoch_budget,
        "the later epochs would evict the window's"
    );
    let epoch_len = cfg.epoch.epoch_len();
    let later_snaps: Vec<TelemetrySnapshot> = replayed
        .iter()
        .map(|s| TelemetrySnapshot {
            // Snapshot-level fields follow the latest-taken snapshot, so
            // carry the switch's own forward.
            taken_at: s.taken_at + Nanos(1),
            epochs: (0..later)
                .map(|i| EpochSnapshot {
                    // Ring keys no replayed epoch uses: nothing superseded.
                    slot: 1000 + i,
                    id: 0,
                    start: w.to + Nanos(epoch_len.0 * (1 + i as u64)),
                    len: epoch_len,
                    flows: vec![],
                    ports: vec![],
                    meter: vec![],
                })
                .collect(),
            ..s.clone()
        })
        .collect();
    client.ingest_batch(&later_snaps).expect("later epochs");
    assert_eq!(client.finish_ingest().expect("settle").shed, 0);

    let served = client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("served diagnosis");
    assert!(
        outcome.parity_with(&served),
        "a deeper ring changed the verdict:\n  one-shot: {:?}\n  served:   {:?}",
        outcome.oneshot,
        served
    );

    let all = client.fragments().expect("whole rings");
    let windowed = client.fragments_in(w.from, w.to).expect("the window");
    let mut expected = all.clone();
    for s in &mut expected {
        s.epochs.retain(|e| w.overlaps(e.start, e.end()));
    }
    assert_eq!(
        windowed, expected,
        "fragments_in is every reporting switch with its overlapping epochs"
    );
    for ((full, part), before) in all.iter().zip(&windowed).zip(&replayed) {
        assert_eq!(full.epochs.len(), before.epochs.len() + later);
        assert!(
            full.epochs.len() >= 10 * part.epochs.len(),
            "ring too shallow"
        );
    }
    assert_eq!(
        client
            .explain(None)
            .expect("latest verdict")
            .contributing_epochs,
        windowed.iter().map(|s| s.epochs.len() as u64).sum::<u64>(),
        "the audit record counts the gathered epochs"
    );

    // A `Fragments` request without its 16-byte window (what a version-2
    // peer sends) is a typed error, and the session survives it.
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    let mut ask_raw = |op: u8, body: &[u8]| {
        write_frame(&mut raw, op, body).expect("write");
        let (op, body) = read_frame(&mut raw).expect("read").expect("frame");
        decode_response(op, &body).expect("decode")
    };
    for body in [&[][..], &[0; 15], &[0; 17]] {
        let resp = ask_raw(10, body);
        assert!(
            matches!(&resp, Response::Error(m) if m.contains("want 16")),
            "{}-byte fragments body answered {resp:?}",
            body.len()
        );
    }
    // So is the per-snapshot ingest a version-3 peer sends (opcode 1 and a
    // well-formed snapshot body): refused by opcode, nothing stored, and
    // the same snapshot is taken as an `IngestBatch` frame of one.
    let one = &replayed[0];
    let resp = ask_raw(1, &hawkeye_telemetry::encode_snapshot(one));
    assert!(
        matches!(&resp, Response::Error(m) if m.contains("unknown opcode 1")),
        "opcode 1 answered {resp:?}"
    );
    let resp = ask_raw(
        8,
        &hawkeye_telemetry::encode_batch(std::slice::from_ref(one)),
    );
    assert!(
        matches!(
            resp,
            Response::BatchAck {
                accepted: 1,
                shed: 0,
                granted: 1
            }
        ),
        "frame of one answered {resp:?}"
    );
    assert!(matches!(ask_raw(3, &[]), Response::Stats(_)));

    client.shutdown().expect("shutdown handshake");
    handle.wait();
}

/// The same daemon protocol over a unix socket, exercising ingest + stats
/// + shutdown and socket-file cleanup.
#[test]
fn unix_socket_session_roundtrip() {
    let sc = incast();
    let path = std::env::temp_dir().join(format!("hawkeye-e2e-{}.sock", std::process::id()));
    let handle = spawn(
        sc.topo.clone(),
        ServeConfig::default(),
        Endpoint::Unix(path.clone()),
    )
    .expect("bind unix daemon");
    let mut client = ServeClient::connect_unix(&path).expect("connect unix");

    // Hand-feed a couple of snapshots through the sink interface.
    let cfg = optimal_run_config(2);
    let (_, sink) = hawkeye_serve::replay_streaming(&sc, &cfg, VecSink::default());
    assert!(!sink.snaps.is_empty());
    for snap in sink.snaps.iter().take(4) {
        let frame = std::slice::from_ref(snap);
        client.push_batch(frame).expect("ingest");
    }
    let ack = client.finish().expect("settle acks");
    assert_eq!((ack.accepted, ack.shed), (4, 0), "unexpected shed");
    let stats = client.stats().expect("stats");
    assert!(stats.as_object().is_some());

    client.shutdown().expect("shutdown");
    handle.wait();
    assert!(!path.exists(), "socket file must be removed on shutdown");
}

/// Slow-consumer stress: a deliberately throttled store thread, a
/// two-deep ingest queue and a tiny credit window, streamed with
/// multi-epoch batch frames. Credit backpressure must absorb the speed
/// mismatch with *zero* sheds and zero errors, and the served verdict
/// must still match the one-shot reference exactly — slowness propagates
/// to the producer, it never costs correctness.
#[test]
fn slow_consumer_backpressure_sheds_nothing() {
    let sc = incast();
    let cfg = optimal_run_config(1);
    let handle = spawn(
        sc.topo.clone(),
        ServeConfig {
            queue_depth: 2,
            session_credits: 4,
            ingest_delay_ns: 100_000, // 100µs per snapshot
            store: StoreConfig {
                epoch_budget: 2, // force eviction → core-thread folds
                ..StoreConfig::default()
            },
            ..ServeConfig::default()
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind daemon");
    let addr = handle.local_addr.expect("tcp daemon has an address");
    let client = ServeClient::connect_tcp(&addr.to_string()).expect("connect");

    let (outcome, mut client) = hawkeye_serve::replay_streaming_batched(&sc, &cfg, client, 4);
    assert!(outcome.stream.pushed > 0, "no epochs streamed");
    assert_eq!(
        outcome.stream.shed, 0,
        "backpressure must not shed: {:?}",
        outcome.stream
    );
    assert_eq!(
        outcome.stream.errors, 0,
        "stream errors: {:?}",
        outcome.stream
    );

    let w = outcome.window.expect("victim was detected");
    let served = client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("served diagnosis");
    assert!(
        outcome.parity_with(&served),
        "served diagnosis diverged under backpressure:\n  one-shot: {:?}\n  served:   {:?}",
        outcome.oneshot,
        served
    );

    let stats = client.stats().expect("stats");
    let obj = stats.as_object().expect("stats is an object");
    let get = |k: &str| {
        obj.iter()
            .find(|(n, _)| n == k)
            .and_then(|(_, v)| v.as_u64())
            .unwrap_or(0)
    };
    assert_eq!(
        stats
            .get("store_snapshots_appended")
            .and_then(|v| v.as_u64()),
        Some(outcome.stream.pushed),
        "credit flow must deliver every snapshot: {stats:?}"
    );
    assert!(
        get("store_epochs_compacted_held") > 0,
        "tiny ring must have forced core-thread folds: {stats:?}"
    );

    client.shutdown().expect("shutdown handshake");
    handle.wait();
}

/// `Stats` is a barrier: once it answers, every snapshot acknowledged
/// before it has been appended (and, on a durable daemon, journaled) — the
/// CLI's `--stream-only` and the crash-recovery smoke rely on it. Queues
/// deep enough to hold the whole stream mean every ack comes back while
/// the slowed store thread is still far behind, so a `Stats` that does
/// not wait for the store queue reports a short count.
#[test]
fn stats_waits_for_every_acknowledged_snapshot() {
    let sc = incast();
    let cfg = optimal_run_config(2);
    let (_, sink) = hawkeye_serve::replay_streaming(&sc, &cfg, VecSink::default());
    let snaps = &sink.snaps;
    assert!(snaps.len() >= 32, "stream too short to outrun the workers");
    let handle = spawn(
        sc.topo.clone(),
        ServeConfig {
            queue_depth: snaps.len(),
            ingest_delay_ns: 100_000, // 100µs per snapshot
            ..ServeConfig::default()
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind daemon");
    let addr = handle.local_addr.expect("tcp daemon has an address");
    let mut client = ServeClient::connect_tcp(&addr.to_string()).expect("connect");

    for batch in snaps.chunks(16) {
        client.ingest_batch(batch).expect("ingest batch");
    }
    let ack = client.finish_ingest().expect("settle acks");
    assert_eq!(ack.shed, 0);
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats
            .get("store_snapshots_appended")
            .and_then(|v| v.as_u64()),
        Some(snaps.len() as u64),
        "Stats answered before every acknowledged snapshot was applied: {stats:?}"
    );

    client.shutdown().expect("shutdown");
    handle.wait();
}

/// The frame is a unit inside the daemon, and its size is invisible in
/// what the daemon ends up holding: the same stream sent as 1-snapshot
/// frames and as 32-snapshot frames leaves equal store, folded-tier and
/// engine counts, equal flow history and the same verdict, under a ring
/// small enough that eviction and folds run.
#[test]
fn frame_size_does_not_change_what_the_daemon_holds() {
    let sc = incast();
    let cfg = optimal_run_config(1);
    let (outcome, sink) = hawkeye_serve::replay_streaming(&sc, &cfg, VecSink::default());
    let w = outcome.window.expect("victim was detected");
    const HELD: [&str; 5] = [
        "epochs_ingested",
        "store_snapshots_appended",
        "store_epochs_held",
        "store_epochs_compacted_held",
        "engine_epochs_held",
    ];

    let run = |frame: usize| {
        let handle = spawn(
            sc.topo.clone(),
            ServeConfig {
                store: StoreConfig {
                    epoch_budget: 2,
                    compact_budget: 8,
                    compact_chunk: 4,
                    ..StoreConfig::default()
                },
                ..ServeConfig::default()
            },
            Endpoint::Tcp("127.0.0.1:0".into()),
        )
        .expect("bind daemon");
        let addr = handle.local_addr.expect("tcp daemon has an address");
        let mut client = ServeClient::connect_tcp(&addr.to_string()).expect("connect");
        for chunk in sink.snaps.chunks(frame) {
            client.ingest_batch(chunk).expect("ingest frame");
        }
        assert_eq!(client.finish_ingest().expect("settle acks").shed, 0);
        let stats = client.stats().expect("stats");
        let held = HELD.map(|k| stats.get(k).and_then(|v| v.as_u64()).expect(k));
        let history = client.flow_history(sc.truth.victim).expect("history");
        let served = client
            .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
            .expect("served diagnosis");
        client.shutdown().expect("shutdown");
        handle.wait();
        (held, history, served)
    };

    let (held_1, history_1, served_1) = run(1);
    let (held_32, history_32, served_32) = run(32);
    assert!(held_1[3] > 0, "tiny ring must have folded: {held_1:?}");
    assert!(held_1[4] < held_1[0], "engine budget must have evicted");
    assert_eq!(held_32, held_1, "{HELD:?} differ by frame size");
    assert_eq!(history_32, history_1, "flow history differs by frame size");
    assert_eq!(served_32, served_1, "verdict differs by frame size");
    assert!(outcome.parity_with(&served_32), "served != one-shot");
}

/// Flow counters are unchecked `u32`s on the wire. A record claiming more
/// paused enqueues than enqueues, and two flows claiming five million
/// packets each in one epoch, are well-formed ~500-byte snapshots: the
/// daemon must diagnose the window that holds them (in the session and, for
/// `Stats`, in the core's engine), keep the session, and still give the
/// one-shot verdict on the clean window beside them.
#[test]
fn hostile_counts_do_not_kill_the_daemon() {
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
    let w = outcome.window.expect("victim was detected");

    // A switch and egress port the victim really crossed, and a second
    // flow to contend with it there.
    let replayed = client.fragments().expect("whole rings");
    let (base, out_port, other) = replayed
        .iter()
        .find_map(|s| {
            let flows = s.epochs.iter().flat_map(|e| &e.flows);
            let (_, rec) = flows.clone().find(|(k, _)| *k == sc.truth.victim)?;
            let (other, _) = flows.clone().find(|(k, _)| *k != sc.truth.victim)?;
            Some((s, rec.out_port, *other))
        })
        .expect("a switch reporting the victim and another flow");
    let epoch_len = cfg.epoch.epoch_len();
    let hostile = |i: u64, victim: (u32, u32), other_pkts: u32| {
        let record = |(pkt_count, paused_count)| FlowRecord {
            pkt_count,
            paused_count,
            qdepth_sum: 0,
            out_port,
        };
        TelemetrySnapshot {
            taken_at: base.taken_at + Nanos(i),
            epochs: vec![EpochSnapshot {
                // Ring keys no replayed epoch uses: nothing superseded.
                slot: 1000 + i as usize,
                id: 0,
                start: w.to + Nanos(epoch_len.0 * i),
                len: epoch_len,
                flows: vec![
                    (sc.truth.victim, record(victim)),
                    (other, record((other_pkts, 0))),
                ],
                ports: vec![(
                    out_port,
                    PortRecord {
                        pkt_count: victim.0.saturating_add(other_pkts),
                        paused_count: victim.1,
                        qdepth_sum: 0,
                    },
                )],
                meter: vec![],
            }],
            ..base.clone()
        }
    };
    let snaps = [
        hostile(1, (3, 9), 50),
        hostile(2, (5_000_000, 0), 5_000_000),
    ];
    client.ingest_batch(&snaps).expect("hostile snapshots");
    assert_eq!(client.finish_ingest().expect("settle").shed, 0);

    let from = snaps[0].epochs[0].start;
    let to = snaps[1].epochs[0].end();
    client
        .diagnose(sc.truth.victim, from, to, Vec::new())
        .expect("the hostile window is diagnosed");
    let stats = client.stats().expect("the engine refreshed over it");
    assert!(stats.get("engine_epochs_held").and_then(|v| v.as_u64()) > Some(0));

    // A victim that is no flow of this fabric — an id past the last node,
    // or a switch where a host must be — is a typed error naming it, and
    // the session carries on to the clean diagnosis below.
    let a_switch = sc.topo.switches().next().expect("a switch");
    for bad in [
        FlowKey::roce(NodeId(1_000_000), sc.truth.victim.dst, 7),
        FlowKey::roce(sc.truth.victim.src, NodeId(1_000_000), 7),
        FlowKey::roce(a_switch, sc.truth.victim.dst, 7),
    ] {
        match client.diagnose(bad, w.from, w.to, Vec::new()) {
            Err(ProtoError::Remote(msg)) => {
                assert!(
                    msg.contains(&bad.to_string()),
                    "error names the victim: {msg}"
                )
            }
            other => panic!("out-of-fabric victim {bad} answered {other:?}"),
        }
    }

    let served = client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("served diagnosis");
    assert!(
        outcome.parity_with(&served),
        "hostile neighbours changed the clean verdict:\n  one-shot: {:?}\n  served:   {:?}",
        outcome.oneshot,
        served
    );

    client.shutdown().expect("shutdown handshake");
    handle.wait();
}

/// Analysis indexes the fabric by every switch and port a snapshot names,
/// so a frame naming one the daemon's topology lacks — a node id past the
/// last, a host, or a port past a real switch's radix in a flow record, a
/// port record, a meter or an evicted record — or an epoch whose
/// `start + len` overflows the clock, is refused whole with the typed
/// `foreign_evidence` error before anything is stored or journaled.
/// Each such frame also carries a well-formed snapshot, which must not be
/// stored either. The session then diagnoses the clean window, and `Stats`
/// (which refreshes the core's engine) still answers.
#[test]
fn foreign_switch_or_port_is_refused_whole() {
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
    let w = outcome.window.expect("victim was detected");
    let appended = |client: &mut ServeClient| {
        let stats = client.stats().expect("stats answers");
        stats
            .get("store_snapshots_appended")
            .and_then(|v| v.as_u64())
            .expect("appended counter")
    };
    let before = appended(&mut client);

    // A well-formed snapshot of a real switch, at a ring key nothing uses.
    let replayed = client.fragments().expect("whole rings");
    let base = replayed
        .iter()
        .find(|s| !s.epochs.is_empty())
        .expect("a switch with epochs");
    let mut clean = base.clone();
    clean.taken_at = base.taken_at + Nanos(1);
    clean.epochs.truncate(1);
    clean.epochs[0].slot = 1000;
    clean.epochs[0].start = w.to;

    const PAST: u8 = 250;
    let record = FlowRecord {
        pkt_count: 10,
        paused_count: 0,
        qdepth_sum: 0,
        out_port: PAST,
    };
    let with_epoch = |f: &dyn Fn(&mut EpochSnapshot)| {
        let mut s = clean.clone();
        f(&mut s.epochs[0]);
        s
    };
    let host = sc.topo.hosts().next().expect("a host");
    let host_named = format!("node {}", host.0);
    let cases = [
        (
            "node 9999",
            TelemetrySnapshot {
                switch: NodeId(9999),
                ..clean.clone()
            },
        ),
        (
            host_named.as_str(),
            TelemetrySnapshot {
                switch: host,
                ..clean.clone()
            },
        ),
        (
            "flow record",
            with_epoch(&|ep| ep.flows.push((sc.truth.victim, record))),
        ),
        (
            "port record",
            with_epoch(&|ep| {
                ep.ports.push((
                    PAST,
                    PortRecord {
                        pkt_count: 10,
                        paused_count: 0,
                        qdepth_sum: 0,
                    },
                ))
            }),
        ),
        ("meter", with_epoch(&|ep| ep.meter.push((PAST, 0, 1)))),
        ("meter", with_epoch(&|ep| ep.meter.push((0, PAST, 1)))),
        // A real switch and real ports, but the epoch's end is past the
        // clock: stored, it would panic the store thread on its first
        // `start + len`.
        (
            "overflows the clock",
            with_epoch(&|ep| ep.start = Nanos(u64::MAX - 10)),
        ),
        (
            "evicted record",
            TelemetrySnapshot {
                evicted: vec![EvictedFlow {
                    key: sc.truth.victim,
                    record,
                    epoch_id: 0,
                    slot: 0,
                }],
                ..clean.clone()
            },
        ),
    ];
    for (named, foreign) in cases {
        let frame = [clean.clone(), foreign];
        match client
            .ingest_batch(&frame)
            .and_then(|_| client.finish_ingest())
        {
            Err(ProtoError::ForeignEvidence(msg)) => {
                assert!(msg.contains(named), "refusal names the {named}: {msg}")
            }
            other => panic!("foreign {named} answered {other:?}"),
        }
    }
    assert_eq!(
        appended(&mut client),
        before,
        "part of a refused frame was stored"
    );
    assert_eq!(client.in_flight(), 0, "a refused frame kept its credits");

    let served = client
        .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
        .expect("served diagnosis after the refusals");
    assert!(
        outcome.parity_with(&served),
        "refused frames changed the clean verdict:\n  one-shot: {:?}\n  served:   {:?}",
        outcome.oneshot,
        served
    );
    // The well-formed half alone is accepted on the same session.
    client.ingest_batch(&[clean]).expect("clean frame");
    assert_eq!(client.finish_ingest().expect("settle").accepted, 1);
    assert_eq!(appended(&mut client), before + 1);

    client.shutdown().expect("shutdown handshake");
    handle.wait();
}

/// A JSON request body nested 20 000 deep — one Diagnose, FlowHistory or
/// Explain frame of `[` bytes — once overflowed the session thread's stack
/// in the JSON parser and aborted the whole daemon. It is a typed
/// malformed-body error now, and the same session answers `Stats` after
/// each.
#[test]
fn deeply_nested_json_is_a_typed_error() {
    let sc = incast();
    let handle = spawn(
        sc.topo.clone(),
        ServeConfig::default(),
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind daemon");
    let addr = handle.local_addr.expect("tcp daemon has an address");
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    let mut ask_raw = |op: u8, body: &[u8]| {
        write_frame(&mut raw, op, body).expect("write");
        let (op, body) = read_frame(&mut raw).expect("read").expect("frame");
        decode_response(op, &body).expect("decode")
    };
    let nested = "[".repeat(20_000);
    for op in [2, 5, 7] {
        let Response::Error(msg) = ask_raw(op, nested.as_bytes()) else {
            panic!("opcode {op}: a nested body must be refused");
        };
        assert!(
            matches!(ProtoError::remote(msg), ProtoError::Remote(m) if m.contains("malformed body")),
            "opcode {op}"
        );
        assert!(matches!(ask_raw(3, &[]), Response::Stats(_)), "opcode {op}");
    }
    handle.shutdown();
}

/// Diagnosis with no ingested telemetry is a remote error, not a hang or
/// a panic.
#[test]
fn diagnose_without_telemetry_is_remote_error() {
    let sc = incast();
    let handle = spawn(
        sc.topo.clone(),
        ServeConfig {
            store: StoreConfig {
                epoch_budget: 8,
                ..StoreConfig::default()
            },
            ..ServeConfig::default()
        },
        Endpoint::Tcp("127.0.0.1:0".into()),
    )
    .expect("bind daemon");
    let addr = handle.local_addr.expect("tcp daemon has an address");
    let mut client = ServeClient::connect_tcp(&addr.to_string()).expect("connect");

    let err = client.diagnose(
        sc.truth.victim,
        hawkeye_sim::Nanos::ZERO,
        hawkeye_sim::Nanos(1_000_000),
        Vec::new(),
    );
    assert!(err.is_err(), "diagnosis over an empty store must error");

    client.shutdown().expect("shutdown");
    handle.wait();
}
