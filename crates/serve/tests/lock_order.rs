//! Liveness hammer for the serve plane's one-direction message rule.
//!
//! Daemon state is owned, not shared: the store thread owns the store, the
//! core thread owns the engine, the folded tier, the evidence log and the
//! audit trail, and every query is a request message with a reply channel.
//! Messages travel session → store thread → core only, so no owner ever
//! waits on a thread upstream of it and the plane cannot deadlock — as
//! long as that rule holds. The place a cycle would show is a bounded
//! store → core channel filling while someone waits on a reply. This
//! test hammers every query op (`Stats`, `FlowHistory`, `Diagnose`,
//! `Fragments`, `Explain`) from several connections while another streams
//! ingest — once plain, once durable with segments small enough that
//! checkpoint rounds (accept loop → store thread → core) keep firing underneath
//! — under a watchdog that turns a deadlock into a test failure instead of
//! a hang.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use hawkeye_client::{ServeClient, SinkAck};
use hawkeye_serve::{spawn_durable, Endpoint, FsyncPolicy, ServeConfig, StoreConfig, WalConfig};
use hawkeye_sim::{FlowKey, Nanos, NodeId};
use hawkeye_telemetry::{EpochSnapshot, FlowRecord, PortRecord, TelemetrySnapshot};
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};

const EPOCH_LEN: u64 = 1 << 17;
const STEPS: u64 = 24;
const QUERY_THREADS: usize = 4;
const WATCHDOG: Duration = Duration::from_secs(120);

fn victim() -> FlowKey {
    FlowKey::roce(NodeId(0), NodeId(1), 7)
}

fn synth_snap(sw: NodeId, nports: usize, step: u64) -> TelemetrySnapshot {
    let out_port = (step % nports.max(1) as u64) as u8;
    let epoch = EpochSnapshot {
        slot: (step % 4) as usize,
        id: step as u8,
        start: Nanos(step * EPOCH_LEN),
        len: Nanos(EPOCH_LEN),
        flows: vec![(
            victim(),
            FlowRecord {
                pkt_count: 40 + (step % 7) as u32,
                paused_count: 2,
                qdepth_sum: 700,
                out_port,
            },
        )],
        ports: vec![(
            out_port,
            PortRecord {
                pkt_count: 55,
                paused_count: 3,
                qdepth_sum: 1100,
            },
        )],
        meter: if nports >= 2 {
            vec![(0, 1, 2048)]
        } else {
            vec![]
        },
    };
    TelemetrySnapshot {
        switch: sw,
        taken_at: Nanos((step + 1) * EPOCH_LEN),
        nports,
        max_flows: 32,
        epochs: vec![epoch],
        evicted: vec![],
    }
}

fn under_watchdog(body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let body = thread::spawn(move || {
        body();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => body.join().expect("hammer body panicked"),
        Err(_) => panic!(
            "hammer did not finish within {WATCHDOG:?} — \
             probable wait-for cycle between sessions, the store thread and the core"
        ),
    }
}

/// Every query op polled concurrently with sustained ingest completes
/// without deadlocking, and the final counters account for every snapshot
/// sent.
#[test]
fn queries_under_concurrent_ingest_terminate() {
    under_watchdog(|| run_hammer(None));
}

/// The same hammer on a durable daemon whose segments rotate every few
/// records, so checkpoint rounds run while ingest and queries are in
/// flight — and the checkpoints they wrote must restore, on restart, the
/// very history the daemon served before it stopped.
#[test]
fn queries_and_checkpoints_under_concurrent_ingest_terminate() {
    let dir = std::env::temp_dir().join(format!("hawkeye-hammer-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let wal = WalConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes: 2048,
        retire_segments: 1,
        ..WalConfig::new(&dir)
    };
    under_watchdog(move || run_hammer(Some(wal)));
    let _ = std::fs::remove_dir_all(dir);
}

fn hammer_cfg() -> ServeConfig {
    ServeConfig {
        store: StoreConfig {
            epoch_budget: 4,
            ..StoreConfig::default()
        },
        ..ServeConfig::default()
    }
}

fn run_hammer(wal: Option<WalConfig>) {
    let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
    let switches: Vec<NodeId> = sc.topo.switches().collect();
    let tcp = || Endpoint::Tcp("127.0.0.1:0".into());
    let handle =
        spawn_durable(sc.topo.clone(), hammer_cfg(), tcp(), wal.clone()).expect("bind daemon");
    let addr = handle
        .local_addr
        .expect("tcp daemon has an address")
        .to_string();

    // Query hammers: poll as fast as the round trips allow until the
    // ingester finishes. Between them they put every request message on
    // the worker queues and the core queue while `Applied` traffic fills
    // both.
    let done = Arc::new(AtomicBool::new(false));
    let mut hammers = Vec::new();
    for i in 0..QUERY_THREADS {
        let addr = addr.clone();
        let done = Arc::clone(&done);
        let span = Nanos(STEPS * EPOCH_LEN);
        hammers.push(thread::spawn(move || {
            let mut client = ServeClient::connect_tcp(&addr).expect("connect hammer");
            let mut polls = 0u64;
            while !done.load(Ordering::Relaxed) {
                let stats = client.stats().expect("stats");
                assert!(stats.as_object().is_some(), "stats must be an object");
                match i % 4 {
                    0 => {
                        client.flow_history(victim()).expect("flow history");
                    }
                    // Diagnose errs until the first snapshot lands; what
                    // matters is that it answers.
                    1 => {
                        let _ = client.diagnose(victim(), Nanos::ZERO, span, Vec::new());
                    }
                    2 => {
                        client.fragments().expect("fragments");
                    }
                    // An empty audit ring is a typed miss, not a hang.
                    _ => {
                        let _ = client.explain(None);
                    }
                }
                polls += 1;
            }
            polls
        }));
    }

    // Ingester: streams STEPS epochs per switch, interleaved across
    // switches so the store thread stays busy the whole run.
    let mut client = ServeClient::connect_tcp(&addr).expect("connect ingest");
    let mut sent = 0u64;
    let mut ack = SinkAck::default();
    for step in 0..STEPS {
        for &sw in &switches {
            let nports = sc.topo.ports(sw).len();
            let frame = [synth_snap(sw, nports, step)];
            ack.merge(client.ingest_batch(&frame).expect("ingest"));
            sent += 1;
        }
    }
    ack.merge(client.finish_ingest().expect("settle acks"));
    assert_eq!((ack.accepted, ack.shed), (sent, 0), "a daemon never sheds");
    done.store(true, Ordering::Relaxed);

    let polls: u64 = hammers
        .into_iter()
        .map(|h| h.join().expect("query hammer panicked"))
        .sum();
    assert!(polls > 0, "query hammers never completed a poll");

    // Post-quiesce: the counters reconcile with what was sent.
    let stats = client.stats().expect("final stats");
    let field = |name: &str| stats.get(name).and_then(|v| v.as_u64());
    assert_eq!(
        field("epochs_ingested"),
        Some(sent),
        "ingested != sent after quiesce: {stats:?}"
    );
    let history = client.flow_history(victim()).expect("history");
    if wal.is_some() {
        assert!(
            field("wal_segments_retired") > Some(0),
            "no checkpoint round completed under the hammer: {stats:?}"
        );
    }
    client.shutdown().expect("shutdown");
    handle.wait();

    // The checkpoints were cut mid-ingest; what they restore (plus the
    // replayed tail) must be exactly what the daemon held.
    if wal.is_some() {
        let handle = spawn_durable(sc.topo.clone(), hammer_cfg(), tcp(), wal).expect("restart");
        let rep = handle.recovery.expect("recovery report");
        assert!(rep.checkpoint_restored, "restart ignored the checkpoints");
        let addr = handle.local_addr.expect("tcp address").to_string();
        let mut client = ServeClient::connect_tcp(&addr).expect("connect restarted");
        assert_eq!(
            client.flow_history(victim()).expect("recovered history"),
            history,
            "flow history changed across a restart from mid-ingest checkpoints"
        );
        client.shutdown().expect("shutdown");
        handle.wait();
    }
}
