//! Long-running-serve retention regression tests.
//!
//! The headline bug this guards against: the ingest path used to call
//! [`IncrementalProvenance::apply`] on every snapshot but never
//! `retire_before`, so the engine's rings, wait-for graph and fragment
//! caches grew without bound while the store evicted underneath them. Now
//! every ingest publishes the store's retention horizon and retires the
//! engine behind it; these tests stream many multiples of the ring budget
//! through both paths and assert every retention counter stays bounded.

use hawkeye_client::{Fidelity, ServeClient};
use hawkeye_core::{IncrementalProvenance, ReplayConfig};
use hawkeye_serve::{spawn, Endpoint, ServeConfig, StoreConfig, TelemetryStore};
use hawkeye_sim::{FlowKey, Nanos, NodeId};
use hawkeye_telemetry::{EpochSnapshot, FlowRecord, PortRecord, TelemetrySnapshot};
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};

const EPOCH_LEN: u64 = 1 << 17;
const BUDGET: usize = 4;
const ROUNDS: u64 = 12;

fn victim() -> FlowKey {
    FlowKey::roce(NodeId(0), NodeId(1), 7)
}

/// One synthetic collection upload: a single epoch at `step`, with ring
/// keys that never collide inside a test run (slot cycles mod 4, the
/// 8-bit id wraps only past step 255) and ports that exist on `sw`.
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
                pkt_count: 50 + (step % 13) as u32,
                paused_count: 3,
                qdepth_sum: 900,
                out_port,
            },
        )],
        ports: vec![(
            out_port,
            PortRecord {
                pkt_count: 60,
                paused_count: 4,
                qdepth_sum: 1200,
            },
        )],
        meter: if nports >= 2 {
            vec![(0, 1, 4096)]
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

fn stat(stats: &serde::Value, key: &str) -> u64 {
    stats
        .as_object()
        .expect("stats is an object")
        .iter()
        .find(|(n, _)| n == key)
        .and_then(|(_, v)| v.as_u64())
        .unwrap_or_else(|| panic!("stats missing {key}: {stats:?}"))
}

/// Flow-history request doubles as a flush barrier, so the following
/// Stats read sees everything ingested so far.
fn barrier_stats(client: &mut ServeClient) -> serde::Value {
    client.flow_history(victim()).expect("flow history");
    client.stats().expect("stats")
}

/// A live daemon replaying ≥ 10x the ring budget of epochs holds bounded
/// memory in *both* retention domains: the store's rings stay at budget
/// (aged epochs compact instead of accumulating) and the engine retires
/// behind the published horizon, its nodes and fragments never growing
/// past an early-round baseline.
#[test]
fn daemon_replay_rounds_stay_bounded() {
    let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
    let switches: Vec<NodeId> = sc.topo.switches().collect();
    assert!(!switches.is_empty());
    let cfg = ServeConfig {
        store: StoreConfig {
            epoch_budget: BUDGET,
            ..StoreConfig::default()
        },
        ..ServeConfig::default()
    };
    let handle =
        spawn(sc.topo.clone(), cfg, Endpoint::Tcp("127.0.0.1:0".into())).expect("bind daemon");
    let addr = handle.local_addr.expect("tcp daemon has an address");
    let mut client = ServeClient::connect_tcp(&addr.to_string()).expect("connect");

    let per_round = BUDGET as u64;
    let mut mid = None;
    for round in 0..ROUNDS {
        for &sw in &switches {
            let nports = sc.topo.ports(sw).len();
            for i in 0..per_round {
                let step = round * per_round + i;
                client
                    .ingest_batch(&[synth_snap(sw, nports, step)])
                    .expect("ingest");
            }
        }
        let ack = client.finish_ingest().expect("settle acks");
        assert_eq!(ack.shed, 0, "snapshot shed at round {round}");
        if round == 2 {
            mid = Some(barrier_stats(&mut client));
        }
    }
    let end = barrier_stats(&mut client);
    let mid = mid.expect("mid-run stats captured");

    // Store: raw rings at budget, the overflow compacted, horizon moving.
    let switches_seen = stat(&end, "store_switches");
    assert_eq!(switches_seen, switches.len() as u64);
    assert!(
        stat(&end, "store_epochs_held") <= BUDGET as u64 * switches_seen,
        "store rings over budget: {end:?}"
    );
    assert!(stat(&end, "store_epochs_compacted_held") > 0, "{end:?}");
    assert!(stat(&end, "store_retention_horizon") > 0, "{end:?}");
    assert_eq!(
        stat(&end, "epochs_ingested"),
        ROUNDS * per_round * switches.len() as u64
    );

    // Engine: horizon-driven retirement fired and state is bounded — no
    // growth from round 3 to round 12 despite 4x more epochs ingested.
    // The engine's own ring backstop sits at 2x the store budget, so any
    // retirement under that line is the published horizon doing the work.
    assert!(stat(&end, "engine_epochs_retired") > 0, "{end:?}");
    assert!(stat(&end, "engine_epochs_retired_total") > 0, "{end:?}");
    assert!(stat(&end, "engine_horizon") > 0, "{end:?}");
    assert!(
        stat(&end, "engine_epochs_held") <= 2 * BUDGET as u64 * switches.len() as u64,
        "engine rings over budget: {end:?}"
    );
    assert!(stat(&mid, "engine_nodes") > 0, "{mid:?}");
    assert!(
        stat(&end, "engine_nodes") <= stat(&mid, "engine_nodes"),
        "engine nodes grew: mid {mid:?} end {end:?}"
    );
    assert!(
        stat(&end, "engine_fragments") <= stat(&mid, "engine_fragments"),
        "engine fragments grew: mid {mid:?} end {end:?}"
    );

    // The victim's history spans both tiers over the wire.
    let rows = client.flow_history(victim()).expect("flow history");
    assert!(rows.iter().any(|r| r.fidelity == Fidelity::Raw));
    assert!(rows.iter().any(|r| r.fidelity == Fidelity::Compacted));
    assert!(rows.windows(2).all(|w| w[0].from <= w[1].from), "unsorted");

    client.shutdown().expect("shutdown");
    handle.wait();
}

/// The store-eviction → `retire_before` contract, driven directly (no
/// daemon): the engine's rings, fragment cache and graph nodes all stay at
/// their early-round sizes across 12 rounds of ingest.
#[test]
fn engine_retirement_tracks_store_horizon() {
    let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
    let switches: Vec<NodeId> = sc.topo.switches().collect();
    let mut store = TelemetryStore::new(StoreConfig {
        epoch_budget: BUDGET,
        ..StoreConfig::default()
    });
    let mut engine = IncrementalProvenance::new(ReplayConfig::default(), 2 * BUDGET);

    let mut baseline = None;
    for round in 0..ROUNDS {
        for &sw in &switches {
            let nports = sc.topo.ports(sw).len();
            for i in 0..BUDGET as u64 {
                let step = round * BUDGET as u64 + i;
                let snap = synth_snap(sw, nports, step);
                store.append(&snap);
                engine.apply(&snap);
                let horizon = store.retention_horizon().unwrap_or(Nanos::ZERO);
                engine.retire_before(horizon);
            }
        }
        engine.refresh(&sc.topo);
        let m = (
            engine.epochs_held(),
            engine.fragments_held(),
            engine.node_count(),
        );
        if round == 2 {
            baseline = Some(m);
        } else if round > 2 {
            let b = baseline.expect("baseline from round 2");
            assert!(
                m.0 <= b.0 && m.1 <= b.1 && m.2 <= b.2,
                "engine state grew past round-2 baseline: {m:?} vs {b:?} at round {round}"
            );
        }
    }
    assert!(engine.stats().epochs_retired > 0, "retirement never fired");
    assert!(engine.horizon() > Nanos::ZERO);
    // Store-side: all overflow lives in the compacted tier, rings bounded.
    assert!(store.epochs_held() <= BUDGET * switches.len());
    assert!(store.compacted_epochs_held() > 0);
}
