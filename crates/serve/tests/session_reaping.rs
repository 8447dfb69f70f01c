//! A listener that outlives its clients must not outgrow them: each
//! connection runs on its own session thread, and a session that has ended
//! is joined while the accept loop keeps running, so its stack is unmapped
//! (or reused) instead of staying mapped until shutdown. Without that, every
//! finished session keeps a 2 MiB stack plus its guard page in the address
//! space, and a long-lived daemon runs out of map entries and aborts.
//!
//! One test, so nothing else in this process maps or unmaps while it counts
//! `/proc/self/maps`: 512 sequential one-`Stats` sessions against an
//! in-process daemon, then against a front over one shard.

use hawkeye_client::ServeClient;
use hawkeye_cluster::{spawn_front, BackendEndpoint, FrontConfig, ShardMap};
use hawkeye_serve::{spawn, Endpoint, ServeConfig};
use hawkeye_sim::{chain, EVAL_BANDWIDTH, EVAL_DELAY};

const SESSIONS: usize = 512;
/// Map lines the churn may add: glibc keeps a few exited threads' stacks
/// for reuse and a few malloc arenas, never one mapping per session.
const MAX_GROWTH: usize = 128;

fn map_lines() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

/// Open `SESSIONS` connections to `addr` one after another, one `Stats`
/// each, and return how many lines `/proc/self/maps` grew by.
fn churn(addr: &str) -> usize {
    let before = map_lines();
    for i in 0..SESSIONS {
        let mut client = ServeClient::connect_tcp(addr).expect("connect");
        client
            .stats()
            .unwrap_or_else(|e| panic!("stats on session {i}: {e}"));
    }
    map_lines().saturating_sub(before)
}

#[test]
fn finished_sessions_are_reaped_while_the_listener_runs() {
    let topo = chain(2, 1, EVAL_BANDWIDTH, EVAL_DELAY);
    let tcp = || Endpoint::Tcp("127.0.0.1:0".into());

    let daemon = spawn(topo.clone(), ServeConfig::default(), tcp()).expect("bind daemon");
    let daemon_addr = daemon.local_addr.expect("tcp daemon").to_string();
    let grew = churn(&daemon_addr);
    assert!(
        grew < MAX_GROWTH,
        "{SESSIONS} daemon sessions grew the maps by {grew} lines"
    );
    daemon.shutdown();

    let n_switches = topo.switches().map(|s| s.0 + 1).max().expect("switches");
    let one = ShardMap::even_split(n_switches, vec![BackendEndpoint::Tcp(String::new())], 1);
    let range = one.shards[0].range;
    let shard = ServeConfig {
        shard_range: Some(range),
        ..ServeConfig::default()
    };
    let backend = spawn(topo.clone(), shard, tcp()).expect("bind shard daemon");
    let backend_addr = backend.local_addr.expect("tcp daemon").to_string();
    let map = ShardMap::even_split(n_switches, vec![BackendEndpoint::Tcp(backend_addr)], 1);
    let front = spawn_front(topo, map, FrontConfig::default(), tcp()).expect("bind front");
    let front_addr = front.local_addr.expect("tcp front").to_string();
    let grew = churn(&front_addr);
    assert!(
        grew < MAX_GROWTH,
        "{SESSIONS} front sessions grew the maps by {grew} lines"
    );
    front.shutdown();
    backend.shutdown();
}
