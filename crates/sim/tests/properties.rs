//! Property-based tests of simulator invariants: losslessness,
//! conservation, completion, and determinism under randomized workloads.

use hawkeye_sim::{
    dumbbell, fat_tree, FlowKey, FlowSpec, Nanos, NullHook, SimConfig, Simulator, EVAL_BANDWIDTH,
    EVAL_DELAY,
};
use proptest::prelude::*;

/// A randomized small workload.
#[derive(Debug, Clone)]
struct Workload {
    flows: Vec<(usize, usize, u16, u64, u64)>, // (src idx, dst idx, sport, bytes, start_us)
}

fn workload(max_hosts: usize) -> impl Strategy<Value = Workload> {
    proptest::collection::vec(
        (
            0..max_hosts,
            0..max_hosts,
            0u16..1000,
            1_000u64..2_000_000,
            0u64..500,
        ),
        1..12,
    )
    .prop_map(|flows| Workload { flows })
}

fn run_workload(w: &Workload, seed: u64) -> (Simulator<NullHook>, Vec<hawkeye_sim::FlowId>) {
    let topo = dumbbell(3, 3, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();
    let mut sim = Simulator::new(
        topo,
        SimConfig {
            seed,
            ..Default::default()
        },
        NullHook,
    );
    let mut ids = Vec::new();
    for (i, &(s, d, sp, bytes, start)) in w.flows.iter().enumerate() {
        let src = hosts[s % hosts.len()];
        let mut dst = hosts[d % hosts.len()];
        if dst == src {
            dst = hosts[(d + 1) % hosts.len()];
        }
        ids.push(sim.add_flow(FlowSpec::new(
            FlowKey::roce(src, dst, sp.wrapping_add(i as u16)),
            bytes,
            Nanos::from_micros(start),
        )));
    }
    sim.run_until(Nanos::from_millis(40));
    (sim, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// PFC keeps the fabric lossless: no buffer drops, ever.
    #[test]
    fn lossless_under_random_incast(w in workload(6), seed in 1u64..100) {
        let (sim, _) = run_workload(&w, seed);
        prop_assert_eq!(sim.sum_switch_stats(|s| s.drops_buffer), 0);
        prop_assert_eq!(sim.sum_switch_stats(|s| s.drops_no_route), 0);
    }

    /// Every flow completes on a loop-free topology given enough time.
    #[test]
    fn all_flows_complete(w in workload(6), seed in 1u64..100) {
        let (sim, _) = run_workload(&w, seed);
        prop_assert!(
            (sim.completion_ratio() - 1.0).abs() < f64::EPSILON,
            "completion {}", sim.completion_ratio()
        );
    }

    /// Conservation: every data packet sent by hosts is received by hosts
    /// (once flows complete and queues drain).
    #[test]
    fn packets_conserved(w in workload(6), seed in 1u64..100) {
        let (sim, _) = run_workload(&w, seed);
        let sent: u64 = sim.topo().hosts().map(|h| sim.host(h).stats.data_sent).sum();
        let rcvd: u64 = sim.topo().hosts().map(|h| sim.host(h).stats.data_rcvd).sum();
        prop_assert_eq!(sent, rcvd);
        prop_assert!(sent > 0);
    }

    /// Bit-for-bit determinism: identical seeds give identical statistics.
    #[test]
    fn deterministic_across_runs(w in workload(6), seed in 1u64..50) {
        let (a, _) = run_workload(&w, seed);
        let (b, _) = run_workload(&w, seed);
        prop_assert_eq!(a.events_processed(), b.events_processed());
        prop_assert_eq!(
            a.sum_switch_stats(|s| s.data_bytes),
            b.sum_switch_stats(|s| s.data_bytes)
        );
        prop_assert_eq!(
            a.sum_switch_stats(|s| s.pfc_pause_sent),
            b.sum_switch_stats(|s| s.pfc_pause_sent)
        );
    }

    /// ECMP routing never sends a flow off a valid path on the fat-tree.
    #[test]
    fn fat_tree_paths_always_terminate(sp in 0u16..512, a in 0usize..16, b in 0usize..16) {
        let topo = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = topo.hosts().collect();
        let (src, dst) = (hosts[a], hosts[(b + 1 + a) % 16]);
        if src == dst { return Ok(()); }
        let key = FlowKey::roce(src, dst, sp);
        let path = topo.flow_path(&key).expect("route exists");
        prop_assert!(matches!(path.len(), 1 | 3 | 5));
        // Path is simple (no repeated switch).
        let mut sws: Vec<_> = path.iter().map(|(s, _, _)| *s).collect();
        sws.dedup();
        prop_assert_eq!(sws.len(), path.len());
    }
}
