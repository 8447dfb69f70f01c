//! Hawkeye is topology-agnostic: the full pipeline on a leaf-spine fabric
//! (the paper evaluates on a fat-tree; nothing in the design depends on it).

use hawkeye::core::{
    analyze_victim_window, AnalyzerConfig, AnomalyType, HawkeyeConfig, HawkeyeHook, Window,
};
use hawkeye::sim::{
    leaf_spine, AgentConfig, FlowKey, FlowSpec, Nanos, SimConfig, Simulator, EVAL_BANDWIDTH,
    EVAL_DELAY,
};
use hawkeye::telemetry::{EpochConfig, TelemetryConfig};

#[test]
fn incast_backpressure_on_leaf_spine() {
    let (topo, _) = leaf_spine(4, 2, 4, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();
    let epoch = EpochConfig::for_epoch_len(Nanos::from_micros(100), 2);
    let hook = HawkeyeHook::new(
        &topo,
        HawkeyeConfig {
            telemetry: TelemetryConfig {
                epochs: epoch,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut sim = Simulator::new(topo, SimConfig::default(), hook);
    sim.enable_agents(AgentConfig {
        rtt_threshold_factor: 2.5,
        base_rtt: Nanos::from_micros(15),
        check_interval: Nanos::from_micros(50),
        dedup_interval: Nanos::from_micros(400),
        retry: false,
    });

    // Victim: leaf0 host -> leaf1 host (never touches the incast target).
    let victim = FlowKey::roce(hosts[0], hosts[7], 100);
    sim.add_flow(FlowSpec::new(victim, 20_000_000, Nanos::ZERO));
    // Mice through the same spine path into the incast target h4 (leaf1).
    for i in 0..40u64 {
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[1], hosts[4], 300 + i as u16),
            64_000,
            Nanos::from_micros(700 + 15 * i),
        ));
    }
    // Local bursts into h4 from leaf1's other hosts.
    for i in 0..3u16 {
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[5 + i as usize], hosts[4], 200 + i),
            2_000_000,
            Nanos::from_micros(800),
        ));
    }
    sim.run_until(Nanos::from_millis(3));

    let dets = sim.detections();
    let vdets: Vec<_> = dets
        .iter()
        .filter(|d| d.key == victim && d.at >= Nanos::from_micros(800))
        .collect();
    let first = vdets.first().expect("victim detected on leaf-spine");
    let last = vdets.last().unwrap();
    let analyzer = AnalyzerConfig::for_epoch_len(epoch.epoch_len());
    let window = Window {
        from: first.at.saturating_sub(Nanos(
            epoch.epoch_len().as_nanos() * analyzer.lookback_epochs,
        )),
        to: last.at + epoch.epoch_len(),
    };
    let (report, _, _) = analyze_victim_window(
        &victim,
        window,
        &sim.hook.collector.snapshots(),
        sim.topo(),
        &analyzer,
    );
    assert_eq!(report.anomaly, AnomalyType::MicroBurstIncast, "{report:#?}");
    let majors = report.major_root_cause_flows(0.2);
    for i in 0..3u16 {
        let b = FlowKey::roce(hosts[5 + i as usize], hosts[4], 200 + i);
        assert!(majors.contains(&b), "burst {b} missing from {majors:?}");
    }
    assert!(!majors.contains(&victim));
}
