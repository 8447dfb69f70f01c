//! End-to-end integration: simulated anomalies -> detection agent ->
//! polling packets -> in-network causality tracing -> controller
//! collection -> provenance graph -> diagnosis report.
//!
//! These tests replay the paper's Fig. 1 case studies on the event-driven
//! substrate and check that the full Hawkeye pipeline reaches the right
//! verdicts.

use hawkeye::core::{
    analyze_victim_window, AnalyzerConfig, AnomalyType, DiagnosisReport, HawkeyeConfig,
    HawkeyeHook, ProvenanceGraph, RootCause, Window,
};
use hawkeye::sim::{
    chain, AgentConfig, Detection, FlowKey, FlowSpec, Nanos, PfcInjectorConfig, SimConfig,
    Simulator, Topology, EVAL_BANDWIDTH, EVAL_DELAY,
};
use hawkeye::telemetry::{EpochConfig, TelemetryConfig, TelemetrySnapshot};

/// ~131 us epochs (2^17 ns), the precision-friendly end of the paper's
/// Fig. 7 sweep.
fn epoch() -> EpochConfig {
    EpochConfig::for_epoch_len(Nanos::from_micros(100), 2)
}

fn hawkeye_cfg() -> HawkeyeConfig {
    HawkeyeConfig {
        telemetry: TelemetryConfig {
            epochs: epoch(),
            ..Default::default()
        },
        ..Default::default()
    }
}

fn agent() -> AgentConfig {
    AgentConfig {
        rtt_threshold_factor: 3.0,
        base_rtt: Nanos::from_micros(15),
        check_interval: Nanos::from_micros(50),
        dedup_interval: Nanos::from_millis(2),
        retry: false,
    }
}

fn analyzer_cfg() -> AnalyzerConfig {
    AnalyzerConfig::for_epoch_len(epoch().epoch_len())
}

/// Diagnose a detection's victim over `lookback_epochs` before the
/// detection to one epoch after it.
fn analyze(
    det: &Detection,
    snapshots: &[TelemetrySnapshot],
    topo: &Topology,
) -> (DiagnosisReport, ProvenanceGraph) {
    let cfg = analyzer_cfg();
    let window = Window {
        from: det
            .at
            .saturating_sub(Nanos(cfg.epoch_len.as_nanos() * cfg.lookback_epochs)),
        to: det.at + cfg.epoch_len,
    };
    let (report, graph, _) = analyze_victim_window(&det.key, window, snapshots, topo, &cfg);
    (report, graph)
}

/// Fig. 1(a): PFC backpressure by incast micro-bursts. Bursts from sw2's
/// own hosts into h10 congest sw2's host egress; light "mice" through-flows
/// from sw0 toward h10 back traffic up hop by hop (sw2 pauses sw1, sw1
/// pauses sw0); the victim (h0 -> h14) crosses both inter-switch links but
/// never the congested h10 egress.
#[test]
fn incast_backpressure_diagnosed_end_to_end() {
    let topo = chain(3, 5, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();
    let sws: Vec<_> = topo.switches().collect();
    let hook = HawkeyeHook::new(&topo, hawkeye_cfg());
    let mut sim = Simulator::new(topo, SimConfig::default(), hook);
    sim.enable_agents(agent());

    // Victim: h0 (sw0) -> h14 (sw2).
    let victim = FlowKey::roce(hosts[0], hosts[14], 100);
    sim.add_flow(FlowSpec::new(victim, 20_000_000, Nanos::ZERO));
    // Light through-traffic: mice from h1 (sw0) into the incast target.
    // These spread the PFC upstream without dominating the congested queue.
    let mice: Vec<FlowKey> = (0..40)
        .map(|i| FlowKey::roce(hosts[1], hosts[10], 300 + i as u16))
        .collect();
    for (i, m) in mice.iter().enumerate() {
        sim.add_flow(FlowSpec::new(
            *m,
            64_000,
            Nanos::from_micros(700 + 15 * i as u64),
        ));
    }
    // Synchronized bursts from sw2's own hosts into h10 (the Fig. 1(a)
    // pattern: culprits attach directly to the last switch).
    let bursts: Vec<FlowKey> = (0..3)
        .map(|i| FlowKey::roce(hosts[11 + i], hosts[10], 200 + i as u16))
        .collect();
    for b in &bursts {
        sim.add_flow(FlowSpec::new(*b, 2_000_000, Nanos::from_micros(800)));
    }

    sim.run_until(Nanos::from_millis(3));

    let dets = sim.detections();
    let det = dets
        .iter()
        .find(|d| d.key == victim)
        .expect("the victim flow must trip the RTT threshold");

    let coll = &sim.hook.collector;
    assert!(
        coll.switch_count() >= 3,
        "victim path + PFC path switches collected, got {}",
        coll.switch_count()
    );

    let (report, graph) = analyze(det, &coll.snapshots(), sim.topo());

    assert_eq!(report.anomaly, AnomalyType::MicroBurstIncast);
    // The major contributors at sw2's host-facing egress are exactly the
    // three bursts.
    let majors = report.major_root_cause_flows(0.1);
    assert_eq!(majors, {
        let mut b = bursts.clone();
        b.sort_unstable();
        b
    });
    assert!(
        !report.root_cause_flows().contains(&victim),
        "the victim must not be blamed"
    );
    // The PFC path runs from the victim's first pausing port (sw0) to the
    // initial congestion point on sw2.
    assert!(!report.pfc_paths.is_empty());
    let path = &report.pfc_paths[0];
    assert_eq!(path.first().unwrap().node, sws[0]);
    assert_eq!(path.last().unwrap().node, sws[2]);
    assert_eq!(path.len(), 3);
    assert!(report.deadlock_loop.is_none());
    // Victim extents recorded at sw0 and sw1.
    assert!(report
        .victim_extents
        .iter()
        .any(|(p, w)| p.node == sws[0] && *w > 0.0));
    assert!(report
        .victim_extents
        .iter()
        .any(|(p, w)| p.node == sws[1] && *w > 0.0));
    // Mice are flagged as congestion-spreading flows (paused at 2+ ports
    // of the PFC path).
    assert!(
        report.spreading_flows.iter().any(|f| mice.contains(f)),
        "spreading flows: {:?}",
        report.spreading_flows
    );
    // The bursts are classified as burst flows.
    for b in &bursts {
        assert!(report.burst_flows.contains(b), "{b} not burst-classified");
    }
    assert!(graph.ports.len() >= 3);
}

/// Fig. 1(b): PFC storm by host injection. h8's NIC floods PAUSE frames;
/// flows toward sw2 stall with zero flow contention anywhere.
#[test]
fn pfc_storm_diagnosed_end_to_end() {
    let topo = chain(3, 4, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();
    let hook = HawkeyeHook::new(&topo, hawkeye_cfg());
    let mut sim = Simulator::new(topo, SimConfig::default(), hook);
    sim.enable_agents(agent());

    let injector = hosts[8];
    sim.set_pfc_injector(
        injector,
        PfcInjectorConfig {
            start: Nanos::from_micros(50),
            stop: Nanos::from_millis(3),
            period: Nanos::from_micros(100),
        },
    );
    // Victim: h0 (sw0) -> h8 (sw2), right into the storm.
    let victim = FlowKey::roce(hosts[0], hosts[8], 100);
    sim.add_flow(FlowSpec::new(victim, 2_000_000, Nanos::ZERO));

    sim.run_until(Nanos::from_millis(2));

    let dets = sim.detections();
    let det = dets
        .iter()
        .find(|d| d.key == victim)
        .expect("storm victim detected");

    let (report, _g) = analyze(det, &sim.hook.collector.snapshots(), sim.topo());

    assert_eq!(report.anomaly, AnomalyType::PfcStorm);
    let peers = report.injection_peers();
    assert_eq!(peers, vec![injector], "the injecting host is named");
    assert!(report.root_cause_flows().is_empty());
    assert!(matches!(
        report.root_causes[0],
        RootCause::HostPfcInjection { .. }
    ));
}
