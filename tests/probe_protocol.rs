//! Polling-packet protocol invariants under live anomalies: bounded
//! amplification, dedup-terminated circulation in deadlock loops, and
//! collection dedup.

use hawkeye::core::{HawkeyeConfig, HawkeyeHook};
use hawkeye::sim::{FaultPlan, Nanos};
use hawkeye::telemetry::{EpochConfig, TelemetryConfig};
use hawkeye::workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};

fn run(kind: ScenarioKind) -> hawkeye::sim::Simulator<HawkeyeHook> {
    let sc = build_scenario(
        kind,
        ScenarioParams {
            load: 0.1,
            ..Default::default()
        },
    );
    let hook = HawkeyeHook::new(
        &sc.topo,
        HawkeyeConfig {
            telemetry: TelemetryConfig {
                epochs: EpochConfig::for_epoch_len(Nanos::from_micros(100), 2),
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut agent = Scenario::agent(2.0);
    agent.dedup_interval = Nanos::from_micros(400);
    let mut sim = sc.instantiate_faulted(1, agent, hook, FaultPlan::none());
    sim.run_until(sc.params.duration);
    sim
}

#[test]
fn probe_amplification_is_bounded() {
    for kind in [ScenarioKind::MicroBurstIncast, ScenarioKind::PfcStorm] {
        let sim = run(kind);
        let stats = sim.hook.stats;
        assert!(stats.probes_received > 0);
        // A switch only re-emits a probe it processed; every processed
        // probe was received; host injections are counted in detections.
        assert!(
            stats.probes_emitted <= stats.probes_received,
            "{kind:?}: emitted {} > received {}",
            stats.probes_emitted,
            stats.probes_received
        );
        // Each processed probe mirrors at most once.
        assert!(stats.cpu_mirrors <= stats.probes_received);
        // Amplification stays below one probe per switch per detection.
        let detections = sim.detections().len() as u64;
        let switches = sim.topo().switches().count() as u64;
        assert!(
            stats.probes_received <= detections * switches,
            "{kind:?}: received {} vs bound {}",
            stats.probes_received,
            detections * switches
        );
    }
}

#[test]
fn deadlock_loop_circulation_is_deduped() {
    let sim = run(ScenarioKind::InLoopDeadlock);
    let stats = sim.hook.stats;
    // The CBD loop would circulate probes forever without the per-victim
    // dedup (§3.4); the dedup must actually engage...
    assert!(stats.probes_deduped > 0, "dedup never engaged");
    // ...and keep the total probe traffic far below the runaway regime.
    let detections = sim.detections().len() as u64;
    let switches = sim.topo().switches().count() as u64;
    assert!(stats.probes_received <= detections * switches);
}

#[test]
fn collection_dedup_limits_snapshots() {
    let sim = run(ScenarioKind::MicroBurstIncast);
    // Per-switch collections are spaced by the dedup interval (100 us):
    // a 3 ms trace admits at most 30 collections per switch.
    let mut per_switch = std::collections::HashMap::new();
    for e in &sim.hook.collector.events {
        *per_switch.entry(e.switch).or_insert(0u32) += 1;
    }
    for (sw, n) in per_switch {
        assert!(n <= 30, "switch {sw} collected {n} times");
    }
    // Offers are a superset of collections.
    assert!(sim.hook.collector.offers.len() >= sim.hook.collector.events.len());
}
