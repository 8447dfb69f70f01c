//! Regression: tail drops must surface — in [`RunSummary`], in the metrics
//! registry, and as `DropWarning` trace events — instead of vanishing into
//! a silent counter. A lossless (PFC) fabric that tail-drops has violated
//! its core invariant; a lossy ablation that drops must still report it so
//! degraded diagnosis quality is attributable.

use hawkeye_obs::{kind, MetricsRegistry, ObsConfig, Recorder, TraceEvent};
use hawkeye_sim::{
    dumbbell, trace_drop_warnings, FlowKey, FlowSpec, Nanos, NullHook, RunSummary, SimConfig,
    Simulator, SwitchConfig, DATA_PKT_SIZE, EVAL_BANDWIDTH, EVAL_DELAY,
};

/// A lossy (PFC-off) dumbbell with a buffer a few packets deep and a 2:1
/// incast: guaranteed tail drops at the bottleneck switch.
fn lossy_incast() -> Simulator<NullHook> {
    let topo = dumbbell(2, 1, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();
    let cfg = SimConfig {
        switch: SwitchConfig {
            buffer_bytes: 8 * DATA_PKT_SIZE as u64,
            pfc_enabled: false,
            ..SwitchConfig::default()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo, cfg, NullHook);
    sim.add_flow(FlowSpec::new(
        FlowKey::roce(hosts[0], hosts[2], 1),
        400_000,
        Nanos::ZERO,
    ));
    sim.add_flow(FlowSpec::new(
        FlowKey::roce(hosts[1], hosts[2], 2),
        400_000,
        Nanos::ZERO,
    ));
    sim.run_until(Nanos::from_millis(2));
    sim
}

#[test]
fn buffer_drops_reach_summary_registry_and_trace() {
    let sim = lossy_incast();

    let mut reg = MetricsRegistry::new();
    let summary = RunSummary::of_with(&sim, &mut reg);
    assert!(
        summary.buffer_drops > 0,
        "lossy incast with a tiny buffer must tail-drop"
    );
    assert_eq!(
        summary.buffer_drops,
        reg.counter_total("drops_buffer"),
        "summary and registry must agree"
    );
    assert_eq!(summary.route_drops, 0, "routing is intact in this topology");

    let mut obs = Recorder::new(ObsConfig::default());
    trace_drop_warnings(&sim, &mut obs);
    let warnings: Vec<_> = obs
        .tracer
        .records()
        .filter(|r| matches!(&r.event, TraceEvent::DropWarning { .. }))
        .collect();
    assert!(!warnings.is_empty(), "drops must emit a DropWarning event");
    assert!(warnings.iter().all(|r| {
        matches!(&r.event, TraceEvent::DropWarning { what, count, .. }
            if what == "buffer" && *count > 0)
    }));
    assert!(warnings.iter().all(|r| r.event.kind() == kind::WARNING));
}

#[test]
fn clean_run_emits_no_drop_warnings() {
    let topo = dumbbell(2, 2, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();
    let mut sim = Simulator::new(topo, SimConfig::default(), NullHook);
    sim.add_flow(FlowSpec::new(
        FlowKey::roce(hosts[0], hosts[2], 1),
        200_000,
        Nanos::ZERO,
    ));
    sim.run_until(Nanos::from_millis(3));

    let summary = RunSummary::of(&sim);
    assert_eq!(summary.buffer_drops, 0);
    assert_eq!(summary.route_drops, 0);

    let mut obs = Recorder::new(ObsConfig::default());
    trace_drop_warnings(&sim, &mut obs);
    assert_eq!(obs.tracer.recorded(), 0, "no drops, no warnings");
}
