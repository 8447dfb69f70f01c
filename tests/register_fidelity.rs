//! Cross-validation of the §3.6 PFC-awareness reconstruction: Hawkeye's
//! port-status registers (maintained purely from PFC frames passed into
//! the pipeline) must agree with the simulator's ground-truth pause state
//! at every single enqueue — plus end-to-end determinism of the whole
//! pipeline.

use hawkeye::core::{HawkeyeConfig, HawkeyeHook};
use hawkeye::sim::{
    EnqueueRecord, FaultPlan, Nanos, NodeId, PfcEvent, Probe, ProbeDecision, SwitchHook, SwitchView,
};
use hawkeye::workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};

/// Wraps the real Hawkeye hook and asserts register fidelity on every
/// enqueue.
struct FidelityHook {
    inner: HawkeyeHook,
    checked: u64,
    paused_seen: u64,
}

impl SwitchHook for FidelityHook {
    fn on_data_enqueue(&mut self, rec: &EnqueueRecord) {
        // The register state BEFORE this enqueue must match ground truth.
        let reg = self
            .inner
            .telemetry(rec.switch)
            .expect("instrumented")
            .status()
            .is_paused(rec.out_port, rec.timestamp);
        assert_eq!(
            reg, rec.egress_paused,
            "register mismatch at {}@{}: reg={} truth={}",
            rec.switch, rec.out_port, reg, rec.egress_paused
        );
        self.checked += 1;
        self.paused_seen += rec.egress_paused as u64;
        self.inner.on_data_enqueue(rec);
    }

    fn on_pfc_frame(&mut self, ev: &PfcEvent) {
        self.inner.on_pfc_frame(ev);
    }

    fn on_probe(
        &mut self,
        switch: NodeId,
        in_port: u8,
        probe: Probe,
        view: &SwitchView<'_>,
        now: Nanos,
    ) -> ProbeDecision {
        self.inner.on_probe(switch, in_port, probe, view, now)
    }
}

#[test]
fn pfc_status_registers_match_ground_truth() {
    // Storm + incast exercise pauses from host injection and from
    // ingress-threshold crossings, with refreshes and resumes.
    for kind in [ScenarioKind::PfcStorm, ScenarioKind::MicroBurstIncast] {
        let sc = build_scenario(
            kind,
            ScenarioParams {
                load: 0.2,
                ..Default::default()
            },
        );
        let hook = FidelityHook {
            inner: HawkeyeHook::new(&sc.topo, HawkeyeConfig::default()),
            checked: 0,
            paused_seen: 0,
        };
        let mut sim = sc.instantiate_faulted(1, Scenario::agent(2.0), hook, FaultPlan::none());
        sim.run_until(sc.params.duration);
        assert!(sim.hook.checked > 10_000, "checked {}", sim.hook.checked);
        assert!(
            sim.hook.paused_seen > 0,
            "{kind:?} must exercise paused enqueues"
        );
    }
}

#[test]
fn full_pipeline_is_deterministic() {
    use hawkeye::baselines::Method;
    use hawkeye::eval::{optimal_run_config, run_method, ScoreConfig};
    let run = || {
        let sc = build_scenario(
            ScenarioKind::MicroBurstIncast,
            ScenarioParams {
                load: 0.2,
                ..Default::default()
            },
        );
        let o = run_method(
            &sc,
            &optimal_run_config(1),
            Method::Hawkeye,
            &ScoreConfig::default(),
        );
        (
            o.detection.map(|d| d.at),
            format!("{:?}", o.verdict),
            o.report.map(|r| serde_json::to_string(&r).unwrap()),
            o.collected_switches,
            o.processing_bytes,
            o.bandwidth_bytes,
        )
    };
    assert_eq!(run(), run());
}
