//! End-to-end deadlock scenarios on the evaluation fat-tree: the cyclic
//! buffer dependency forms, freezes, is traced by polling packets, and the
//! diagnosis identifies the loop and its initiator.

use hawkeye::core::{AnomalyType, RootCause};
use hawkeye::eval::{optimal_run_config, run_method, Method, ScoreConfig, Verdict};
use hawkeye::workloads::{build_scenario, ScenarioKind, ScenarioParams};

fn run(kind: ScenarioKind) -> (hawkeye::workloads::Scenario, hawkeye::eval::RunOutcome) {
    let sc = build_scenario(
        kind,
        ScenarioParams {
            load: 0.0,
            ..Default::default()
        },
    );
    let out = run_method(
        &sc,
        &optimal_run_config(1),
        Method::Hawkeye,
        &ScoreConfig::default(),
    );
    (sc, out)
}

#[test]
fn in_loop_deadlock_full_pipeline() {
    let (sc, out) = run(ScenarioKind::InLoopDeadlock);
    assert_eq!(
        out.verdict,
        Some(Verdict::Correct),
        "report: {:#?}",
        out.report
    );
    let report = out.report.unwrap();
    assert_eq!(report.anomaly, AnomalyType::InLoopDeadlock);

    // The reported loop is exactly the pod-0 CBD ring.
    let lp = report.deadlock_loop.clone().expect("loop found");
    assert_eq!(lp.len(), 4);
    let nav = &sc.nav;
    let (e0, e1, a0, a1) = (
        nav.edges[0][0],
        nav.edges[0][1],
        nav.aggs[0][0],
        nav.aggs[0][1],
    );
    let ring = [(e0, a0), (a0, e1), (e1, a1), (a1, e0)].map(|(a, b)| sc.topo.egress(a, b).unwrap());
    for p in &ring {
        assert!(lp.contains(p), "{p} missing from loop {lp:?}");
    }

    // The trigger bursts are the named culprits.
    let majors = report.major_root_cause_flows(0.2);
    for c in &sc.truth.culprit_flows {
        assert!(majors.contains(c), "culprit {c} missing from {majors:?}");
    }
    // Every causally relevant switch was collected.
    assert_eq!(out.causal_covered, out.causal_total);
}

#[test]
fn out_of_loop_injection_full_pipeline() {
    let (sc, out) = run(ScenarioKind::OutOfLoopDeadlockInjection);
    assert_eq!(
        out.verdict,
        Some(Verdict::Correct),
        "report: {:#?}",
        out.report
    );
    let report = out.report.unwrap();
    assert_eq!(report.anomaly, AnomalyType::OutOfLoopDeadlockInjection);
    assert!(report.deadlock_loop.is_some());
    assert_eq!(
        report.injection_peers(),
        vec![sc.truth.injection_host.unwrap()]
    );
    // The injection root names the host-facing egress.
    assert!(report.root_causes.iter().any(|rc| matches!(
        rc,
        RootCause::HostPfcInjection { port, .. } if Some(*port) == sc.truth.initial_port
    )));
}

#[test]
fn out_of_loop_contention_full_pipeline() {
    let (sc, out) = run(ScenarioKind::OutOfLoopDeadlockContention);
    assert_eq!(
        out.verdict,
        Some(Verdict::Correct),
        "report: {:#?}",
        out.report
    );
    let report = out.report.unwrap();
    assert_eq!(report.anomaly, AnomalyType::OutOfLoopDeadlockContention);
    assert!(report.deadlock_loop.is_some());
    let majors = report.major_root_cause_flows(0.2);
    for c in &sc.truth.culprit_flows {
        assert!(majors.contains(c), "culprit {c} missing from {majors:?}");
    }
}

#[test]
fn normal_contention_degenerate_case() {
    let (sc, out) = run(ScenarioKind::NormalContention);
    assert_eq!(
        out.verdict,
        Some(Verdict::Correct),
        "report: {:#?}",
        out.report
    );
    let report = out.report.unwrap();
    assert_eq!(report.anomaly, AnomalyType::NormalContention);
    // No PFC spreading: no deadlock loop, no PFC paths.
    assert!(report.deadlock_loop.is_none());
    assert!(report.victim_extents.is_empty());
    let majors = report.major_root_cause_flows(0.2);
    for c in &sc.truth.culprit_flows {
        assert!(majors.contains(c), "culprit {c} missing from {majors:?}");
    }
}
