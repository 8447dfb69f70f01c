//! The parallel trial runner must be invisible in the results: fanning a
//! trial grid across worker threads changes wall-clock only, never the
//! outcomes or their order.

use hawkeye_eval::{optimal_run_config, par_map, run_method, ScoreConfig};
use hawkeye_sim::Nanos;
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};

#[derive(Clone, Copy)]
struct Spec {
    kind: ScenarioKind,
    seed: u64,
}

/// One short trial, fully determined by its spec.
fn run(spec: &Spec) -> String {
    let sc = build_scenario(
        spec.kind,
        ScenarioParams {
            seed: spec.seed,
            load: 0.05,
            duration: Nanos::from_micros(1500),
            anomaly_at: Nanos::from_micros(500),
        },
    );
    let out = run_method(
        &sc,
        &optimal_run_config(spec.seed),
        hawkeye_baselines::Method::Hawkeye,
        &ScoreConfig::default(),
    );
    // RunOutcome carries no thread- or time-dependent state, so
    // the Debug rendering is a faithful structural fingerprint.
    format!("{out:?}")
}

#[test]
fn parallel_grid_matches_sequential_for_every_job_count() {
    let kinds = [
        ScenarioKind::MicroBurstIncast,
        ScenarioKind::PfcStorm,
        ScenarioKind::InLoopDeadlock,
    ];
    let mut grid = Vec::new();
    for kind in kinds {
        for seed in 1..=3u64 {
            grid.push(Spec { kind, seed });
        }
    }
    let sequential: Vec<String> = grid.iter().map(run).collect();
    assert_eq!(sequential.len(), 9);
    // At least one trial should have produced a non-trivial outcome, or the
    // comparison proves nothing.
    assert!(
        sequential.iter().any(|s| s.contains("detection: Some")),
        "no trial detected anything; grid too weak to exercise the runner"
    );
    for jobs in [1, 2, 4] {
        let parallel = par_map(jobs, &grid, run);
        assert_eq!(
            parallel, sequential,
            "jobs={jobs} diverged from the sequential reference"
        );
    }
}
