//! A method is a view of its deployment's run: `run_methods` simulates
//! each deployment the methods need once and concludes every method over
//! it, and that must be invisible in the results. Each of the seven
//! outcomes equals the one its own `run_method` (a simulation of its own)
//! and its own unobserved `run_method_obs` return, metrics snapshot
//! included.

use hawkeye_eval::{
    optimal_run_config, run_method, run_method_obs, run_methods, Method, ScoreConfig,
};
use hawkeye_obs::ObsConfig;
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};

#[test]
fn run_methods_equals_one_run_per_method() {
    let score = ScoreConfig::default();
    let cfg = optimal_run_config(1);
    for kind in [ScenarioKind::MicroBurstIncast, ScenarioKind::InLoopDeadlock] {
        let sc = build_scenario(
            kind,
            ScenarioParams {
                seed: 1,
                ..Default::default()
            },
        );
        let shared = run_methods(&sc, &cfg, &Method::ALL, &score);
        assert_eq!(shared.len(), Method::ALL.len());
        for (m, out) in Method::ALL.into_iter().zip(&shared) {
            // RunOutcome carries no thread- or time-dependent state, so
            // its Debug rendering compares every field.
            let shared = format!("{out:?}");
            assert!(shared.contains("detection: Some"), "{kind:?} {m:?}");
            let alone = run_method(&sc, &cfg, m, &score);
            assert_eq!(shared, format!("{alone:?}"), "{kind:?} {m:?}");
            let observed = run_method_obs(&sc, &cfg, m, &score, ObsConfig::off()).0;
            assert_eq!(shared, format!("{observed:?}"), "{kind:?} {m:?}");
        }
    }
}
