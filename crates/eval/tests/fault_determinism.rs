//! Fault injection must be replayable and invisible when disabled:
//!
//! - the same `(seed, FaultPlan)` pair produces byte-identical outcomes no
//!   matter how many workers the trial grid fans across;
//! - `FaultPlan::none()` is bit-for-bit the pipeline without fault
//!   injection, seed field and all.

use hawkeye_eval::{par_map, run_method, Method, RunConfig, ScoreConfig};
use hawkeye_sim::{FaultPlan, Nanos};
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: ScenarioKind,
    seed: u64,
    rate_pct: u8,
}

/// One short faulted trial, fully determined by its spec. The Debug
/// rendering of the outcome (detection, report, verdict, confidence,
/// error, every counter) is the structural fingerprint compared across
/// worker counts.
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
    let faults = FaultPlan {
        seed: spec.seed,
        rate: f64::from(spec.rate_pct) / 100.0,
    };
    let cfg = RunConfig {
        sim_seed: spec.seed,
        faults,
        agent_retry: !faults.is_none(),
        ..RunConfig::default()
    };
    format!(
        "{:?}",
        run_method(&sc, &cfg, Method::Hawkeye, &ScoreConfig::default())
    )
}

proptest! {
    // Each case runs a 4-trial grid under three worker counts; debug-build
    // simulations are slow, so keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn faulted_grid_is_identical_for_every_job_count(
        base_seed in 1u64..500,
        rate_pct in 5u8..51,
    ) {
        let kinds = [ScenarioKind::MicroBurstIncast, ScenarioKind::PfcStorm];
        let mut grid = Vec::new();
        for kind in kinds {
            for s in 0..2u64 {
                grid.push(Spec { kind, seed: base_seed + s, rate_pct });
            }
        }
        let sequential: Vec<String> = grid.iter().map(run).collect();
        for jobs in [2usize, 4] {
            let parallel = par_map(jobs, &grid, run);
            prop_assert_eq!(&parallel, &sequential);
        }
    }
}

#[test]
fn none_plan_is_bit_identical_to_no_injection() {
    // A plan with every rate zero — even with a nonzero seed — must not
    // perturb a single RNG draw or event anywhere in the pipeline.
    let spec = |seed| ScenarioParams {
        seed,
        load: 0.05,
        duration: Nanos::from_micros(1500),
        anomaly_at: Nanos::from_micros(500),
    };
    for seed in [1u64, 7] {
        let sc = build_scenario(ScenarioKind::MicroBurstIncast, spec(seed));
        let baseline = RunConfig {
            sim_seed: seed,
            ..RunConfig::default()
        };
        let seeded_none = RunConfig {
            sim_seed: seed,
            faults: FaultPlan {
                seed: 42,
                ..FaultPlan::none()
            },
            ..RunConfig::default()
        };
        let a = format!(
            "{:?}",
            run_method(&sc, &baseline, Method::Hawkeye, &ScoreConfig::default())
        );
        let b = format!(
            "{:?}",
            run_method(&sc, &seeded_none, Method::Hawkeye, &ScoreConfig::default())
        );
        // The fault plan itself is not part of the outcome, so the
        // fingerprints must match to the byte.
        assert_eq!(a, b, "seed {seed}: FaultPlan::none() perturbed the run");
    }
}

#[test]
fn same_plan_same_failures_twice() {
    let sc = build_scenario(
        ScenarioKind::MicroBurstIncast,
        ScenarioParams {
            seed: 3,
            load: 0.05,
            duration: Nanos::from_micros(1500),
            anomaly_at: Nanos::from_micros(500),
        },
    );
    let cfg = RunConfig {
        sim_seed: 3,
        faults: FaultPlan {
            seed: 11,
            rate: 0.3,
        },
        agent_retry: true,
        ..RunConfig::default()
    };
    let a = run_method(&sc, &cfg, Method::Hawkeye, &ScoreConfig::default());
    let b = run_method(&sc, &cfg, Method::Hawkeye, &ScoreConfig::default());
    assert!(
        a.metrics.counter("faults_injected").unwrap_or(0) > 0,
        "30% plan must actually inject"
    );
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}
