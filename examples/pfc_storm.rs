//! Fig. 1(b) case study: a buggy NIC floods PAUSE frames and freezes
//! everything upstream of it ("PFC storm"). Sweeps the injection duration
//! to show how long the storm blocks the victim, then diagnoses it.
//!
//! Run: `cargo run --release --example pfc_storm`

use hawkeye::core::{analyze_victim_window, HawkeyeHook};
use hawkeye::eval::{optimal_run_config, simulate};
use hawkeye::sim::{FaultPlan, FlowId, Nanos, NullHook};
use hawkeye::workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};

fn main() {
    // Duration sweep: how long does the victim stall for each injection
    // length? (The paper: storms "present different durations and numbers
    // of paused links".)
    println!("injection duration sweep (victim = inter-pod flow into the storming host):");
    println!("  inject_us  victim_done  pauses_seen");
    for inject_us in [100u64, 300, 800, 1500] {
        let mut sc = build_scenario(
            ScenarioKind::PfcStorm,
            ScenarioParams {
                load: 0.0,
                ..Default::default()
            },
        );
        // The storm's one injector, cut short.
        sc.injectors[0].1.stop = sc.truth.anomaly_at + Nanos::from_micros(inject_us);
        let agent = Scenario::agent(2.0);
        let mut sim = sc.instantiate_faulted(1, agent, NullHook, FaultPlan::none());
        sim.run_until(sc.params.duration);
        let victim = sim.flows().iter().position(|f| f.key == sc.truth.victim);
        let done = sim
            .host(sc.truth.victim.src)
            .flow_by_id(FlowId(victim.unwrap() as u32))
            .is_some_and(|h| h.is_done());
        let pauses = sim.sum_switch_stats(|s| s.pfc_pause_recv);
        println!("  {inject_us:<9}  {done:<11}  {pauses}");
    }

    // Full diagnosis of the scripted storm.
    let sc = build_scenario(
        ScenarioKind::PfcStorm,
        ScenarioParams {
            load: 0.1,
            ..Default::default()
        },
    );
    let run = optimal_run_config(1);
    let sim = simulate(&sc, &run, |cfg| HawkeyeHook::new(&sc.topo, cfg));
    let window = run
        .victim_window(&sc, &sim.detections())
        .expect("storm victim detected");
    let (report, _, _) = analyze_victim_window(
        &sc.truth.victim,
        window,
        &sim.hook.collector.snapshots(),
        sim.topo(),
        &run.analyzer(),
    );
    println!("\ndiagnosis: {:?}", report.anomaly);
    println!(
        "injection blamed on host(s): {:?} (injected: {:?})",
        report.injection_peers(),
        sc.truth.injection_host
    );
    for path in &report.pfc_paths {
        println!(
            "PFC path: {}",
            path.iter()
                .map(|p| format!("{p}"))
                .collect::<Vec<_>>()
                .join(" -> ")
        );
    }
}
