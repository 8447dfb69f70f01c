//! Fig. 1(b) case study: a buggy NIC floods PAUSE frames and freezes
//! everything upstream of it ("PFC storm"). Sweeps the injection duration
//! to show how long the storm blocks the victim, then diagnoses it.
//!
//! Run: `cargo run --release --example pfc_storm`

use hawkeye::core::{analyze_victim_window, AnalyzerConfig, HawkeyeConfig, HawkeyeHook, Window};
use hawkeye::eval::optimal_run_config;
use hawkeye::sim::{Nanos, NullHook, PfcInjectorConfig, SimConfig, Simulator};
use hawkeye::telemetry::TelemetryConfig;
use hawkeye::workloads::{build_scenario, FatTreeNav, Scenario, ScenarioKind, ScenarioParams};

fn main() {
    // Duration sweep: how long does the victim stall for each injection
    // length? (The paper: storms "present different durations and numbers
    // of paused links".)
    println!("injection duration sweep (victim = inter-pod flow into the storming host):");
    println!("  inject_us  victim_done  pauses_seen");
    for inject_us in [100u64, 300, 800, 1500] {
        let sc = build_scenario(
            ScenarioKind::PfcStorm,
            ScenarioParams {
                load: 0.0,
                ..Default::default()
            },
        );
        let mut sim: Simulator<NullHook> =
            sc.instantiate(SimConfig::default(), Scenario::agent(2.0), NullHook);
        // Override the injector duration.
        let nav = FatTreeNav::try_new(sim.topo(), 4).expect("a K=4 fat-tree");
        let h_t = nav.hosts[0][0][0];
        sim.set_pfc_injector(
            h_t,
            PfcInjectorConfig {
                start: sc.truth.anomaly_at,
                stop: sc.truth.anomaly_at + Nanos::from_micros(inject_us),
                period: Nanos::from_micros(100),
            },
        );
        sim.run_until(sc.params.duration);
        let meta = sim
            .flows()
            .iter()
            .find(|f| f.key == sc.truth.victim)
            .unwrap();
        let done = sim
            .host(sc.truth.victim.src)
            .flow_by_id(meta.id)
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
    let hook = HawkeyeHook::new(
        &sc.topo,
        HawkeyeConfig {
            telemetry: TelemetryConfig {
                epochs: run.epoch,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut agent = Scenario::agent(2.0);
    agent.dedup_interval = Nanos::from_micros(400);
    let mut sim = sc.instantiate_seeded(1, agent, hook);
    sim.run_until(sc.params.duration);
    let dets = sim.detections();
    let vdets: Vec<_> = dets
        .iter()
        .filter(|d| d.key == sc.truth.victim && d.at >= sc.truth.anomaly_at)
        .collect();
    let (first, last) = (
        vdets.first().expect("storm victim detected"),
        vdets.last().unwrap(),
    );
    let analyzer = AnalyzerConfig::for_epoch_len(run.epoch.epoch_len());
    let window = Window {
        from: first.at.saturating_sub(Nanos(
            run.epoch.epoch_len().as_nanos() * analyzer.lookback_epochs,
        )),
        to: last.at + run.epoch.epoch_len(),
    };
    let (report, _, _) = analyze_victim_window(
        &sc.truth.victim,
        window,
        &sim.hook.collector.snapshots(),
        sim.topo(),
        &analyzer,
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
