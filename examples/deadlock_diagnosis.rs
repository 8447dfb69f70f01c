//! Fig. 1(c) case study: routing misconfiguration creates a cyclic buffer
//! dependency (CBD) in pod 0; a sub-millisecond burst then freezes it into
//! a persistent deadlock. Shows the pause-state timeline of the four ring
//! ports and the provenance-graph loop the diagnosis finds.
//!
//! Run: `cargo run --release --example deadlock_diagnosis`

use hawkeye::core::{analyze_victim_window, HawkeyeConfig, HawkeyeHook};
use hawkeye::eval::optimal_run_config;
use hawkeye::sim::Nanos;
use hawkeye::telemetry::TelemetryConfig;
use hawkeye::workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};

fn main() {
    let sc = build_scenario(
        ScenarioKind::InLoopDeadlock,
        ScenarioParams {
            load: 0.0,
            ..Default::default()
        },
    );
    let nav = &sc.nav;
    let (e0, e1, a0, a1) = (
        nav.edges[0][0],
        nav.edges[0][1],
        nav.aggs[0][0],
        nav.aggs[0][1],
    );
    let ring = [(e0, a0), (a0, e1), (e1, a1), (a1, e0)]
        .map(|(from, to)| sc.topo.egress(from, to).expect("a ring link"));

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
    let mut sim = sc.instantiate_faulted(run.sim_seed, agent, hook, run.faults);

    println!("cyclic buffer dependency: e0 -> a0 -> e1 -> a1 -> e0 (route overrides)");
    println!(
        "burst injected at {}; ring pause states:",
        sc.truth.anomaly_at
    );
    println!("  t_us     e0->a0      a0->e1      e1->a1      a1->e0");
    for step in 1..=15u64 {
        let t = Nanos::from_micros(step * 200);
        sim.run_until(t);
        let cells: Vec<String> = ring
            .iter()
            .map(|p| {
                let sw = sim.switch(p.node);
                format!(
                    "{}q{:<4}",
                    if sw.egress_paused(p.port, t) {
                        "PAUSE "
                    } else {
                        "  -   "
                    },
                    sw.queue_pkts(p.port)
                )
            })
            .collect();
        println!("  {:<7}  {}", step * 200, cells.join("  "));
    }
    sim.run_until(sc.params.duration);

    let window = run
        .victim_window(&sc, &sim.detections())
        .expect("victim stalls");
    let (report, _, _) = analyze_victim_window(
        &sc.truth.victim,
        window,
        &sim.hook.collector.snapshots(),
        sim.topo(),
        &run.analyzer(),
    );
    println!("\ndiagnosis: {:?}", report.anomaly);
    if let Some(lp) = &report.deadlock_loop {
        println!(
            "deadlock loop (cyclic buffer dependency): {}",
            lp.iter()
                .map(|p| format!("{p}"))
                .collect::<Vec<_>>()
                .join(" -> ")
        );
    }
    println!(
        "root-cause burst flows: {:?} (injected: {:?})",
        report
            .major_root_cause_flows(0.2)
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>(),
        sc.truth
            .culprit_flows
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
    );
}
