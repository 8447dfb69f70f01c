//! Fig. 1(a) case study on the paper's evaluation fat-tree: micro-burst
//! incast causes PFC backpressure that victimizes an inter-pod flow that
//! never touches the congested port. Prints the provenance graph as
//! Graphviz DOT (pipe into `dot -Tpng` to render the Fig. 12(a) analog).
//!
//! Run: `cargo run --release --example incast_backpressure [--dot]`

use hawkeye::core::{analyze_victim_window, HawkeyeHook};
use hawkeye::eval::{optimal_run_config, simulate};
use hawkeye::workloads::{build_scenario, ScenarioKind, ScenarioParams};

fn main() {
    let want_dot = std::env::args().any(|a| a == "--dot");
    let sc = build_scenario(
        ScenarioKind::MicroBurstIncast,
        ScenarioParams {
            load: 0.1,
            ..Default::default()
        },
    );
    println!("designated victim: {}", sc.truth.victim);
    println!(
        "injected culprits: {:?}",
        sc.truth
            .culprit_flows
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
    );

    let run = optimal_run_config(1);
    let sim = simulate(&sc, &run, |cfg| HawkeyeHook::new(&sc.topo, cfg));

    let dets = sim.detections();
    let vdets: Vec<_> = dets
        .iter()
        .filter(|d| d.key == sc.truth.victim && d.at >= sc.truth.anomaly_at)
        .collect();
    let (first, last) = (vdets.first().expect("detected"), vdets.last().unwrap());
    println!("victim detections: first {} last {}", first.at, last.at);

    let window = run.victim_window(&sc, &dets).expect("detected");
    let (report, graph, _) = analyze_victim_window(
        &sc.truth.victim,
        window,
        &sim.hook.collector.snapshots(),
        sim.topo(),
        &run.analyzer(),
    );

    println!("\ndiagnosis: {:?}", report.anomaly);
    for path in &report.pfc_paths {
        println!(
            "PFC path: {}",
            path.iter()
                .map(|p| format!("{p}"))
                .collect::<Vec<_>>()
                .join(" -> ")
        );
    }
    println!(
        "major root-cause flows: {:?}",
        report
            .major_root_cause_flows(0.2)
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
    );
    println!(
        "spreading flows (paused at 2+ hops): {:?}",
        report
            .spreading_flows
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
    );
    if want_dot {
        println!("\n{}", graph.to_dot(sim.topo()));
    } else {
        println!("\n(re-run with --dot for the Graphviz provenance graph)");
    }
}
