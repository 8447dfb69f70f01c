//! Run every anomaly scenario through the full Hawkeye pipeline and print
//! the verdicts — a one-command health check of the reproduction.
//!
//! Usage: `cargo run --release --example scenario_matrix [load] [seed]`

use hawkeye::eval::{run_method, Method, RunConfig, ScoreConfig};
use hawkeye::workloads::{build_scenario, ScenarioKind, ScenarioParams};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let load: f64 = args.get(1).map(|s| s.parse().unwrap()).unwrap_or(0.0);
    let seed: u64 = args.get(2).map(|s| s.parse().unwrap()).unwrap_or(1);
    for kind in ScenarioKind::ALL {
        let sc = build_scenario(
            kind,
            ScenarioParams {
                load,
                seed,
                ..Default::default()
            },
        );
        let out = run_method(
            &sc,
            &RunConfig::default(),
            Method::Hawkeye,
            &ScoreConfig::default(),
        );
        println!("== {} ==", kind.name());
        println!(
            "  detection: {:?}",
            out.detection.map(|d| d.at.as_micros_f64())
        );
        println!("  verdict: {:?}", out.verdict);
        if let Some(r) = &out.report {
            println!(
                "  diagnosed: {:?}  loop={:?}",
                r.anomaly,
                r.deadlock_loop.as_ref().map(|l| l.len())
            );
            println!(
                "  majors: {:?}  truth: {:?}",
                r.major_root_cause_flows(0.1)
                    .iter()
                    .map(|k| (k.src.0, k.src_port))
                    .collect::<Vec<_>>(),
                sc.truth
                    .culprit_flows
                    .iter()
                    .map(|k| (k.src.0, k.src_port))
                    .collect::<Vec<_>>()
            );
            println!(
                "  inj peers: {:?} truth {:?}",
                r.injection_peers(),
                sc.truth.injection_host
            );
            println!(
                "  paths: {:?}",
                r.pfc_paths.iter().map(|p| p.len()).collect::<Vec<_>>()
            );
            for rc in &r.root_causes {
                match rc {
                    hawkeye::core::RootCause::FlowContention { port, flows } => println!(
                        "    RC contention at {}: {:?}",
                        port,
                        flows
                            .iter()
                            .map(|(k, w)| (k.src.0, k.src_port, (*w * 10.0).round() / 10.0))
                            .collect::<Vec<_>>()
                    ),
                    hawkeye::core::RootCause::HostPfcInjection { port, peer } => {
                        println!("    RC injection at {} peer {}", port, peer)
                    }
                }
            }
        }
        println!(
            "  collected {} switches; causal {}/{}; bytes {}",
            out.collected_switches.len(),
            out.causal_covered,
            out.causal_total,
            out.processing_bytes
        );
    }
}
