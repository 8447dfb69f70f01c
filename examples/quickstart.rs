//! Quickstart: the whole Hawkeye pipeline on a 3-switch chain in ~60 lines.
//!
//! 1. Build a topology and instrument every switch with the Hawkeye hook
//!    (PFC-aware telemetry + polling-packet forwarding).
//! 2. Run an incast that causes PFC backpressure onto an innocent victim.
//! 3. The victim's host agent detects the RTT anomaly and emits a polling
//!    packet; switches trace the PFC causality and upload telemetry.
//! 4. The analyzer builds the provenance graph and names the culprits.
//!
//! Run: `cargo run --release --example quickstart`

use hawkeye::core::{analyze_victim_window, AnalyzerConfig, HawkeyeConfig, HawkeyeHook};
use hawkeye::core::{RootCause, Window};
use hawkeye::sim::{chain, AgentConfig, FlowKey, FlowSpec, Nanos, SimConfig, Simulator};
use hawkeye::sim::{EVAL_BANDWIDTH, EVAL_DELAY};
use hawkeye::telemetry::{EpochConfig, TelemetryConfig};

fn main() {
    // Three switches in a chain, five hosts each, 100 Gbps / 2 us links.
    let topo = chain(3, 5, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();

    // Instrument with ~131 us telemetry epochs.
    let epoch = EpochConfig::for_epoch_len(Nanos::from_micros(100), 2);
    let hook = HawkeyeHook::new(
        &topo,
        HawkeyeConfig {
            telemetry: TelemetryConfig {
                epochs: epoch,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let mut sim = Simulator::new(topo, SimConfig::default(), hook);

    // Host detection agents: alarm at 3x the unloaded RTT.
    sim.enable_agents(AgentConfig {
        rtt_threshold_factor: 3.0,
        base_rtt: Nanos::from_micros(15),
        check_interval: Nanos::from_micros(50),
        dedup_interval: Nanos::from_millis(2),
        retry: false,
    });

    // The victim: a long flow crossing both inter-switch links.
    let victim = FlowKey::roce(hosts[0], hosts[14], 100);
    sim.add_flow(FlowSpec::new(victim, 20_000_000, Nanos::ZERO));
    // Light through-traffic toward the soon-to-be-congested port.
    for i in 0..40u64 {
        let key = FlowKey::roce(hosts[1], hosts[10], 300 + i as u16);
        sim.add_flow(FlowSpec::new(key, 64_000, Nanos::from_micros(700 + 15 * i)));
    }
    // The culprits: synchronized bursts into h10 from its own rack.
    for i in 0..3u16 {
        let key = FlowKey::roce(hosts[11 + i as usize], hosts[10], 200 + i);
        sim.add_flow(FlowSpec::new(key, 2_000_000, Nanos::from_micros(800)));
    }

    sim.run_until(Nanos::from_millis(3));

    // The agent detected the victim; diagnose it.
    let det = sim
        .detections()
        .into_iter()
        .find(|d| d.key == victim)
        .expect("victim detected");
    println!(
        "victim {} detected at {} (observed RTT {})",
        det.key, det.at, det.observed_rtt
    );

    let snapshots = sim.hook.collector.snapshots();
    println!(
        "collected telemetry from {} switches ({} bytes after zero-filtering)",
        sim.hook.collector.switch_count(),
        sim.hook.collector.total_bytes()
    );

    // Diagnose from a few epochs before the detection to one after it.
    let analyzer = AnalyzerConfig::for_epoch_len(epoch.epoch_len());
    let lookback = Nanos(analyzer.epoch_len.as_nanos() * analyzer.lookback_epochs);
    let window = Window {
        from: det.at.saturating_sub(lookback),
        to: det.at + analyzer.epoch_len,
    };
    let (report, _graph, _agg) =
        analyze_victim_window(&det.key, window, &snapshots, sim.topo(), &analyzer);
    println!("\nDIAGNOSIS: {:?}", report.anomaly);
    for path in &report.pfc_paths {
        let p: Vec<String> = path.iter().map(|x| x.to_string()).collect();
        println!("  PFC spreading path: {}", p.join(" -> "));
    }
    for rc in &report.root_causes {
        match rc {
            RootCause::FlowContention { port, flows } => {
                println!("  root cause: flow contention at {port}");
                for (k, w) in flows.iter().take(5) {
                    println!("    contributor {k} (weight {w:.1})");
                }
            }
            RootCause::HostPfcInjection { port, peer } => {
                println!("  root cause: PFC injection at {port} from host {peer}");
            }
        }
    }
    println!(
        "  burst flows: {:?}",
        report
            .burst_flows
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
    );
}
