//! Observability-layer integration: the `ObservedHook` decorator must be a
//! faithful passthrough (same simulation, same probe handling, same
//! diagnosis as the bare hook), and the traces it produces must be
//! deterministic — byte-identical across same-seed runs — because events
//! carry simulation time only.

use hawkeye::core::{analyze_victim_window, AnalyzerConfig, HawkeyeConfig, HawkeyeHook, Window};
use hawkeye::eval::{
    optimal_run_config, run_method, run_method_obs, Method, RunConfig, ScoreConfig,
};
use hawkeye::obs::{emit, kind, ObsConfig};
use hawkeye::sim::{Detection, FaultPlan, FaultStats, Nanos, ObservedHook, RunSummary};
use hawkeye::telemetry::{EpochConfig, TelemetryConfig, TelemetrySnapshot};
use hawkeye::workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};

fn scenario() -> Scenario {
    build_scenario(
        ScenarioKind::MicroBurstIncast,
        ScenarioParams {
            seed: 7,
            load: 0.1,
            ..Default::default()
        },
    )
}

fn hcfg() -> HawkeyeConfig {
    HawkeyeConfig {
        telemetry: TelemetryConfig {
            epochs: EpochConfig::for_epoch_len(Nanos::from_micros(100), 2),
            ..Default::default()
        },
        ..Default::default()
    }
}

struct Run {
    detections: Vec<Detection>,
    summary: RunSummary,
    events_processed: u64,
    hook_stats: String,
    snapshots: Vec<TelemetrySnapshot>,
}

fn run_bare(sc: &Scenario) -> Run {
    run_bare_faulted(sc, FaultPlan::none(), false).0
}

/// [`run_bare`] under a fault plan and an agent re-poll ladder, with the
/// probe faults injected and the re-polls sent; with `FaultPlan::none()` and
/// no ladder it is [`run_bare`] exactly.
fn run_bare_faulted(sc: &Scenario, faults: FaultPlan, retry: bool) -> (Run, FaultStats, u64) {
    let hook = HawkeyeHook::new(&sc.topo, HawkeyeConfig { faults, ..hcfg() });
    let mut agent = Scenario::agent(2.0);
    agent.retry = retry;
    let mut sim = sc.instantiate_faulted(1, agent, hook, faults);
    sim.run_until(sc.params.duration);
    let retried = sim
        .topo()
        .hosts()
        .map(|h| sim.host(h).stats.probes_retried)
        .sum();
    let run = Run {
        detections: sim.detections(),
        summary: RunSummary::of(&sim),
        events_processed: sim.events_processed(),
        hook_stats: format!("{:?}", sim.hook.stats),
        snapshots: sim.hook.collector.snapshots(),
    };
    (run, sim.fault_stats(), retried)
}

fn run_observed(sc: &Scenario, cfg: ObsConfig) -> Run {
    let hook = ObservedHook::new(HawkeyeHook::new(&sc.topo, hcfg()), cfg);
    let mut sim = sc.instantiate_faulted(1, Scenario::agent(2.0), hook, FaultPlan::none());
    sim.run_until(sc.params.duration);
    Run {
        detections: sim.detections(),
        summary: RunSummary::of(&sim),
        events_processed: sim.events_processed(),
        hook_stats: format!("{:?}", sim.hook.inner().stats),
        snapshots: sim.hook.inner().collector.snapshots(),
    }
}

fn diagnose(sc: &Scenario, run: &Run) -> Option<hawkeye::core::DiagnosisReport> {
    let victim: Vec<_> = run
        .detections
        .iter()
        .filter(|d| d.key == sc.truth.victim && d.at >= sc.truth.anomaly_at)
        .collect();
    let (first, last) = (victim.first()?.at, victim.last()?.at);
    let analyzer = AnalyzerConfig::for_epoch_len(Nanos::from_micros(100));
    let window = Window {
        from: first.saturating_sub(Nanos(
            analyzer.epoch_len.as_nanos() * analyzer.lookback_epochs,
        )),
        to: last + analyzer.epoch_len,
    };
    Some(
        analyze_victim_window(
            &sc.truth.victim,
            window,
            &run.snapshots,
            &sc.topo,
            &analyzer,
        )
        .0,
    )
}

/// The decorator must not change a single observable output of the run:
/// same detections, same switch/host counters, same in-switch hook
/// statistics (i.e. identical `ProbeDecision`s along the way), and the
/// telemetry it collects must diagnose to the identical report.
#[test]
fn observed_hook_is_faithful_passthrough() {
    let sc = scenario();
    let bare = run_bare(&sc);
    for cfg in [ObsConfig::default(), ObsConfig::off()] {
        let obs = run_observed(&sc, cfg);
        assert_eq!(bare.detections, obs.detections);
        assert_eq!(bare.summary, obs.summary);
        assert_eq!(bare.events_processed, obs.events_processed);
        assert_eq!(bare.hook_stats, obs.hook_stats);
        let (rb, ro) = (diagnose(&sc, &bare), diagnose(&sc, &obs));
        assert!(rb.is_some(), "victim must be detected in this scenario");
        assert_eq!(rb, ro);
    }
}

/// FNV-1a, 64-bit: a digest that is stable across builds and platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Same seed, two full observed runs: the emitted JSONL (and the Chrome
/// trace derived from the same records) must match byte for byte. Stage
/// wall-clock timings live only in the `StageProfile`, never in the trace.
///
/// Two runs of one build cannot see a change that reorders same-instant
/// events in both, so every scenario kind is also pinned *across commits*:
/// the digests of its JSONL trace and `RunSummary` and its event count
/// must equal constants recorded before the event queue was last replaced.
/// One more row runs incast under a 20 % fault plan with the agent's re-poll
/// ladder, so the handlers that file from inside an `Arrive` (a delayed or
/// duplicated probe) and `ProbeRetry` are pinned too. A change that means to
/// alter the simulation updates them on purpose.
#[test]
fn same_seed_traces_are_byte_identical() {
    let cfg = ObsConfig {
        enabled: true,
        capacity: 1 << 20,
        mask: kind::DEFAULT,
    };
    let trace = |sc: &Scenario, run: &RunConfig| {
        let (_, obs) = run_method_obs(sc, run, Method::Hawkeye, &ScoreConfig::default(), cfg);
        let recs: Vec<_> = obs.tracer.records().cloned().collect();
        (emit::jsonl(&recs), emit::chrome_trace(&recs))
    };
    let sc = scenario();
    let (j1, c1) = trace(&sc, &optimal_run_config(1));
    let (j2, c2) = trace(&sc, &optimal_run_config(1));
    assert!(!j1.is_empty());
    assert_eq!(j1, j2, "JSONL trace must be byte-identical across runs");
    assert_eq!(c1, c2, "Chrome trace must be byte-identical across runs");
    // PFC provenance signal must actually be in the trace.
    assert!(j1.contains("PfcPause") && j1.contains("ProbeHop"));

    // (kind, JSONL digest, RunSummary digest, events processed)
    let pinned: [(ScenarioKind, u64, u64, u64); 6] = [
        (
            ScenarioKind::MicroBurstIncast,
            0xfcf84b424289f8c1,
            0xcea565637b0fc533,
            993189,
        ),
        (
            ScenarioKind::PfcStorm,
            0xd723d76e662ce42d,
            0x21cc502898d5da96,
            1037864,
        ),
        (
            ScenarioKind::InLoopDeadlock,
            0x5980ea91f784a791,
            0xe78c9177098adc99,
            676520,
        ),
        (
            ScenarioKind::OutOfLoopDeadlockContention,
            0x092fe3e2bafbb6d0,
            0x1087cc8cc6743ce6,
            660049,
        ),
        (
            ScenarioKind::OutOfLoopDeadlockInjection,
            0xdf9d974f8e373f1e,
            0x59f702a6ad25f2eb,
            569462,
        ),
        (
            ScenarioKind::NormalContention,
            0xece4ff0f575cd3a5,
            0x109ac2e8c077987f,
            950883,
        ),
    ];
    let build = |k| {
        build_scenario(
            k,
            ScenarioParams {
                seed: 7,
                load: 0.1,
                ..Default::default()
            },
        )
    };
    let actual = pinned.map(|(k, ..)| {
        let sc = build(k);
        let (jsonl, _) = trace(&sc, &optimal_run_config(1));
        let bare = run_bare(&sc);
        (
            k,
            fnv1a(jsonl.as_bytes()),
            fnv1a(format!("{:?}", bare.summary).as_bytes()),
            bare.events_processed,
        )
    });
    let rows: String = actual
        .iter()
        .map(|(k, t, s, e)| format!("\n    (ScenarioKind::{k:?}, {t:#018x}, {s:#018x}, {e}),"))
        .collect();
    assert_eq!(
        actual, pinned,
        "the simulation drifted from its pinned digests; actual:{rows}"
    );

    // (JSONL digest, RunSummary digest, events processed) of the faulted row.
    let pinned_faulted: (u64, u64, u64) = (0xa6bf231f26e02591, 0x7c307ea99d8a79d6, 985215);
    let run = RunConfig {
        faults: FaultPlan { seed: 7, rate: 0.2 },
        agent_retry: true,
        ..optimal_run_config(1)
    };
    let sc = build(ScenarioKind::MicroBurstIncast);
    let (jsonl, _) = trace(&sc, &run);
    let (bare, faults, retried) = run_bare_faulted(&sc, run.faults, run.agent_retry);
    assert!(
        faults.probes_delayed > 0 && faults.probes_duplicated > 0,
        "the faulted row must delay and duplicate probes: {faults:?}"
    );
    assert!(retried > 0, "the faulted row must re-poll");
    let actual = (
        fnv1a(jsonl.as_bytes()),
        fnv1a(format!("{:?}", bare.summary).as_bytes()),
        bare.events_processed,
    );
    let (t, s, e) = actual;
    assert_eq!(
        actual, pinned_faulted,
        "the faulted simulation drifted from its pinned digests; actual: ({t:#018x}, {s:#018x}, {e})"
    );
}

/// `RunOutcome`'s counters are read back from the metrics registry; the
/// snapshot carried on the outcome must agree with the fields, and the
/// un-instrumented `run_method` must produce the same numbers — the
/// fields and the counters that live only in the registry alike.
#[test]
fn run_outcome_counters_come_from_the_registry() {
    let sc = scenario();
    let cfg = optimal_run_config(1);
    let score = ScoreConfig::default();
    let (out, obs) = run_method_obs(&sc, &cfg, Method::Hawkeye, &score, ObsConfig::default());
    let snap = &out.metrics;
    assert_eq!(snap.counter("processing_bytes"), Some(out.processing_bytes));
    assert_eq!(snap.counter("bandwidth_bytes"), Some(out.bandwidth_bytes));
    assert_eq!(
        snap.counter("report_packets"),
        Some(out.report_packets as u64)
    );
    assert_eq!(snap.counter_total("host_data_sent"), out.data_packets);
    assert_eq!(snap.counter_total("switch_data_pkts"), out.packet_hops);
    assert_eq!(
        snap.gauge("collected_switches"),
        Some(out.collected_switches.len() as f64)
    );
    assert_eq!(
        snap.gauge("causal_covered"),
        Some(out.causal_covered as f64)
    );
    assert_eq!(snap.gauge("causal_total"), Some(out.causal_total as f64));
    // The diagnosis ran under span timing: all three stages profiled.
    let stages: Vec<_> = obs.profile.spans().iter().map(|s| s.stage).collect();
    assert!(stages.len() >= 3, "expected stage spans, got {stages:?}");

    let plain = run_method(&sc, &cfg, Method::Hawkeye, &score);
    for key in [
        "polling_packets",
        "collected_bytes",
        "collected_bytes_full_dump",
        "detections",
    ] {
        assert!(snap.counter(key).is_some(), "{key} missing from registry");
        assert_eq!(plain.metrics.counter(key), snap.counter(key), "{key}");
    }
    assert_eq!(plain.processing_bytes, out.processing_bytes);
    assert_eq!(plain.bandwidth_bytes, out.bandwidth_bytes);
    assert_eq!(plain.report_packets, out.report_packets);
    assert_eq!(plain.data_packets, out.data_packets);
    assert_eq!(plain.packet_hops, out.packet_hops);
    assert_eq!(plain.report, out.report);
}
