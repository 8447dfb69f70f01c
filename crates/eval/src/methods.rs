//! Run one scenario under any of the seven compared methods, with
//! per-method visibility transforms and overhead accounting.

use crate::metrics::{judge, ScoreConfig, Verdict};
use crate::runner::{last_victim_detection, simulate, RunConfig};
use hawkeye_baselines::{
    filter_victim_path, netsight_bandwidth, netsight_processing, polling_bandwidth,
    spidermon_bandwidth, spidermon_processing, strip_flows, strip_pfc, strip_ports, Method,
};
use hawkeye_core::{
    analyze_victim_window, DiagnosisError, DiagnosisReport, HawkeyeConfig, HawkeyeHook,
    TracingPolicy,
};
use hawkeye_sim::{Detection, NodeId, Simulator};
use hawkeye_telemetry::TelemetrySnapshot;
use hawkeye_workloads::Scenario;

/// Everything extracted from one trial of one method.
#[derive(Debug)]
pub struct MethodOutcome {
    pub method: Method,
    pub detection: Option<Detection>,
    pub report: Option<DiagnosisReport>,
    pub verdict: Option<Verdict>,
    /// Distinct switches whose telemetry reached the analyzer.
    pub collected_switches: Vec<NodeId>,
    pub causal_covered: usize,
    pub causal_total: usize,
    /// Telemetry bytes processed by the analyzer per diagnosis (Fig. 9a).
    pub processing_bytes: u64,
    /// Extra bytes placed on the wire by monitoring (Fig. 9b).
    pub bandwidth_bytes: u64,
    /// Report packets shipped (Hawkeye-family only; 0 otherwise).
    pub report_packets: usize,
    pub data_packets: u64,
    pub packet_hops: u64,
    /// Why no (meaningful) diagnosis was possible, when it was not.
    pub error: Option<DiagnosisError>,
}

/// Run `scenario` under `method` and judge the result.
///
/// This is one of two Hawkeye pipelines: with `Method::Hawkeye` it
/// analyzes only the snapshots taken inside the diagnosis window and
/// counts only the collections attributed to the victim, where
/// [`run_hawkeye`](crate::run_hawkeye) analyzes every collected snapshot
/// and counts every collection. Over the 108 corpus cells their reports
/// differ in 11 cells but their verdict labels agree in all 108;
/// `collected_switches` differs in most cells (clos8s2d4: ≈5 here, ≈40
/// there). This one feeds `hawkeye scenario`/`matrix` and every figure;
/// the other feeds the corpus, `chaos`, `fuzz` and the daemon's parity
/// reference.
pub fn run_method(
    scenario: &Scenario,
    cfg: &RunConfig,
    method: Method,
    score: &ScoreConfig,
) -> MethodOutcome {
    let policy = if method.victim_path_only() || method == Method::FlowOnly {
        TracingPolicy::VictimOnly
    } else {
        TracingPolicy::Hawkeye
    };
    let sim = simulate(scenario, &RunConfig { policy, ..*cfg }, |h| {
        let full_polling = method.collects_everything();
        HawkeyeHook::new(&scenario.topo, HawkeyeConfig { full_polling, ..h })
    });
    analyze_method(&sim, scenario, cfg, method, score)
}

/// Judge a finished trial `sim` of `scenario` as `method` sees it: the
/// method's visibility transform over the snapshots collected inside the
/// diagnosis window, then its overhead accounting.
pub(crate) fn analyze_method(
    sim: &Simulator<HawkeyeHook>,
    scenario: &Scenario,
    cfg: &RunConfig,
    method: Method,
    score: &ScoreConfig,
) -> MethodOutcome {
    let dets = sim.detections();
    let detection = last_victim_detection(scenario, &dets);
    let analyzer = cfg.analyzer();
    // No detection → no window: handled as a typed error, never a panic.
    let window = cfg.victim_window(scenario, &dets);

    // Only the collections belonging to THIS diagnosis (within its window)
    // count toward its telemetry and coverage — unrelated background
    // anomalies trigger their own collections on a shared deployment.
    let raw: Vec<TelemetrySnapshot> = {
        let all = sim.hook.collector.snapshots();
        match window {
            Some(w) => all
                .into_iter()
                .filter(|s| s.taken_at >= w.from && s.taken_at <= w.to)
                .collect(),
            None => all,
        }
    };
    // Per-method visibility transform.
    let snapshots: Vec<TelemetrySnapshot> = match method {
        Method::Hawkeye | Method::FullPolling => raw.clone(),
        Method::VictimOnly => filter_victim_path(&raw, sim.topo(), &scenario.truth.victim),
        Method::SpiderMon => strip_pfc(&filter_victim_path(
            &raw,
            sim.topo(),
            &scenario.truth.victim,
        )),
        Method::NetSight => strip_pfc(&raw),
        Method::PortOnly => strip_flows(&raw),
        Method::FlowOnly => strip_ports(&filter_victim_path(
            &raw,
            sim.topo(),
            &scenario.truth.victim,
        )),
    };

    let missing_in_window: Vec<NodeId> = window
        .map(|w| sim.hook.collector.missing_switches(w.from, w.to))
        .unwrap_or_default();
    let error = if window.is_none() {
        Some(DiagnosisError::NoDetection {
            victim: scenario.truth.victim,
        })
    } else if snapshots.is_empty() {
        Some(DiagnosisError::NoTelemetry {
            victim: scenario.truth.victim,
            missing: missing_in_window.clone(),
        })
    } else {
        None
    };
    let report = window.map(|w| {
        let mut r =
            analyze_victim_window(&scenario.truth.victim, w, &snapshots, sim.topo(), &analyzer).0;
        r.note_missing(&missing_in_window);
        r
    });
    let verdict = report.as_ref().map(|r| judge(&scenario.truth, r, score));

    // Per-diagnosis attribution: only the collections THIS victim's polling
    // packets triggered (within its window) count toward its overheads —
    // the collector is shared with every other concurrent anomaly.
    let victim_snaps: Vec<TelemetrySnapshot> = match window {
        Some(w) => sim
            .hook
            .collector
            .attributed_snapshots(&scenario.truth.victim, w.from, w.to),
        None => Vec::new(),
    };
    let mut collected: Vec<NodeId> = victim_snaps.iter().map(|s| s.switch).collect();
    collected.sort_unstable();
    collected.dedup();
    let causal_covered = scenario
        .truth
        .causal_switches
        .iter()
        .filter(|s| collected.contains(s))
        .count();

    let data_packets: u64 = sim
        .topo()
        .hosts()
        .map(|h| sim.host(h).stats.data_sent)
        .sum();
    let packet_hops = sim.sum_switch_stats(|s| s.data_pkts);
    let polling_packets = sim.sum_switch_stats(|s| s.probes_emitted) + dets.len() as u64;

    let telemetry_bytes: u64 = victim_snaps
        .iter()
        .map(|s| s.wire_size_filtered() as u64)
        .sum();
    let flow_entries: usize = victim_snaps
        .iter()
        .flat_map(|s| s.epochs.iter())
        .map(|e| e.flows.len())
        .sum();

    let processing_bytes = match method {
        Method::SpiderMon => spidermon_processing(flow_entries) as u64,
        Method::NetSight => netsight_processing(packet_hops),
        _ => telemetry_bytes,
    };
    let bandwidth_bytes = match method {
        Method::SpiderMon => spidermon_bandwidth(data_packets),
        Method::NetSight => netsight_bandwidth(packet_hops),
        // Full polling is triggered out of band: no polling packets.
        Method::FullPolling => 0,
        _ => polling_bandwidth(polling_packets),
    };

    MethodOutcome {
        method,
        detection,
        report,
        verdict,
        collected_switches: collected,
        causal_covered,
        causal_total: scenario.truth.causal_switches.len(),
        processing_bytes,
        bandwidth_bytes,
        report_packets: sim.hook.collector.report_packets(),
        data_packets,
        packet_hops,
        error,
    }
}
