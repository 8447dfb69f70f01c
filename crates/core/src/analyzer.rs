//! End-to-end analysis: from a host-agent detection and the collected
//! telemetry to a [`DiagnosisReport`].

use crate::aggregate::{AggTelemetry, Window};
use crate::diagnosis::{diagnose, DiagnosisConfig, DiagnosisReport};
use crate::error::Confidence;
use crate::provenance::{build_graph, ProvenanceGraph, ReplayConfig};
use hawkeye_obs::{Recorder, Stage};
use hawkeye_sim::{Nanos, NodeId, Topology};
use hawkeye_telemetry::TelemetrySnapshot;
use std::collections::HashSet;

/// Analyzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnalyzerConfig {
    /// Epochs of history (before the detection) aggregated into the
    /// diagnosis window; must cover the anomaly's onset.
    pub lookback_epochs: u64,
    /// Telemetry epoch length (must match the switches' configuration).
    pub epoch_len: Nanos,
    pub replay: ReplayConfig,
    pub diagnosis: DiagnosisConfig,
}

impl AnalyzerConfig {
    pub fn for_epoch_len(epoch_len: Nanos) -> Self {
        AnalyzerConfig {
            // Detection re-triggering is deduplicated on the order of
            // hundreds of microseconds, so the window must reach back past
            // several epochs to cover the anomaly's onset.
            lookback_epochs: 4,
            epoch_len,
            replay: ReplayConfig::default(),
            diagnosis: DiagnosisConfig::default(),
        }
    }
}

/// Victim-path switches that never delivered a snapshot — the missing set
/// grading a verdict's [`Confidence`]. Coverage is judged on delivery, not
/// row content: an empty-but-delivered snapshot is evidence of quiet, while
/// an absent one is a blind spot.
fn victim_path_gaps(
    victim: &hawkeye_sim::FlowKey,
    snapshots: &[TelemetrySnapshot],
    topo: &Topology,
) -> Vec<NodeId> {
    let covered: HashSet<NodeId> = snapshots.iter().map(|s| s.switch).collect();
    victim_coverage_gaps(victim, |sw| covered.contains(&sw), topo)
}

/// Victim-path switches for which `covered` is false — the coverage-gap
/// primitive behind confidence grading, usable by callers that track
/// coverage as a set of reporting switches (e.g. the online store) rather
/// than a snapshot slice.
pub fn victim_coverage_gaps(
    victim: &hawkeye_sim::FlowKey,
    covered: impl Fn(NodeId) -> bool,
    topo: &Topology,
) -> Vec<NodeId> {
    let mut missing: Vec<NodeId> = topo
        .flow_egress_ports(victim)
        .into_iter()
        .map(|p| p.node)
        .filter(|&sw| !covered(sw))
        .collect();
    missing.sort_unstable();
    missing.dedup();
    missing
}

/// Grade a report by telemetry coverage of the victim's path.
fn grade_report(
    report: &mut DiagnosisReport,
    victim: &hawkeye_sim::FlowKey,
    snapshots: &[TelemetrySnapshot],
    topo: &Topology,
) {
    report.confidence = Confidence::grade(
        victim_path_gaps(victim, snapshots, topo),
        report.anomaly.is_anomaly(),
    );
}

/// Analyze a victim over a window: aggregate → Algorithm 1 → Algorithm 2.
/// Returns the report plus the graph and the aggregate (for rendering /
/// tests). The window reaches from `lookback_epochs` before the victim's
/// first detection to one epoch after its last (collection happens within
/// microseconds of detection, inside that epoch). When the anomaly
/// persisted across several re-detections and collections, evidence that
/// froze early (e.g. the escape port of a deadlock) and evidence that froze
/// late (the closing ring port) are both covered; epoch-level keep-latest
/// deduplication makes the wide window safe.
///
/// `snapshots` must be of `topo`'s own switches, naming only ports those
/// switches have: the analysis indexes `topo` by every switch and port
/// they name, and panics on one it lacks. Evidence off the wire is checked
/// first (the serve daemon and front refuse such a frame whole).
pub fn analyze_victim_window(
    victim: &hawkeye_sim::FlowKey,
    window: Window,
    snapshots: &[TelemetrySnapshot],
    topo: &Topology,
    cfg: &AnalyzerConfig,
) -> (DiagnosisReport, ProvenanceGraph, AggTelemetry) {
    analyze_victim_window_obs(
        victim,
        window,
        snapshots,
        topo,
        cfg,
        &mut Recorder::disabled(),
    )
}

/// [`analyze_victim_window`] with span timing: each pipeline stage —
/// telemetry aggregation, Algorithm 1 graph build, Algorithm 2 signature
/// match — is timed into `obs` ([`hawkeye_obs::StageProfile`] wall-clock +
/// a sim-time-only `StageSpan` trace event over the analysis window).
pub fn analyze_victim_window_obs(
    victim: &hawkeye_sim::FlowKey,
    window: Window,
    snapshots: &[TelemetrySnapshot],
    topo: &Topology,
    cfg: &AnalyzerConfig,
    obs: &mut Recorder,
) -> (DiagnosisReport, ProvenanceGraph, AggTelemetry) {
    let (from, to) = (window.from.as_nanos(), window.to.as_nanos());
    let mut agg = obs.stage(Stage::TelemetryCollection, from, to, || {
        AggTelemetry::build(snapshots, window)
    });
    if agg.epoch_len == Nanos::ZERO {
        agg.epoch_len = cfg.epoch_len;
    }
    let g = obs.stage(Stage::GraphBuild, from, to, || {
        build_graph(&agg, topo, cfg.replay)
    });
    let mut report = obs.stage(Stage::SignatureMatch, from, to, || {
        diagnose(&g, topo, &agg, victim, cfg.diagnosis)
    });
    grade_report(&mut report, victim, snapshots, topo);
    (report, g, agg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnosis::AnomalyType;
    use crate::provenance::{assemble_graph, port_causality_edges, port_contention};
    use crate::test_graphs::{fkey, topo4};
    use hawkeye_sim::{FlowKey, PortId};
    use hawkeye_telemetry::{EpochSnapshot, FlowRecord, PortRecord};
    use std::collections::HashMap;

    /// A port the verdict never reads is never replayed, whatever its
    /// records claim. On `chain(2, 1)` the victim h0 → h1 is paused at
    /// sw0.P1, which waits for sw1.P0: a paused terminal with no onset, so
    /// Algorithm 2 reads its weights. sw0.P0, on no PFC path, carries two
    /// flows claiming `u32::MAX` contention packets each — ≈8.6e9 replay
    /// steps if anything replayed it.
    #[test]
    fn an_unread_port_costs_no_replay() {
        let topo = hawkeye_sim::chain(2, 1, hawkeye_sim::EVAL_BANDWIDTH, hawkeye_sim::EVAL_DELAY);
        let hosts: Vec<NodeId> = topo.hosts().collect();
        let sws: Vec<NodeId> = topo.switches().collect();
        let victim = FlowKey::roce(hosts[0], hosts[1], 1);
        let other = FlowKey::roce(hosts[0], hosts[1], 2);
        let hostile = [
            FlowKey::roce(hosts[1], hosts[0], 3),
            FlowKey::roce(hosts[1], hosts[0], 4),
        ];
        let epoch_len = Nanos(1 << 20);
        let record = |pkt_count, paused_count, out_port| FlowRecord {
            pkt_count,
            paused_count,
            qdepth_sum: 0,
            out_port,
        };
        let port = |pkt_count, paused_count, qdepth_sum| PortRecord {
            pkt_count,
            paused_count,
            qdepth_sum,
        };
        let snap = |switch, flows, ports, meter| TelemetrySnapshot {
            switch,
            taken_at: Nanos(2 << 20),
            nports: 2,
            max_flows: 64,
            epochs: vec![EpochSnapshot {
                slot: 0,
                id: 0,
                start: Nanos::ZERO,
                len: epoch_len,
                flows,
                ports,
                meter,
            }],
            evicted: vec![],
        };
        let snaps = [
            snap(
                sws[0],
                vec![
                    (victim, record(100, 40, 1)),
                    (hostile[0], record(u32::MAX, 0, 0)),
                    (hostile[1], record(u32::MAX, 0, 0)),
                ],
                vec![(1, port(100, 40, 0)), (0, port(u32::MAX, 0, 0))],
                vec![],
            ),
            snap(
                sws[1],
                vec![(victim, record(60, 10, 0)), (other, record(200, 10, 0))],
                vec![(0, port(260, 20, 520))],
                vec![(1, 0, 100_000)],
            ),
        ];
        let window = Window {
            from: Nanos::ZERO,
            to: Nanos(2 << 20),
        };
        let cfg = AnalyzerConfig::for_epoch_len(epoch_len);
        let (report, g, agg) = analyze_victim_window(&victim, window, &snaps, &topo, &cfg);

        let unread = PortId::new(sws[0], 0);
        let terminal = g.port_index(PortId::new(sws[1], 0)).expect("terminal node");
        let off_path = g.port_index(unread).expect("off-path node");
        assert_eq!(report.pfc_paths.len(), 1, "one spreading path: {report:?}");
        assert!(
            g.contention_filled(terminal),
            "the verdict read the terminal"
        );
        assert!(
            !g.contention_filled(off_path),
            "the unread port was replayed"
        );

        // The eager graph: every port replayed except the unread one, which
        // gets weights no replay produces. The verdict cannot tell.
        let frag_port = agg
            .ports
            .keys()
            .map(|&p| (p, port_causality_edges(&agg, &topo, cfg.replay, p)))
            .collect();
        let frag_cont: HashMap<PortId, Vec<(FlowKey, f64)>> = agg
            .ports
            .keys()
            .map(|&p| {
                let weights = if p == unread {
                    hostile.iter().map(|&k| (k, 1e9)).collect()
                } else {
                    port_contention(&agg, &topo, cfg.replay, p)
                };
                (p, weights)
            })
            .collect();
        let eager = assemble_graph(&agg, &frag_port, &frag_cont);
        assert_eq!((&eager.ports, &eager.flows), (&g.ports, &g.flows));
        let mut expect = diagnose(&eager, &topo, &agg, &victim, cfg.diagnosis);
        grade_report(&mut expect, &victim, &snaps, &topo);
        assert_eq!(report, expect);
        assert!(!g.contention_filled(off_path), "comparing read nothing");
    }

    #[test]
    fn no_snapshots_grades_inconclusive() {
        let topo = topo4();
        let victim = fkey(1);
        let window = Window {
            from: Nanos::ZERO,
            to: Nanos(1 << 21),
        };
        let (report, _, _) = analyze_victim_window(
            &victim,
            window,
            &[],
            &topo,
            &AnalyzerConfig::for_epoch_len(Nanos(1 << 20)),
        );
        assert_eq!(report.anomaly, AnomalyType::NoAnomaly);
        assert!(report.confidence.is_inconclusive());
        assert!(!report.confidence.missing().is_empty());
        // The degraded field survives a serde round trip, and a complete
        // verdict's JSON never mentions confidence at all.
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("confidence"));
        let back: DiagnosisReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.confidence, report.confidence);
    }
}
