//! Data rows that cross the wire as JSON: what a switch saw of a flow
//! (`FlowHistory`) and why the daemon said what it said (`Explain`).
//! These live in the client crate — not the daemon — because both ends of
//! the protocol decode them; the daemon's store and audit trail fill them
//! in.

use hawkeye_sim::{Nanos, NodeId};
use serde::{Deserialize, Serialize};

/// How much fidelity backs a [`FlowObservation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fidelity {
    /// From a compacted bucket: sums over an epoch range.
    Compacted,
    /// From a single raw epoch still in the ring.
    Raw,
}

/// One row of a `FlowHistory` answer: what one switch saw of a flow over
/// `[from, to)`, either a single raw epoch or a compacted aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowObservation {
    pub switch: NodeId,
    pub from: Nanos,
    pub to: Nanos,
    pub fidelity: Fidelity,
    pub out_port: u8,
    pub pkt_count: u64,
    pub paused_count: u64,
    pub qdepth_sum: u64,
    /// Raw epochs behind this row (1 for `Fidelity::Raw`).
    pub epochs: u32,
}

/// The provenance of one served Diagnose verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainRecord {
    /// Monotonically increasing verdict number (never reused).
    pub seq: u64,
    /// The victim flow, rendered `src:sport->dst`.
    pub victim: String,
    /// Diagnosis window (sim-time ns).
    pub window_from_ns: u64,
    pub window_to_ns: u64,
    /// The verdict's anomaly label (Debug form of `AnomalyType`).
    pub anomaly: String,
    /// Matched signature row of the paper's Table 2, as a stable slug
    /// (`"pfc_storm"`, …; `"none"` when no row matched).
    pub signature_row: String,
    /// The verdict's confidence rendering (`"complete"`, `"degraded"`, …).
    pub confidence: String,
    /// Switches that were named as root causes.
    pub root_causes: Vec<u32>,
    /// Switches whose snapshots carried at least one epoch overlapping
    /// the window — the evidence actually consulted.
    pub contributing_switches: Vec<u32>,
    /// Total raw epochs across those snapshots inside the window.
    pub contributing_epochs: u64,
    /// Switches dirty in the incremental engine at diagnose time (applied
    /// or retired since the last refresh) — telemetry newer than the
    /// engine's graph.
    pub dirty_switches: Vec<u32>,
    /// Incremental fragment-cache totals at diagnose time (hits/misses).
    pub frags_reused: u64,
    pub frags_recomputed: u64,
    /// Wall-clock per diagnosis stage (ns).
    pub stage_collect_ns: u64,
    pub stage_graph_ns: u64,
    pub stage_match_ns: u64,
}
