//! # hawkeye-core
//!
//! The primary contribution of "Hawkeye: Diagnosing RDMA Network
//! Performance Anomalies with PFC Provenance" (SIGCOMM 2025), reproduced on
//! the `hawkeye-sim` substrate:
//!
//! - [`hook::HawkeyeHook`] — the in-switch program: PFC-aware telemetry
//!   updates and line-rate polling-packet forwarding with in-data-plane PFC
//!   causality analysis (Fig. 6, Table 1).
//! - [`collector::Collector`] — controller-assisted asynchronous telemetry
//!   collection with zero-filtering and MTU batching (§3.4).
//! - [`aggregate`] / [`provenance`] — Algorithm 1: the heterogeneous
//!   wait-for provenance graph over ports and flows (port-level PFC
//!   causality edges, flow-port pausing edges, port-flow contention edges
//!   via queue replay).
//! - [`diagnosis`] — Algorithm 2: loop detection, root-cause location
//!   (flow contention vs. host PFC injection), and the anomaly class of
//!   Table 2, matched on what the walk found.
//! - [`analyzer`] — end-to-end: a victim's window → graph → report.

pub mod aggregate;
pub mod analyzer;
pub mod cbd;
pub mod collector;
pub mod diagnosis;
pub mod error;
pub mod hash;
pub mod hook;
pub mod incremental;
pub mod provenance;
#[cfg(test)]
mod test_graphs;

pub use aggregate::{AggTelemetry, FlowAgg, PortAgg, Window};
pub use analyzer::{
    analyze_victim_window, analyze_victim_window_obs, victim_coverage_gaps, AnalyzerConfig,
};
pub use cbd::BufferDependencyGraph;
pub use collector::{
    CollectionEvent, Collector, CollectorFaultStats, MissingReason, MissingTelemetry,
};
pub use diagnosis::{diagnose, AnomalyType, DiagnosisConfig, DiagnosisReport, RootCause};
pub use error::{Confidence, DiagnosisError};
pub use hook::{HawkeyeConfig, HawkeyeHook, HookStats, TracingPolicy};
pub use incremental::{
    assemble_from_fragments, merge_fragment_sets, IncrStats, IncrementalProvenance,
};
pub use provenance::{
    build_graph, contribution, port_causality_edges, port_contention, victim_extents,
    ProvenanceGraph, ReplayConfig,
};
