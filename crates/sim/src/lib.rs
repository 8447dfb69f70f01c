//! # hawkeye-sim
//!
//! A deterministic, discrete-event, packet-level simulator of RoCEv2
//! data-center networks with Priority Flow Control — the substrate on which
//! the Hawkeye diagnosis system (SIGCOMM 2025) is reproduced. It plays the
//! role the NS-3 HPCC simulator plays in the paper's evaluation.
//!
//! What is modeled:
//! - **Topologies**: fat-tree (the paper's K=4 / 20-switch evaluation
//!   network), chains and rings (the Fig. 1 case-study topologies),
//!   dumbbells; shortest-path ECMP routing with scenario-installable route
//!   overrides (to emulate the routing misconfigurations that create cyclic
//!   buffer dependencies).
//! - **Switches**: shared-buffer, ingress-accounted PFC (Xoff/Xon with
//!   quanta-bearing PAUSE/RESUME frames and refresh), strict-priority
//!   unpausable control class, RED/ECN marking, per-port FIFO data queues.
//! - **Hosts**: RDMA NICs pacing flows at DCQCN-controlled rates, per-packet
//!   ACKs echoing send timestamps (RTT measurement), CNP generation,
//!   PFC-honoring uplinks, host-side PFC injection faults, and the Hawkeye
//!   host detection agent (RTT-threshold polling-packet trigger).
//! - **Instrumentation**: the [`hooks::SwitchHook`] trait, through which a
//!   monitoring system (Hawkeye, or a baseline) observes enqueues and PFC
//!   frames and steers polling packets — the simulator provides mechanism,
//!   the monitoring crate provides policy.
//!
//! Determinism: all randomness is seeded; events tie-break in insertion
//! order; two runs with identical inputs produce identical outputs.

pub mod dcqcn;
pub mod event;
pub mod faults;
pub mod hooks;
pub mod host;
pub mod ids;
#[cfg(test)]
mod lazy_tx_props;
pub mod observed;
pub mod packet;
pub mod sim;
pub mod summary;
pub mod switch;
pub mod time;
pub mod topology;
pub mod units;

pub use event::{EventKind, EventQueue, PacketRef};
pub use faults::{
    Fault, FaultInjector, FaultPlan, FaultRng, FaultStats, ProbeFate, STREAM_PROBE, STREAM_UPLOAD,
    UPLOAD_DELAY_MAX,
};
pub use hooks::{
    CpuNotification, EnqueueRecord, NullHook, PfcEvent, ProbeDecision, SwitchHook, SwitchView,
};
pub use host::{AgentConfig, Detection, HostState, PfcInjectorConfig};
pub use ids::{FlowId, FlowKey, NodeId, PortId};
pub use observed::{record_sim_metrics, trace_detections, trace_drop_warnings, ObservedHook};
pub use packet::{
    AckPacket, CnpPacket, DataPacket, Packet, PfcFrame, PollingFlags, Probe, CLASS_CONTROL,
    CLASS_DATA, CTRL_PKT_SIZE, DATA_PAYLOAD, DATA_PKT_SIZE,
};
pub use sim::{FlowSpec, SimConfig, Simulator};
pub use summary::{percentile_nearest_rank, RunSummary};
pub use switch::{SwitchConfig, SwitchState, SwitchStats};
pub use time::Nanos;
pub use topology::{
    chain, clos, dumbbell, fat_tree, leaf_spine, ring, ClosConfig, FatTreeNav, NavError, NodeKind,
    PortInfo, Topology, EVAL_BANDWIDTH, EVAL_DELAY,
};
pub use units::{quanta_to_pause_time, Bandwidth, Rate};
