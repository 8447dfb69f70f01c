//! Instrumentation interface between the simulated switches and a telemetry
//! / diagnosis system (Hawkeye or a baseline).
//!
//! The simulator provides *mechanism* — callbacks at enqueue time, on PFC
//! frame receipt, and on polling-packet (probe) arrival, plus a read-only
//! [`SwitchView`] of switch configuration — while the monitoring system
//! provides *policy* (what to record, where to forward probes). This mirrors
//! the paper's split between the Tofino forwarding pipeline and the P4
//! Hawkeye program layered onto it.

use crate::ids::{FlowId, FlowKey, NodeId, PortId};
use crate::packet::Probe;
use crate::time::Nanos;
use crate::topology::Topology;

/// Everything a monitoring system may observe about one data packet being
/// enqueued at an egress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnqueueRecord {
    pub switch: NodeId,
    /// Ingress port the packet arrived on.
    pub in_port: u8,
    /// Egress port the packet was enqueued to.
    pub out_port: u8,
    pub flow: FlowId,
    pub key: FlowKey,
    /// Wire size in bytes.
    pub size: u32,
    /// Number of data packets already queued ahead of this one at the
    /// egress queue (the paper's `qdepth(pkt)`).
    pub qdepth_pkts: u32,
    /// Bytes queued ahead of this packet at the egress queue.
    pub qdepth_bytes: u64,
    /// Ground-truth egress pause state at enqueue (the simulator's own
    /// pause timer). Hawkeye maintains its *own* PFC status register from
    /// `on_pfc_frame` and must not rely on this field; it exists for
    /// baselines and for cross-checking the register logic in tests.
    pub egress_paused: bool,
    /// The switch-local 48-bit nanosecond enqueue timestamp.
    pub timestamp: Nanos,
}

/// A PFC frame observed at a switch port (after the MAC filter is disabled,
/// §3.6 "Enable PFC awareness for P4").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfcEvent {
    pub switch: NodeId,
    /// Port the frame arrived on — also the egress port it pauses.
    pub port: u8,
    pub class: u8,
    /// True for PAUSE, false for RESUME.
    pub pause: bool,
    /// Pause duration implied by the quanta at this port's line rate.
    pub pause_time: Nanos,
    pub now: Nanos,
}

/// What a switch does with an arriving probe (polling packet).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeDecision {
    /// Copies to emit, each out of a given egress port (control class).
    pub emit: Vec<(u8, Probe)>,
    /// Whether to mirror the probe to the switch CPU, triggering
    /// asynchronous telemetry collection (§3.4).
    pub mirror_to_cpu: bool,
}

/// Read-only switch-local context handed to `on_probe`.
///
/// Everything here is information a real switch's control/data plane has:
/// its own routing table, port count, and which ports face hosts.
pub struct SwitchView<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) switch: NodeId,
}

impl<'a> SwitchView<'a> {
    pub fn switch(&self) -> NodeId {
        self.switch
    }

    /// Next-hop egress port for a flow (the victim 5-tuple in the probe).
    pub fn route_port(&self, flow: &FlowKey) -> Option<u8> {
        self.topo.route_port(self.switch, flow)
    }

    /// Whether `port` attaches directly to a host.
    pub fn is_host_facing(&self, port: u8) -> bool {
        self.topo.is_host_facing(PortId::new(self.switch, port))
    }
}

/// A probe mirrored to a switch CPU: the trigger for controller-assisted
/// telemetry collection. The simulator records these; the experiment
/// harness replays them into the collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuNotification {
    pub switch: NodeId,
    pub probe: Probe,
    pub at: Nanos,
}

/// Monitoring-system policy callbacks, invoked synchronously by the
/// simulator. One implementation instance serves the whole network (it is
/// keyed by `switch` in every call), which keeps experiment plumbing simple
/// while preserving per-switch state separation inside the implementation.
pub trait SwitchHook {
    /// A data packet was enqueued at an egress queue.
    fn on_data_enqueue(&mut self, rec: &EnqueueRecord);

    /// A PFC frame arrived at a port.
    fn on_pfc_frame(&mut self, ev: &PfcEvent);

    /// A probe (polling packet) arrived at `in_port`; decide where it goes.
    fn on_probe(
        &mut self,
        switch: NodeId,
        in_port: u8,
        probe: Probe,
        view: &SwitchView<'_>,
        now: Nanos,
    ) -> ProbeDecision;
}

/// A no-op hook: an uninstrumented network.
#[derive(Debug, Default, Clone)]
pub struct NullHook;

impl SwitchHook for NullHook {
    fn on_data_enqueue(&mut self, _rec: &EnqueueRecord) {}
    fn on_pfc_frame(&mut self, _ev: &PfcEvent) {}
    fn on_probe(
        &mut self,
        _switch: NodeId,
        _in_port: u8,
        _probe: Probe,
        _view: &SwitchView<'_>,
        _now: Nanos,
    ) -> ProbeDecision {
        ProbeDecision::default()
    }
}
