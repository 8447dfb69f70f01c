//! The simulation driver: owns the topology, node states, event queue and
//! the instrumentation hook, and dispatches events until a time horizon.

use crate::event::{EventKind, EventQueue};
use crate::faults::{FaultInjector, FaultPlan, FaultStats, ProbeFate};
use crate::hooks::{CpuNotification, SwitchHook};
use crate::host::{AgentConfig, Detection, HostState, PfcInjectorConfig};
use crate::ids::{FlowId, FlowKey, NodeId};
use crate::packet::Packet;
use crate::switch::{SwitchConfig, SwitchState};
use crate::time::Nanos;
use crate::topology::{NodeKind, Topology};

/// One flow to install into a simulation: the simulator's registry holds
/// these (ground truth for workloads and evaluation), indexed by [`FlowId`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSpec {
    pub key: FlowKey,
    pub size_bytes: u64,
    pub start: Nanos,
    /// Application-level pacing cap (bits/s): the send rate is min(DCQCN
    /// rate, cap). Scenarios use it for sub-line steady flows.
    pub max_rate_bps: Option<f64>,
    /// Congestion-control compliance: a non-compliant flow (a buggy or
    /// adversarial NIC) ignores CNPs. Background traffic always complies.
    pub cc_enabled: bool,
}

impl FlowSpec {
    /// An uncapped, congestion-control-compliant flow.
    pub fn new(key: FlowKey, size_bytes: u64, start: Nanos) -> Self {
        FlowSpec {
            key,
            size_bytes,
            start,
            max_rate_bps: None,
            cc_enabled: true,
        }
    }
}

/// Simulation-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    pub switch: SwitchConfig,
    /// Seed for all stochastic decisions (ECN marking); identical seeds
    /// reproduce identical runs.
    pub seed: u64,
    /// Control-plane fault injection; [`FaultPlan::none()`] (the default)
    /// is bit-for-bit identical to a run without fault injection.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            switch: SwitchConfig::default(),
            seed: 1,
            faults: FaultPlan::none(),
        }
    }
}

// Both variants boxed: they live in one dense Vec and differ greatly in
// size (a host carries flow/agent state).
enum NodeState {
    Host(Box<HostState>),
    Switch(Box<SwitchState>),
}

/// A deterministic discrete-event simulation of an RDMA network with PFC.
pub struct Simulator<H: SwitchHook> {
    topo: Topology,
    nodes: Vec<NodeState>,
    queue: EventQueue,
    /// The monitoring system under test (Hawkeye or a baseline).
    pub hook: H,
    /// Probes mirrored to switch CPUs (drives telemetry collection).
    pub cpu_log: Vec<CpuNotification>,
    flows: Vec<FlowSpec>,
    faults: FaultInjector,
    started: bool,
}

impl<H: SwitchHook> Simulator<H> {
    pub fn new(topo: Topology, cfg: SimConfig, hook: H) -> Self {
        let mut nodes = Vec::with_capacity(topo.node_count());
        for i in 0..topo.node_count() as u32 {
            let id = NodeId(i);
            match topo.kind(id) {
                NodeKind::Host => nodes.push(NodeState::Host(Box::new(HostState::new(id)))),
                NodeKind::Switch => nodes.push(NodeState::Switch(Box::new(SwitchState::new(
                    id,
                    topo.ports(id).len(),
                    cfg.switch,
                    cfg.seed,
                )))),
            }
        }
        Simulator {
            topo,
            nodes,
            queue: EventQueue::new(),
            hook,
            cpu_log: Vec::new(),
            flows: Vec::new(),
            faults: FaultInjector::new(cfg.faults),
            started: false,
        }
    }

    /// The fault plan this simulation runs under.
    pub fn fault_plan(&self) -> FaultPlan {
        self.faults.plan
    }

    /// Probe-path faults injected so far (upload-path faults are counted
    /// by the collector, which owns its own stream).
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.stats
    }

    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    pub fn now(&self) -> Nanos {
        self.queue.now()
    }

    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Test-only: choose how ports file `PortTxDone` (before running).
    #[cfg(test)]
    pub(crate) fn set_tx_filing(&mut self, filing: crate::event::TxFiling) {
        self.queue.tx_filing = filing;
    }

    /// Register a flow; must be called before the simulation starts.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!(!self.started, "flows must be added before running");
        assert!(self.topo.is_host(spec.key.src) && self.topo.is_host(spec.key.dst));
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(spec);
        match &mut self.nodes[spec.key.src.index()] {
            NodeState::Host(h) => h.add_flow(id, spec),
            NodeState::Switch(_) => unreachable!("flow source must be a host"),
        }
        id
    }

    /// Every registered flow; flow `id` is at index `id`.
    pub fn flows(&self) -> &[FlowSpec] {
        &self.flows
    }

    /// Enable the detection agent on every host.
    pub fn enable_agents(&mut self, agent: AgentConfig) {
        for n in &mut self.nodes {
            if let NodeState::Host(h) = n {
                h.set_agent(agent);
            }
        }
    }

    /// Configure one host as a PFC injector (buggy NIC / slow receiver).
    pub fn set_pfc_injector(&mut self, host: NodeId, inj: PfcInjectorConfig) {
        match &mut self.nodes[host.index()] {
            NodeState::Host(h) => h.set_injector(inj),
            NodeState::Switch(_) => unreachable!(
                "invariant: injector targets come from GroundTruth.injection_host, \
                 which the scenario builder only assigns host ids ({host} is a switch)"
            ),
        }
    }

    pub fn host(&self, id: NodeId) -> &HostState {
        match &self.nodes[id.index()] {
            NodeState::Host(h) => h,
            NodeState::Switch(_) => unreachable!(
                "invariant: callers resolve host ids via Topology::hosts(); {id} is a switch"
            ),
        }
    }

    pub fn switch(&self, id: NodeId) -> &SwitchState {
        match &self.nodes[id.index()] {
            NodeState::Switch(s) => s,
            NodeState::Host(_) => unreachable!(
                "invariant: callers resolve switch ids via Topology::switches(); {id} is a host"
            ),
        }
    }

    /// All anomaly detections reported by host agents so far.
    pub fn detections(&self) -> Vec<Detection> {
        let mut out = Vec::new();
        for n in &self.nodes {
            if let NodeState::Host(h) = n {
                out.extend_from_slice(&h.detections);
            }
        }
        out.sort_by_key(|d| (d.at, d.flow));
        out
    }

    fn bootstrap(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for n in &mut self.nodes {
            if let NodeState::Host(h) = n {
                h.bootstrap(&mut self.queue);
            }
        }
    }

    /// Run until the event queue empties or simulated time exceeds `until`.
    /// Returns the number of events processed by this call. A run stopped by
    /// the horizon ends with the clock *at* `until`, whichever event fired
    /// last before it; a drained queue leaves the clock at its last event.
    pub fn run_until(&mut self, until: Nanos) -> u64 {
        self.bootstrap();
        let before = self.queue.processed();
        while let Some(t) = self.queue.peek_time() {
            if t > until {
                self.queue.advance_to(until);
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            self.dispatch(now, ev);
        }
        self.queue.processed() - before
    }

    fn dispatch(&mut self, now: Nanos, ev: EventKind) {
        match ev {
            EventKind::Arrive { node, port, packet } => {
                // Copy the frame out of the pool, recycling its slot before
                // the handler can schedule the next hop into it.
                let pkt = self.queue.take_packet(packet);
                match &mut self.nodes[node.index()] {
                    NodeState::Switch(sw) => {
                        // Probe-path fault injection: only polling packets
                        // arriving at switches are eligible, and the
                        // injector is consulted only under an active plan.
                        if self.faults.probes_active() && matches!(pkt, Packet::Probe(_)) {
                            match self.faults.probe_arrival() {
                                ProbeFate::Deliver => {}
                                ProbeFate::Drop => return,
                                ProbeFate::Delay(d) => {
                                    self.queue.schedule_arrive(now + d, node, port, pkt);
                                    return;
                                }
                                ProbeFate::Duplicate(d) => {
                                    self.queue.schedule_arrive(now + d, node, port, pkt);
                                }
                            }
                        }
                        // A dead switch CPU loses any probe mirrored to it
                        // this arrival (the data-plane forwarding of the
                        // probe is unaffected).
                        let cpu_dead = self.faults.plan.cpu_down(now);
                        let log_mark = self.cpu_log.len();
                        sw.handle_arrive(
                            port,
                            pkt,
                            now,
                            &mut self.queue,
                            &self.topo,
                            &mut self.hook,
                            &mut self.cpu_log,
                        );
                        if cpu_dead && self.cpu_log.len() > log_mark {
                            self.faults.stats.cpu_down_drops +=
                                (self.cpu_log.len() - log_mark) as u64;
                            self.cpu_log.truncate(log_mark);
                        }
                    }
                    NodeState::Host(h) => h.handle_arrive(pkt, now, &mut self.queue, &self.topo),
                }
            }
            // A frame's end and a kick are the same question to the port:
            // `now` is past the frame on the wire, is there something to send?
            EventKind::PortTxDone { node, port } | EventKind::PortKick { node, port } => {
                match &mut self.nodes[node.index()] {
                    NodeState::Switch(sw) => sw.try_tx(port, now, &mut self.queue, &self.topo),
                    NodeState::Host(h) => h.try_tx(now, &mut self.queue, &self.topo),
                }
            }
            EventKind::FlowStart { node, flow_idx } => {
                if let NodeState::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_flow_start(flow_idx, now, &mut self.queue, &self.topo);
                }
            }
            EventKind::FlowReady { node, flow_idx } => {
                if let NodeState::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_flow_ready(flow_idx, now, &mut self.queue, &self.topo);
                }
            }
            EventKind::DcqcnAlpha { node, flow_idx } => {
                if let NodeState::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_dcqcn_alpha(flow_idx, now, &mut self.queue);
                }
            }
            EventKind::DcqcnIncrease { node, flow_idx } => {
                if let NodeState::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_dcqcn_increase(flow_idx, now, &mut self.queue);
                }
            }
            EventKind::PfcRefresh { node, port } => {
                if let NodeState::Switch(sw) = &mut self.nodes[node.index()] {
                    sw.handle_pfc_refresh(port, now, &mut self.queue, &self.topo);
                }
            }
            EventKind::HostPfcInject { node } => {
                if let NodeState::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_pfc_inject(now, &mut self.queue, &self.topo);
                }
            }
            EventKind::AgentCheck { node } => {
                if let NodeState::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_agent_check(now, &mut self.queue, &self.topo);
                }
            }
            EventKind::ProbeRetry {
                node,
                flow_idx,
                attempt,
            } => {
                if let NodeState::Host(h) = &mut self.nodes[node.index()] {
                    h.handle_probe_retry(flow_idx, attempt, now, &mut self.queue, &self.topo);
                }
            }
        }
    }

    /// Fraction of registered flows that completed.
    pub fn completion_ratio(&self) -> f64 {
        if self.flows.is_empty() {
            return 1.0;
        }
        let done = self
            .nodes
            .iter()
            .filter_map(|n| match n {
                NodeState::Host(h) => Some(h.flows().iter().filter(|f| f.is_done()).count()),
                NodeState::Switch(_) => None,
            })
            .sum::<usize>();
        done as f64 / self.flows.len() as f64
    }

    /// Sum of a per-switch statistic over all switches.
    pub fn sum_switch_stats(&self, f: impl Fn(&crate::switch::SwitchStats) -> u64) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                NodeState::Switch(s) => Some(f(&s.stats)),
                NodeState::Host(_) => None,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHook;
    use crate::packet::DATA_PKT_SIZE;
    use crate::topology::{dumbbell, EVAL_BANDWIDTH, EVAL_DELAY};

    fn two_host_sim() -> Simulator<NullHook> {
        let topo = dumbbell(2, 2, EVAL_BANDWIDTH, EVAL_DELAY);
        Simulator::new(topo, SimConfig::default(), NullHook)
    }

    #[test]
    fn single_flow_completes_with_expected_fct() {
        let mut sim = two_host_sim();
        let hosts: Vec<_> = sim.topo().hosts().collect();
        let key = FlowKey::roce(hosts[0], hosts[2], 11);
        let id = sim.add_flow(FlowSpec::new(key, 1_000_000, Nanos::ZERO));
        sim.run_until(Nanos::from_millis(10));
        let hf = sim.host(hosts[0]).flow_by_id(id).unwrap();
        assert!(hf.is_done(), "flow should finish");
        let fct = hf.fct().unwrap();
        // 1 MB at 100 Gbps is 80 us serialization + ~3 hops of delay; FCT
        // must be close to that and certainly below 2x.
        assert!(fct >= Nanos::from_micros(80), "fct {fct}");
        assert!(fct < Nanos::from_micros(160), "fct {fct}");
    }

    #[test]
    fn incast_triggers_pfc_toward_senders() {
        // Both left hosts blast one right host at line rate: the shared
        // egress at swR congests; swR's ingress from swL fills; PFC frames
        // flow back. 4 MB each ensures Xoff (100 KB) is crossed.
        let mut sim = two_host_sim();
        let hosts: Vec<_> = sim.topo().hosts().collect();
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[0], hosts[2], 1),
            4_000_000,
            Nanos::ZERO,
        ));
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[1], hosts[2], 2),
            4_000_000,
            Nanos::ZERO,
        ));
        sim.run_until(Nanos::from_millis(5));
        let pauses = sim.sum_switch_stats(|s| s.pfc_pause_sent);
        assert!(pauses > 0, "incast must trigger PFC");
        assert_eq!(sim.sum_switch_stats(|s| s.drops_buffer), 0, "lossless");
        assert!(sim.completion_ratio() == 1.0);
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut sim = two_host_sim();
            let hosts: Vec<_> = sim.topo().hosts().collect();
            sim.add_flow(FlowSpec::new(
                FlowKey::roce(hosts[0], hosts[2], 1),
                2_000_000,
                Nanos::ZERO,
            ));
            sim.add_flow(FlowSpec::new(
                FlowKey::roce(hosts[1], hosts[2], 2),
                2_000_000,
                Nanos(5_000),
            ));
            sim.add_flow(FlowSpec::new(
                FlowKey::roce(hosts[3], hosts[1], 3),
                500_000,
                Nanos(2_000),
            ));
            sim.run_until(Nanos::from_millis(5));
            let mut sig = Vec::new();
            for (i, f) in sim.flows().iter().enumerate() {
                let id = FlowId(i as u32);
                let hf = sim.host(f.key.src).flow_by_id(id).unwrap();
                sig.push((id, hf.completed_at));
            }
            (
                sig,
                sim.events_processed(),
                sim.sum_switch_stats(|s| s.data_pkts),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ecn_generates_cnps_and_slows_senders() {
        let mut sim = two_host_sim();
        let hosts: Vec<_> = sim.topo().hosts().collect();
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[0], hosts[2], 1),
            8_000_000,
            Nanos::ZERO,
        ));
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[1], hosts[2], 2),
            8_000_000,
            Nanos::ZERO,
        ));
        sim.run_until(Nanos::from_millis(5));
        let cnps: u64 = hosts.iter().map(|&h| sim.host(h).stats.cnps_rcvd).sum();
        assert!(cnps > 0, "sustained 2:1 incast must ECN-mark and CNP");
        // DCQCN must have cut below line rate at some point; final rates
        // may have recovered, so check CNP receipt plus lossless delivery.
        assert_eq!(sim.sum_switch_stats(|s| s.drops_buffer), 0);
    }

    #[test]
    fn agent_detects_congested_flow() {
        let mut sim = two_host_sim();
        let hosts: Vec<_> = sim.topo().hosts().collect();
        sim.enable_agents(AgentConfig {
            rtt_threshold_factor: 3.0,
            base_rtt: Nanos::from_micros(15),
            check_interval: Nanos::from_micros(100),
            dedup_interval: Nanos::from_millis(1),
            retry: false,
        });
        // Heavy incast: the victim flow's packets queue behind PFC.
        for (i, &src) in [hosts[0], hosts[1], hosts[3]].iter().enumerate() {
            sim.add_flow(FlowSpec::new(
                FlowKey::roce(src, hosts[2], i as u16),
                4_000_000,
                Nanos::ZERO,
            ));
        }
        sim.run_until(Nanos::from_millis(5));
        assert!(
            !sim.detections().is_empty(),
            "sustained incast should trip the RTT threshold"
        );
    }

    #[test]
    fn pfc_injector_blocks_victims_network_wide() {
        let mut sim = two_host_sim();
        let hosts: Vec<_> = sim.topo().hosts().collect();
        // hosts[2] (right side) injects PFC continuously.
        sim.set_pfc_injector(
            hosts[2],
            PfcInjectorConfig {
                start: Nanos::from_micros(10),
                stop: Nanos::from_millis(4),
                period: Nanos::from_micros(100),
            },
        );
        // A flow toward the *other* right host shares swR ingress.
        let id = sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[0], hosts[2], 1),
            2_000_000,
            Nanos::ZERO,
        ));
        sim.run_until(Nanos::from_millis(3));
        let hf = sim.host(hosts[0]).flow_by_id(id).unwrap();
        assert!(
            !hf.is_done(),
            "flow to the injecting host must be stalled by the storm"
        );
        // The ToR's egress toward the injector is paused.
        let swr = sim.topo().switches().nth(1).unwrap();
        let port_to_injector = (0..sim.topo().ports(swr).len() as u8)
            .find(|&p| sim.topo().peer(crate::ids::PortId::new(swr, p)).node == hosts[2])
            .unwrap();
        assert!(sim.switch(swr).egress_paused(port_to_injector, sim.now()));
    }

    /// The run's clock ends at the horizon, not at whichever event fired
    /// last before it. Two runs that differ only in a trailing no-op event —
    /// the eager filing pops the `PortTxDone` of a frame nothing queues
    /// behind, 84 ns after the last event the lazy run pops — report the
    /// same `now()` and so the same `goodput_bps`.
    #[test]
    fn horizon_stop_leaves_the_clock_at_the_horizon() {
        use crate::event::TxFiling;
        use crate::summary::RunSummary;
        let run = |filing| {
            let mut sim = two_host_sim();
            sim.set_tx_filing(filing);
            let hosts: Vec<_> = sim.topo().hosts().collect();
            // One flow delivers; a one-packet flow then starts 1 µs before
            // the horizon, so its frame is on the wire (ends at +84 ns,
            // arrives at +2084 ns) when the run stops.
            sim.add_flow(FlowSpec::new(
                FlowKey::roce(hosts[0], hosts[2], 1),
                200_000,
                Nanos::ZERO,
            ));
            sim.add_flow(FlowSpec::new(
                FlowKey::roce(hosts[1], hosts[3], 2),
                1_000,
                Nanos::from_micros(100),
            ));
            let events = sim.run_until(Nanos::from_micros(101));
            (sim.now(), RunSummary::of(&sim), events)
        };
        let (eager_now, eager, eager_events) = run(TxFiling::Eager);
        let (lazy_now, lazy, lazy_events) = run(TxFiling::Lazy);
        assert!(lazy_events < eager_events);
        assert_eq!(eager_now, Nanos::from_micros(101));
        assert_eq!(lazy_now, Nanos::from_micros(101));
        assert!(eager.goodput_bps > 0.0);
        assert_eq!(eager, lazy);

        // A drained queue keeps its last event's time.
        let mut sim = two_host_sim();
        let hosts: Vec<_> = sim.topo().hosts().collect();
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[0], hosts[2], 1),
            10_000,
            Nanos::ZERO,
        ));
        sim.run_until(Nanos::from_millis(5));
        assert!(sim.now() < Nanos::from_millis(1), "now {}", sim.now());
    }

    #[test]
    fn flow_registry_accessors() {
        let mut sim = two_host_sim();
        let hosts: Vec<_> = sim.topo().hosts().collect();
        let key = FlowKey::roce(hosts[0], hosts[2], 11);
        let spec = FlowSpec::new(key, DATA_PKT_SIZE as u64, Nanos(500));
        let id = sim.add_flow(spec);
        assert_eq!(sim.flows().len(), 1);
        assert_eq!(sim.flows()[id.index()], spec);
    }
}
