//! RDMA host (NIC + application) model.
//!
//! The sender side paces each flow at its DCQCN rate and honors PFC pause on
//! its uplink; the receiver side generates ACKs (echoing send timestamps for
//! RTT measurement) and DCQCN CNPs for ECN-marked arrivals. A host may also
//! run the Hawkeye *detection agent* (§3.4): it watches per-flow RTT — both
//! measured from ACKs and implied by stalled in-flight packets — and injects
//! a polling packet when the RTT crosses the configured threshold.
//!
//! Fault model: a host can be configured as a *PFC injector* (buggy NIC /
//! slow receiver, §2.1), continuously sending PAUSE frames to its ToR.
//!
//! The uplink's transmit state is a [`PortTx`], as on a switch port: the
//! `PortTxDone` of a frame is filed only when a control frame or a ready
//! flow waits behind it, by whichever [`HostState::try_tx`] call finds the
//! uplink busy.

use crate::dcqcn::{Dcqcn, ALPHA_TIMER, INCREASE_TIMER};
use crate::event::{EventKind, EventQueue, PortTx};
use crate::ids::{FlowId, FlowKey, NodeId};
use crate::packet::{
    AckPacket, CnpPacket, DataPacket, Packet, PfcFrame, Probe, CLASS_DATA, DATA_PAYLOAD,
    DATA_PKT_SIZE,
};
use crate::sim::FlowSpec;
use crate::time::Nanos;
use crate::topology::Topology;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative hasher for a host's `FlowId` maps, looked up on every ACK,
/// CNP and data arrival. The keys are dense ids the simulator hands out, so
/// SipHash's collision resistance buys nothing, and nothing iterates the
/// maps, whose order `RandomState` already made differ from run to run.
#[derive(Default)]
struct FlowIdHasher(u64);

impl Hasher for FlowIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(v)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type FlowIdMap<V> = HashMap<FlowId, V, BuildHasherDefault<FlowIdHasher>>;

/// Detection-agent configuration (per host).
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// Anomaly threshold as a multiple of `base_rtt` (the paper sweeps
    /// 200%–500%, i.e. 2.0–5.0).
    pub rtt_threshold_factor: f64,
    /// The network's reference (maximum unloaded) RTT.
    pub base_rtt: Nanos,
    /// How often stalled-flow checks run.
    pub check_interval: Nanos,
    /// Minimum spacing between polling packets for the same flow (§3.4:
    /// duplicate-detection suppression).
    pub dedup_interval: Nanos,
    /// Probe timeout + bounded exponential-backoff re-poll: polling packets
    /// ride the (lossy, congested) data plane, so a detection whose probe
    /// is lost would otherwise never be diagnosed. `false` disables
    /// re-polling; the fault-free pipeline is unchanged.
    pub retry: bool,
}

// The re-poll ladder after a detection: attempt `k` (1-based) fires
// `RETRY_TIMEOUT * RETRY_BACKOFF^(k-1)` after the previous probe, while the
// flow still looks anomalous, up to `RETRY_MAX_ATTEMPTS` re-polls and never
// past `RETRY_DEADLINE` from the triggering detection.

/// Re-polls after the initial probe.
const RETRY_MAX_ATTEMPTS: u32 = 3;
/// Wait before the first re-poll.
const RETRY_TIMEOUT: Nanos = Nanos::from_micros(100);
/// Backoff multiplier between consecutive re-polls.
const RETRY_BACKOFF: u64 = 2;
/// Hard bound on the whole ladder, measured from the detection.
const RETRY_DEADLINE: Nanos = Nanos::from_millis(1);

impl AgentConfig {
    pub fn threshold(&self) -> Nanos {
        Nanos((self.base_rtt.as_nanos() as f64 * self.rtt_threshold_factor) as u64)
    }
}

/// Continuous host PFC injection fault (PFC storm root cause).
#[derive(Debug, Clone, Copy)]
pub struct PfcInjectorConfig {
    pub start: Nanos,
    pub stop: Nanos,
    /// PAUSE re-send period; below the quanta expiry keeps the link
    /// continuously dead.
    pub period: Nanos,
}

/// Minimum gap between CNPs per flow (DCQCN notification point).
const CNP_INTERVAL: Nanos = Nanos::from_micros(50);

/// An anomaly detection produced by the agent (the trigger for diagnosis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    pub flow: FlowId,
    pub key: FlowKey,
    pub at: Nanos,
    pub observed_rtt: Nanos,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowState {
    Pending,
    Active,
    Done,
}

/// Sender-side state of one flow.
#[derive(Debug)]
pub struct HostFlow {
    pub id: FlowId,
    pub spec: FlowSpec,
    total_pkts: u64,
    next_seq: u64,
    acked_pkts: u64,
    state: FlowState,
    dcqcn: Dcqcn,
    timers_running: bool,
    outstanding: VecDeque<(u64, Nanos)>,
    pub last_rtt: Nanos,
    pub completed_at: Option<Nanos>,
    last_probe_at: Nanos,
    /// Detection time anchoring the current re-poll ladder.
    retry_anchor: Nanos,
}

impl HostFlow {
    pub fn fct(&self) -> Option<Nanos> {
        self.completed_at.map(|c| c.saturating_sub(self.spec.start))
    }
    pub fn is_done(&self) -> bool {
        self.state == FlowState::Done
    }
}

#[derive(Debug, Default)]
struct RecvState {
    next_cnp_ok: Nanos,
    rx_pkts: u64,
}

/// Aggregate per-host counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    pub data_sent: u64,
    pub data_rcvd: u64,
    pub acks_sent: u64,
    pub cnps_sent: u64,
    pub cnps_rcvd: u64,
    pub pfc_pause_rcvd: u64,
    pub pfc_injected: u64,
    pub probes_sent: u64,
    /// Probes re-sent by the timeout/backoff ladder (subset of
    /// `probes_sent`).
    pub probes_retried: u64,
}

/// Runtime state of one host.
#[derive(Debug)]
pub struct HostState {
    pub id: NodeId,
    agent: Option<AgentConfig>,
    pfc_injector: Option<PfcInjectorConfig>,
    flows: Vec<HostFlow>,
    by_flow_id: FlowIdMap<u32>,
    recv: FlowIdMap<RecvState>,
    ready: VecDeque<u32>,
    ctrl: VecDeque<Packet>,
    /// The frame on the uplink, if any, and its lazy `PortTxDone`.
    tx: PortTx,
    pause_until: Nanos,
    pub stats: HostStats,
    pub detections: Vec<Detection>,
}

impl HostState {
    pub fn new(id: NodeId) -> Self {
        HostState {
            id,
            agent: None,
            pfc_injector: None,
            flows: Vec::new(),
            by_flow_id: FlowIdMap::default(),
            recv: FlowIdMap::default(),
            ready: VecDeque::new(),
            ctrl: VecDeque::new(),
            tx: PortTx::default(),
            pause_until: Nanos::ZERO,
            stats: HostStats::default(),
            detections: Vec::new(),
        }
    }

    /// Register flow `id` sourced at this host. Called during simulation
    /// setup.
    pub fn add_flow(&mut self, id: FlowId, spec: FlowSpec) {
        self.by_flow_id.insert(id, self.flows.len() as u32);
        let total_pkts = spec.size_bytes.div_ceil(DATA_PAYLOAD as u64).max(1);
        self.flows.push(HostFlow {
            id,
            spec,
            total_pkts,
            next_seq: 0,
            acked_pkts: 0,
            state: FlowState::Pending,
            dcqcn: Dcqcn::default(),
            timers_running: false,
            outstanding: VecDeque::new(),
            last_rtt: Nanos::ZERO,
            completed_at: None,
            last_probe_at: Nanos::ZERO,
            retry_anchor: Nanos::ZERO,
        });
    }

    pub fn flows(&self) -> &[HostFlow] {
        &self.flows
    }

    /// Enable the detection agent (before the simulation runs).
    pub fn set_agent(&mut self, agent: AgentConfig) {
        self.agent = Some(agent);
    }

    /// Configure the PFC-injection fault (before the simulation runs).
    pub fn set_injector(&mut self, inj: PfcInjectorConfig) {
        self.pfc_injector = Some(inj);
    }

    pub fn flow_by_id(&self, id: FlowId) -> Option<&HostFlow> {
        self.by_flow_id.get(&id).map(|&i| &self.flows[i as usize])
    }

    /// Set up the initial events for this host (flow starts, injector,
    /// agent checks). Called once by the simulator.
    pub fn bootstrap(&mut self, q: &mut EventQueue) {
        for (idx, f) in self.flows.iter().enumerate() {
            q.schedule(
                f.spec.start,
                EventKind::FlowStart {
                    node: self.id,
                    flow_idx: idx as u32,
                },
            );
        }
        if let Some(inj) = self.pfc_injector {
            q.schedule(inj.start, EventKind::HostPfcInject { node: self.id });
        }
        if let Some(agent) = self.agent {
            if !self.flows.is_empty() {
                q.schedule(
                    agent.check_interval,
                    EventKind::AgentCheck { node: self.id },
                );
            }
        }
    }

    pub fn handle_flow_start(
        &mut self,
        flow_idx: u32,
        now: Nanos,
        q: &mut EventQueue,
        topo: &Topology,
    ) {
        let f = &mut self.flows[flow_idx as usize];
        debug_assert_eq!(f.state, FlowState::Pending);
        f.state = FlowState::Active;
        self.ready.push_back(flow_idx);
        self.try_tx(now, q, topo);
    }

    /// Pacing timer fired: the flow may transmit its next packet.
    pub fn handle_flow_ready(
        &mut self,
        flow_idx: u32,
        now: Nanos,
        q: &mut EventQueue,
        topo: &Topology,
    ) {
        let f = &self.flows[flow_idx as usize];
        if f.state != FlowState::Active || f.next_seq >= f.total_pkts {
            return;
        }
        self.ready.push_back(flow_idx);
        self.try_tx(now, q, topo);
    }

    /// Try to start transmitting on the host uplink. Every enqueue, resume,
    /// kick and pacing timer comes through here, so a call that finds the
    /// uplink busy makes sure its `PortTxDone` is filed.
    pub fn try_tx(&mut self, now: Nanos, q: &mut EventQueue, topo: &Topology) {
        let done = EventKind::PortTxDone {
            node: self.id,
            port: 0,
        };
        if self.tx.busy(now, q) {
            self.tx.wake_at_end(done, q);
            return;
        }
        let info = *topo.port(crate::ids::PortId::new(self.id, 0));
        let pkt: Packet = if let Some(p) = self.ctrl.pop_front() {
            p
        } else if self.pause_until <= now {
            loop {
                let Some(idx) = self.ready.pop_front() else {
                    return;
                };
                let f = &mut self.flows[idx as usize];
                if f.state != FlowState::Active || f.next_seq >= f.total_pkts {
                    continue;
                }
                let seq = f.next_seq;
                f.next_seq += 1;
                let last = f.next_seq == f.total_pkts;
                let size = if last {
                    let rem = f.spec.size_bytes - (f.total_pkts - 1) * DATA_PAYLOAD as u64;
                    (rem.max(1) as u32) + (DATA_PKT_SIZE - DATA_PAYLOAD)
                } else {
                    DATA_PKT_SIZE
                };
                f.outstanding.push_back((seq, now));
                f.dcqcn.on_bytes_sent(size as u64);
                // Schedule the next packet of this flow per its paced rate.
                if !last {
                    let rate = match f.spec.max_rate_bps {
                        Some(cap) => crate::units::Rate(f.dcqcn.rate().0.min(cap)),
                        None => f.dcqcn.rate(),
                    };
                    let gap = rate.pacing_delay(size);
                    if gap < Nanos::MAX {
                        q.schedule_in(
                            gap,
                            EventKind::FlowReady {
                                node: self.id,
                                flow_idx: idx,
                            },
                        );
                    }
                }
                self.stats.data_sent += 1;
                break Packet::Data(DataPacket {
                    flow: f.id,
                    key: f.spec.key,
                    seq,
                    size,
                    ecn_ce: false,
                    sent_at: now,
                    last,
                });
            }
        } else {
            return;
        };

        let tx = info.bandwidth.tx_time(pkt.size());
        let backlog = !self.ctrl.is_empty() || !self.ready.is_empty();
        self.tx.start(now + tx, backlog, done, q);
        q.schedule_arrive(now + tx + info.delay, info.peer.node, info.peer.port, pkt);
    }

    /// A frame arrived on the host's uplink.
    pub fn handle_arrive(&mut self, pkt: Packet, now: Nanos, q: &mut EventQueue, topo: &Topology) {
        match pkt {
            Packet::Data(d) => self.on_data_rx(d, now, q, topo),
            Packet::Ack(a) => self.on_ack_rx(a, now, q, topo),
            Packet::Cnp(c) => self.on_cnp_rx(c, now, q),
            Packet::Pfc(f) => self.on_pfc_rx(f, now, q, topo),
            Packet::Probe(_) => {
                // Polling packets terminating at a host are consumed; the
                // causality analysis already mirrored telemetry upstream.
            }
        }
    }

    fn on_data_rx(&mut self, d: DataPacket, now: Nanos, q: &mut EventQueue, topo: &Topology) {
        self.stats.data_rcvd += 1;
        let rs = self.recv.entry(d.flow).or_default();
        rs.rx_pkts += 1;
        // ACK every packet (RoCEv2 RC-style acknowledgment cadence is
        // coarser in practice, but per-packet ACKs give the agent dense RTT
        // samples, matching the PCC data-path RTT probes of §3.6).
        let ack_key = reverse_key(&d.key);
        self.ctrl.push_back(Packet::Ack(AckPacket {
            flow: d.flow,
            key: ack_key,
            seq: d.seq,
            echo_sent_at: d.sent_at,
            last: d.last,
        }));
        self.stats.acks_sent += 1;
        if d.ecn_ce && now >= rs.next_cnp_ok {
            self.recv.get_mut(&d.flow).unwrap().next_cnp_ok = now + CNP_INTERVAL;
            self.ctrl.push_back(Packet::Cnp(CnpPacket {
                flow: d.flow,
                key: ack_key,
            }));
            self.stats.cnps_sent += 1;
        }
        self.try_tx(now, q, topo);
    }

    fn on_ack_rx(&mut self, a: AckPacket, now: Nanos, q: &mut EventQueue, topo: &Topology) {
        let Some(&idx) = self.by_flow_id.get(&a.flow) else {
            return;
        };
        let f = &mut self.flows[idx as usize];
        f.acked_pkts += 1;
        while let Some(&(seq, _)) = f.outstanding.front() {
            if seq <= a.seq {
                f.outstanding.pop_front();
            } else {
                break;
            }
        }
        f.last_rtt = now.saturating_sub(a.echo_sent_at);
        if a.last && f.completed_at.is_none() {
            f.completed_at = Some(now);
            f.state = FlowState::Done;
        }
        // Agent: RTT-sample-driven anomaly detection.
        let rtt = f.last_rtt;
        self.maybe_detect(idx, rtt, now, q, topo);
    }

    fn on_cnp_rx(&mut self, c: CnpPacket, now: Nanos, q: &mut EventQueue) {
        self.stats.cnps_rcvd += 1;
        let Some(&idx) = self.by_flow_id.get(&c.flow) else {
            return;
        };
        let f = &mut self.flows[idx as usize];
        if !f.spec.cc_enabled {
            return;
        }
        f.dcqcn.on_cnp();
        if !f.timers_running {
            f.timers_running = true;
            q.schedule(
                now + ALPHA_TIMER,
                EventKind::DcqcnAlpha {
                    node: self.id,
                    flow_idx: idx,
                },
            );
            q.schedule(
                now + INCREASE_TIMER,
                EventKind::DcqcnIncrease {
                    node: self.id,
                    flow_idx: idx,
                },
            );
        }
    }

    fn on_pfc_rx(&mut self, f: PfcFrame, now: Nanos, q: &mut EventQueue, topo: &Topology) {
        if f.class != CLASS_DATA {
            return;
        }
        if f.is_pause() {
            self.stats.pfc_pause_rcvd += 1;
            let info = topo.port(crate::ids::PortId::new(self.id, 0));
            let dur = crate::units::quanta_to_pause_time(f.quanta, info.bandwidth);
            self.pause_until = now + dur;
            q.schedule(
                now + dur,
                EventKind::PortKick {
                    node: self.id,
                    port: 0,
                },
            );
        } else {
            self.pause_until = now;
            self.try_tx(now, q, topo);
        }
    }

    pub fn handle_dcqcn_alpha(&mut self, flow_idx: u32, now: Nanos, q: &mut EventQueue) {
        let f = &mut self.flows[flow_idx as usize];
        if f.state == FlowState::Done {
            f.timers_running = false;
            return;
        }
        f.dcqcn.on_alpha_timer();
        q.schedule(
            now + ALPHA_TIMER,
            EventKind::DcqcnAlpha {
                node: self.id,
                flow_idx,
            },
        );
    }

    pub fn handle_dcqcn_increase(&mut self, flow_idx: u32, now: Nanos, q: &mut EventQueue) {
        let f = &mut self.flows[flow_idx as usize];
        if f.state == FlowState::Done {
            return;
        }
        f.dcqcn.on_increase_timer();
        q.schedule(
            now + INCREASE_TIMER,
            EventKind::DcqcnIncrease {
                node: self.id,
                flow_idx,
            },
        );
    }

    /// Faulty-host PFC injection tick.
    pub fn handle_pfc_inject(&mut self, now: Nanos, q: &mut EventQueue, topo: &Topology) {
        let Some(inj) = self.pfc_injector else {
            return;
        };
        if now >= inj.stop {
            // Let the pause expire naturally; send no RESUME (a buggy NIC
            // would not be so polite; expiry models the watchdog effect).
            return;
        }
        self.stats.pfc_injected += 1;
        self.ctrl
            .push_back(Packet::Pfc(PfcFrame::pause(CLASS_DATA)));
        q.schedule(now + inj.period, EventKind::HostPfcInject { node: self.id });
        self.try_tx(now, q, topo);
    }

    /// Periodic stalled-flow scan: a deadlocked flow stops producing ACKs,
    /// so the agent must infer RTT from the oldest unacknowledged packet.
    pub fn handle_agent_check(&mut self, now: Nanos, q: &mut EventQueue, topo: &Topology) {
        let Some(agent) = self.agent else {
            return;
        };
        for idx in 0..self.flows.len() as u32 {
            let f = &self.flows[idx as usize];
            if f.state != FlowState::Active {
                continue;
            }
            if let Some(&(_, sent_at)) = f.outstanding.front() {
                let implied = now.saturating_sub(sent_at);
                self.maybe_detect(idx, implied, now, q, topo);
            }
        }
        let any_active = self.flows.iter().any(|f| f.state != FlowState::Done);
        if any_active {
            q.schedule(
                now + agent.check_interval,
                EventKind::AgentCheck { node: self.id },
            );
        }
    }

    fn maybe_detect(
        &mut self,
        idx: u32,
        rtt: Nanos,
        now: Nanos,
        q: &mut EventQueue,
        topo: &Topology,
    ) {
        let Some(agent) = self.agent else {
            return;
        };
        if rtt < agent.threshold() {
            return;
        }
        let f = &mut self.flows[idx as usize];
        if f.last_probe_at != Nanos::ZERO
            && now.saturating_sub(f.last_probe_at) < agent.dedup_interval
        {
            return;
        }
        f.last_probe_at = now;
        self.detections.push(Detection {
            flow: f.id,
            key: f.spec.key,
            at: now,
            observed_rtt: rtt,
        });
        self.stats.probes_sent += 1;
        let key = f.spec.key;
        if agent.retry {
            self.flows[idx as usize].retry_anchor = now;
            q.schedule(
                now + RETRY_TIMEOUT,
                EventKind::ProbeRetry {
                    node: self.id,
                    flow_idx: idx,
                    attempt: 1,
                },
            );
        }
        self.ctrl.push_back(Packet::Probe(Probe::new(key)));
        self.try_tx(now, q, topo);
    }

    /// A re-poll timer fired: if the flow still looks anomalous (measured
    /// or implied RTT over threshold), send another polling packet and arm
    /// the next rung of the backoff ladder.
    pub fn handle_probe_retry(
        &mut self,
        flow_idx: u32,
        attempt: u32,
        now: Nanos,
        q: &mut EventQueue,
        topo: &Topology,
    ) {
        let Some(agent) = self.agent.filter(|a| a.retry) else {
            return;
        };
        let f = &self.flows[flow_idx as usize];
        if f.state != FlowState::Active {
            return;
        }
        let implied = f
            .outstanding
            .front()
            .map(|&(_, sent_at)| now.saturating_sub(sent_at))
            .unwrap_or(Nanos::ZERO);
        if f.last_rtt.max(implied) < agent.threshold() {
            return; // anomaly cleared; stop re-polling
        }
        let f = &mut self.flows[flow_idx as usize];
        f.last_probe_at = now;
        let key = f.spec.key;
        let anchor = f.retry_anchor;
        self.stats.probes_sent += 1;
        self.stats.probes_retried += 1;
        self.ctrl.push_back(Packet::Probe(Probe::new(key)));
        if attempt < RETRY_MAX_ATTEMPTS {
            let delay = Nanos(
                RETRY_TIMEOUT
                    .0
                    .saturating_mul(RETRY_BACKOFF.saturating_pow(attempt)),
            );
            if (now + delay).saturating_sub(anchor) <= RETRY_DEADLINE {
                q.schedule(
                    now + delay,
                    EventKind::ProbeRetry {
                        node: self.id,
                        flow_idx,
                        attempt: attempt + 1,
                    },
                );
            }
        }
        self.try_tx(now, q, topo);
    }
}

/// The 5-tuple of reverse-direction control traffic for a flow.
pub fn reverse_key(k: &FlowKey) -> FlowKey {
    FlowKey {
        src: k.dst,
        dst: k.src,
        src_port: k.dst_port,
        dst_port: k.src_port,
        proto: k.proto,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{dumbbell, EVAL_BANDWIDTH, EVAL_DELAY};

    fn setup() -> (Topology, HostState, EventQueue) {
        let topo = dumbbell(1, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let h0 = topo.hosts().next().unwrap();
        let host = HostState::new(h0);
        (topo, host, EventQueue::new())
    }

    #[test]
    fn flow_paces_at_line_rate() {
        let (topo, mut host, mut q) = setup();
        let hosts: Vec<_> = topo.hosts().collect();
        let key = FlowKey::roce(hosts[0], hosts[1], 1);
        host.add_flow(FlowId(0), FlowSpec::new(key, 10_000, Nanos::ZERO));
        host.bootstrap(&mut q);
        let mut sent = 0;
        while let Some((t, ev)) = q.pop() {
            match ev {
                EventKind::FlowStart { flow_idx, .. } => {
                    host.handle_flow_start(flow_idx, t, &mut q, &topo)
                }
                EventKind::FlowReady { flow_idx, .. } => {
                    host.handle_flow_ready(flow_idx, t, &mut q, &topo)
                }
                EventKind::PortTxDone { .. } => host.try_tx(t, &mut q, &topo),
                EventKind::Arrive { packet, .. } if q.packet(packet).is_data() => sent += 1,
                _ => {}
            }
        }
        // 10_000 B = 10 packets of 1000 B payload.
        assert_eq!(sent, 10);
        assert_eq!(host.stats.data_sent, 10);
    }

    #[test]
    fn pfc_pause_stops_data_but_not_ctrl() {
        let (topo, mut host, mut q) = setup();
        let hosts: Vec<_> = topo.hosts().collect();
        let key = FlowKey::roce(hosts[0], hosts[1], 1);
        host.add_flow(FlowId(0), FlowSpec::new(key, 100_000, Nanos::ZERO));
        host.bootstrap(&mut q);
        // Pause the host port before the flow starts.
        host.handle_arrive(
            Packet::Pfc(PfcFrame::pause(CLASS_DATA)),
            Nanos::ZERO,
            &mut q,
            &topo,
        );
        // Run for a short window; data must not leave while paused.
        let mut data_arrivals = 0;
        while let Some((t, ev)) = q.pop() {
            if t > Nanos::from_micros(50) {
                break;
            }
            match ev {
                EventKind::FlowStart { flow_idx, .. } => {
                    host.handle_flow_start(flow_idx, t, &mut q, &topo)
                }
                EventKind::FlowReady { flow_idx, .. } => {
                    host.handle_flow_ready(flow_idx, t, &mut q, &topo)
                }
                EventKind::PortTxDone { .. } => host.try_tx(t, &mut q, &topo),
                EventKind::PortKick { .. } => host.try_tx(t, &mut q, &topo),
                EventKind::Arrive { packet, .. } if q.packet(packet).is_data() => {
                    data_arrivals += 1
                }
                _ => {}
            }
        }
        assert_eq!(data_arrivals, 0, "paused host must not emit data");
    }

    #[test]
    fn receiver_acks_and_cnps() {
        let (topo, mut host, mut q) = setup();
        let hosts: Vec<_> = topo.hosts().collect();
        // host is hosts[0]; packet from hosts[1] arrives here.
        let key = FlowKey::roce(hosts[1], hosts[0], 5);
        let d = DataPacket {
            flow: FlowId(9),
            key,
            seq: 0,
            size: DATA_PKT_SIZE,
            ecn_ce: true,
            sent_at: Nanos(100),
            last: false,
        };
        host.handle_arrive(Packet::Data(d), Nanos(1000), &mut q, &topo);
        assert_eq!(host.stats.acks_sent, 1);
        assert_eq!(host.stats.cnps_sent, 1);
        // Second ECN-marked packet within the CNP window: no second CNP.
        let d2 = DataPacket { seq: 1, ..d };
        host.handle_arrive(Packet::Data(d2), Nanos(2000), &mut q, &topo);
        assert_eq!(host.stats.acks_sent, 2);
        assert_eq!(host.stats.cnps_sent, 1, "CNPs rate-limited per flow");
    }

    #[test]
    fn agent_detects_high_rtt_and_dedups() {
        let (topo, mut host, mut q) = setup();
        let hosts: Vec<_> = topo.hosts().collect();
        let key = FlowKey::roce(hosts[0], hosts[1], 1);
        host.agent = Some(AgentConfig {
            rtt_threshold_factor: 2.0,
            base_rtt: Nanos::from_micros(10),
            check_interval: Nanos::from_micros(100),
            dedup_interval: Nanos::from_millis(1),
            retry: false,
        });
        host.add_flow(FlowId(0), FlowSpec::new(key, 1_000_000, Nanos::ZERO));
        // Simulate an ACK with a 50 µs RTT (threshold is 20 µs).
        host.flows[0].state = FlowState::Active;
        host.flows[0].outstanding.push_back((0, Nanos::ZERO));
        let ack = AckPacket {
            flow: FlowId(0),
            key: reverse_key(&key),
            seq: 0,
            echo_sent_at: Nanos::ZERO,
            last: false,
        };
        host.handle_arrive(Packet::Ack(ack), Nanos::from_micros(50), &mut q, &topo);
        assert_eq!(host.detections.len(), 1);
        assert_eq!(host.detections[0].observed_rtt, Nanos::from_micros(50));
        // A second slow ACK inside the dedup window does not re-trigger.
        host.flows[0].outstanding.push_back((1, Nanos::ZERO));
        let ack2 = AckPacket { seq: 1, ..ack };
        host.handle_arrive(Packet::Ack(ack2), Nanos::from_micros(120), &mut q, &topo);
        assert_eq!(host.detections.len(), 1, "deduped within interval");
    }

    #[test]
    fn stalled_flow_detected_via_agent_check() {
        let (topo, mut host, mut q) = setup();
        let hosts: Vec<_> = topo.hosts().collect();
        let key = FlowKey::roce(hosts[0], hosts[1], 1);
        host.agent = Some(AgentConfig {
            rtt_threshold_factor: 3.0,
            base_rtt: Nanos::from_micros(10),
            check_interval: Nanos::from_micros(100),
            dedup_interval: Nanos::from_millis(1),
            retry: false,
        });
        host.add_flow(FlowId(0), FlowSpec::new(key, 1_000_000, Nanos::ZERO));
        host.flows[0].state = FlowState::Active;
        // A packet has been in flight for 500 µs with no ACK (deadlock-like).
        host.flows[0].outstanding.push_back((0, Nanos::ZERO));
        host.handle_agent_check(Nanos::from_micros(500), &mut q, &topo);
        assert_eq!(host.detections.len(), 1);
    }

    #[test]
    fn injector_emits_pauses_periodically() {
        let (topo, mut host, mut q) = setup();
        host.pfc_injector = Some(PfcInjectorConfig {
            start: Nanos::ZERO,
            stop: Nanos::from_micros(500),
            period: Nanos::from_micros(100),
        });
        host.bootstrap(&mut q);
        let mut pauses = 0;
        while let Some((t, ev)) = q.pop() {
            match ev {
                EventKind::HostPfcInject { .. } => host.handle_pfc_inject(t, &mut q, &topo),
                EventKind::PortTxDone { .. } => host.try_tx(t, &mut q, &topo),
                EventKind::Arrive { packet, .. } => {
                    if matches!(q.packet(packet), Packet::Pfc(f) if f.is_pause()) {
                        pauses += 1;
                    }
                }
                _ => {}
            }
        }
        assert_eq!(pauses, 5, "one pause per period in [0,500)us");
        assert_eq!(host.stats.pfc_injected, 5);
    }

    fn retry_agent() -> AgentConfig {
        AgentConfig {
            rtt_threshold_factor: 2.0,
            base_rtt: Nanos::from_micros(10),
            check_interval: Nanos::from_micros(100),
            dedup_interval: Nanos::from_millis(10),
            retry: true,
        }
    }

    fn drive_retries(host: &mut HostState, q: &mut EventQueue, topo: &Topology) {
        while let Some((t, ev)) = q.pop() {
            match ev {
                EventKind::ProbeRetry {
                    flow_idx, attempt, ..
                } => host.handle_probe_retry(flow_idx, attempt, t, q, topo),
                EventKind::PortTxDone { .. } => host.try_tx(t, q, topo),
                _ => {}
            }
        }
    }

    #[test]
    fn probe_retry_ladder_repolls_while_anomalous() {
        let (topo, mut host, mut q) = setup();
        let hosts: Vec<_> = topo.hosts().collect();
        let key = FlowKey::roce(hosts[0], hosts[1], 1);
        host.agent = Some(retry_agent());
        host.add_flow(FlowId(0), FlowSpec::new(key, 1_000_000, Nanos::ZERO));
        host.flows[0].state = FlowState::Active;
        host.flows[0].outstanding.push_back((0, Nanos::ZERO));
        // A 50 µs RTT (threshold 20 µs) triggers detection + probe; the
        // RTT never improves, so every rung of the ladder re-polls.
        let ack = AckPacket {
            flow: FlowId(0),
            key: reverse_key(&key),
            seq: 0,
            echo_sent_at: Nanos::ZERO,
            last: false,
        };
        host.handle_arrive(Packet::Ack(ack), Nanos::from_micros(50), &mut q, &topo);
        assert_eq!(host.detections.len(), 1);
        drive_retries(&mut host, &mut q, &topo);
        assert_eq!(host.stats.probes_retried, 3, "full ladder while anomalous");
        assert_eq!(host.stats.probes_sent, 4, "initial probe + 3 re-polls");
        assert_eq!(host.detections.len(), 1, "re-polls are not new detections");
    }

    #[test]
    fn probe_retry_stops_when_anomaly_clears() {
        let (topo, mut host, mut q) = setup();
        let hosts: Vec<_> = topo.hosts().collect();
        let key = FlowKey::roce(hosts[0], hosts[1], 1);
        host.agent = Some(retry_agent());
        host.add_flow(FlowId(0), FlowSpec::new(key, 1_000_000, Nanos::ZERO));
        host.flows[0].state = FlowState::Active;
        host.flows[0].outstanding.push_back((0, Nanos::ZERO));
        let ack = AckPacket {
            flow: FlowId(0),
            key: reverse_key(&key),
            seq: 0,
            echo_sent_at: Nanos::ZERO,
            last: false,
        };
        host.handle_arrive(Packet::Ack(ack), Nanos::from_micros(50), &mut q, &topo);
        assert_eq!(host.detections.len(), 1);
        // The congestion clears: a fresh fast ACK before the first re-poll.
        let ack2 = AckPacket {
            seq: 1,
            echo_sent_at: Nanos::from_micros(54),
            ..ack
        };
        host.handle_arrive(Packet::Ack(ack2), Nanos::from_micros(59), &mut q, &topo);
        drive_retries(&mut host, &mut q, &topo);
        assert_eq!(host.stats.probes_retried, 0, "ladder stops once healthy");
    }

    #[test]
    fn reverse_key_round_trips() {
        let k = FlowKey::roce(NodeId(3), NodeId(7), 123);
        assert_eq!(reverse_key(&reverse_key(&k)), k);
        assert_eq!(reverse_key(&k).src, k.dst);
    }
}
