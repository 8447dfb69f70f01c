//! The in-switch Hawkeye program: telemetry updates plus line-rate polling
//! packet forwarding with PFC causality analysis (Fig. 6).
//!
//! One [`HawkeyeHook`] instance instruments every switch in a simulation
//! (state is per-switch internally), implementing `hawkeye_sim::SwitchHook`.

use crate::collector::Collector;
use hawkeye_sim::{
    EnqueueRecord, FaultPlan, FlowKey, Nanos, NodeId, PfcEvent, PollingFlags, Probe, ProbeDecision,
    SwitchHook, SwitchView, Topology,
};
use hawkeye_telemetry::{SwitchTelemetry, TelemetryConfig};
use std::collections::{BTreeMap, HashMap};

/// How much of the paper's tracing the switches perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracingPolicy {
    /// Full Hawkeye: trace the victim path and escalate onto PFC spreading
    /// paths via the causality meter.
    Hawkeye,
    /// The "victim-only" baseline (§4.2): polling packets follow the victim
    /// path but the PFC bit is never set, so spreading paths are not
    /// traced.
    VictimOnly,
}

/// Hook configuration.
#[derive(Debug, Clone, Copy)]
pub struct HawkeyeConfig {
    pub telemetry: TelemetryConfig,
    pub policy: TracingPolicy,
    /// The "full polling" baseline (§4.2): every CPU mirror collects the
    /// telemetry of EVERY switch in the network, not just the mirroring
    /// one.
    pub full_polling: bool,
    /// Upload-path fault injection, applied by the collector. Pass the same
    /// plan the simulator runs under; [`FaultPlan::none()`] (default) is a
    /// no-op.
    pub faults: FaultPlan,
}

impl Default for HawkeyeConfig {
    fn default() -> Self {
        HawkeyeConfig {
            telemetry: TelemetryConfig::default(),
            policy: TracingPolicy::Hawkeye,
            full_polling: false,
            faults: FaultPlan::none(),
        }
    }
}

/// Per-switch, per-victim polling dedup interval (§3.4: "HAWKEYE drops
/// polling packets with the same 5-tuple within a certain time interval").
/// Also what terminates probe circulation in a deadlock loop.
const PROBE_DEDUP: Nanos = Nanos::from_micros(400);

/// Aggregate hook counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HookStats {
    pub probes_received: u64,
    pub probes_deduped: u64,
    pub probes_emitted: u64,
    pub cpu_mirrors: u64,
}

/// One switch's share of the hook state.
struct SwitchSlot {
    tele: SwitchTelemetry,
    /// When this switch last forwarded a polling packet for each victim.
    dedup: HashMap<FlowKey, Nanos>,
}

/// Network-wide Hawkeye instrumentation.
pub struct HawkeyeHook {
    cfg: HawkeyeConfig,
    /// Indexed by `NodeId`; `None` at host ids. The per-packet callbacks
    /// find their switch with one bounds-checked index.
    switches: Vec<Option<SwitchSlot>>,
    /// Controller-side collection, performed at mirror time (the registers
    /// are read while the anomaly's epochs are still in the ring).
    pub collector: Collector,
    pub stats: HookStats,
}

impl HawkeyeHook {
    /// Instrument every switch of `topo`.
    pub fn new(topo: &Topology, cfg: HawkeyeConfig) -> Self {
        let switches = (0..topo.node_count() as u32)
            .map(NodeId)
            .map(|n| {
                (!topo.is_host(n)).then(|| SwitchSlot {
                    tele: SwitchTelemetry::new(n, topo.ports(n).len(), cfg.telemetry),
                    dedup: HashMap::new(),
                })
            })
            .collect();
        HawkeyeHook {
            cfg,
            switches,
            collector: Collector::new(cfg.faults),
            stats: HookStats::default(),
        }
    }

    pub fn config(&self) -> &HawkeyeConfig {
        &self.cfg
    }

    /// The telemetry state of one switch (for controller collection).
    pub fn telemetry(&self, sw: NodeId) -> Option<&SwitchTelemetry> {
        Some(&self.switches.get(sw.index())?.as_ref()?.tele)
    }
}

/// The slot of switch `sw` (a free function over the field, so callers keep
/// the hook's other fields borrowable).
fn slot_mut(switches: &mut [Option<SwitchSlot>], sw: NodeId) -> Option<&mut SwitchSlot> {
    switches.get_mut(sw.index())?.as_mut()
}

impl SwitchHook for HawkeyeHook {
    fn on_data_enqueue(&mut self, rec: &EnqueueRecord) {
        if let Some(s) = slot_mut(&mut self.switches, rec.switch) {
            s.tele.on_enqueue(rec);
        }
    }

    fn on_pfc_frame(&mut self, ev: &PfcEvent) {
        if let Some(s) = slot_mut(&mut self.switches, ev.switch) {
            s.tele.on_pfc(ev);
        }
    }

    fn on_probe(
        &mut self,
        switch: NodeId,
        in_port: u8,
        probe: Probe,
        view: &SwitchView<'_>,
        now: Nanos,
    ) -> ProbeDecision {
        self.stats.probes_received += 1;
        if probe.flags.is_useless() || probe.ttl == 0 {
            return ProbeDecision::default();
        }
        let Some(slot) = slot_mut(&mut self.switches, switch) else {
            return ProbeDecision::default();
        };
        // Per-victim dedup: drop repeats within the interval (this is also
        // what stops probes circulating a deadlock loop forever).
        if let Some(&last) = slot.dedup.get(&probe.victim) {
            if now.saturating_sub(last) < PROBE_DEDUP {
                self.stats.probes_deduped += 1;
                return ProbeDecision::default();
            }
        }
        slot.dedup.insert(probe.victim, now);
        let tele = &slot.tele;

        // Merge multiple reasons to emit on one port by OR-ing flags.
        let mut emits: BTreeMap<u8, PollingFlags> = BTreeMap::new();

        if probe.flags.traces_victim_path() {
            if let Some(out) = view.route_port(&probe.victim) {
                let victim_paused = tele.flow_paused_count(&probe.victim, now) > 0;
                let mut flags = PollingFlags::VICTIM_PATH;
                if victim_paused && self.cfg.policy == TracingPolicy::Hawkeye {
                    // Notify the downstream switch (the pauser) to analyze
                    // its PFC causality.
                    flags = flags.with_pfc();
                }
                if !view.is_host_facing(out) {
                    let e = emits.entry(out).or_insert(PollingFlags::USELESS);
                    *e = PollingFlags(e.0 | flags.0);
                }
                // Host-facing egress: the victim path ends here. If the
                // port was pausing the victim, the pauser is the host
                // itself (injection) — a terminal case; this switch's
                // telemetry (mirrored below) carries the evidence.
            }
        }

        if probe.flags.traces_pfc() && self.cfg.policy == TracingPolicy::Hawkeye {
            // PFC causality analysis: the upstream complained via
            // `in_port`'s link; causal egresses are those fed by that
            // ingress (meter > 0) that are themselves PFC-paused. Paused
            // host-facing egresses terminate at a host injector; unpaused
            // congested egresses mean the initial congestion is right
            // here. Both are terminals: no further emission.
            for (out, _bytes) in tele.causal_out_ports(in_port, now) {
                if out == in_port || view.is_host_facing(out) {
                    continue;
                }
                if tele.port_paused_count(out, now) > 0 {
                    let e = emits.entry(out).or_insert(PollingFlags::USELESS);
                    *e = PollingFlags(e.0 | PollingFlags::PFC_TRACE.0);
                }
            }
        }

        let emit: Vec<(u8, Probe)> = emits
            .into_iter()
            .map(|(port, flags)| {
                (
                    port,
                    Probe {
                        victim: probe.victim,
                        flags,
                        ttl: probe.ttl - 1,
                    },
                )
            })
            .collect();
        self.stats.probes_emitted += emit.len() as u64;
        self.stats.cpu_mirrors += 1;
        // Asynchronous controller collection, modeled at mirror time.
        if self.cfg.full_polling {
            for s in self.switches.iter().flatten() {
                self.collector
                    .offer(s.tele.switch(), now, probe.victim, &s.tele);
            }
        } else {
            self.collector.offer(switch, now, probe.victim, tele);
        }
        ProbeDecision {
            emit,
            // Every switch receiving a polling packet notifies its CPU to
            // collect telemetry asynchronously (§3.4).
            mirror_to_cpu: true,
        }
    }
}
