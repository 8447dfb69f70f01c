//! [`ObservedHook`]: a transparent observability decorator over any
//! [`SwitchHook`].
//!
//! Wraps the real monitoring policy (Hawkeye's hook, a baseline, or
//! [`NullHook`](crate::hooks::NullHook)) and records structured trace events
//! and metrics into a [`hawkeye_obs::Recorder`] *without changing any
//! decision the inner hook makes* — probes forward identically, telemetry
//! registers see the same updates. With `enabled == false` every callback
//! is the inner call plus one predictable branch, so an instrumented build
//! pays nothing when observability is off.

use crate::hooks::{EnqueueRecord, PfcEvent, ProbeDecision, SwitchHook, SwitchView};
use crate::host::Detection;
use crate::ids::NodeId;
use crate::packet::Probe;
use crate::sim::Simulator;
use crate::time::Nanos;
use hawkeye_obs::{kind, MetricKey, MetricsRegistry, ObsConfig, Recorder, TraceEvent};

/// See module docs.
#[derive(Debug)]
pub struct ObservedHook<H: SwitchHook> {
    inner: H,
    pub obs: Recorder,
}

impl<H: SwitchHook> ObservedHook<H> {
    /// Wrap `inner`, recording into a fresh [`Recorder`] per `cfg`.
    pub fn new(inner: H, cfg: ObsConfig) -> Self {
        ObservedHook {
            inner,
            obs: Recorder::new(cfg),
        }
    }

    /// Wrap `inner` with observability off: the passthrough cost baseline.
    pub fn disabled(inner: H) -> Self {
        ObservedHook {
            inner,
            obs: Recorder::disabled(),
        }
    }

    pub fn inner(&self) -> &H {
        &self.inner
    }
}

impl<H: SwitchHook> SwitchHook for ObservedHook<H> {
    #[inline]
    fn on_data_enqueue(&mut self, rec: &EnqueueRecord) {
        if self.obs.enabled {
            if self.obs.tracer.wants(kind::ENQUEUE) {
                self.obs.tracer.record(
                    rec.timestamp.as_nanos(),
                    TraceEvent::Enqueue {
                        switch: rec.switch.0,
                        in_port: rec.in_port,
                        out_port: rec.out_port,
                        flow: rec.flow.0,
                        size: rec.size,
                        qdepth_pkts: rec.qdepth_pkts,
                        qdepth_bytes: rec.qdepth_bytes,
                        paused: rec.egress_paused,
                    },
                );
            }
            let m = &mut self.obs.metrics;
            m.inc(MetricKey::at_port(
                "enqueue_pkts",
                rec.switch.0,
                rec.out_port,
            ));
            m.observe(
                MetricKey::at_switch("enqueue_qdepth_bytes", rec.switch.0),
                rec.qdepth_bytes,
            );
        }
        self.inner.on_data_enqueue(rec);
    }

    #[inline]
    fn on_pfc_frame(&mut self, ev: &PfcEvent) {
        if self.obs.enabled {
            self.obs.tracer.record(
                ev.now.as_nanos(),
                if ev.pause {
                    TraceEvent::PfcPause {
                        switch: ev.switch.0,
                        port: ev.port,
                        class: ev.class,
                        pause_ns: ev.pause_time.as_nanos(),
                    }
                } else {
                    TraceEvent::PfcResume {
                        switch: ev.switch.0,
                        port: ev.port,
                        class: ev.class,
                    }
                },
            );
            let name = if ev.pause {
                "pfc_pause_rx"
            } else {
                "pfc_resume_rx"
            };
            self.obs
                .metrics
                .inc(MetricKey::at_port(name, ev.switch.0, ev.port));
        }
        self.inner.on_pfc_frame(ev);
    }

    #[inline]
    fn on_probe(
        &mut self,
        switch: NodeId,
        in_port: u8,
        probe: Probe,
        view: &SwitchView<'_>,
        now: Nanos,
    ) -> ProbeDecision {
        let decision = self.inner.on_probe(switch, in_port, probe, view, now);
        if self.obs.enabled {
            self.obs.tracer.record(
                now.as_nanos(),
                TraceEvent::ProbeHop {
                    switch: switch.0,
                    in_port,
                    victim_src: probe.victim.src.0,
                    victim_dst: probe.victim.dst.0,
                    victim_sport: probe.victim.src_port,
                    flags: probe.flags.0,
                    ttl: probe.ttl,
                    emitted: decision.emit.len() as u32,
                    mirrored: decision.mirror_to_cpu,
                },
            );
            let m = &mut self.obs.metrics;
            m.inc(MetricKey::at_switch("probe_hops", switch.0));
            m.add(
                MetricKey::at_switch("probe_copies_emitted", switch.0),
                decision.emit.len() as u64,
            );
            if decision.mirror_to_cpu {
                m.inc(MetricKey::at_switch("probe_cpu_mirrors", switch.0));
                self.obs.tracer.record(
                    now.as_nanos(),
                    TraceEvent::CpuMirror {
                        switch: switch.0,
                        victim_src: probe.victim.src.0,
                        victim_dst: probe.victim.dst.0,
                        victim_sport: probe.victim.src_port,
                    },
                );
            }
        }
        decision
    }
}

/// Append the run's end-host victim detections to a recorder's trace (the
/// hook never sees detections — they happen in host agents — so the
/// harness adds them after `run_until`).
pub fn trace_detections(obs: &mut Recorder, detections: &[Detection]) {
    for d in detections {
        obs.trace(
            d.at.as_nanos(),
            TraceEvent::Detection {
                victim_src: d.key.src.0,
                victim_dst: d.key.dst.0,
                victim_sport: d.key.src_port,
                rtt_ns: d.observed_rtt.as_nanos(),
            },
        );
    }
}

/// Emit a [`TraceEvent::DropWarning`] for every switch that dropped packets
/// it should not have. Buffer drops on a PFC-enabled fabric and routing
/// misses are both anomalies worth flagging loudly: a lossless fabric that
/// drops has already violated its core invariant, and diagnosis quality
/// degrades silently when the victim's packets never reached the victim.
pub fn trace_drop_warnings<H: SwitchHook>(sim: &Simulator<H>, obs: &mut Recorder) {
    let now = sim.now().as_nanos();
    for sw in sim.topo().switches() {
        let st = &sim.switch(sw).stats;
        if st.drops_buffer > 0 {
            obs.trace(
                now,
                TraceEvent::DropWarning {
                    switch: sw.0,
                    what: "buffer".to_string(),
                    count: st.drops_buffer,
                },
            );
        }
        if st.drops_no_route > 0 {
            obs.trace(
                now,
                TraceEvent::DropWarning {
                    switch: sw.0,
                    what: "no_route".to_string(),
                    count: st.drops_no_route,
                },
            );
        }
    }
}

/// Fold the simulator's per-switch and per-host hardware counters into a
/// metrics registry. This is the single source of truth the run summary
/// and eval outcomes read back from.
pub fn record_sim_metrics<H: SwitchHook>(sim: &Simulator<H>, reg: &mut MetricsRegistry) {
    for sw in sim.topo().switches() {
        let st = &sim.switch(sw).stats;
        let id = sw.0;
        reg.add(MetricKey::at_switch("switch_data_pkts", id), st.data_pkts);
        reg.add(MetricKey::at_switch("switch_data_bytes", id), st.data_bytes);
        reg.add(MetricKey::at_switch("switch_ctrl_pkts", id), st.ctrl_pkts);
        reg.add(
            MetricKey::at_switch("pfc_pause_sent", id),
            st.pfc_pause_sent,
        );
        reg.add(
            MetricKey::at_switch("pfc_resume_sent", id),
            st.pfc_resume_sent,
        );
        reg.add(
            MetricKey::at_switch("pfc_pause_recv", id),
            st.pfc_pause_recv,
        );
        reg.add(MetricKey::at_switch("probes_seen", id), st.probes_seen);
        reg.add(
            MetricKey::at_switch("probes_emitted", id),
            st.probes_emitted,
        );
        reg.add(
            MetricKey::at_switch("drops_no_route", id),
            st.drops_no_route,
        );
        reg.add(MetricKey::at_switch("drops_buffer", id), st.drops_buffer);
    }
    for h in sim.topo().hosts() {
        let st = &sim.host(h).stats;
        let id = h.0;
        reg.add(MetricKey::at_switch("host_data_sent", id), st.data_sent);
        reg.add(MetricKey::at_switch("host_data_rcvd", id), st.data_rcvd);
        reg.add(MetricKey::at_switch("host_cnps_sent", id), st.cnps_sent);
        reg.add(
            MetricKey::at_switch("host_pfc_pause_rcvd", id),
            st.pfc_pause_rcvd,
        );
        reg.add(
            MetricKey::at_switch("host_pfc_injected", id),
            st.pfc_injected,
        );
        reg.add(MetricKey::at_switch("host_probes_sent", id), st.probes_sent);
    }
    reg.add(
        MetricKey::global("events_processed"),
        sim.events_processed(),
    );
    reg.add(
        MetricKey::global("detections"),
        sim.detections().len() as u64,
    );
    // Fault-injection counters are folded only when something actually
    // happened: creating a zero-valued key would perturb the registry
    // snapshot of every fault-free run.
    if !sim.fault_plan().is_none() {
        reg.add(
            MetricKey::global("faults_injected"),
            sim.fault_stats().total_injected(),
        );
    }
    let retried: u64 = sim
        .topo()
        .hosts()
        .map(|h| sim.host(h).stats.probes_retried)
        .sum();
    if retried > 0 {
        reg.add(MetricKey::global("probes_retried"), retried);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHook;
    use crate::ids::FlowKey;
    use crate::sim::{FlowSpec, SimConfig};
    use crate::topology::{dumbbell, EVAL_BANDWIDTH, EVAL_DELAY};

    fn run_with<H: SwitchHook>(hook: H) -> Simulator<H> {
        let topo = dumbbell(2, 2, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = topo.hosts().collect();
        let mut sim = Simulator::new(topo, SimConfig::default(), hook);
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[0], hosts[2], 1),
            500_000,
            Nanos::ZERO,
        ));
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[1], hosts[3], 2),
            500_000,
            Nanos::ZERO,
        ));
        sim.run_until(Nanos::from_millis(4));
        sim
    }

    #[test]
    fn observed_null_hook_changes_nothing() {
        let base = run_with(NullHook);
        let wrapped = run_with(ObservedHook::new(
            NullHook,
            hawkeye_obs::ObsConfig::default(),
        ));
        assert_eq!(base.events_processed(), wrapped.events_processed());
        assert_eq!(
            crate::summary::RunSummary::of(&base),
            crate::summary::RunSummary::of(&wrapped)
        );
    }

    #[test]
    fn enqueues_are_traced_and_counted() {
        let sim = run_with(ObservedHook::new(
            NullHook,
            hawkeye_obs::ObsConfig::default(),
        ));
        let obs = &sim.hook.obs;
        assert!(obs.tracer.recorded() > 0);
        assert!(obs.metrics.counter_total("enqueue_pkts") > 0);
        // Dumbbell with ample buffers: no PFC expected in this light run,
        // but the data-path counters must reflect every enqueue the switch
        // performed.
        let mut reg = MetricsRegistry::new();
        record_sim_metrics(&sim, &mut reg);
        assert!(reg.counter_total("switch_data_pkts") >= obs.metrics.counter_total("enqueue_pkts"));
    }

    #[test]
    fn disabled_hook_records_nothing() {
        let sim = run_with(ObservedHook::disabled(NullHook));
        assert_eq!(sim.hook.obs.tracer.recorded(), 0);
        assert!(sim.hook.obs.metrics.snapshot().counters.is_empty());
    }
}
