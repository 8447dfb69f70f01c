//! Anomaly scenarios with ground truth (§4.1 "Workload").
//!
//! Each scenario is built on the paper's evaluation topology (fat-tree K=4,
//! 100 Gbps, 2 µs) with empirical background traffic, plus an injected
//! anomaly and the ground-truth record used for precision/recall scoring:
//!
//! - **Micro-burst incast**: synchronized bursts converge on one edge
//!   switch's host egress from three different ingress ports; PFC cascades
//!   to an inter-pod victim.
//! - **PFC storm**: a host NIC continuously injects PAUSE frames; a victim
//!   flow into that host stalls with no flow contention anywhere.
//! - **In-loop deadlock**: destination-based route overrides (the paper's
//!   "routing misconfiguration") create a cyclic buffer dependency around
//!   pod 0's {e0, a0, e1, a1}; a transient burst into the ring closes the
//!   cycle into a persistent deadlock.
//! - **Out-of-loop deadlock (contention/injection)**: the same CBD, but the
//!   initial congestion sits on a host egress outside the loop — caused by
//!   local flow contention or by host PFC injection.
//! - **Normal contention**: an incast whose PFC reaches only the culprit
//!   NICs, so no switch-to-switch spreading exists.

use crate::background::{self, BackgroundConfig};
use crate::topospec::TopologySpec;
use hawkeye_core::AnomalyType;
use hawkeye_sim::{
    AgentConfig, FatTreeNav, FaultPlan, FlowKey, FlowSpec, Nanos, NavError, NodeId,
    PfcInjectorConfig, PortId, SimConfig, Simulator, SwitchHook, Topology,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The anomaly classes a scenario can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    MicroBurstIncast,
    PfcStorm,
    InLoopDeadlock,
    OutOfLoopDeadlockContention,
    OutOfLoopDeadlockInjection,
    NormalContention,
}

impl ScenarioKind {
    pub const ALL: [ScenarioKind; 6] = [
        ScenarioKind::MicroBurstIncast,
        ScenarioKind::PfcStorm,
        ScenarioKind::InLoopDeadlock,
        ScenarioKind::OutOfLoopDeadlockContention,
        ScenarioKind::OutOfLoopDeadlockInjection,
        ScenarioKind::NormalContention,
    ];

    pub fn expected_anomaly(self) -> AnomalyType {
        match self {
            ScenarioKind::MicroBurstIncast => AnomalyType::MicroBurstIncast,
            ScenarioKind::PfcStorm => AnomalyType::PfcStorm,
            ScenarioKind::InLoopDeadlock => AnomalyType::InLoopDeadlock,
            ScenarioKind::OutOfLoopDeadlockContention => AnomalyType::OutOfLoopDeadlockContention,
            ScenarioKind::OutOfLoopDeadlockInjection => AnomalyType::OutOfLoopDeadlockInjection,
            ScenarioKind::NormalContention => AnomalyType::NormalContention,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ScenarioKind::MicroBurstIncast => "microburst-incast",
            ScenarioKind::PfcStorm => "pfc-storm",
            ScenarioKind::InLoopDeadlock => "in-loop-deadlock",
            ScenarioKind::OutOfLoopDeadlockContention => "out-of-loop-deadlock-contention",
            ScenarioKind::OutOfLoopDeadlockInjection => "out-of-loop-deadlock-injection",
            ScenarioKind::NormalContention => "normal-contention",
        }
    }

    /// Inverse of [`ScenarioKind::name`] (used by the corpus bank format).
    pub fn from_name(s: &str) -> Option<ScenarioKind> {
        ScenarioKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Why a scenario could not be built on a given topology. The fuzzer
/// depends on these being typed (not panics) so degenerate mutated
/// topologies are rejected and counted, never crash the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioBuildError {
    /// The spec's dimensions build no fabric, or a role or link the
    /// scenario scripts is not in it.
    Nav(NavError),
    /// A role the scenario scripts (pods/edges/hosts/cores) does not exist
    /// at these dimensions.
    TooSmall {
        what: &'static str,
        need: usize,
        have: usize,
    },
    /// No source port in the search window pins the flow onto the
    /// required path (ECMP never traverses the needed switches).
    NoPinnablePort { src: NodeId, dst: NodeId },
}

impl fmt::Display for ScenarioBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioBuildError::Nav(e) => write!(f, "topology navigation: {e}"),
            ScenarioBuildError::TooSmall { what, need, have } => {
                write!(f, "topology too small: need {need} {what}, have {have}")
            }
            ScenarioBuildError::NoPinnablePort { src, dst } => {
                write!(f, "no src port pins {src}->{dst} onto the required path")
            }
        }
    }
}

impl std::error::Error for ScenarioBuildError {}

impl From<NavError> for ScenarioBuildError {
    fn from(e: NavError) -> Self {
        ScenarioBuildError::Nav(e)
    }
}

/// What actually happened, for scoring diagnoses.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    pub anomaly: AnomalyType,
    /// Flows injected as the congestion culprits (empty for injections).
    pub culprit_flows: Vec<FlowKey>,
    /// The PFC-injecting host, for injection-rooted anomalies.
    pub injection_host: Option<NodeId>,
    /// The designated victim flow whose detection triggers diagnosis.
    pub victim: FlowKey,
    /// Switches causally relevant to the anomaly (victim path + PFC
    /// spreading path), for the Fig. 11 coverage experiment.
    pub causal_switches: Vec<NodeId>,
    /// When the anomaly is injected.
    pub anomaly_at: Nanos,
    /// Expected initial congestion port (for reporting).
    pub initial_port: Option<PortId>,
}

/// Scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioParams {
    pub seed: u64,
    /// Background load fraction (paper varies link load; 0 disables).
    pub load: f64,
    pub duration: Nanos,
    pub anomaly_at: Nanos,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        ScenarioParams {
            seed: 1,
            load: 0.2,
            duration: Nanos::from_millis(3),
            anomaly_at: Nanos::from_millis(1),
        }
    }
}

/// A fully specified experiment: topology + flows + faults + truth.
pub struct Scenario {
    pub kind: ScenarioKind,
    pub topo: Topology,
    /// The roles the fabric builder placed in `topo`.
    pub nav: FatTreeNav,
    pub flows: Vec<FlowSpec>,
    pub injectors: Vec<(NodeId, PfcInjectorConfig)>,
    pub truth: GroundTruth,
    pub params: ScenarioParams,
    /// Simulation configuration the scenario requires. Deadlock scenarios
    /// deepen the PFC Xoff/Xon hysteresis (and mark the CBD flows as
    /// CC-non-compliant): a cyclic buffer dependency only freezes into a
    /// deadlock when the end-to-end control loop loses the race against
    /// pause propagation, which is exactly the regime the paper's deadlock
    /// traces exercise. Normal-contention runs a PFC-less (traditional)
    /// fabric, the degenerate case §3.5.2 describes.
    pub sim_config: SimConfig,
}

impl Scenario {
    /// A simulator of this scenario — its topology, flows, injectors and
    /// `sim_config` — seeded with `seed`, faulted by `faults`, with the
    /// detection `agent` on every host and `hook` on every switch; the
    /// caller then calls `run_until(self.params.duration)`. A caller that
    /// varies the scenario (a switch setting, an injector's duration) edits
    /// `sim_config` or `injectors` first.
    pub fn instantiate_faulted<H: SwitchHook>(
        &self,
        seed: u64,
        agent: AgentConfig,
        hook: H,
        faults: FaultPlan,
    ) -> Simulator<H> {
        let cfg = SimConfig {
            seed,
            faults,
            ..self.sim_config
        };
        let mut sim = Simulator::new(self.topo.clone(), cfg, hook);
        sim.enable_agents(agent);
        for f in &self.flows {
            sim.add_flow(*f);
        }
        for (host, inj) in &self.injectors {
            sim.set_pfc_injector(*host, *inj);
        }
        sim
    }

    /// The reference detection-agent configuration for this topology
    /// (threshold factor per the paper's 200%-500% sweep).
    pub fn agent(threshold_factor: f64) -> AgentConfig {
        AgentConfig {
            rtt_threshold_factor: threshold_factor,
            // Maximum unloaded RTT of the K=4 fat-tree (5 hops each way).
            base_rtt: Nanos::from_micros(20),
            check_interval: Nanos::from_micros(50),
            dedup_interval: Nanos::from_millis(2),
            retry: false,
        }
    }
}

/// Find a source port in `base..base+4096` whose ECMP path traverses every
/// switch in `via`, so scenarios can pin flows onto specific paths without
/// route overrides. `None` when no port in the window pins the path —
/// possible on degraded or fuzzer-mutated topologies.
pub fn try_pick_src_port(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    via: &[NodeId],
    base: u16,
) -> Option<u16> {
    for sp in base..base.saturating_add(4096) {
        let key = FlowKey::roce(src, dst, sp);
        if let Some(path) = topo.flow_path(&key) {
            let nodes: Vec<NodeId> = path.iter().map(|(n, _, _)| *n).collect();
            if via.iter().all(|v| nodes.contains(v)) {
                return Some(sp);
            }
        }
    }
    None
}

/// [`try_pick_src_port`] with the typed error scenario builders bubble up.
fn pick(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    via: &[NodeId],
    base: u16,
) -> Result<u16, ScenarioBuildError> {
    try_pick_src_port(topo, src, dst, via, base)
        .ok_or(ScenarioBuildError::NoPinnablePort { src, dst })
}

/// Pin traffic for `dst` entering the fabric at `edge` so it descends
/// into the destination pod via aggregation index `agg_idx` — the
/// route-override pattern deadlock scenarios use to steer remote flows
/// into a cyclic buffer dependency.
///
/// Three-tier: overrides `edge → aggs[via_pod][agg_idx]` and
/// `aggs[via_pod][agg_idx] → cores[agg_idx*cores_per_group + core_slot]`;
/// the core then descends to the destination pod's agg `agg_idx` by
/// normal routing. Two-tier: overrides `edge → spine[agg_idx]` directly
/// (the spine IS the shared aggregation layer, no core hop exists).
fn pin_ingress_via_agg(
    topo: &mut Topology,
    nav: &FatTreeNav,
    edge: NodeId,
    dst: NodeId,
    via_pod: usize,
    agg_idx: usize,
    core_slot: usize,
) -> Result<(), NavError> {
    let pod_aggs = nav.aggs.get(via_pod).ok_or(NavError::RoleOutOfRange {
        role: "pod",
        index: via_pod,
        len: nav.aggs.len(),
    })?;
    let agg = *pod_aggs.get(agg_idx).ok_or(NavError::RoleOutOfRange {
        role: "agg",
        index: agg_idx,
        len: pod_aggs.len(),
    })?;
    let p = topo.egress(edge, agg)?.port;
    topo.add_route_override(edge, dst, p);
    if nav.is_three_tier() {
        let core_idx = agg_idx * nav.cores_per_group + core_slot;
        let core = *nav.cores.get(core_idx).ok_or(NavError::RoleOutOfRange {
            role: "core",
            index: core_idx,
            len: nav.cores.len(),
        })?;
        let p = topo.egress(agg, core)?.port;
        topo.add_route_override(agg, dst, p);
    }
    Ok(())
}

/// Build a scenario of the given kind on the paper's evaluation topology
/// (fat-tree K=4). Infallible there by construction.
pub fn build(kind: ScenarioKind, params: ScenarioParams) -> Scenario {
    build_on(&TopologySpec::EVAL, kind, params)
        .expect("k=4 fat-tree satisfies every scenario's role requirements")
}

/// Build a scenario of the given kind on an arbitrary Clos-family
/// topology. The same seed produces structurally equivalent scenarios on
/// any member: role indices are drawn from the topology's own dimensions
/// (identical to the historical literals at K=4), and every scripted role
/// is checked to exist before use.
pub fn build_on(
    spec: &TopologySpec,
    kind: ScenarioKind,
    params: ScenarioParams,
) -> Result<Scenario, ScenarioBuildError> {
    let (topo, nav) = spec.build()?;
    let (pods, epp, app, hpe) = nav.dims();
    for (what, need, have) in [
        ("pods", 4, pods),
        ("edges/pod", 2, epp),
        ("aggs/pod", 2, app),
        ("hosts/edge", 2, hpe),
    ] {
        if have < need {
            return Err(ScenarioBuildError::TooSmall { what, need, have });
        }
    }
    if nav.is_three_tier() && nav.cores_per_group < 2 {
        return Err(ScenarioBuildError::TooSmall {
            what: "cores/agg-group",
            need: 2,
            have: nav.cores_per_group,
        });
    }
    build_with_nav(topo, nav, kind, params)
}

fn build_with_nav(
    mut topo: Topology,
    nav: FatTreeNav,
    kind: ScenarioKind,
    params: ScenarioParams,
) -> Result<Scenario, ScenarioBuildError> {
    let (pods, epp, _, hpe) = nav.dims();
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5CE_A110);

    let mut flows = if params.load > 0.0 {
        background::generate(
            &topo,
            &BackgroundConfig {
                load: params.load,
                duration: params.duration,
            },
            params.seed,
        )
    } else {
        Vec::new()
    };
    let mut injectors = Vec::new();

    // Pod-0 cast of characters (see module docs).
    let e0 = nav.edges[0][0];
    let e1 = nav.edges[0][1];
    let a0 = nav.aggs[0][0];
    let a1 = nav.aggs[0][1];
    let h_t = nav.hosts[0][0][0]; // incast target on e0
    let h_l = nav.hosts[0][0][1]; // e0's other host
    let h2 = nav.hosts[0][1][0]; // e1's hosts
    let h3 = nav.hosts[0][1][1];
    let at = params.anomaly_at;

    // Pick a random remote pod host as the victim's source for variety.
    // Bounds derive from the topology's dimensions; at K=4 they equal the
    // historical literals (0..3, 0..2, 0..2), so existing seeds replay
    // byte-identically.
    let vic_pod = 1 + (rng.gen_range(0..pods - 1));
    let vic_src = nav.hosts[vic_pod][rng.gen_range(0..epp)][rng.gen_range(0..hpe)];

    let truth = match kind {
        ScenarioKind::MicroBurstIncast => {
            // Three bursts into h_t via three different e0 ingress ports:
            // local (h_l), via a0, via a1.
            let b_local = FlowKey::roce(h_l, h_t, 500);
            let src_a0 = h2;
            let src_a1 = h3;
            let sp_a0 = pick(&topo, src_a0, h_t, &[a0], 600)?;
            let sp_a1 = pick(&topo, src_a1, h_t, &[a1], 700)?;
            let b_via_a0 = FlowKey::roce(src_a0, h_t, sp_a0);
            let b_via_a1 = FlowKey::roce(src_a1, h_t, sp_a1);
            for b in [b_local, b_via_a0, b_via_a1] {
                flows.push(FlowSpec::new(b, 2_000_000, at));
            }
            // Victim: remote pod -> h_l, pinned through a0 (whose egress to
            // e0 gets paused by the burst backpressure). Moderately paced so
            // it does not squeeze the a0-side burst off the shared a0->e0
            // link.
            let sp_v = pick(&topo, vic_src, h_l, &[a0], 800)?;
            let victim = FlowKey::roce(vic_src, h_l, sp_v);
            flows.push(FlowSpec {
                max_rate_bps: Some(30e9),
                ..FlowSpec::new(victim, 40_000_000, Nanos::ZERO)
            });
            // Light mice into the incast target keep the replayed queue
            // asymmetric (the paper's congested ports always carry some
            // pass-through workload).
            let m_src = nav.hosts[vic_pod][0][0];
            let sp_m = pick(&topo, m_src, h_t, &[a0], 900)?;
            for i in 0..8u64 {
                flows.push(FlowSpec::new(
                    FlowKey::roce(m_src, h_t, sp_m + (i as u16) * 977),
                    64_000,
                    at + Nanos::from_micros(15 * i),
                ));
            }
            let vic_path: Vec<NodeId> = topo
                .flow_path(&victim)
                .unwrap()
                .iter()
                .map(|(n, _, _)| *n)
                .collect();
            let mut causal = vic_path;
            causal.push(e0);
            causal.sort_unstable();
            causal.dedup();
            GroundTruth {
                anomaly: AnomalyType::MicroBurstIncast,
                culprit_flows: vec![b_local, b_via_a0, b_via_a1],
                injection_host: None,
                victim,
                causal_switches: causal,
                anomaly_at: at,
                initial_port: Some(topo.egress(e0, h_t)?),
            }
        }

        ScenarioKind::PfcStorm => {
            // h_t's NIC floods PAUSE frames; the victim flows right into it.
            // The injection persists to the end of the trace: the agent
            // keeps re-detecting and diagnosis examines a live storm (the
            // paper notes storms "present different durations"; the
            // duration sweep is exercised by the storm example binary).
            injectors.push((
                h_t,
                PfcInjectorConfig {
                    start: at,
                    stop: params.duration,
                    period: Nanos::from_micros(100),
                },
            ));
            let sp_v = pick(&topo, vic_src, h_t, &[a0], 800)?;
            let victim = FlowKey::roce(vic_src, h_t, sp_v);
            flows.push(FlowSpec::new(victim, 40_000_000, Nanos::ZERO));
            let mut causal: Vec<NodeId> = topo
                .flow_path(&victim)
                .unwrap()
                .iter()
                .map(|(n, _, _)| *n)
                .collect();
            causal.sort_unstable();
            causal.dedup();
            GroundTruth {
                anomaly: AnomalyType::PfcStorm,
                culprit_flows: vec![],
                injection_host: Some(h_t),
                victim,
                causal_switches: causal,
                anomaly_at: at,
                initial_port: Some(topo.egress(e0, h_t)?),
            }
        }

        ScenarioKind::InLoopDeadlock
        | ScenarioKind::OutOfLoopDeadlockContention
        | ScenarioKind::OutOfLoopDeadlockInjection => {
            // --- Cyclic buffer dependency around e0 -> a0 -> e1 -> a1 -> e0.
            // Destination-based overrides ("routing misconfiguration"):
            //   dst h2: a1 -> e0, e0 -> a0   (a0 -> e1 -> h2 is normal)
            //   dst h1: a0 -> e1, e1 -> a1   (a1 -> e0 -> h1 is normal)
            let h1 = h_l;
            let p_a1_e0 = topo.egress(a1, e0)?.port;
            topo.add_route_override(a1, h2, p_a1_e0);
            let p_e0_a0 = topo.egress(e0, a0)?.port;
            topo.add_route_override(e0, h2, p_e0_a0);
            let p_a0_e1 = topo.egress(a0, e1)?.port;
            topo.add_route_override(a0, h1, p_a0_e1);
            let p_e1_a1 = topo.egress(e1, a1)?.port;
            topo.add_route_override(e1, h1, p_e1_a1);

            // Ring flows (rate-capped so the ring is loss-free pre-trigger):
            // Q: h_t(e0) -> h2 rides (e0 a0), (a0 e1).
            // P: pod1 -> h1 arrives at a0 via c0, rides (a0 e1), (e1 a1),
            //    (a1 e0).
            // S: pod1 -> h2 arrives at a1 via c2, rides (a1 e0), (e0 a0),
            //    (a0 e1).
            let p_src = nav.hosts[1][0][0];
            let s_src = nav.hosts[1][0][1];
            // Pin P through a0 and S through a1 with pod-1 overrides
            // (three-tier: edge→agg→core; two-tier: leaf→spine directly).
            let e_p1 = nav.edges[1][0];
            pin_ingress_via_agg(&mut topo, &nav, e_p1, h1, 1, 0, 0)?;
            pin_ingress_via_agg(&mut topo, &nav, e_p1, h2, 1, 1, 0)?;

            let ring_rate = Some(30e9);
            let q = FlowKey::roce(h_t, h2, 500);
            let p = FlowKey::roce(p_src, h1, 501);
            let s = FlowKey::roce(s_src, h2, 502);
            // Established a few epochs before the trigger — long enough for
            // the diagnosis to learn their steady-state baseline, short
            // enough that background bursts are unlikely to fire the CBD
            // tripwire before the scripted anomaly.
            let ring_start = at.saturating_sub(Nanos::from_micros(450));
            for k in [q, p, s] {
                flows.push(FlowSpec {
                    max_rate_bps: ring_rate,
                    cc_enabled: false,
                    ..FlowSpec::new(k, 60_000_000, ring_start)
                });
            }
            // Causally relevant switches (paper Fig. 11 semantics): the
            // victim's path plus the PFC spreading path — here the CBD
            // ring. The culprits' own source paths are upstream of the
            // initial congestion point and are NOT part of the trace.
            let mut causal = vec![e0, a0, e1, a1];

            let (anomaly, culprits, inj_host, initial) = match kind {
                ScenarioKind::InLoopDeadlock => {
                    // Two line-rate bursts converging on the ring port
                    // a0 -> e1 via both cores (pods 1 and 2 -> h3, pinned
                    // through a0). Long enough to outlive loop closure, so
                    // the last ring port to freeze still records paused
                    // enqueues; heavy enough that the upstream pause
                    // outlasts each downstream ingress fill.
                    let b1_src = nav.hosts[1][1][0];
                    let b2_src = nav.hosts[2][0][0];
                    let e_b1 = nav.edges[1][1];
                    let e_b2 = nav.edges[2][0];
                    pin_ingress_via_agg(&mut topo, &nav, e_b1, h3, 1, 0, 1)?;
                    pin_ingress_via_agg(&mut topo, &nav, e_b2, h3, 2, 0, 0)?;
                    let b1 = FlowKey::roce(b1_src, h3, 600);
                    let b2 = FlowKey::roce(b2_src, h3, 601);
                    for b in [b1, b2] {
                        flows.push(FlowSpec {
                            cc_enabled: false,
                            ..FlowSpec::new(b, 6_000_000, at)
                        });
                    }
                    (
                        AnomalyType::InLoopDeadlock,
                        vec![b1, b2],
                        None,
                        topo.egress(a0, e1)?,
                    )
                }
                ScenarioKind::OutOfLoopDeadlockInjection => {
                    // h3 injects PAUSE; feeder T (pod1 -> h3 via a0) backs
                    // up into the ring.
                    // Time-limited injection: the CBD chain closes while the
                    // ring's own flows still feed it; once the loop is shut
                    // it self-sustains regardless of the injector.
                    injectors.push((
                        h3,
                        PfcInjectorConfig {
                            start: at,
                            stop: at + Nanos::from_micros(800),
                            period: Nanos::from_micros(100),
                        },
                    ));
                    let t_src = nav.hosts[1][1][0];
                    let e_t = nav.edges[1][1];
                    pin_ingress_via_agg(&mut topo, &nav, e_t, h3, 1, 0, 1)?;
                    let t = FlowKey::roce(t_src, h3, 600);
                    // Starts just after the injection (so every enqueue of T
                    // at the dead egress is a paused one — pure injection,
                    // zero contention); T's backlog into the paused h3
                    // egress is what pulls the CBD shut.
                    // Small: just enough to fill the ingress behind the dead
                    // egress; a large feeder would flood h3 with residual
                    // contention if the injector ever releases.
                    flows.push(FlowSpec {
                        cc_enabled: false,
                        ..FlowSpec::new(t, 600_000, at + Nanos::from_micros(20))
                    });
                    (
                        AnomalyType::OutOfLoopDeadlockInjection,
                        vec![],
                        Some(h3),
                        topo.egress(e1, h3)?,
                    )
                }
                _ => {
                    // Out-of-loop contention: h3's egress congested by two
                    // comparable bursts — a local one (h2 -> h3) and one
                    // arriving via a1 (the non-CBD direction of the e1-a1
                    // link) — while a train of mice through a0 backs the
                    // congestion into the ring.
                    let local = FlowKey::roce(h2, h3, 601);
                    let r_src = nav.hosts[3][0][0];
                    let sp_r = pick(&topo, r_src, h3, &[a1], 620)?;
                    let via_a1 = FlowKey::roce(r_src, h3, sp_r);
                    for k in [local, via_a1] {
                        flows.push(FlowSpec {
                            cc_enabled: false,
                            ..FlowSpec::new(k, 4_000_000, at)
                        });
                    }
                    let m_src = nav.hosts[1][1][0];
                    let e_t = nav.edges[1][1];
                    pin_ingress_via_agg(&mut topo, &nav, e_t, h3, 1, 0, 1)?;
                    for i in 0..30u64 {
                        flows.push(FlowSpec {
                            cc_enabled: false,
                            ..FlowSpec::new(
                                FlowKey::roce(m_src, h3, 700 + i as u16),
                                64_000,
                                at + Nanos::from_micros(10 * i),
                            )
                        });
                    }
                    (
                        AnomalyType::OutOfLoopDeadlockContention,
                        vec![local, via_a1],
                        None,
                        topo.egress(e1, h3)?,
                    )
                }
            };

            // The victim is one of the ring flows: Q stalls inside the CBD.
            causal.sort_unstable();
            causal.dedup();
            GroundTruth {
                anomaly,
                culprit_flows: culprits,
                injection_host: inj_host,
                victim: q,
                causal_switches: causal,
                anomaly_at: at,
                initial_port: Some(initial),
            }
        }

        ScenarioKind::NormalContention => {
            // Incast into h_t whose PFC reaches only the sender NICs: three
            // line-rate contenders from e0's and e1's hosts plus the victim
            // into the same port; no switch egress toward another switch is
            // ever paused long enough to spread.
            let c1 = FlowKey::roce(h_l, h_t, 500);
            let sp2 = pick(&topo, h2, h_t, &[a0], 600)?;
            let sp3 = pick(&topo, h3, h_t, &[a1], 700)?;
            let c2 = FlowKey::roce(h2, h_t, sp2);
            let c3 = FlowKey::roce(h3, h_t, sp3);
            for c in [c1, c2, c3] {
                flows.push(FlowSpec::new(c, 3_000_000, at));
            }
            // Victim: a modest earlier flow into h_t from pod 1, capped so
            // it is clearly a victim, not a contributor.
            let sp_v = pick(&topo, vic_src, h_t, &[a0], 800)?;
            let victim = FlowKey::roce(vic_src, h_t, sp_v);
            flows.push(FlowSpec {
                max_rate_bps: Some(20e9),
                ..FlowSpec::new(victim, 40_000_000, Nanos::ZERO)
            });
            let mut causal: Vec<NodeId> = topo
                .flow_path(&victim)
                .unwrap()
                .iter()
                .map(|(n, _, _)| *n)
                .collect();
            causal.sort_unstable();
            causal.dedup();
            GroundTruth {
                anomaly: AnomalyType::NormalContention,
                culprit_flows: vec![c1, c2, c3],
                injection_host: None,
                victim,
                causal_switches: causal,
                anomaly_at: at,
                initial_port: Some(topo.egress(e0, h_t)?),
            }
        }
    };

    let mut sim_config = SimConfig::default();
    if matches!(
        kind,
        ScenarioKind::InLoopDeadlock
            | ScenarioKind::OutOfLoopDeadlockContention
            | ScenarioKind::OutOfLoopDeadlockInjection
    ) {
        // Deep Xoff/Xon hysteresis: each hop's pause must outlast the next
        // hop's ingress fill time for the backpressure wave to travel the
        // whole cycle (Hu et al.'s deadlock-formation condition). The CBD
        // flows themselves are marked CC-non-compliant instead of disabling
        // ECN network-wide, so background traffic behaves normally.
        sim_config.switch.xon_bytes = 4 * 1024;
    }
    if kind == ScenarioKind::NormalContention {
        // The paper's "traditional congestion" degenerate case: contention
        // in a network whose flow control is not PFC (the diagnosis then
        // reduces to classic queue-contention analysis). Deeper ECN
        // thresholds let the queue grow enough to trip the RTT detector.
        sim_config.switch.pfc_enabled = false;
        sim_config.switch.ecn_kmin = 300 * 1024;
        sim_config.switch.ecn_kmax = 600 * 1024;
    }

    Ok(Scenario {
        kind,
        topo,
        nav,
        flows,
        injectors,
        truth,
        params,
        sim_config,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_build() {
        for kind in ScenarioKind::ALL {
            let s = build(kind, ScenarioParams::default());
            assert_eq!(s.truth.anomaly, kind.expected_anomaly());
            assert!(!s.flows.is_empty());
            assert!(!s.truth.causal_switches.is_empty());
            // The victim exists among the flows.
            assert!(s.flows.iter().any(|f| f.key == s.truth.victim));
        }
    }

    #[test]
    fn deadlock_overrides_create_the_cbd_paths() {
        let s = build(
            ScenarioKind::InLoopDeadlock,
            ScenarioParams {
                load: 0.0,
                ..Default::default()
            },
        );
        let nav = &s.nav;
        let (e0, e1, a0, a1) = (
            nav.edges[0][0],
            nav.edges[0][1],
            nav.aggs[0][0],
            nav.aggs[0][1],
        );
        // Q: e0 -> a0 -> e1.
        let q = s.flows.iter().find(|f| f.key.src_port == 500).unwrap();
        let qp: Vec<NodeId> = s
            .topo
            .flow_path(&q.key)
            .unwrap()
            .iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(qp, vec![e0, a0, e1]);
        // P bounces a0 -> e1 -> a1 -> e0.
        let p = s.flows.iter().find(|f| f.key.src_port == 501).unwrap();
        let pp: Vec<NodeId> = s
            .topo
            .flow_path(&p.key)
            .unwrap()
            .iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(&pp[pp.len() - 4..], &[a0, e1, a1, e0]);
        // S bounces a1 -> e0 -> a0 -> e1.
        let sf = s.flows.iter().find(|f| f.key.src_port == 502).unwrap();
        let sp: Vec<NodeId> = s
            .topo
            .flow_path(&sf.key)
            .unwrap()
            .iter()
            .map(|x| x.0)
            .collect();
        assert_eq!(&sp[sp.len() - 4..], &[a1, e0, a0, e1]);
    }

    #[test]
    fn incast_bursts_enter_via_three_ports() {
        let s = build(
            ScenarioKind::MicroBurstIncast,
            ScenarioParams {
                load: 0.0,
                ..Default::default()
            },
        );
        let nav = &s.nav;
        let e0 = nav.edges[0][0];
        // The three culprits' last hops reach e0 via three distinct ingress
        // ports.
        let mut in_ports = Vec::new();
        for c in &s.truth.culprit_flows {
            let path = s.topo.flow_path(c).unwrap();
            let (sw, in_port, _) = *path.last().unwrap();
            assert_eq!(sw, e0);
            in_ports.push(in_port);
        }
        in_ports.sort_unstable();
        in_ports.dedup();
        assert_eq!(in_ports.len(), 3, "three distinct ingress directions");
    }

    #[test]
    fn all_scenarios_build_on_every_corpus_topology() {
        let params = ScenarioParams {
            load: 0.0,
            ..Default::default()
        };
        for spec in TopologySpec::corpus() {
            for kind in ScenarioKind::ALL {
                let s = build_on(&spec, kind, params)
                    .unwrap_or_else(|e| panic!("{spec} {}: {e}", kind.name()));
                assert_eq!(s.truth.anomaly, kind.expected_anomaly());
                assert!(s.flows.iter().any(|f| f.key == s.truth.victim), "{spec}");
                // Every scripted flow routes end to end on this fabric.
                for f in &s.flows {
                    assert!(
                        s.topo.flow_path(&f.key).is_some(),
                        "{spec} {}: flow {} does not route",
                        kind.name(),
                        f.key
                    );
                }
            }
        }
    }

    #[test]
    fn too_small_topologies_reject_typed() {
        let params = ScenarioParams::default();
        // 2 pods < the 4 the scenarios script.
        let err = build_on(
            &TopologySpec::LeafSpine {
                leaves: 4,
                spines: 2,
                hosts_per_leaf: 2,
            },
            ScenarioKind::MicroBurstIncast,
            params,
        )
        .err()
        .expect("small leaf-spine must be rejected");
        assert!(
            matches!(err, ScenarioBuildError::TooSmall { what: "pods", .. }),
            "{err}"
        );
        // k=2 fat-tree has 1 edge/agg per pod.
        let err = build_on(
            &TopologySpec::FatTree { k: 2 },
            ScenarioKind::InLoopDeadlock,
            params,
        )
        .err()
        .expect("k=2 fat-tree must be rejected");
        assert!(matches!(err, ScenarioBuildError::TooSmall { .. }), "{err}");
    }

    #[test]
    fn same_seed_is_structurally_equivalent_across_k() {
        // The role draws use the same RNG sequence on every K, so the
        // victim source sits at the same (pod, edge, host) coordinates
        // whenever the smaller tree contains them.
        let params = ScenarioParams::default();
        let s4 = build_on(
            &TopologySpec::FatTree { k: 4 },
            ScenarioKind::PfcStorm,
            params,
        )
        .unwrap();
        let s8 = build_on(
            &TopologySpec::FatTree { k: 8 },
            ScenarioKind::PfcStorm,
            params,
        )
        .unwrap();
        // Both storms inject at the pod-0 incast target h_t = hosts[0][0][0],
        // which is h0 in both trees.
        assert_eq!(s4.truth.injection_host, s8.truth.injection_host);
    }

    #[test]
    fn pin_ingress_creates_overrides_on_both_tiers() {
        // Three-tier: edge and agg overrides.
        let (mut topo, nav) = TopologySpec::FatTree { k: 4 }.build().unwrap();
        let dst = nav.hosts[0][0][0];
        let edge = nav.edges[1][0];
        pin_ingress_via_agg(&mut topo, &nav, edge, dst, 1, 0, 1).unwrap();
        let f = FlowKey::roce(nav.hosts[1][0][0], dst, 7);
        let path = topo.flow_path(&f).unwrap();
        // Path goes edge1_0 -> agg1_0 -> core1 -> agg0_0 -> edge0_0.
        assert_eq!(path.len(), 5);
        assert_eq!(path[1].0, nav.aggs[1][0]);
        assert_eq!(path[2].0, nav.cores[1]);

        // Two-tier: single leaf -> spine override.
        let spec = TopologySpec::LeafSpine {
            leaves: 8,
            spines: 2,
            hosts_per_leaf: 4,
        };
        let (mut topo, nav) = spec.build().unwrap();
        let dst = nav.hosts[0][0][0];
        let edge = nav.edges[1][0];
        pin_ingress_via_agg(&mut topo, &nav, edge, dst, 1, 1, 0).unwrap();
        let f = FlowKey::roce(nav.hosts[1][0][0], dst, 7);
        let path = topo.flow_path(&f).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[1].0, nav.aggs[1][1]);
    }

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        let a = build(ScenarioKind::PfcStorm, ScenarioParams::default());
        let b = build(ScenarioKind::PfcStorm, ScenarioParams::default());
        assert_eq!(a.flows, b.flows);
        assert_eq!(a.truth.victim, b.truth.victim);
    }
}
