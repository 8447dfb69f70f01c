//! The provenance analysis procedure (Algorithm 2): trace PFC causality
//! from the victim's path, detect deadlock loops, locate initial congestion
//! points, and attribute root causes to flows or host PFC injection.

use crate::aggregate::{AggTelemetry, PortEpoch};
use crate::error::Confidence;
use crate::provenance::{victim_extents, ProvenanceGraph};
#[cfg(test)]
use hawkeye_sim::Nanos;
use hawkeye_sim::{FlowKey, NodeId, PortId, Topology, DATA_PKT_SIZE};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// The anomaly classes of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnomalyType {
    /// PFC backpressure rooted in flow contention (micro-burst incast).
    MicroBurstIncast,
    /// Cascading PFC rooted in host PFC injection.
    PfcStorm,
    /// Deadlock whose initial congestion lies inside the CBD loop.
    InLoopDeadlock,
    /// Deadlock initiated by flow contention outside the loop.
    OutOfLoopDeadlockContention,
    /// Deadlock initiated by host PFC injection outside the loop.
    OutOfLoopDeadlockInjection,
    /// Queue contention without any PFC spreading.
    NormalContention,
    /// Nothing diagnosable in the collected telemetry.
    NoAnomaly,
}

impl AnomalyType {
    /// Whether the verdict names an anomaly at all.
    pub(crate) fn is_anomaly(self) -> bool {
        self != AnomalyType::NoAnomaly
    }
}

/// A located root cause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RootCause {
    /// Flow contention at `port`; `flows` are the positive contributors,
    /// heaviest first.
    FlowContention {
        port: PortId,
        flows: Vec<(FlowKey, f64)>,
    },
    /// PFC injected by `port`'s peer device (a host, or an uncollected
    /// neighbor).
    HostPfcInjection { port: PortId, peer: NodeId },
}

/// Diagnosis tunables.
#[derive(Debug, Clone, Copy)]
pub struct DiagnosisConfig {
    /// Flows active in at most this many epochs qualify as transient
    /// (burst) contributors.
    pub burst_max_epochs: u32,
    /// Minimum enqueue rate (Gbps, averaged over active epochs) for a
    /// contributor to be classified as a burst flow.
    pub burst_min_gbps: f64,
    /// Root-cause attribution runs on the *onset* of the initial
    /// congestion: the first epoch whose average queue depth (packets)
    /// reaches this threshold (plus the epoch after it). Later epochs of a
    /// long-lived anomaly mix in whatever traffic trickled through while
    /// upstream pauses flapped, which dilutes attribution.
    pub onset_qdepth: f64,
    /// Epochs included from the onset.
    pub onset_epochs: usize,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        DiagnosisConfig {
            burst_max_epochs: 2,
            burst_min_gbps: 2.0,
            onset_qdepth: 16.0,
            onset_epochs: 2,
        }
    }
}

/// The complete anomaly breakdown Hawkeye reports to the operator.
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnosisReport {
    pub victim: FlowKey,
    pub anomaly: AnomalyType,
    pub root_causes: Vec<RootCause>,
    /// PFC spreading paths traced, from the victim-pausing port to each
    /// initial congestion point.
    pub pfc_paths: Vec<Vec<PortId>>,
    /// The CBD loop, if a deadlock was found.
    pub deadlock_loop: Option<Vec<PortId>>,
    /// Per-hop pausing severity on the victim (flow→port edge weights).
    pub victim_extents: Vec<(PortId, f64)>,
    /// Flows paused at two or more ports of the PFC paths — responsible for
    /// spreading the congestion hop by hop.
    pub spreading_flows: Vec<FlowKey>,
    /// Root-cause contributors classified as transient bursts.
    pub burst_flows: Vec<FlowKey>,
    /// How much of the expected telemetry backed this verdict.
    pub confidence: Confidence,
}

// Hand-written (de)serialization: `confidence` rides the wire only when it
// carries information, so complete (fault-free) reports are byte-identical
// to reports that predate the field — and such older reports still parse.
impl Serialize for DiagnosisReport {
    fn to_value(&self) -> serde::Value {
        let mut obj: Vec<(String, serde::Value)> = vec![
            ("victim".to_string(), self.victim.to_value()),
            ("anomaly".to_string(), self.anomaly.to_value()),
            ("root_causes".to_string(), self.root_causes.to_value()),
            ("pfc_paths".to_string(), self.pfc_paths.to_value()),
            ("deadlock_loop".to_string(), self.deadlock_loop.to_value()),
            ("victim_extents".to_string(), self.victim_extents.to_value()),
            (
                "spreading_flows".to_string(),
                self.spreading_flows.to_value(),
            ),
            ("burst_flows".to_string(), self.burst_flows.to_value()),
        ];
        if !self.confidence.is_complete() {
            obj.push(("confidence".to_string(), self.confidence.to_value()));
        }
        serde::Value::Object(obj)
    }
}

impl Deserialize for DiagnosisReport {
    fn from_value(v: &serde::Value) -> Result<DiagnosisReport, serde::Error> {
        Ok(DiagnosisReport {
            victim: Deserialize::from_value(serde::field(v, "victim")?)?,
            anomaly: Deserialize::from_value(serde::field(v, "anomaly")?)?,
            root_causes: Deserialize::from_value(serde::field(v, "root_causes")?)?,
            pfc_paths: Deserialize::from_value(serde::field(v, "pfc_paths")?)?,
            deadlock_loop: Deserialize::from_value(serde::field(v, "deadlock_loop")?)?,
            victim_extents: Deserialize::from_value(serde::field(v, "victim_extents")?)?,
            spreading_flows: Deserialize::from_value(serde::field(v, "spreading_flows")?)?,
            burst_flows: Deserialize::from_value(serde::field(v, "burst_flows")?)?,
            confidence: match v
                .as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == "confidence"))
            {
                Some((_, cv)) => Deserialize::from_value(cv)?,
                None => Confidence::Complete,
            },
        })
    }
}

impl DiagnosisReport {
    /// Root-cause flows whose contribution is at least `frac` of the
    /// heaviest contributor at their port — the "major contributing flows"
    /// an operator acts on (light background flows often carry small
    /// positive residues).
    pub fn major_root_cause_flows(&self, frac: f64) -> Vec<FlowKey> {
        // One global scale across all contention roots: a root port whose
        // strongest contributor is tiny relative to the dominant root is
        // residual noise, not a cause.
        let global_max = self
            .root_causes
            .iter()
            .filter_map(|rc| match rc {
                RootCause::FlowContention { flows, .. } => flows
                    .iter()
                    .map(|(_, w)| *w)
                    .fold(None, |m: Option<f64>, w| Some(m.map_or(w, |m| m.max(w)))),
                _ => None,
            })
            .fold(None, |m: Option<f64>, w| Some(m.map_or(w, |m| m.max(w))));
        let Some(global_max) = global_max.filter(|m| *m > 0.0) else {
            return Vec::new();
        };
        let mut v: Vec<FlowKey> = Vec::new();
        for rc in &self.root_causes {
            let RootCause::FlowContention { flows, .. } = rc else {
                continue;
            };
            v.extend(
                flows
                    .iter()
                    .filter(|(_, w)| *w >= frac * global_max)
                    .map(|(k, _)| *k),
            );
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// All root-cause flows (union over contention root causes).
    pub fn root_cause_flows(&self) -> Vec<FlowKey> {
        let mut v: Vec<FlowKey> = self
            .root_causes
            .iter()
            .filter_map(|rc| match rc {
                RootCause::FlowContention { flows, .. } => {
                    Some(flows.iter().map(|(k, _)| *k).collect::<Vec<_>>())
                }
                RootCause::HostPfcInjection { .. } => None,
            })
            .flatten()
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Fold additional known-failed collections (the collector's
    /// [`crate::collector::MissingTelemetry`] log) into the confidence
    /// grade and re-grade against this report's verdict.
    pub fn note_missing(&mut self, more: &[NodeId]) {
        if more.is_empty() {
            return;
        }
        let mut missing = std::mem::take(&mut self.confidence).missing().to_vec();
        missing.extend_from_slice(more);
        self.confidence = Confidence::grade(missing, self.anomaly.is_anomaly());
    }

    /// Injection peers named as root causes.
    pub fn injection_peers(&self) -> Vec<NodeId> {
        self.root_causes
            .iter()
            .filter_map(|rc| match rc {
                RootCause::HostPfcInjection { peer, .. } => Some(*peer),
                _ => None,
            })
            .collect()
    }
}

/// Positive-contribution threshold: weights above this count as flow
/// contention (floating-point noise floor).
const CONTENTION_EPS: f64 = 1e-9;

/// Positive contributors at `port`, heaviest first.
fn contributors(g: &ProvenanceGraph, port: usize) -> Vec<(usize, f64)> {
    let mut v: Vec<(usize, f64)> = g
        .contention_at(port)
        .iter()
        .copied()
        .filter(|&(_, w)| w > CONTENTION_EPS)
        .collect();
    v.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    v
}

/// Out-degree-0 port nodes reachable from `start` along port edges — the
/// initial congestion candidates of a PFC spreading path.
fn terminal_ports(g: &ProvenanceGraph, start: usize) -> Vec<usize> {
    let mut seen = vec![false; g.ports.len()];
    let mut out = Vec::new();
    let mut stack = vec![start];
    while let Some(p) = stack.pop() {
        if seen[p] {
            continue;
        }
        seen[p] = true;
        if g.out_deg_port(p) == 0 {
            out.push(p);
        }
        stack.extend(g.port_neighbors(p).iter().map(|&(nbr, _)| nbr));
    }
    out.sort_unstable();
    out
}

/// What started a congestion: flows contending for the port, or PFC
/// injected by its peer device. Injection orders above contention, so the
/// larger of two causes is the one that dominates a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Cause {
    Contention,
    Injection,
}

/// What Algorithm 2's walk found, as the columns [`table2`] reads.
#[derive(Debug, Clone, Copy, Default)]
struct Table2Features {
    /// The victim was PFC-paused.
    pfc_path: bool,
    /// An unpaused victim's path has a port whose onset another flow leads.
    path_contention: bool,
    /// The trace from the victim closed a port loop.
    port_loop: bool,
    /// The loop's valid out-of-loop initiator, injection dominating;
    /// `None` when the initiator is in the loop.
    escape: Option<Cause>,
    /// With no loop, the cause at the most severe root.
    primary: Option<Cause>,
}

/// Table 2 of the paper: the anomaly class of what the walk found, one arm
/// per row in the paper's order.
fn table2(f: &Table2Features) -> AnomalyType {
    use Cause::{Contention, Injection};
    match (
        f.pfc_path,
        f.path_contention,
        f.port_loop,
        f.escape,
        f.primary,
    ) {
        (true, _, false, _, Some(Contention)) => AnomalyType::MicroBurstIncast,
        (true, _, true, None, _) => AnomalyType::InLoopDeadlock,
        (true, _, true, Some(Contention), _) => AnomalyType::OutOfLoopDeadlockContention,
        (true, _, true, Some(Injection), _) => AnomalyType::OutOfLoopDeadlockInjection,
        (true, _, false, _, Some(Injection)) => AnomalyType::PfcStorm,
        (false, true, ..) => AnomalyType::NormalContention,
        _ => AnomalyType::NoAnomaly,
    }
}

/// What a port's telemetry says started its congestion.
enum Evidence {
    /// Flows contended: the onset's excess arrivals or, with no onset, the
    /// graph's positive contributors, heaviest first.
    Contention { flows: Vec<(FlowKey, f64)> },
    /// The queue was frozen from outside: PFC injected by the peer.
    Injection,
    /// Nothing in the window shows the port congested or paused.
    Silent,
}

struct Walker<'a> {
    g: &'a ProvenanceGraph,
    topo: &'a Topology,
    agg: &'a AggTelemetry,
    cfg: DiagnosisConfig,
    paths: Vec<Vec<usize>>,
    loop_found: Option<Vec<usize>>,
    terminals: Vec<usize>,
    roots: Vec<RootCause>,
    root_ports: BTreeSet<usize>,
    visited: Vec<bool>,
}

impl<'a> Walker<'a> {
    /// Algorithm 2 `CheckPortNode`: DFS along port-level edges, recording
    /// loops and out-degree-0 terminals (analyzed later, once it is known
    /// whether a deadlock dominates the picture).
    fn check_port(&mut self, p: usize, path: &mut Vec<usize>) {
        if let Some(pos) = path.iter().position(|&x| x == p) {
            // Deadlock: the loop is the path suffix from the revisit.
            if self.loop_found.is_none() {
                self.loop_found = Some(path[pos..].to_vec());
            }
            return;
        }
        if self.visited[p] {
            return;
        }
        self.visited[p] = true;
        path.push(p);
        if self.g.out_deg_port(p) == 0 {
            // Initial node of the PFC spreading path.
            self.paths.push(path.clone());
            self.terminals.push(p);
        } else {
            // Heaviest cause first for deterministic, severity-ordered
            // reports.
            let mut nbrs = self.g.port_neighbors(p).to_vec();
            nbrs.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            for (nbr, _) in nbrs {
                self.check_port(nbr, path);
            }
        }
        path.pop();
    }

    fn port_paused(&self, p: usize) -> u64 {
        self.agg
            .ports
            .get(&self.g.ports[p])
            .map_or(0, |a| a.paused_num)
    }

    /// Algorithm 2's contention-or-injection test, refined with onset
    /// attribution:
    /// - an onset whose excess arrivals outweigh the port's paused enqueues
    ///   is flow contention, attributed to the excess flows;
    /// - an onset dominated by paused enqueues (the queue was frozen from
    ///   outside, traffic did not grow) is host PFC injection;
    /// - with no visible onset, fall back to the window-wide graph weights:
    ///   positive contributors are contention, and a port that was paused,
    ///   saw any flow, or is someone's downstream cause is injection.
    fn evidence(&self, p: usize) -> Evidence {
        self.evidence_from(p, self.onset_contributors(p))
    }

    /// [`evidence`](Self::evidence) of port `p` from its already computed
    /// [`onset_contributors`](Self::onset_contributors).
    fn evidence_from(&self, p: usize, onset: Option<Vec<(FlowKey, f64)>>) -> Evidence {
        let paused = self.port_paused(p) as f64;
        match onset {
            Some(flows)
                if !flows.is_empty() && flows.iter().map(|(_, w)| w).sum::<f64>() >= paused =>
            {
                Evidence::Contention { flows }
            }
            Some(_) => Evidence::Injection,
            None => self.contributor_evidence(p, contributors(self.g, p)),
        }
    }

    /// [`evidence`](Self::evidence) of port `p` without an onset, from its
    /// positive [`contributors`], sorted as that function sorts them.
    fn contributor_evidence(&self, p: usize, contribs: Vec<(usize, f64)>) -> Evidence {
        let flows: Vec<(FlowKey, f64)> = contribs
            .into_iter()
            .map(|(f, w)| (self.g.flows[f], w))
            .collect();
        if !flows.is_empty() {
            Evidence::Contention { flows }
        } else if self.port_paused(p) > 0
            || !self.g.contention_at(p).is_empty()
            || self.g.port_edges.iter().flatten().any(|&(q, _)| q == p)
        {
            Evidence::Injection
        } else {
            Evidence::Silent
        }
    }

    /// Algorithm 2 `AnalyzeFlowContention`: record port node `p` (once) as
    /// a root cause, as its [`evidence`](Self::evidence) `ev` names it. A
    /// silent port shows no flow contention, so its PFC came from its peer.
    fn analyze_flow_contention(&mut self, p: usize, ev: Evidence) {
        if !self.root_ports.insert(p) {
            return;
        }
        let port = self.g.ports[p];
        self.roots.push(match ev {
            Evidence::Contention { flows } => RootCause::FlowContention { port, flows },
            Evidence::Injection | Evidence::Silent => RootCause::HostPfcInjection {
                port,
                peer: self.topo.peer(port).node,
            },
        });
    }

    /// Positive contributors during the initial congestion at port node
    /// `p`, weighted by each flow's enqueue *excess over its pre-onset
    /// baseline* at that port. Traffic that was flowing at the same rate
    /// before the congestion was being served fine — the growth is caused
    /// by whoever exceeded their steady state (the paper's suggested
    /// "throughput analysis" of the contributing flows). `None` if the
    /// port never saw a queue-buildup onset in the window.
    fn onset_contributors(&self, p: usize) -> Option<Vec<(FlowKey, f64)>> {
        let port = self.g.ports[p];
        let epochs: Vec<&PortEpoch> = self.agg.epoch_detail_at(port).collect();
        if epochs.is_empty() || self.agg.epoch_len.as_nanos() == 0 {
            return None;
        }
        // Onset: the first epoch whose average queue depth shows real
        // buildup — anchored to the *dominant* congestion event (at least
        // half the peak depth), so minor background queueing earlier in the
        // window does not hijack the attribution.
        let peak = epochs
            .iter()
            .map(|(pa, _)| pa.avg_qdepth())
            .fold(0.0f64, f64::max);
        let floor = self.cfg.onset_qdepth.max(0.5 * peak);
        let mut onset = epochs.iter().position(|(pa, _)| pa.avg_qdepth() >= floor)?;
        // The buildup may straddle an epoch boundary: walk back over
        // immediately preceding epochs that already show queueing, so the
        // true first congested epoch is inside the onset window rather than
        // polluting the baseline.
        let mut extra = 0usize;
        while onset > 0 && extra < 1 && epochs[onset - 1].0.avg_qdepth() >= self.cfg.onset_qdepth {
            onset -= 1;
            extra += 1;
        }
        // Baseline: a flow's average per-epoch enqueues before the onset.
        let mut baseline: HashMap<FlowKey, f64> = HashMap::new();
        if onset > 0 {
            for (_, fs) in &epochs[..onset] {
                for (key, fa) in fs {
                    *baseline.entry(*key).or_default() +=
                        fa.contention_pkts() as f64 / onset as f64;
                }
            }
        }
        let mut total: HashMap<FlowKey, f64> = HashMap::new();
        // Only congested epochs belong to the onset window: once the queue
        // is gone the anomaly is over and later arrivals are ordinary
        // traffic (e.g. the drain after an injector releases).
        for (_, fs) in epochs
            .iter()
            .skip(onset)
            .take(self.cfg.onset_epochs.max(1) + extra)
            .take_while(|(pa, _)| pa.avg_qdepth() >= self.cfg.onset_qdepth)
        {
            for (key, fa) in fs {
                let excess =
                    fa.contention_pkts() as f64 - baseline.get(key).copied().unwrap_or(0.0);
                if excess > 0.0 {
                    *total.entry(*key).or_default() += excess;
                }
            }
        }
        let mut flows: Vec<(FlowKey, f64)> = total
            .into_iter()
            .filter(|(_, w)| *w > CONTENTION_EPS)
            .collect();
        flows.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        Some(flows)
    }

    /// Is terminal `t` a *valid* deadlock initiator outside loop `lp`, and
    /// by which cause? A valid one comes with its evidence.
    ///
    /// A terminal whose congestion is fed *through* the loop is downstream
    /// of it — a consequence, not the initiator (its packets only pile up
    /// because the loop starves or floods it). Contention terminals
    /// qualify when the majority (by weight) of their contributors reach
    /// them without traversing any loop port, a flow with no known path
    /// counting as crossing it; injection terminals qualify regardless.
    fn valid_escape(&self, t: usize, lp: &[usize]) -> Option<(Cause, Evidence)> {
        let flows = match self.evidence(t) {
            Evidence::Contention { flows } => flows,
            Evidence::Injection => return Some((Cause::Injection, Evidence::Injection)),
            Evidence::Silent => return None,
        };
        let loop_ports: BTreeSet<PortId> = lp.iter().map(|&i| self.g.ports[i]).collect();
        let (mut through, mut avoid) = (0.0, 0.0);
        for (key, w) in &flows {
            let crosses = self.topo.flow_path(key).is_none_or(|path| {
                path.iter()
                    .any(|(sw, _, out)| loop_ports.contains(&PortId::new(*sw, *out)))
            });
            if crosses {
                through += w;
            } else {
                avoid += w;
            }
        }
        (avoid > through).then_some((Cause::Contention, Evidence::Contention { flows }))
    }

    /// `DeadlockDiagnose`: find the deadlock's initiator and record it as
    /// the root. Returns the out-of-loop initiator's cause, or `None` when
    /// the initiator is inside the loop.
    fn deadlock_diagnose(&mut self, lp: &[usize]) -> Option<Cause> {
        let set: BTreeSet<usize> = lp.iter().copied().collect();
        let mut escape_terminals: Vec<usize> = lp
            .iter()
            .flat_map(|&p| self.g.port_neighbors(p).iter().map(|&(n, _)| n))
            .filter(|n| !set.contains(n))
            .flat_map(|n| terminal_ports(self.g, n))
            .collect();
        escape_terminals.sort_unstable();
        escape_terminals.dedup();

        let mut escape = None;
        for t in escape_terminals {
            if let Some((cause, ev)) = self.valid_escape(t, lp) {
                self.analyze_flow_contention(t, ev);
                escape = escape.max(Some(cause));
            }
        }
        if escape.is_some() {
            return escape;
        }
        // Initiator inside the loop. Prefer the member port(s) whose
        // telemetry shows an actual onset of oversubscription — the
        // congestion event that started the cascade; other members' queues
        // are consequences, not causes. Failing that, the members with
        // positive contributors; failing that, every member, for operator
        // inspection.
        let mut onsets: Vec<_> = lp.iter().map(|&p| self.onset_contributors(p)).collect();
        let has_onset = |o: &Option<Vec<_>>| o.as_ref().is_some_and(|c| !c.is_empty());
        let mut members: Vec<usize> = (0..lp.len()).filter(|&i| has_onset(&onsets[i])).collect();
        // With no onset anywhere, each member's contributors are sorted
        // once: the list that picks the member also names its evidence.
        let mut contribs: Vec<Vec<(usize, f64)>> = Vec::new();
        if members.is_empty() {
            contribs = lp.iter().map(|&p| contributors(self.g, p)).collect();
            members = (0..lp.len()).filter(|&i| !contribs[i].is_empty()).collect();
        }
        if members.is_empty() {
            members = (0..lp.len()).collect();
        }
        for i in members {
            let ev = match (onsets[i].take(), contribs.get_mut(i)) {
                (None, Some(c)) => self.contributor_evidence(lp[i], std::mem::take(c)),
                (onset, _) => self.evidence_from(lp[i], onset),
            };
            self.analyze_flow_contention(lp[i], ev);
        }
        None
    }

    /// Severity of a root cause, for picking the primary anomaly: the total
    /// excess of a contention root, or the paused-packet mass of an
    /// injection root.
    fn root_severity(&self, rc: &RootCause) -> f64 {
        match rc {
            RootCause::FlowContention { flows, .. } => flows.iter().map(|(_, w)| w).sum(),
            RootCause::HostPfcInjection { port, .. } => self
                .g
                .port_index(*port)
                .map_or(0.0, |p| self.port_paused(p) as f64),
        }
    }

    fn burst_flows(&self) -> Vec<FlowKey> {
        let mut out = Vec::new();
        for rc in &self.roots {
            let RootCause::FlowContention { port, flows } = rc else {
                continue;
            };
            for (key, _) in flows {
                let Some(fa) = self.agg.flows.get(&(*key, *port)) else {
                    continue;
                };
                if fa.epochs_active == 0 || fa.epochs_active > self.cfg.burst_max_epochs {
                    continue;
                }
                let dur_ns = self.agg.epoch_len.as_nanos() as f64 * fa.epochs_active as f64;
                if dur_ns <= 0.0 {
                    continue;
                }
                let gbps = fa.pkt_num as f64 * DATA_PKT_SIZE as f64 * 8.0 / dur_ns;
                if gbps >= self.cfg.burst_min_gbps {
                    out.push(*key);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Diagnose one victim flow against the provenance graph (Algorithm 2).
pub fn diagnose(
    g: &ProvenanceGraph,
    topo: &Topology,
    agg: &AggTelemetry,
    victim: &FlowKey,
    cfg: DiagnosisConfig,
) -> DiagnosisReport {
    let extents = victim_extents(g, victim);
    let mut w = Walker {
        g,
        topo,
        agg,
        cfg,
        paths: Vec::new(),
        loop_found: None,
        terminals: Vec::new(),
        roots: Vec::new(),
        root_ports: BTreeSet::new(),
        visited: vec![false; g.ports.len()],
    };

    // Port-level-only fallback: with no flow telemetry at all (the Fig. 10
    // "port-only" ablation), victim extents cannot exist; start the PFC
    // trace from the victim's path ports that show port-level pausing.
    let extents = if extents.is_empty() && agg.flows.is_empty() && !agg.ports.is_empty() {
        topo.flow_egress_ports(victim)
            .into_iter()
            .filter_map(|p| {
                let pa = agg.ports.get(&p)?;
                (pa.paused_num > 0).then_some((p, pa.paused_num as f64))
            })
            .collect()
    } else {
        extents
    };

    let mut found = Table2Features {
        pfc_path: !extents.is_empty(),
        ..Default::default()
    };
    if !found.pfc_path {
        // Victim never PFC-paused: normal flow contention along its path.
        // A path port qualifies when its congestion onset names someone
        // other than the victim as the top contributor.
        for port in topo.flow_egress_ports(victim) {
            let Some(p) = g.port_index(port) else {
                continue;
            };
            if let Some(flows) = w.onset_contributors(p) {
                let victim_is_top = flows.first().is_some_and(|(k, _)| k == victim);
                if !flows.is_empty() && !victim_is_top {
                    let ev = w.evidence_from(p, Some(flows));
                    w.analyze_flow_contention(p, ev);
                    found.path_contention = true;
                }
            }
        }
    } else {
        // Trace PFC causality from every port pausing the victim, ordered
        // along the victim's path (earliest hop first) so the reported PFC
        // spreading path is the complete chain; off-path extents (stale
        // lookback) come last, by severity.
        let path_ports = topo.flow_egress_ports(victim);
        let pos = |p: &PortId| path_ports.iter().position(|x| x == p).unwrap_or(usize::MAX);
        let mut starts = extents.clone();
        starts.sort_by(|a, b| {
            pos(&a.0)
                .cmp(&pos(&b.0))
                .then(b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal))
                .then(a.0.cmp(&b.0))
        });
        for (port, _) in &starts {
            if let Some(p) = g.port_index(*port) {
                let mut path = Vec::new();
                w.check_port(p, &mut path);
            }
        }
        if let Some(lp) = w.loop_found.clone() {
            found.port_loop = true;
            found.escape = w.deadlock_diagnose(&lp);
        } else {
            for t in w.terminals.clone() {
                let ev = w.evidence(t);
                w.analyze_flow_contention(t, ev);
            }
            // The primary root — the most severe one — names the anomaly;
            // a victim often crosses secondary congestion (background
            // contention) on the way to the real cause. No root at all
            // (e.g. telemetry pruned by a baseline) is inconclusive.
            let primary = w.roots.iter().max_by(|a, b| {
                w.root_severity(a)
                    .partial_cmp(&w.root_severity(b))
                    .unwrap_or(Ordering::Equal)
            });
            found.primary = primary.map(|rc| match rc {
                RootCause::FlowContention { .. } => Cause::Contention,
                RootCause::HostPfcInjection { .. } => Cause::Injection,
            });
        }
    }

    // Spreading flows: paused at >= 2 distinct ports of the traced paths.
    let path_ports: BTreeSet<usize> = w.paths.iter().flatten().copied().collect();
    let mut spreading = Vec::new();
    for (fi, key) in g.flows.iter().enumerate() {
        let hits = g
            .pauses_of_flow(fi)
            .iter()
            .filter(|(p, w)| path_ports.contains(p) && *w > CONTENTION_EPS)
            .count();
        if hits >= 2 && key != victim {
            spreading.push(*key);
        }
    }

    let burst_flows = w.burst_flows();
    DiagnosisReport {
        victim: *victim,
        anomaly: table2(&found),
        root_causes: w.roots,
        pfc_paths: w
            .paths
            .iter()
            .map(|p| p.iter().map(|&i| g.ports[i]).collect())
            .collect(),
        deadlock_loop: w
            .loop_found
            .map(|lp| lp.into_iter().map(|i| g.ports[i]).collect()),
        victim_extents: extents,
        spreading_flows: spreading,
        burst_flows,
        // Coverage is graded by the analyzer, which knows which switches
        // delivered snapshots; `diagnose` alone assumes full evidence.
        confidence: Confidence::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::Window;
    use crate::test_graphs::*;

    fn dummy_env() -> (Topology, AggTelemetry) {
        let topo = topo4();
        let agg = AggTelemetry {
            epoch_len: Nanos(1 << 20),
            window: Window {
                from: Nanos(0),
                to: Nanos(1 << 21),
            },
            ..Default::default()
        };
        (topo, agg)
    }

    #[test]
    fn diagnoses_microburst_incast() {
        let (topo, agg) = dummy_env();
        let g = graph_backpressure_contention(&topo);
        let r = diagnose(&g, &topo, &agg, &fkey(1), DiagnosisConfig::default());
        assert_eq!(r.anomaly, AnomalyType::MicroBurstIncast);
        assert_eq!(
            r.root_cause_flows(),
            vec![fkey(3), fkey(4), fkey(5), fkey(6)]
        );
        assert_eq!(r.pfc_paths.len(), 1);
        assert_eq!(r.pfc_paths[0].len(), 3, "SW1.P1 -> SW2.P3 -> SW4.P1");
        assert!(r.deadlock_loop.is_none());
        // F2 spreads the PFC (paused at two ports on the path).
        assert_eq!(r.spreading_flows, vec![fkey(2)]);
        assert_eq!(r.victim_extents.len(), 1);
    }

    #[test]
    fn diagnoses_pfc_storm() {
        let (topo, agg) = dummy_env();
        let g = graph_pfc_storm(&topo);
        let r = diagnose(&g, &topo, &agg, &fkey(1), DiagnosisConfig::default());
        assert_eq!(r.anomaly, AnomalyType::PfcStorm);
        assert_eq!(r.root_causes.len(), 1);
        assert!(matches!(
            r.root_causes[0],
            RootCause::HostPfcInjection { .. }
        ));
        assert!(r.root_cause_flows().is_empty());
    }

    #[test]
    fn diagnoses_in_loop_deadlock() {
        let (topo, agg) = dummy_env();
        let g = graph_in_loop_deadlock(&topo);
        let r = diagnose(&g, &topo, &agg, &fkey(1), DiagnosisConfig::default());
        assert_eq!(r.anomaly, AnomalyType::InLoopDeadlock);
        let lp = r.deadlock_loop.clone().expect("loop reported");
        assert_eq!(lp.len(), 4);
        assert_eq!(r.root_cause_flows(), vec![fkey(10), fkey(11)]);
    }

    #[test]
    fn diagnoses_out_of_loop_deadlock_both_variants() {
        let (topo, agg) = dummy_env();
        let g = graph_out_of_loop_deadlock(&topo, true);
        let r = diagnose(&g, &topo, &agg, &fkey(1), DiagnosisConfig::default());
        assert_eq!(r.anomaly, AnomalyType::OutOfLoopDeadlockContention);
        assert_eq!(r.root_cause_flows(), vec![fkey(10)]);

        let g = graph_out_of_loop_deadlock(&topo, false);
        let r = diagnose(&g, &topo, &agg, &fkey(1), DiagnosisConfig::default());
        assert_eq!(r.anomaly, AnomalyType::OutOfLoopDeadlockInjection);
        assert_eq!(r.injection_peers().len(), 1);
    }

    #[test]
    fn unpaused_victim_with_no_graph_is_no_anomaly() {
        let (topo, agg) = dummy_env();
        let g = ProvenanceGraph::default();
        let r = diagnose(&g, &topo, &agg, &fkey(1), DiagnosisConfig::default());
        assert_eq!(r.anomaly, AnomalyType::NoAnomaly);
        assert!(r.root_causes.is_empty());
    }

    #[test]
    fn table2_rows() {
        use Cause::{Contention, Injection};
        let paused = Table2Features {
            pfc_path: true,
            ..Default::default()
        };
        let looped = Table2Features {
            port_loop: true,
            ..paused
        };
        let rows = [
            (
                Table2Features {
                    primary: Some(Contention),
                    ..paused
                },
                AnomalyType::MicroBurstIncast,
            ),
            (looped, AnomalyType::InLoopDeadlock),
            (
                Table2Features {
                    escape: Some(Contention),
                    ..looped
                },
                AnomalyType::OutOfLoopDeadlockContention,
            ),
            (
                Table2Features {
                    escape: Some(Injection),
                    ..looped
                },
                AnomalyType::OutOfLoopDeadlockInjection,
            ),
            (
                Table2Features {
                    primary: Some(Injection),
                    ..paused
                },
                AnomalyType::PfcStorm,
            ),
            (
                Table2Features {
                    path_contention: true,
                    ..Default::default()
                },
                AnomalyType::NormalContention,
            ),
            // An unpaused victim with no contention on its path.
            (Table2Features::default(), AnomalyType::NoAnomaly),
            // A PFC path with no root to name the cause.
            (paused, AnomalyType::NoAnomaly),
        ];
        for (features, anomaly) in rows {
            assert_eq!(table2(&features), anomaly, "{features:?}");
        }
    }

    #[test]
    fn terminals_of_backpressure_chain() {
        let (topo, _) = dummy_env();
        let g = graph_backpressure_contention(&topo);
        // Port 0 -> 1 -> 2 (terminal).
        assert_eq!(terminal_ports(&g, 0), vec![2]);
    }

    #[test]
    fn report_serializes() {
        let (topo, agg) = dummy_env();
        let g = graph_pfc_storm(&topo);
        let r = diagnose(&g, &topo, &agg, &fkey(1), DiagnosisConfig::default());
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("PfcStorm"));
    }
}
