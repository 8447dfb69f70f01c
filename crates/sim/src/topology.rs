//! Network topologies: nodes, links, and routing.
//!
//! Builders are provided for the paper's evaluation topology (fat-tree K=4,
//! 20 switches, 100 Gbps links, 2 µs delay) and its Clos family (`clos`,
//! `leaf_spine`: each returns the roles it placed, a [`FatTreeNav`]), plus
//! the chain and ring topologies of Fig. 1 used for case studies, and a
//! dumbbell for unit tests. Routing is shortest-path with ECMP; scenarios
//! may install per-(switch, destination) route overrides to emulate the
//! routing misconfigurations that create cyclic buffer dependencies (§2.1).
//!
//! The routing state is **dense**: every node knows its rank among the
//! nodes of its kind, `(switch, destination host)` indexes one flat array
//! of candidate-set ids, and the candidate sets themselves are interned (a
//! Clos switch has a handful: one port per attached subtree plus its uplink
//! group) in one flat port list. A per-packet lookup is two array reads, a
//! fabric is built without a heap `Vec` per (switch, host) pair, and a
//! clone is a few `memcpy`s. Lookups are total: an id that is not a node of
//! this fabric, or not of the kind the question needs, has no route.

use crate::ids::{FlowKey, NodeId, PortId};
use crate::time::Nanos;
use crate::units::Bandwidth;
use std::collections::VecDeque;
use std::fmt;

/// Role of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Host,
    Switch,
}

/// One direction-independent attachment point: the peer it connects to and
/// the link's properties (identical in both directions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortInfo {
    pub peer: PortId,
    pub bandwidth: Bandwidth,
    pub delay: Nanos,
}

/// An immutable network graph plus routing state.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    names: Vec<String>,
    ports: Vec<Vec<PortInfo>>,
    /// Rank of each node among the nodes of its kind (the row of a switch,
    /// the column of a host, in the two tables below).
    rank: Vec<u32>,
    n_hosts: usize,
    n_switches: usize,
    /// `[switch rank][host rank]` → id of the sorted candidate egress set
    /// in `sets`; [`NO_ROUTE`] where the host is unreachable. Empty until
    /// `compute_routes`.
    routes: Vec<u16>,
    /// Interned candidate sets: set `id` is `set_ports[start..start + len]`.
    sets: Vec<(u32, u8)>,
    set_ports: Vec<u8>,
    /// Scenario-installed forced next hops, same shape as `routes`: the
    /// port, or [`NO_OVERRIDE`]. Empty (not allocated) while none is
    /// installed, which is every fabric but the deadlock scenarios'.
    overrides: Vec<u16>,
}

const NO_ROUTE: u16 = u16::MAX;
const NO_OVERRIDE: u16 = u16::MAX;

impl Topology {
    /// Create an empty topology; use `add_host`/`add_switch`/`connect`.
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name.into())
    }

    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name.into())
    }

    fn add_node(&mut self, kind: NodeKind, name: String) -> NodeId {
        // Both tables are laid out by the node counts.
        assert!(
            self.overrides.is_empty(),
            "add nodes before installing route overrides"
        );
        self.routes.clear();
        let id = NodeId(self.kinds.len() as u32);
        let count = match kind {
            NodeKind::Host => &mut self.n_hosts,
            NodeKind::Switch => &mut self.n_switches,
        };
        self.rank.push(*count as u32);
        *count += 1;
        self.kinds.push(kind);
        self.names.push(name);
        self.ports.push(Vec::new());
        id
    }

    /// Connect two nodes with a full-duplex link; returns the (a-side,
    /// b-side) port numbers allocated.
    pub fn connect(&mut self, a: NodeId, b: NodeId, bw: Bandwidth, delay: Nanos) -> (u8, u8) {
        let pa = self.ports[a.index()].len() as u8;
        let pb = self.ports[b.index()].len() as u8;
        self.ports[a.index()].push(PortInfo {
            peer: PortId::new(b, pb),
            bandwidth: bw,
            delay,
        });
        self.ports[b.index()].push(PortInfo {
            peer: PortId::new(a, pa),
            bandwidth: bw,
            delay,
        });
        (pa, pb)
    }

    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Whether `n` is a host of this fabric (false for a switch, and for
    /// an id that is no node of it).
    pub fn is_host(&self, n: NodeId) -> bool {
        self.kinds.get(n.index()) == Some(&NodeKind::Host)
    }

    /// Whether `n` is a switch of this fabric (false for a host, and for
    /// an id that is no node of it).
    pub fn is_switch(&self, n: NodeId) -> bool {
        self.kinds.get(n.index()) == Some(&NodeKind::Switch)
    }

    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32)
            .map(NodeId)
            .filter(|n| self.is_host(*n))
    }

    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.kinds.len() as u32)
            .map(NodeId)
            .filter(|n| !self.is_host(*n))
    }

    pub fn ports(&self, n: NodeId) -> &[PortInfo] {
        &self.ports[n.index()]
    }

    /// Panics when `p` is not a port of this fabric; see
    /// [`try_port`](Self::try_port).
    pub fn port(&self, p: PortId) -> &PortInfo {
        &self.ports[p.node.index()][p.port as usize]
    }

    /// `p`'s link, or `None` when `p.node` is no node of this fabric or
    /// has no port `p.port`.
    pub fn try_port(&self, p: PortId) -> Option<&PortInfo> {
        self.ports.get(p.node.index())?.get(p.port as usize)
    }

    /// The port on the far end of `p`'s link.
    pub fn peer(&self, p: PortId) -> PortId {
        self.port(p).peer
    }

    /// Whether the given port attaches directly to a host.
    pub fn is_host_facing(&self, p: PortId) -> bool {
        self.is_host(self.peer(p).node)
    }

    /// The egress port on `from` whose link leads to `to`.
    pub fn egress(&self, from: NodeId, to: NodeId) -> Result<PortId, NavError> {
        self.ports[from.index()]
            .iter()
            .position(|info| info.peer.node == to)
            .map(|p| PortId::new(from, p as u8))
            .ok_or_else(|| NavError::NotAdjacent {
                from: self.name(from).to_string(),
                to: self.name(to).to_string(),
            })
    }

    /// Compute shortest-path ECMP routes from every switch to every host.
    /// Must be called after the graph is final and before `route_port`.
    pub fn compute_routes(&mut self) {
        self.routes.clear();
        self.routes.resize(self.n_switches * self.n_hosts, NO_ROUTE);
        self.sets.clear();
        self.set_ports.clear();
        let switches: Vec<NodeId> = self.switches().collect();
        let mut cands: Vec<u8> = Vec::new();
        // BFS from each host over the switch graph gives, per switch, the
        // distance to that host; candidate next hops are all neighbors one
        // step closer (in port order, so each set is sorted).
        for dst in self.hosts().collect::<Vec<_>>() {
            let dist = self.bfs_dist(dst);
            for &sw in &switches {
                let d = dist[sw.index()];
                if d == u32::MAX {
                    continue;
                }
                cands.clear();
                for (pi, info) in self.ports[sw.index()].iter().enumerate() {
                    if dist[info.peer.node.index()] < d {
                        cands.push(pi as u8);
                    }
                }
                let set = self.intern_set(&cands);
                let cell = self.table_index(sw, dst).expect("a switch and a host");
                self.routes[cell] = set;
            }
        }
    }

    /// The id of candidate set `cands`, adding it if it is new. A linear
    /// search: a whole Clos fabric has a few dozen distinct sets.
    fn intern_set(&mut self, cands: &[u8]) -> u16 {
        let found = self.sets.iter().position(|&(start, len)| {
            &self.set_ports[start as usize..start as usize + len as usize] == cands
        });
        let id = found.unwrap_or_else(|| {
            let len = u8::try_from(cands.len()).expect("at most 255 ports per switch");
            self.sets.push((self.set_ports.len() as u32, len));
            self.set_ports.extend_from_slice(cands);
            self.sets.len() - 1
        });
        assert!(id < NO_ROUTE as usize, "candidate-set ids fit in u16");
        id as u16
    }

    /// Where `(sw, dst)` lives in `routes`/`overrides`; `None` unless `sw`
    /// is a switch and `dst` a host of this fabric.
    #[inline]
    fn table_index(&self, sw: NodeId, dst: NodeId) -> Option<usize> {
        (self.is_switch(sw) && self.is_host(dst)).then(|| {
            self.rank[sw.index()] as usize * self.n_hosts + self.rank[dst.index()] as usize
        })
    }

    fn bfs_dist(&self, from: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.node_count()];
        dist[from.index()] = 0;
        let mut q = VecDeque::from([from]);
        while let Some(n) = q.pop_front() {
            // Hosts other than the origin do not forward traffic.
            if n != from && self.is_host(n) {
                continue;
            }
            for info in &self.ports[n.index()] {
                let m = info.peer.node;
                if dist[m.index()] == u32::MAX {
                    dist[m.index()] = dist[n.index()] + 1;
                    q.push_back(m);
                }
            }
        }
        dist
    }

    /// Force traffic for `dst` at `sw` out of `port`, regardless of the
    /// computed shortest path. Used by deadlock scenarios to emulate routing
    /// misconfiguration; intentionally allowed to create loops.
    pub fn add_route_override(&mut self, sw: NodeId, dst: NodeId, port: u8) {
        let cell = self
            .table_index(sw, dst)
            .expect("overrides apply at a switch, toward a host");
        if self.overrides.is_empty() {
            self.overrides
                .resize(self.n_switches * self.n_hosts, NO_OVERRIDE);
        }
        self.overrides[cell] = port as u16;
    }

    pub fn clear_route_overrides(&mut self) {
        self.overrides.clear();
    }

    /// The egress port switch `sw` uses for `flow` (ECMP-hashed among
    /// equal-cost candidates, unless overridden). `None` when `sw` is not a
    /// switch of this fabric, `flow.dst` not a host of it, or no path
    /// exists.
    #[inline]
    pub fn route_port(&self, sw: NodeId, flow: &FlowKey) -> Option<u8> {
        let cell = self.table_index(sw, flow.dst)?;
        if let Some(&p) = self.overrides.get(cell) {
            if p != NO_OVERRIDE {
                return Some(p as u8);
            }
        }
        let &(start, len) = self.sets.get(*self.routes.get(cell)? as usize)?;
        if len == 0 {
            return None;
        }
        let pick = (flow.hash32() as usize) % len as usize;
        Some(self.set_ports[start as usize + pick])
    }

    /// The full switch path a flow takes, as (switch, ingress port, egress
    /// port) triples from source ToR to destination ToR. Returns `None` if
    /// `flow.src` is not an attached host of this fabric, routing fails, or
    /// it loops beyond `max_hops`.
    pub fn flow_path(&self, flow: &FlowKey) -> Option<Vec<(NodeId, u8, u8)>> {
        if !self.is_host(flow.src) {
            return None;
        }
        let mut path = Vec::new();
        // Ingress port on the first switch.
        let mut at = self.ports[flow.src.index()].first()?.peer;
        let max_hops = 64;
        for _ in 0..max_hops {
            if self.is_host(at.node) {
                return Some(path);
            }
            let out = self.route_port(at.node, flow)?;
            path.push((at.node, at.port, out));
            at = self.ports[at.node.index()].get(out as usize)?.peer;
        }
        None // routing loop
    }

    /// All (switch, egress port) pairs on the flow's path; empty when the
    /// flow has none (see [`flow_path`](Self::flow_path)).
    pub fn flow_egress_ports(&self, flow: &FlowKey) -> Vec<PortId> {
        self.flow_path(flow)
            .map(|p| {
                p.into_iter()
                    .map(|(sw, _, out)| PortId::new(sw, out))
                    .collect()
            })
            .unwrap_or_default()
    }
}

/// Default link parameters used across the evaluation (paper §4.1).
pub const EVAL_BANDWIDTH: Bandwidth = Bandwidth::from_gbps(100);
pub const EVAL_DELAY: Nanos = Nanos::from_micros(2);

/// Parameters for the generalized three-tier Clos family.
///
/// A classic fat-tree is the symmetric point of this family
/// (`ClosConfig::fat_tree(k)`); the extra knobs cover the corpus variants:
/// asymmetric capacity (slowed agg↔core uplinks on trailing pods) and
/// link-failure topologies (trailing agg↔core links never built). Every
/// member names its nodes in the `fat_tree` scheme (`h{i}`, `edge{p}_{e}`,
/// `agg{p}_{a}`, `core{c}`) for display; [`clos`] returns which node holds
/// which role as a [`FatTreeNav`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosConfig {
    pub pods: usize,
    pub edges_per_pod: usize,
    pub aggs_per_pod: usize,
    pub hosts_per_edge: usize,
    /// Agg index `a` of every pod connects to cores
    /// `[a*cores_per_group, (a+1)*cores_per_group)`.
    pub cores_per_group: usize,
    pub bw: Bandwidth,
    pub delay: Nanos,
    /// Agg↔core uplinks of the last `slow_pods` pods run at
    /// `bw / slow_divisor` (asymmetric-capacity Clos). 0 = symmetric.
    pub slow_pods: usize,
    pub slow_divisor: u64,
    /// Skip this many agg↔core links, counted backward from the last one
    /// the symmetric build would create (link-failure variant).
    pub failed_core_links: usize,
}

impl ClosConfig {
    /// The symmetric fat-tree with parameter `k`.
    pub fn fat_tree(k: usize, bw: Bandwidth, delay: Nanos) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree k must be even");
        let half = k / 2;
        ClosConfig {
            pods: k,
            edges_per_pod: half,
            aggs_per_pod: half,
            hosts_per_edge: half,
            cores_per_group: half,
            bw,
            delay,
            slow_pods: 0,
            slow_divisor: 1,
            failed_core_links: 0,
        }
    }
}

/// Why a question about a fabric's roles or links has no answer on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NavError {
    /// Two nodes expected to share a link are not adjacent.
    NotAdjacent { from: String, to: String },
    /// A role index or dimension the question needs does not exist.
    RoleOutOfRange {
        role: &'static str,
        index: usize,
        len: usize,
    },
    /// A fabric dimension its builder cannot place: the dimension, its
    /// value and the bound it broke.
    Dimension {
        dim: &'static str,
        value: u64,
        bound: String,
    },
}

impl fmt::Display for NavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NavError::NotAdjacent { from, to } => write!(f, "{from} has no link to {to}"),
            NavError::RoleOutOfRange { role, index, len } => {
                write!(f, "role {role}[{index}] out of range (len {len})")
            }
            NavError::Dimension { dim, value, bound } => write!(f, "{dim} = {value} {bound}"),
        }
    }
}

impl std::error::Error for NavError {}

/// The roles a Clos-family builder placed: which node is which host, edge,
/// aggregation or core switch, as scenario builders need them to script
/// traffic and install routing misconfigurations.
///
/// For three-tier fabrics ([`clos`]) every field is populated. For two-tier [`leaf_spine`] fabrics, leaves are grouped into
/// logical pods of two edges each, `aggs[pod]` holds the (shared) spines
/// for every pod, and `cores` is empty.
#[derive(Debug, Clone)]
pub struct FatTreeNav {
    /// `hosts[pod][edge][i]`
    pub hosts: Vec<Vec<Vec<NodeId>>>,
    /// `edges[pod][i]`
    pub edges: Vec<Vec<NodeId>>,
    /// `aggs[pod][i]` (for leaf-spine: the spines, shared across pods)
    pub aggs: Vec<Vec<NodeId>>,
    /// `cores[i]` (agg index `a` connects cores
    /// `a*cores_per_group .. (a+1)*cores_per_group`); empty for two-tier
    pub cores: Vec<NodeId>,
    /// Cores per aggregation index group; 0 for two-tier fabrics.
    pub cores_per_group: usize,
}

impl FatTreeNav {
    /// Whether the fabric has a core tier (three-tier Clos vs leaf-spine).
    pub fn is_three_tier(&self) -> bool {
        !self.cores.is_empty()
    }

    /// Navigation dimensions: (pods, edges_per_pod, aggs_per_pod,
    /// hosts_per_edge).
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        let first_len = |v: &Vec<Vec<NodeId>>| v.first().map_or(0, Vec::len);
        let hpe = self.hosts.first().map_or(0, first_len);
        (
            self.hosts.len(),
            first_len(&self.edges),
            first_len(&self.aggs),
            hpe,
        )
    }
}

/// Build a member of the generalized Clos family described by `cfg`, with
/// the roles it placed.
///
/// Construction order (hosts, then per-pod edge+agg switches, then cores;
/// links host↔edge, edge↔agg, agg↔core) matches the historical `fat_tree`
/// builder exactly, so `clos(&ClosConfig::fat_tree(k, ..))` produces
/// byte-identical node ids, port numbers, and therefore ECMP hashes.
pub fn clos(cfg: &ClosConfig) -> (Topology, FatTreeNav) {
    assert!(cfg.pods >= 1 && cfg.edges_per_pod >= 1 && cfg.hosts_per_edge >= 1);
    assert!(cfg.aggs_per_pod >= 1 && cfg.cores_per_group >= 1);
    assert!(cfg.slow_divisor >= 1, "slow_divisor must be >= 1");
    assert!(
        cfg.bw.bits_per_sec() / cfg.slow_divisor > 0,
        "slow_divisor must leave the slow uplinks a non-zero rate"
    );
    assert!(cfg.slow_pods <= cfg.pods);
    let mut t = Topology::new();
    let (epp, app, hpe) = (cfg.edges_per_pod, cfg.aggs_per_pod, cfg.hosts_per_edge);
    let cpg = cfg.cores_per_group;

    let hosts: Vec<Vec<Vec<NodeId>>> = (0..cfg.pods)
        .map(|pod| {
            (0..epp)
                .map(|e| {
                    (0..hpe)
                        .map(|h| t.add_host(format!("h{}", (pod * epp + e) * hpe + h)))
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut edges = Vec::with_capacity(cfg.pods);
    let mut aggs = Vec::with_capacity(cfg.pods);
    for pod in 0..cfg.pods {
        let pod_edges = (0..epp).map(|e| t.add_switch(format!("edge{pod}_{e}")));
        edges.push(pod_edges.collect::<Vec<_>>());
        let pod_aggs = (0..app).map(|a| t.add_switch(format!("agg{pod}_{a}")));
        aggs.push(pod_aggs.collect::<Vec<_>>());
    }
    let cores: Vec<NodeId> = (0..app * cpg)
        .map(|c| t.add_switch(format!("core{c}")))
        .collect();

    // Host <-> edge links.
    for (pod_hosts, pod_edges) in hosts.iter().zip(&edges) {
        for (edge_hosts, &edge) in pod_hosts.iter().zip(pod_edges) {
            for &host in edge_hosts {
                t.connect(host, edge, cfg.bw, cfg.delay);
            }
        }
    }
    // Edge <-> agg links (full bipartite within a pod).
    for (pod_edges, pod_aggs) in edges.iter().zip(&aggs) {
        for &edge in pod_edges {
            for &agg in pod_aggs {
                t.connect(edge, agg, cfg.bw, cfg.delay);
            }
        }
    }
    // Agg <-> core links: agg `a` of each pod connects to cores
    // [a*cores_per_group, (a+1)*cores_per_group). The last
    // `failed_core_links` links in enumeration order are not built; the
    // last `slow_pods` pods uplink at reduced bandwidth.
    let first_failed = (cfg.pods * app * cpg).saturating_sub(cfg.failed_core_links);
    let slow_bw = Bandwidth::from_bps(cfg.bw.bits_per_sec() / cfg.slow_divisor);
    let mut link_idx = 0;
    for (pod, pod_aggs) in aggs.iter().enumerate() {
        let uplink_bw = if pod >= cfg.pods - cfg.slow_pods {
            slow_bw
        } else {
            cfg.bw
        };
        for (a, &agg) in pod_aggs.iter().enumerate() {
            for &core in &cores[a * cpg..(a + 1) * cpg] {
                if link_idx < first_failed {
                    t.connect(agg, core, uplink_bw, cfg.delay);
                }
                link_idx += 1;
            }
        }
    }

    t.compute_routes();
    let nav = FatTreeNav {
        hosts,
        edges,
        aggs,
        cores,
        cores_per_group: cpg,
    };
    (t, nav)
}

/// Build the paper's evaluation topology: a fat-tree with parameter `k`
/// (k=4: 16 hosts, 20 switches — 8 edge, 8 aggregation, 4 core). Its
/// roles come from [`clos`] of [`ClosConfig::fat_tree`].
pub fn fat_tree(k: usize, bw: Bandwidth, delay: Nanos) -> Topology {
    clos(&ClosConfig::fat_tree(k, bw, delay)).0
}

/// A linear chain of `n` switches, each with `hosts_per_switch` hosts —
/// the Fig. 1(a)/1(b) style topology for case studies.
pub fn chain(n: usize, hosts_per_switch: usize, bw: Bandwidth, delay: Nanos) -> Topology {
    assert!(n >= 1);
    switch_line(n, hosts_per_switch, bw, delay, n - 1)
}

/// A ring of `n` switches with hosts, for cyclic-buffer-dependency
/// (deadlock) case studies; shortest-path routing is still loop-free, so
/// scenarios install overrides to push flows around the cycle.
pub fn ring(n: usize, hosts_per_switch: usize, bw: Bandwidth, delay: Nanos) -> Topology {
    assert!(n >= 3);
    switch_line(n, hosts_per_switch, bw, delay, n)
}

/// Switches `sw0..sw{n-1}` with hosts `h{s}_{i}`, switch `s` linked to
/// switch `(s + 1) % n` for the first `links` values of `s`.
fn switch_line(n: usize, hps: usize, bw: Bandwidth, delay: Nanos, links: usize) -> Topology {
    let mut t = Topology::new();
    let hosts: Vec<Vec<NodeId>> = (0..n)
        .map(|s| (0..hps).map(|h| t.add_host(format!("h{s}_{h}"))).collect())
        .collect();
    let sws: Vec<_> = (0..n).map(|s| t.add_switch(format!("sw{s}"))).collect();
    for (sw_hosts, &sw) in hosts.iter().zip(&sws) {
        for &host in sw_hosts {
            t.connect(host, sw, bw, delay);
        }
    }
    for s in 0..links {
        t.connect(sws[s], sws[(s + 1) % n], bw, delay);
    }
    t.compute_routes();
    t
}

/// A two-tier leaf-spine fabric: `leaves` ToR switches with
/// `hosts_per_leaf` hosts each, fully meshed to `spines` spine switches —
/// the other common data-center fabric besides the fat-tree. Its roles
/// pair consecutive leaves into logical pods (an odd last leaf is in
/// none), the spines playing the aggregation role in every pod.
pub fn leaf_spine(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    bw: Bandwidth,
    delay: Nanos,
) -> (Topology, FatTreeNav) {
    assert!(leaves >= 1 && spines >= 1);
    let mut t = Topology::new();
    let hosts: Vec<Vec<NodeId>> = (0..leaves)
        .map(|l| {
            (0..hosts_per_leaf)
                .map(|h| t.add_host(format!("h{}", l * hosts_per_leaf + h)))
                .collect()
        })
        .collect();
    let leaf_ids: Vec<_> = (0..leaves)
        .map(|l| t.add_switch(format!("leaf{l}")))
        .collect();
    let spine_ids: Vec<_> = (0..spines)
        .map(|s| t.add_switch(format!("spine{s}")))
        .collect();
    for (leaf_hosts, &leaf) in hosts.iter().zip(&leaf_ids) {
        for &host in leaf_hosts {
            t.connect(host, leaf, bw, delay);
        }
    }
    for &leaf in &leaf_ids {
        for &spine in &spine_ids {
            t.connect(leaf, spine, bw, delay);
        }
    }
    t.compute_routes();
    let nav = FatTreeNav {
        hosts: hosts.chunks_exact(2).map(<[_]>::to_vec).collect(),
        edges: leaf_ids.chunks_exact(2).map(<[_]>::to_vec).collect(),
        aggs: vec![spine_ids; leaves / 2],
        cores: Vec::new(),
        cores_per_group: 0,
    };
    (t, nav)
}

/// Two switches, `left`/`right` hosts on each side; the smallest topology
/// that exhibits cross-switch PFC backpressure. For unit tests.
pub fn dumbbell(left: usize, right: usize, bw: Bandwidth, delay: Nanos) -> Topology {
    let mut t = Topology::new();
    let lhosts: Vec<_> = (0..left).map(|i| t.add_host(format!("l{i}"))).collect();
    let rhosts: Vec<_> = (0..right).map(|i| t.add_host(format!("r{i}"))).collect();
    let sl = t.add_switch("swL");
    let sr = t.add_switch("swR");
    for h in lhosts {
        t.connect(h, sl, bw, delay);
    }
    for h in rhosts {
        t.connect(h, sr, bw, delay);
    }
    t.connect(sl, sr, bw, delay);
    t.compute_routes();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn fat_tree_k4_matches_paper_scale() {
        let t = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        assert_eq!(t.hosts().count(), 16);
        assert_eq!(t.switches().count(), 20);
        // Every edge switch has 2 hosts + 2 aggs = 4 ports; aggs 2+2; cores 4.
        for sw in t.switches() {
            assert_eq!(t.ports(sw).len(), 4, "switch {} radix", t.name(sw));
        }
    }

    #[test]
    fn clos_fat_tree_identical_to_legacy_shape() {
        // The k=8 fat-tree through the generalized builder keeps the
        // expected scale and uniform radix.
        let t = fat_tree(8, EVAL_BANDWIDTH, EVAL_DELAY);
        assert_eq!(t.hosts().count(), 128);
        assert_eq!(t.switches().count(), 80);
        for sw in t.switches() {
            assert_eq!(t.ports(sw).len(), 8, "switch {} radix", t.name(sw));
        }
    }

    #[test]
    fn clos_failed_core_links_drop_trailing_uplinks() {
        let mut cfg = ClosConfig::fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        cfg.failed_core_links = 2;
        let (t, _) = clos(&cfg);
        // The last pod's last agg lost both its core uplinks: 2 ports left.
        let agg_last = t
            .switches()
            .find(|&s| t.name(s) == "agg3_1")
            .expect("agg3_1 exists");
        assert_eq!(t.ports(agg_last).len(), 2);
        // All host pairs still route (BFS recomputed on the real graph).
        let hosts: Vec<_> = t.hosts().collect();
        let f = FlowKey::roce(hosts[0], hosts[15], 7);
        assert!(t.flow_path(&f).is_some());
    }

    #[test]
    fn clos_slow_pods_reduce_uplink_bandwidth() {
        let mut cfg = ClosConfig::fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        cfg.slow_pods = 2;
        cfg.slow_divisor = 4;
        let (t, _) = clos(&cfg);
        let agg0 = t.switches().find(|&s| t.name(s) == "agg0_0").unwrap();
        let agg3 = t.switches().find(|&s| t.name(s) == "agg3_0").unwrap();
        // Ports 0..2 on an agg face edges; 2..4 face cores.
        assert_eq!(t.ports(agg0)[2].bandwidth, EVAL_BANDWIDTH);
        assert_eq!(
            t.ports(agg3)[2].bandwidth,
            Bandwidth::from_bps(EVAL_BANDWIDTH.bits_per_sec() / 4)
        );
        // Fast pods keep full-rate uplinks.
        assert_eq!(t.ports(agg0)[3].bandwidth, EVAL_BANDWIDTH);
    }

    #[test]
    #[should_panic(expected = "non-zero rate")]
    fn clos_refuses_zero_rate_slow_uplinks() {
        let mut cfg = ClosConfig::fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        cfg.slow_pods = 1;
        cfg.slow_divisor = EVAL_BANDWIDTH.bits_per_sec() + 1;
        clos(&cfg);
    }

    #[test]
    fn fat_tree_routes_all_pairs() {
        let t = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let f = FlowKey::roce(a, b, 99);
                let path = t.flow_path(&f).expect("path exists");
                assert!(!path.is_empty());
                // Intra-rack: 1 switch; intra-pod: 3; inter-pod: 5.
                assert!(
                    matches!(path.len(), 1 | 3 | 5),
                    "unexpected path length {} for {}->{}",
                    path.len(),
                    a.0,
                    b.0
                );
                // Path ends adjacent to the destination.
                let (last_sw, _, out) = *path.last().unwrap();
                assert_eq!(t.peer(PortId::new(last_sw, out)).node, b);
            }
        }
    }

    #[test]
    fn ecmp_spreads_flows_across_candidates() {
        let t = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        // Inter-pod pair: first and last host.
        let (a, b) = (hosts[0], hosts[15]);
        let mut seen = std::collections::HashSet::new();
        for sp in 0..64 {
            let f = FlowKey::roce(a, b, sp);
            seen.insert(t.flow_path(&f).unwrap());
        }
        assert!(seen.len() >= 2, "ECMP should yield multiple paths");
    }

    #[test]
    fn chain_routes_along_the_line() {
        let t = chain(4, 2, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let f = FlowKey::roce(hosts[0], hosts[7], 5);
        let path = t.flow_path(&f).unwrap();
        assert_eq!(path.len(), 4);
    }

    #[test]
    fn dumbbell_crosses_the_middle_link() {
        let t = dumbbell(2, 2, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let f = FlowKey::roce(hosts[0], hosts[2], 5);
        let path = t.flow_path(&f).unwrap();
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn route_override_changes_path_and_can_loop() {
        let mut t = ring(4, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let sws: Vec<_> = t.switches().collect();
        let f = FlowKey::roce(hosts[0], hosts[1], 5);
        let normal = t.flow_path(&f).unwrap();
        assert_eq!(normal.len(), 2);
        // Force sw0 to route the "long way" for dst host1.
        // sw0 ports: 0 = host, 1 = to sw1, 2 = to sw3 (ring closure gives
        // the last switch the back-link).
        let back_port = (t.ports(sws[0]).len() - 1) as u8;
        t.add_route_override(sws[0], hosts[1], back_port);
        // Pin the rest of the long way round so ECMP cannot bounce back.
        for i in [3usize, 2] {
            let next = sws[(i + 3) % 4]; // 3 -> 2, 2 -> 1
            let port = (0..t.ports(sws[i]).len() as u8)
                .find(|&p| t.peer(PortId::new(sws[i], p)).node == next)
                .unwrap();
            t.add_route_override(sws[i], hosts[1], port);
        }
        let long = t.flow_path(&f).unwrap();
        assert!(long.len() > normal.len());
        t.clear_route_overrides();
        assert_eq!(t.flow_path(&f).unwrap(), normal);
    }

    #[test]
    fn full_loop_override_detected() {
        let mut t = ring(4, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let sws: Vec<_> = t.switches().collect();
        // Route dst=host0 clockwise forever.
        for i in 0..4 {
            // Each switch's port to the next switch: ports are [host,
            // prev?, next?] — find the port whose peer is sws[(i+1)%4].
            let next = sws[(i + 1) % 4];
            let port = (0..t.ports(sws[i]).len() as u8)
                .find(|&p| t.peer(PortId::new(sws[i], p)).node == next)
                .unwrap();
            t.add_route_override(sws[i], hosts[0], port);
        }
        let f = FlowKey::roce(hosts[2], hosts[0], 5);
        assert!(t.flow_path(&f).is_none(), "loop must be detected");
    }

    /// Routing oracle: the `HashMap<(switch, dst), Vec<u8>>` tables this
    /// module used before the dense ones, built by the same BFS.
    struct HashRoutes {
        routes: HashMap<(NodeId, NodeId), Vec<u8>>,
        overrides: HashMap<(NodeId, NodeId), u8>,
    }

    impl HashRoutes {
        fn build(t: &Topology) -> Self {
            let mut routes = HashMap::new();
            for dst in t.hosts() {
                let dist = t.bfs_dist(dst);
                for sw in t.switches() {
                    let d = dist[sw.index()];
                    if d == u32::MAX {
                        continue;
                    }
                    let mut cands: Vec<u8> = Vec::new();
                    for (pi, info) in t.ports(sw).iter().enumerate() {
                        if dist[info.peer.node.index()] < d {
                            cands.push(pi as u8);
                        }
                    }
                    cands.sort_unstable();
                    routes.insert((sw, dst), cands);
                }
            }
            HashRoutes {
                routes,
                overrides: HashMap::new(),
            }
        }

        fn route_port(&self, sw: NodeId, flow: &FlowKey) -> Option<u8> {
            if let Some(&p) = self.overrides.get(&(sw, flow.dst)) {
                return Some(p);
            }
            let cands = self.routes.get(&(sw, flow.dst))?;
            if cands.is_empty() {
                return None;
            }
            Some(cands[(flow.hash32() as usize) % cands.len()])
        }
    }

    /// Every (switch, host, source port) lookup of `t` equals the oracle's,
    /// two hosts asked as if they were switches included. 64 source ports
    /// per pair, 4 on a fabric with over 100 000 pairs (ft16: 327 680).
    fn assert_routes_match(t: &Topology, oracle: &HashRoutes, what: &str) {
        let hosts: Vec<NodeId> = t.hosts().collect();
        let sports = if t.n_switches * t.n_hosts > 100_000 {
            4
        } else {
            64
        };
        for sw in t.switches().chain(hosts.iter().copied().take(2)) {
            for &dst in &hosts {
                for sp in 0..sports {
                    let f = FlowKey::roce(hosts[0], dst, sp);
                    assert_eq!(
                        t.route_port(sw, &f),
                        oracle.route_port(sw, &f),
                        "{what}: node {} -> host {} sport {sp}",
                        sw.0,
                        dst.0
                    );
                }
            }
        }
    }

    /// The dense tables answer exactly what the hash-map build did, on the
    /// six corpus fabrics (`TopologySpec::corpus()` in `hawkeye-workloads`,
    /// rebuilt here from this crate's builders) plus a chain and a ring,
    /// with overrides installed and cleared.
    #[test]
    fn dense_routes_match_hashmap_oracle() {
        let ft = |k| ClosConfig::fat_tree(k, EVAL_BANDWIDTH, EVAL_DELAY);
        let fabrics = [
            ("ft4", clos(&ft(4)).0),
            ("ft8", clos(&ft(8)).0),
            ("ft16", clos(&ft(16)).0),
            (
                "ft8-degraded",
                clos(&ClosConfig {
                    failed_core_links: 4,
                    ..ft(8)
                })
                .0,
            ),
            ("ls8x2x4", leaf_spine(8, 2, 4, EVAL_BANDWIDTH, EVAL_DELAY).0),
            (
                "asym8",
                clos(&ClosConfig {
                    slow_pods: 2,
                    slow_divisor: 4,
                    ..ft(8)
                })
                .0,
            ),
            ("chain", chain(4, 2, EVAL_BANDWIDTH, EVAL_DELAY)),
            ("ring", ring(5, 2, EVAL_BANDWIDTH, EVAL_DELAY)),
        ];
        for (name, mut t) in fabrics {
            let mut oracle = HashRoutes::build(&t);
            assert_routes_match(&t, &oracle, name);

            // Overrides: every third switch forces its last port for two
            // destinations, one of them its own shortest-path choice or not.
            let hosts: Vec<NodeId> = t.hosts().collect();
            let sws: Vec<NodeId> = t.switches().collect();
            for (i, &sw) in sws.iter().enumerate().step_by(3) {
                let port = (t.ports(sw).len() - 1) as u8;
                for dst in [hosts[i % hosts.len()], hosts[(i * 7 + 1) % hosts.len()]] {
                    t.add_route_override(sw, dst, port);
                    oracle.overrides.insert((sw, dst), port);
                }
            }
            assert_routes_match(&t, &oracle, name);

            t.clear_route_overrides();
            oracle.overrides.clear();
            assert_routes_match(&t, &oracle, name);

            // A clone carries the tables, and the sets really are shared: a
            // Clos switch has a handful, the whole fabric a few dozen.
            assert_routes_match(&t.clone(), &oracle, name);
            assert!(
                t.sets.len() <= 64,
                "{name}: {} candidate sets",
                t.sets.len()
            );
        }
    }

    /// Lookups are total: an id that is no node of the fabric, or a node of
    /// the wrong kind, has no route and no path — it does not panic and it
    /// does not alias into another node's row.
    #[test]
    fn lookups_are_total_over_foreign_ids() {
        let mut t = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let sws: Vec<_> = t.switches().collect();
        let far = NodeId(1_000_000);
        let good = FlowKey::roce(hosts[0], hosts[15], 7);
        assert!(t.flow_path(&good).is_some());
        assert!(!t.is_host(far));

        // Source out of range, or a switch.
        for src in [far, NodeId(t.node_count() as u32), sws[0]] {
            let f = FlowKey::roce(src, hosts[1], 7);
            assert_eq!(t.flow_path(&f), None, "src {}", src.0);
            assert!(t.flow_egress_ports(&f).is_empty());
        }
        // Destination out of range, or a switch: no switch routes it.
        for dst in [far, NodeId(t.node_count() as u32), sws[3]] {
            let f = FlowKey::roce(hosts[0], dst, 7);
            assert_eq!(t.flow_path(&f), None, "dst {}", dst.0);
            assert!(t.flow_egress_ports(&f).is_empty());
            for &sw in &sws {
                assert_eq!(t.route_port(sw, &f), None);
            }
        }
        // Asked of a node that is no switch: no route, even with the
        // override table allocated.
        t.add_route_override(sws[0], hosts[15], 0);
        for sw in [far, NodeId(t.node_count() as u32), hosts[2]] {
            assert_eq!(t.route_port(sw, &good), None, "sw {}", sw.0);
        }
        // A host with no link has no first hop.
        let mut lone = Topology::new();
        let a = lone.add_host("a");
        let b = lone.add_host("b");
        lone.compute_routes();
        assert_eq!(lone.flow_path(&FlowKey::roce(a, b, 1)), None);

        // Ports: a foreign node or a port past the radix has no link.
        let radix = t.ports(sws[0]).len() as u8;
        assert_eq!(
            t.try_port(PortId::new(sws[0], radix - 1)),
            t.ports(sws[0]).last()
        );
        for p in [
            PortId::new(sws[0], radix),
            PortId::new(sws[0], 255),
            PortId::new(far, 0),
            PortId::new(NodeId(t.node_count() as u32), 0),
        ] {
            assert_eq!(t.try_port(p), None, "{p:?}");
        }
        assert!(t.is_switch(sws[0]));
        for n in [far, NodeId(t.node_count() as u32), hosts[0]] {
            assert!(!t.is_switch(n), "node {}", n.0);
        }
    }

    #[test]
    fn leaf_spine_routes_and_ecmp() {
        let (t, _) = leaf_spine(4, 2, 4, EVAL_BANDWIDTH, EVAL_DELAY);
        assert_eq!(t.hosts().count(), 16);
        assert_eq!(t.switches().count(), 6);
        let hosts: Vec<_> = t.hosts().collect();
        // Intra-leaf: 1 switch; inter-leaf: leaf-spine-leaf.
        let intra = t.flow_path(&FlowKey::roce(hosts[0], hosts[1], 5)).unwrap();
        assert_eq!(intra.len(), 1);
        let inter = t.flow_path(&FlowKey::roce(hosts[0], hosts[5], 5)).unwrap();
        assert_eq!(inter.len(), 3);
        // ECMP spreads inter-leaf flows over both spines.
        let mut spines = std::collections::HashSet::new();
        for sp in 0..32 {
            let p = t.flow_path(&FlowKey::roce(hosts[0], hosts[5], sp)).unwrap();
            spines.insert(p[1].0);
        }
        assert_eq!(spines.len(), 2);
    }

    #[test]
    fn host_facing_detection() {
        let t = dumbbell(1, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let sws: Vec<_> = t.switches().collect();
        assert!(t.is_host_facing(PortId::new(sws[0], 0)));
        // Port 1 of swL is the inter-switch link.
        assert!(!t.is_host_facing(PortId::new(sws[0], 1)));
    }

    /// The roles a builder returns are the fabric it built: every host
    /// links to its edge, every edge to every agg of its pod, agg `a` to
    /// cores `a*cpg..(a+1)*cpg` less the failed links (and to no other
    /// core), every leaf to every spine; and the roles cover every node.
    #[test]
    fn role_map_matches_the_fabric() {
        let ft = |k| ClosConfig::fat_tree(k, EVAL_BANDWIDTH, EVAL_DELAY);
        let linked = |t: &Topology, a: NodeId, b: NodeId| t.egress(a, b).is_ok();
        let fabrics = [
            ft(4),
            ft(8),
            ClosConfig {
                failed_core_links: 4,
                ..ft(8)
            },
            ClosConfig {
                slow_pods: 2,
                slow_divisor: 4,
                ..ft(8)
            },
            ClosConfig {
                hosts_per_edge: 3,
                ..ft(4)
            },
        ];
        for cfg in fabrics {
            let (t, nav) = clos(&cfg);
            let (pods, epp, app, hpe) = nav.dims();
            assert_eq!(
                (pods, epp, app, hpe),
                (
                    cfg.pods,
                    cfg.edges_per_pod,
                    cfg.aggs_per_pod,
                    cfg.hosts_per_edge
                )
            );
            assert!(nav.is_three_tier());
            let cpg = nav.cores_per_group;
            assert_eq!(nav.cores.len(), app * cpg);
            let hosts: Vec<NodeId> = nav.hosts.iter().flatten().flatten().copied().collect();
            assert_eq!(hosts, t.hosts().collect::<Vec<_>>());
            let switches = nav
                .edges
                .iter()
                .chain(&nav.aggs)
                .flatten()
                .chain(&nav.cores);
            assert_eq!(switches.count(), t.switches().count());
            let first_failed = pods * app * cpg - cfg.failed_core_links;
            for pod in 0..pods {
                for (e, &edge) in nav.edges[pod].iter().enumerate() {
                    for &h in &nav.hosts[pod][e] {
                        assert_eq!(t.peer(PortId::new(h, 0)).node, edge);
                    }
                    for &agg in &nav.aggs[pod] {
                        assert!(linked(&t, edge, agg), "{} {}", t.name(edge), t.name(agg));
                    }
                }
                for (a, &agg) in nav.aggs[pod].iter().enumerate() {
                    for (c, &core) in nav.cores.iter().enumerate() {
                        let link = (pod * app + a) * cpg + c % cpg;
                        let built = c / cpg == a && link < first_failed;
                        assert_eq!(
                            linked(&t, agg, core),
                            built,
                            "{} {}",
                            t.name(agg),
                            t.name(core)
                        );
                    }
                }
            }
        }

        let (t, nav) = leaf_spine(8, 2, 4, EVAL_BANDWIDTH, EVAL_DELAY);
        assert_eq!(nav.dims(), (4, 2, 2, 4));
        assert!(!nav.is_three_tier());
        let hosts: Vec<NodeId> = nav.hosts.iter().flatten().flatten().copied().collect();
        assert_eq!(hosts, t.hosts().collect::<Vec<_>>());
        for pod in 0..4 {
            // Every pod sees the same shared spines.
            assert_eq!(nav.aggs[pod], nav.aggs[0]);
            for (e, &leaf) in nav.edges[pod].iter().enumerate() {
                for &h in &nav.hosts[pod][e] {
                    assert_eq!(t.peer(PortId::new(h, 0)).node, leaf);
                }
                for &spine in &nav.aggs[pod] {
                    assert!(
                        linked(&t, leaf, spine),
                        "{} {}",
                        t.name(leaf),
                        t.name(spine)
                    );
                }
            }
        }
    }

    #[test]
    fn egress_reports_non_adjacent() {
        let (t, nav) = clos(&ClosConfig::fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY));
        let (e, a) = (nav.edges[0][0], nav.aggs[0][1]);
        let p = t.egress(e, a).unwrap();
        assert_eq!((p.node, t.peer(p).node), (e, a));
        // edge0_0 and core0 are not directly linked.
        let err = t.egress(e, nav.cores[0]).unwrap_err();
        assert!(matches!(err, NavError::NotAdjacent { .. }), "{err}");
        assert_eq!(err.to_string(), "edge0_0 has no link to core0");
    }
}
