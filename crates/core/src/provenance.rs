//! The heterogeneous wait-for provenance graph and its construction
//! (Algorithm 1 of the paper).
//!
//! Nodes are egress ports and flows. Three edge families encode congestion
//! causality:
//! - **port → port**: PFC causality. A paused egress port waits for the
//!   downstream congested egress ports that its traffic feeds, weighted by
//!   `paused_num[Pi] * meter[Pi][Pj] / Σ_k meter[Pi][Pk] * qdepth[Pj]`.
//! - **flow → port**: PFC victimization. A flow waits for each port that
//!   paused it, weighted by its paused-packet count there.
//! - **port → flow**: flow contention. A congested port waits for the flows
//!   occupying its queue; the weight is the flow's *net* contribution
//!   (how much others wait for it minus how much it waits for others), so
//!   contributors are positive and victims negative.
//!
//! The port→flow weights are the one costly part of the graph: each comes
//! from replaying the port's queue packet by packet. Algorithm 2 reads them
//! only at the initial nodes of a PFC spreading path that show no
//! congestion onset, so [`build_graph`] fixes every node and edge position
//! up front and replays a port the first time its weights are read
//! ([`ProvenanceGraph::contention_at`]).

use crate::aggregate::{AggTelemetry, FlowAgg};
#[cfg(test)]
use hawkeye_sim::NodeId;
use hawkeye_sim::{FlowKey, PortId, Topology};
use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

/// Contribution replay tuning.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// Cap on the look-back window (packets) when reconstructing queue
    /// contents; bounds worst-case replay cost.
    pub max_lookback: usize,
    /// Minimum peak per-epoch average queue depth (packets) for a
    /// downstream port to count as a congestion cause: a port that never
    /// queued a few packets deep did not hold anybody's traffic back.
    pub min_qdepth: f64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            max_lookback: 4096,
            min_qdepth: 4.0,
        }
    }
}

/// The provenance graph. Node identity is positional (`ports[i]`,
/// `flows[j]`); adjacency lists are index-based — which is what makes
/// `PartialEq` the *positional identity* check the incremental-vs-batch
/// and cross-shard merge parity properties assert with plain `==`.
///
/// Every node and every edge position exists once the graph is built. The
/// port→flow *weights* of a graph from [`build_graph`] are replayed per
/// port on first read ([`contention_at`](Self::contention_at)) and kept;
/// reads through `&self` are safe from any thread (the graph is `Send +
/// Sync`). [`port_flow_edges`](Self::port_flow_edges), `PartialEq`,
/// [`edge_count`](Self::edge_count) and [`to_dot`](Self::to_dot) read every
/// port. The graph owns its replay input, so it outlives the aggregate it
/// was built from.
#[derive(Debug, Clone, Default)]
pub struct ProvenanceGraph {
    pub ports: Vec<PortId>,
    pub flows: Vec<FlowKey>,
    port_idx: HashMap<PortId, usize>,
    flow_idx: HashMap<FlowKey, usize>,
    /// port -> port wait-for edges (PFC causality).
    pub port_edges: Vec<Vec<(usize, f64)>>,
    /// flow -> port edges (PFC pausing impact on the flow).
    pub flow_port_edges: Vec<Vec<(usize, f64)>>,
    /// port -> flow edges (net contention contribution; signed), one cell
    /// per port node.
    port_flow_edges: Vec<Contention>,
}

/// One port node's port→flow edges: the targets are fixed when the graph
/// is built, the weights are replayed from `input` on first read.
#[derive(Debug, Clone, Default)]
struct Contention {
    /// Flow-node indices of the port's contenders, in flow-key order.
    flows: Vec<usize>,
    /// What their weights are replayed from. A cell built with its edges
    /// already in place leaves `flows` and `input` empty.
    input: PortReplay,
    edges: OnceLock<Vec<(usize, f64)>>,
}

impl Contention {
    fn edges(&self) -> &[(usize, f64)] {
        self.edges.get_or_init(|| {
            let mut edges: Vec<(usize, f64)> = self.flows.iter().map(|&j| (j, 0.0)).collect();
            self.input.replay_into(&mut edges);
            edges
        })
    }
}

impl PartialEq for ProvenanceGraph {
    /// Positional identity, port→flow weights included: reads every port.
    fn eq(&self, other: &Self) -> bool {
        self.ports == other.ports
            && self.flows == other.flows
            && self.port_edges == other.port_edges
            && self.flow_port_edges == other.flow_port_edges
            && self.port_flow_edges() == other.port_flow_edges()
    }
}

impl ProvenanceGraph {
    pub fn port_index(&self, p: PortId) -> Option<usize> {
        self.port_idx.get(&p).copied()
    }

    pub fn flow_index(&self, f: &FlowKey) -> Option<usize> {
        self.flow_idx.get(f).copied()
    }

    /// Insert (or find) a port node. Public so tools and tests can build
    /// graphs directly; `build_graph` is the normal constructor.
    pub fn add_port_node(&mut self, p: PortId) -> usize {
        self.add_port(p)
    }

    /// Insert (or find) a flow node.
    pub fn add_flow_node(&mut self, f: FlowKey) -> usize {
        self.add_flow(f)
    }

    /// Add a port→port wait-for edge by node index.
    pub fn add_port_edge(&mut self, from: usize, to: usize, weight: f64) {
        self.port_edges[from].push((to, weight));
    }

    /// Add a flow→port pausing edge by node index.
    pub fn add_flow_port_edge(&mut self, flow: usize, port: usize, weight: f64) {
        self.flow_port_edges[flow].push((port, weight));
    }

    /// Add a port→flow contention edge by node index (signed weight),
    /// after the port's existing ones.
    pub fn add_port_flow_edge(&mut self, port: usize, flow: usize, weight: f64) {
        let cell = &mut self.port_flow_edges[port];
        cell.edges();
        cell.edges
            .get_mut()
            .expect("filled by the read above")
            .push((flow, weight));
    }

    fn add_port(&mut self, p: PortId) -> usize {
        *self.port_idx.entry(p).or_insert_with(|| {
            self.ports.push(p);
            self.port_edges.push(Vec::new());
            self.port_flow_edges.push(Contention::default());
            self.ports.len() - 1
        })
    }

    fn add_flow(&mut self, f: FlowKey) -> usize {
        *self.flow_idx.entry(f).or_insert_with(|| {
            self.flows.push(f);
            self.flow_port_edges.push(Vec::new());
            self.flows.len() - 1
        })
    }

    /// Port-level out-degree (Algorithm 2's `outdeg_P`).
    pub fn out_deg_port(&self, port: usize) -> usize {
        self.port_edges[port].len()
    }

    /// Downstream port neighbors of a port node.
    pub fn port_neighbors(&self, port: usize) -> &[(usize, f64)] {
        &self.port_edges[port]
    }

    /// Port-to-flow contention weights at a port node: `(flow node, net
    /// contribution)` in flow-key order. The first read of a port replays
    /// its queue (see [`build_graph`]); later reads return the same slice.
    pub fn contention_at(&self, port: usize) -> &[(usize, f64)] {
        self.port_flow_edges[port].edges()
    }

    /// Every port node's [`contention_at`](Self::contention_at), by port
    /// index. Replays every port not read yet.
    pub fn port_flow_edges(&self) -> Vec<&[(usize, f64)]> {
        self.port_flow_edges.iter().map(Contention::edges).collect()
    }

    /// Whether port node `port`'s weights have been filled — the probe
    /// that shows an unread port was never replayed.
    #[cfg(test)]
    pub(crate) fn contention_filled(&self, port: usize) -> bool {
        self.port_flow_edges[port].edges.get().is_some()
    }

    /// Ports pausing a given flow, with paused-packet weights.
    pub fn pauses_of_flow(&self, flow: usize) -> &[(usize, f64)] {
        &self.flow_port_edges[flow]
    }

    /// Total number of edges (all three families).
    pub fn edge_count(&self) -> usize {
        self.port_edges.iter().map(Vec::len).sum::<usize>()
            + self.flow_port_edges.iter().map(Vec::len).sum::<usize>()
            + self
                .port_flow_edges
                .iter()
                .map(|c| c.edges().len())
                .sum::<usize>()
    }

    /// Graphviz DOT rendering (used by the Fig. 12 case-study harness).
    pub fn to_dot(&self, topo: &Topology) -> String {
        use std::fmt::Write;
        let mut s = String::from("digraph provenance {\n  rankdir=LR;\n");
        for (i, p) in self.ports.iter().enumerate() {
            let _ = writeln!(
                s,
                "  P{i} [shape=box,label=\"{}.P{}\"];",
                topo.name(p.node),
                p.port
            );
        }
        for (j, f) in self.flows.iter().enumerate() {
            let _ = writeln!(s, "  F{j} [shape=ellipse,label=\"{f}\"];");
        }
        for (i, es) in self.port_edges.iter().enumerate() {
            for (k, w) in es {
                let _ = writeln!(s, "  P{i} -> P{k} [label=\"{w:.1}\"];");
            }
        }
        for (j, es) in self.flow_port_edges.iter().enumerate() {
            for (i, w) in es {
                let _ = writeln!(s, "  F{j} -> P{i} [style=dashed,label=\"{w:.0}\"];");
            }
        }
        for (i, es) in self.port_flow_edges().into_iter().enumerate() {
            for (j, w) in es {
                let color = if *w > 0.0 { "red" } else { "gray" };
                let _ = writeln!(s, "  P{i} -> F{j} [color={color},label=\"{w:.2}\"];");
            }
        }
        s.push_str("}\n");
        s
    }
}

/// Port-level provenance edges out of one paused egress port `pi`
/// (Algorithm 1's PFC-causality step, for a single source port).
///
/// `pi`'s link peer B was the pauser; B's congested egresses fed by that
/// link are the waited-for ports. Returns the `(downstream port, weight)`
/// pairs in the deterministic order `build_graph` emits them (meter egress
/// ports sorted). Shared by the batch builder and the incremental engine so
/// both produce bit-identical edge lists.
pub fn port_causality_edges(
    agg: &AggTelemetry,
    topo: &Topology,
    replay: ReplayConfig,
    pi: PortId,
) -> Vec<(PortId, f64)> {
    let mut edges = Vec::new();
    let Some(pa) = agg.ports.get(&pi) else {
        return edges;
    };
    if pa.paused_num == 0 {
        return edges;
    }
    let peer = topo.peer(pi);
    if topo.is_host(peer.node) {
        // Downstream is a host: PFC was injected by it; no port-level
        // edge exists (pi becomes an out-degree-0 initial node).
        return edges;
    }
    let b = peer.node;
    let b_in = peer.port;
    // Algorithm 1 line 5's `sum_meter`.
    let out_ports = agg.meter_out_ports(b, b_in);
    let sum_meter: u64 = out_ports.iter().map(|(_, bytes)| bytes).sum();
    if sum_meter == 0 {
        return edges;
    }
    for (out, bytes) in out_ports {
        let pj = PortId::new(b, out);
        let qdepth = agg.peak_qdepth(pj);
        let pj_paused = agg.ports.get(&pj).map_or(0, |a| a.paused_num);
        // Pj held Pi's traffic back if its queue visibly built up, or
        // if Pj itself was paused with packets arriving (a frozen
        // standing queue is invisible to enqueue-sampled depth).
        if qdepth < replay.min_qdepth && pj_paused == 0 {
            continue;
        }
        let qdepth = if pj_paused > 0 {
            qdepth.max(1.0)
        } else {
            qdepth
        };
        let weight = pa.paused_num as f64 * (bytes as f64 / sum_meter as f64) * qdepth;
        if weight > 0.0 {
            edges.push((pj, weight));
        }
    }
    edges
}

/// Port→flow contention weights at one egress port, replayed independently
/// per epoch (Algorithm 1's T is the epoch size) and summed over the
/// window, so transient bursts keep their intra-epoch dominance instead of
/// being smeared across the whole window. Result is sorted by flow key —
/// the list [`ProvenanceGraph::contention_at`] reads at the port node, by
/// key instead of flow index, from the same replay.
pub fn port_contention(
    agg: &AggTelemetry,
    topo: &Topology,
    replay: ReplayConfig,
    pi: PortId,
) -> Vec<(FlowKey, f64)> {
    let mut keys = Vec::new();
    let input = PortReplay::gather(agg, topo, replay, pi, &mut keys);
    let mut total: Vec<(FlowKey, f64)> = keys.into_iter().map(|k| (k, 0.0)).collect();
    input.replay_into(&mut total);
    total
}

/// One port's contention-replay input, copied out of the aggregate in
/// compact form: only the epochs in which two or more flows contend, each
/// as its contenders' positions in the port's key-sorted contender list
/// with their contention packet counts.
///
/// Leaving out the other epochs is exact. An epoch with no contender emits
/// nothing. An epoch with one emits `(key, +0.0)` (see [`contribution`]),
/// which the contender list already records, and whose weight only adds
/// `+0.0` to that key's sum. Every sum starts at `+0.0`, and under
/// round-to-nearest `a + b` is `−0.0` only when both `a` and `b` are, so no
/// partial sum is ever `−0.0`; and `s + (+0.0)` is `s` for every `s` other
/// than `−0.0`, infinities included. The remaining addends reach each sum
/// in the order the full replay adds them: epochs by start time, an epoch's
/// contenders in list order.
#[derive(Debug, Clone, Default)]
struct PortReplay {
    epoch_ns: f64,
    pkt_tx_ns: f64,
    cfg: ReplayConfig,
    /// Where each kept epoch's run in `active` ends.
    ends: Vec<usize>,
    /// `(position in the contender list, contention packets)`, every kept
    /// epoch's contenders in list order, epochs by start time.
    active: Vec<(usize, u64)>,
}

impl PortReplay {
    /// Read `pi`'s epochs: leave the port's contenders — flows with
    /// contention packets in some epoch — in `keys`, sorted and deduplicated,
    /// and return the replay input of its weights.
    fn gather(
        agg: &AggTelemetry,
        topo: &Topology,
        cfg: ReplayConfig,
        pi: PortId,
        keys: &mut Vec<FlowKey>,
    ) -> PortReplay {
        keys.clear();
        let (mut epochs, mut entries) = (0, 0);
        for (_, flows) in agg.epoch_detail_at(pi) {
            let before = keys.len();
            keys.extend(contenders(flows).map(|(k, _)| k));
            let n = keys.len() - before;
            if n >= 2 {
                epochs += 1;
                entries += n;
            }
        }
        keys.sort_unstable();
        keys.dedup();
        if epochs == 0 {
            return PortReplay::default();
        }
        let mut input = PortReplay {
            epoch_ns: agg.epoch_len.as_nanos() as f64,
            pkt_tx_ns: topo
                .port(pi)
                .bandwidth
                .tx_time(hawkeye_sim::DATA_PKT_SIZE)
                .as_nanos() as f64,
            cfg,
            ends: Vec::with_capacity(epochs),
            active: Vec::with_capacity(entries),
        };
        for (_, flows) in agg.epoch_detail_at(pi) {
            let start = input.active.len();
            input.active.extend(contenders(flows).map(|(k, pkts)| {
                let pos = keys.binary_search(&k).expect("gathered above");
                (pos, pkts)
            }));
            if input.active.len() - start >= 2 {
                input.ends.push(input.active.len());
            } else {
                input.active.truncate(start);
            }
        }
        input
    }

    /// Add each kept epoch's replayed weights into `sums`, indexed by
    /// contender position. The one replay body behind both
    /// [`port_contention`] and [`ProvenanceGraph::contention_at`].
    fn replay_into<T>(&self, sums: &mut [(T, f64)]) {
        let mut buffers = ReplayBuffers::default();
        let mut start = 0;
        for &end in &self.ends {
            let epoch = &self.active[start..end];
            buffers.contribution(epoch, self.epoch_ns, self.pkt_tx_ns, self.cfg, |pos, w| {
                sums[pos].1 += w;
            });
            start = end;
        }
    }
}

/// An epoch's flows with contention packets, `(flow, packets)` in list
/// order: the flows its replay runs over.
fn contenders(flows: &[(FlowKey, FlowAgg)]) -> impl Iterator<Item = (FlowKey, u64)> + '_ {
    flows
        .iter()
        .map(|(k, fa)| (*k, fa.contention_pkts()))
        .filter(|&(_, pkts)| pkts > 0)
}

/// Ports, port→port edges and flow→port edges of the graph over `agg`, in
/// the one construction order every builder shares, plus the sorted port
/// list. Port node `i` is `ports[i]`; ports first seen as a port→port
/// target come after them.
fn skeleton(
    agg: &AggTelemetry,
    frag_port: &HashMap<PortId, Vec<(PortId, f64)>>,
) -> (ProvenanceGraph, Vec<PortId>) {
    let mut g = ProvenanceGraph::default();

    // Deterministic port ordering.
    let mut ports: Vec<PortId> = agg.ports.keys().copied().collect();
    ports.sort_unstable();
    for &p in &ports {
        g.add_port(p);
    }

    // --- Port-level provenance (PFC causality). ---
    for &pi in &ports {
        if let Some(es) = frag_port.get(&pi) {
            for &(pj, weight) in es {
                let i = g.add_port(pi);
                let j = g.add_port(pj);
                g.port_edges[i].push((j, weight));
            }
        }
    }

    // --- Flow-port provenance (PFC impact on flows). ---
    let mut flow_ports: Vec<(&(FlowKey, PortId), &FlowAgg)> = agg.flows.iter().collect();
    flow_ports.sort_unstable_by_key(|((k, p), _)| (*k, *p));
    for ((key, port), fa) in flow_ports {
        if fa.paused_num > 0 {
            let j = g.add_flow(*key);
            let i = g.add_port(*port);
            g.flow_port_edges[j].push((i, fa.paused_num as f64));
        }
    }
    (g, ports)
}

/// Assemble a provenance graph from precomputed per-port edge fragments,
/// port→flow weights included (no replay is deferred).
///
/// Node-creation and edge-push order is [`build_graph`]'s, so a graph
/// assembled from cached fragments (the incremental engine) is
/// *positionally identical* — same `ports[i]` / `flows[j]` indices, same
/// adjacency lists — to a from-scratch [`build_graph`] over the same
/// aggregate.
pub(crate) fn assemble_graph(
    agg: &AggTelemetry,
    frag_port: &HashMap<PortId, Vec<(PortId, f64)>>,
    frag_cont: &HashMap<PortId, Vec<(FlowKey, f64)>>,
) -> ProvenanceGraph {
    let (mut g, ports) = skeleton(agg, frag_port);
    // --- Port-flow provenance (contention contribution via replay). ---
    for (i, pi) in ports.iter().enumerate() {
        if let Some(cs) = frag_cont.get(pi) {
            let edges: Vec<(usize, f64)> =
                cs.iter().map(|&(key, w)| (g.add_flow(key), w)).collect();
            g.port_flow_edges[i].edges = OnceLock::from(edges);
        }
    }
    g
}

/// Algorithm 1: construct the provenance graph from reported telemetry.
///
/// Every node, every port→port and flow→port edge and every port→flow
/// edge *target* is built here. A port's contenders — the flows with
/// contention packets in some epoch there — are exactly the keys a replay
/// of the port emits (a lone contender emits `+0.0`, two or more emit every
/// active key), so the flow nodes get the indices a full replay would give
/// them without running it. The port→flow *weights* are replayed per port
/// on the first [`ProvenanceGraph::contention_at`] of that port, from a
/// compact copy of its epochs the graph keeps, through the same kernel and
/// summation order [`port_contention`] uses, so they are bit-identical to
/// it.
///
/// `agg` must describe `topo`'s own switches: a port that is not one of
/// theirs panics at the topology lookup.
pub fn build_graph(agg: &AggTelemetry, topo: &Topology, replay: ReplayConfig) -> ProvenanceGraph {
    let frag_port: HashMap<PortId, Vec<(PortId, f64)>> = agg
        .ports
        .keys()
        .map(|&pi| (pi, port_causality_edges(agg, topo, replay, pi)))
        .collect();
    let (mut g, ports) = skeleton(agg, &frag_port);
    // --- Port-flow provenance: targets now, weights on first read. ---
    let mut keys = Vec::new();
    for (i, &pi) in ports.iter().enumerate() {
        let input = PortReplay::gather(agg, topo, replay, pi, &mut keys);
        let flows = keys.iter().map(|&key| g.add_flow(key)).collect();
        g.port_flow_edges[i] = Contention {
            flows,
            input,
            edges: OnceLock::new(),
        };
    }
    g
}

/// `ReplayQueue` + `Contribution` of Algorithm 1, for one epoch of one
/// egress port.
///
/// The data plane records only per-flow packet counts (paused enqueues
/// excluded), so the queue is *replayed*: each flow's contention packets
/// are spread uniformly over the epoch `T` (Algorithm 1 line 24), merged
/// into one arrival sequence, and pushed through a FIFO queue draining at
/// the port's line rate. `W[i][j]` counts how many of flow `j`'s packets a
/// packet of flow `i` found ahead of itself in the replayed queue; the net
/// contribution of flow `j` is then "how much others wait for `j`" minus
/// "how much `j` waits for others" (§3.5.1).
///
/// `epoch_ns` is the epoch length and `pkt_tx_ns` the serialization time of
/// one full data MTU at the port's bandwidth (packets are replayed at MTU
/// size; the telemetry does not retain per-packet sizes).
///
/// The replay does only the work that can change a weight, and every
/// weight is bit-identical to materialising all arrivals, stable-sorting
/// them by time and replaying that list (the `#[cfg(test)]`
/// `contribution_oracle`, compared `to_bits` by `replay_props`):
///
/// - **One active flow is not replayed.** With n = 1 the matrix is the
///   single self term `x = W[0][0] / pkts`, finite because `pkts > 0`, and
///   the net weight is `x − x`, which is `+0.0` for every finite `x` under
///   round-to-nearest. The `(key, +0.0)` entry is still emitted: the flow
///   contends at the port, and is a node under it in the graph.
/// - **n ≥ 2 flows are merged, not sorted.** Packet `j` of a flow arrives
///   at `fl(fl(j·T) / pkts)`. `j ↦ j as f64`, multiplication by `T ≥ 0` and
///   division by `pkts > 0` are each monotone and rounding preserves `≤`,
///   so a flow's own arrivals are non-decreasing in `j`. A stable sort of
///   the flows' concatenated streams therefore keeps each stream in `j`
///   order and puts equal times in flow-index order, which is exactly what
///   taking the earliest head with ties to the lower flow index yields. No
///   arrival list exists, so memory is O(flows² + `max_lookback`) whatever
///   packet counts the telemetry claims; time stays linear in them.
///
/// Arrival times are finite for every epoch length a `Nanos` can hold,
/// which is what lets `+∞` mark a stream that has run out.
pub fn contribution(
    flows: &[(FlowKey, FlowAgg)],
    epoch_ns: f64,
    pkt_tx_ns: f64,
    cfg: ReplayConfig,
) -> Vec<(FlowKey, f64)> {
    let active: Vec<(FlowKey, u64)> = contenders(flows).collect();
    let mut out = Vec::new();
    ReplayBuffers::default().contribution(&active, epoch_ns, pkt_tx_ns, cfg, |key, w| {
        out.push((key, w));
    });
    out
}

/// The replay's working memory, kept across the epochs of one port so a
/// port's replay allocates it once rather than once per epoch.
#[derive(Default)]
struct ReplayBuffers {
    /// Per active flow: its next packet's index and arrival time (`+∞`
    /// once the flow has none left).
    heads: Vec<(u64, f64)>,
    /// `W`, row-major n × n.
    w: Vec<u64>,
    in_queue: Vec<u64>,
    /// The replayed FIFO: (departure time, flow index).
    queue: VecDeque<(f64, usize)>,
}

impl ReplayBuffers {
    /// [`contribution`] over one epoch's active flows — `(id, contention
    /// packets > 0)` in the epoch list's order — handing each `(id, net
    /// weight)` to `emit` in that order.
    fn contribution<K: Copy>(
        &mut self,
        active: &[(K, u64)],
        epoch_ns: f64,
        pkt_tx_ns: f64,
        cfg: ReplayConfig,
        mut emit: impl FnMut(K, f64),
    ) {
        let ReplayBuffers {
            heads,
            w,
            in_queue,
            queue,
        } = self;
        let n = active.len();
        match n {
            0 => return,
            1 => return emit(active[0].0, 0.0),
            _ => {}
        }

        // ReplayQueue: uniform interleave over the epoch.
        let arrival = |j: u64, pkts: u64| j as f64 * epoch_ns / pkts as f64;
        heads.clear();
        heads.extend(active.iter().map(|&(_, pkts)| (0, arrival(0, pkts))));
        w.clear();
        w.resize(n * n, 0);
        in_queue.clear();
        in_queue.resize(n, 0);
        queue.clear();

        // Replay a FIFO queue draining one MTU per pkt_tx_ns.
        let mut busy_until = 0.0f64;
        loop {
            // Earliest head; same-time arrivals go in flow order.
            let (mut fi, mut t) = (usize::MAX, f64::INFINITY);
            for (i, &(_, head)) in heads.iter().enumerate() {
                if head < t {
                    (fi, t) = (i, head);
                }
            }
            if fi == usize::MAX {
                break;
            }
            let (j, pkts) = (heads[fi].0 + 1, active[fi].1);
            heads[fi] = (
                j,
                if j < pkts {
                    arrival(j, pkts)
                } else {
                    f64::INFINITY
                },
            );

            while let Some(&(done, g)) = queue.front() {
                if done <= t {
                    queue.pop_front();
                    in_queue[g] -= 1;
                } else {
                    break;
                }
            }
            // The queue contents this packet waits behind.
            for (g, &cnt) in in_queue.iter().enumerate() {
                w[fi * n + g] += cnt;
            }
            busy_until = busy_until.max(t) + pkt_tx_ns;
            if queue.len() < cfg.max_lookback {
                queue.push_back((busy_until, fi));
                in_queue[fi] += 1;
            }
        }

        // Normalize per packet of the waiting flow, then net out:
        // Contrb[f] = sum_j w(f_j, f) - sum_k w(f, f_k)  (others waiting for f
        // minus f waiting for others); self terms cancel.
        let norm = |i: usize, j: usize| w[i * n + j] as f64 / active[i].1 as f64;
        for (fi, &(key, _)) in active.iter().enumerate() {
            let waited_on: f64 = (0..n).map(|j| norm(j, fi)).sum();
            let waiting: f64 = (0..n).map(|j| norm(fi, j)).sum();
            emit(key, waited_on - waiting);
        }
    }
}

/// Severity of PFC pausing on a specific flow at each hop: the flow-port
/// edges, resolved to ports (Fig. 12's dashed edges).
pub fn victim_extents(g: &ProvenanceGraph, victim: &FlowKey) -> Vec<(PortId, f64)> {
    let Some(v) = g.flow_index(victim) else {
        return Vec::new();
    };
    g.pauses_of_flow(v)
        .iter()
        .map(|&(p, w)| (g.ports[p], w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{FlowAgg, PortAgg, Window};
    use hawkeye_sim::Nanos;

    pub(super) fn key(i: u16) -> FlowKey {
        FlowKey::roce(NodeId(0), NodeId(1), i)
    }

    pub(super) fn fa(pkts: u64, paused: u64, qdepth_each: u64) -> FlowAgg {
        FlowAgg {
            pkt_num: pkts,
            paused_num: paused,
            qdepth_sum: qdepth_each * pkts,
            epochs_active: 1,
        }
    }

    /// Epoch of 8 us with 80 ns per packet: 100 packets of drain capacity.
    const EPOCH: f64 = 8000.0;
    const TX: f64 = 80.0;

    fn contrib(flows: &[(FlowKey, FlowAgg)]) -> Vec<(FlowKey, f64)> {
        contribution(flows, EPOCH, TX, ReplayConfig::default())
    }

    #[test]
    fn contribution_burst_dominates_background() {
        // A heavy burst (100 pkts) vs a light background flow (5 pkts) in
        // an epoch with 100 packets of drain capacity: the queue builds and
        // the burst must be the positive contributor.
        let flows = vec![(key(1), fa(100, 0, 50)), (key(2), fa(5, 0, 50))];
        let m: HashMap<_, _> = contrib(&flows).into_iter().collect();
        assert!(m[&key(1)] > 0.0, "burst contributes: {m:?}");
        assert!(m[&key(2)] < 0.0, "background is a victim: {m:?}");
    }

    #[test]
    fn contribution_symmetric_flows_net_near_zero() {
        // Perfectly interleaved equal flows cancel up to the replay's
        // same-time tie-break edge effect.
        let flows = vec![(key(1), fa(60, 0, 20)), (key(2), fa(60, 0, 20))];
        let c = contrib(&flows);
        let total_q: f64 = c.iter().map(|(_, w)| w.abs()).sum();
        for (_, w) in c {
            assert!(w.abs() <= total_q.max(1.0), "bounded: {w}");
        }
        // And they must be opposite-signed (sum to ~0).
        let sum: f64 = contrib(&flows).iter().map(|(_, w)| w).sum();
        assert!(sum.abs() < 1e-6, "net sum cancels: {sum}");
    }

    #[test]
    fn contribution_undersubscribed_queue_is_flat() {
        // 50 packets into 100 packets of capacity: the replayed queue never
        // builds, so nobody contributes.
        let flows = vec![(key(1), fa(30, 0, 0)), (key(2), fa(20, 0, 0))];
        for (_, w) in contrib(&flows) {
            assert!(w.abs() < 2.0, "no queue, no contribution: {w}");
        }
    }

    #[test]
    fn contribution_excludes_paused_packets() {
        // All of flow 2's packets were paused enqueues: it must not appear
        // in contention at all.
        let flows = vec![(key(1), fa(50, 0, 10)), (key(2), fa(30, 30, 10))];
        let c = contrib(&flows);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].0, key(1));
    }

    #[test]
    fn contribution_empty_when_everything_paused() {
        let flows = vec![(key(1), fa(10, 10, 10))];
        assert!(contrib(&flows).is_empty());
    }

    pub(super) fn tiny_topo() -> (Topology, Vec<NodeId>, Vec<NodeId>) {
        // h0 - sw0 - sw1 - h1 chain.
        let t = hawkeye_sim::chain(2, 1, hawkeye_sim::EVAL_BANDWIDTH, hawkeye_sim::EVAL_DELAY);
        let hosts: Vec<_> = t.hosts().collect();
        let sws: Vec<_> = t.switches().collect();
        (t, hosts, sws)
    }

    #[test]
    fn port_edges_follow_meter_and_pause() {
        let (topo, _hosts, sws) = tiny_topo();
        // sw0 port 1 connects to sw1 port 1 (port 0 is each switch's host).
        let pi = PortId::new(sws[0], 1);
        let pj = PortId::new(sws[1], 0); // sw1's host-facing egress
        let mut agg = AggTelemetry {
            window: Window {
                from: Nanos(0),
                to: Nanos(1 << 20),
            },
            epoch_len: Nanos(1 << 20),
            ..Default::default()
        };
        agg.ports.insert(
            pi,
            PortAgg {
                pkt_num: 100,
                paused_num: 40,
                qdepth_sum: 1000,
            },
        );
        agg.ports.insert(
            pj,
            PortAgg {
                pkt_num: 200,
                paused_num: 0,
                qdepth_sum: 4000,
            },
        );
        // sw1 ingress from sw0 is its port 1; meter says that traffic goes
        // to sw1 port 0.
        agg.meters.insert((sws[1], 1, 0), 100_000);
        let g = build_graph(&agg, &topo, ReplayConfig::default());
        let i = g.port_index(pi).unwrap();
        let j = g.port_index(pj).unwrap();
        assert_eq!(g.port_neighbors(i), &[(j, 40.0 * 1.0 * 20.0)]);
        assert_eq!(g.out_deg_port(j), 0, "pj is the initial node");
    }

    #[test]
    fn host_facing_paused_port_has_no_port_edges() {
        let (topo, _hosts, sws) = tiny_topo();
        let p_host = PortId::new(sws[1], 0); // faces h1
        let mut agg = AggTelemetry::default();
        agg.ports.insert(
            p_host,
            PortAgg {
                pkt_num: 50,
                paused_num: 50,
                qdepth_sum: 500,
            },
        );
        let g = build_graph(&agg, &topo, ReplayConfig::default());
        let i = g.port_index(p_host).unwrap();
        assert_eq!(g.out_deg_port(i), 0, "host injection: out-degree 0");
    }

    #[test]
    fn flow_port_edges_carry_paused_counts() {
        let (topo, _hosts, sws) = tiny_topo();
        let p = PortId::new(sws[0], 1);
        let mut agg = AggTelemetry::default();
        agg.ports.insert(
            p,
            PortAgg {
                pkt_num: 10,
                paused_num: 7,
                qdepth_sum: 0,
            },
        );
        agg.flows.insert((key(9), p), fa(10, 7, 3));
        let g = build_graph(&agg, &topo, ReplayConfig::default());
        let v = g.flow_index(&key(9)).unwrap();
        let i = g.port_index(p).unwrap();
        assert_eq!(g.pauses_of_flow(v), &[(i, 7.0)]);
        assert_eq!(victim_extents(&g, &key(9)), vec![(p, 7.0)]);
    }

    #[test]
    fn dot_rendering_mentions_all_nodes() {
        let (topo, _hosts, sws) = tiny_topo();
        let p = PortId::new(sws[0], 1);
        let mut agg = AggTelemetry::default();
        agg.ports.insert(
            p,
            PortAgg {
                pkt_num: 10,
                paused_num: 7,
                qdepth_sum: 0,
            },
        );
        agg.flows.insert((key(9), p), fa(10, 7, 3));
        let g = build_graph(&agg, &topo, ReplayConfig::default());
        let dot = g.to_dot(&topo);
        assert!(dot.contains("sw0.P1"));
        assert!(dot.contains("shape=ellipse"));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn default_graph_is_empty() {
        let g = ProvenanceGraph::default();
        assert!(g.ports.is_empty());
        assert_eq!(g.edge_count(), 0);
    }
}

/// The replay kernel against the sort-everything body it replaced.
#[cfg(test)]
mod replay_props {
    use super::tests::{key, tiny_topo};
    use super::*;
    use crate::aggregate::{sort_epoch_flows, PortAgg};
    use hawkeye_sim::Nanos;
    use proptest::prelude::*;

    /// `contribution` as it was before the merge: every packet of every
    /// active flow materialised, stable-sorted by arrival time, replayed —
    /// lone flows included. Kept as the reference the kernel is checked
    /// against bit for bit.
    fn contribution_oracle(
        flows: &[(FlowKey, FlowAgg)],
        epoch_ns: f64,
        pkt_tx_ns: f64,
        cfg: ReplayConfig,
    ) -> Vec<(FlowKey, f64)> {
        let active: Vec<(FlowKey, u64)> = flows
            .iter()
            .filter(|(_, fa)| fa.contention_pkts() > 0)
            .map(|(k, fa)| (*k, fa.contention_pkts()))
            .collect();
        if active.is_empty() {
            return Vec::new();
        }
        let n = active.len();

        // ReplayQueue: uniform interleave over the epoch.
        let mut arrivals: Vec<(f64, usize)> = Vec::new();
        for (fi, &(_, pkts)) in active.iter().enumerate() {
            for j in 0..pkts {
                arrivals.push((j as f64 * epoch_ns / pkts as f64, fi));
            }
        }
        // Stable sort keeps same-time arrivals in flow order: deterministic.
        arrivals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        // Replay a FIFO queue draining one MTU per pkt_tx_ns.
        let mut w = vec![0u64; n * n];
        let mut queue: VecDeque<(f64, usize)> = VecDeque::new();
        let mut in_queue = vec![0u64; n];
        let mut busy_until = 0.0f64;
        for &(t, fi) in &arrivals {
            while let Some(&(done, g)) = queue.front() {
                if done <= t {
                    queue.pop_front();
                    in_queue[g] -= 1;
                } else {
                    break;
                }
            }
            // The queue contents this packet waits behind.
            for (g, &cnt) in in_queue.iter().enumerate() {
                w[fi * n + g] += cnt;
            }
            busy_until = busy_until.max(t) + pkt_tx_ns;
            if queue.len() < cfg.max_lookback {
                queue.push_back((busy_until, fi));
                in_queue[fi] += 1;
            }
        }

        // Normalize per packet of the waiting flow, then net out:
        // Contrb[f] = sum_j w(f_j, f) - sum_k w(f, f_k)  (others waiting for f
        // minus f waiting for others); self terms cancel.
        let norm = |i: usize, j: usize| w[i * n + j] as f64 / active[i].1 as f64;
        active
            .iter()
            .enumerate()
            .map(|(fi, &(key, _))| {
                let waited_on: f64 = (0..n).map(|j| norm(j, fi)).sum();
                let waiting: f64 = (0..n).map(|j| norm(fi, j)).sum();
                (key, waited_on - waiting)
            })
            .collect()
    }

    fn fa(pkts: u64, paused: u64) -> FlowAgg {
        super::tests::fa(pkts, paused, 0)
    }

    fn bits(c: Vec<(FlowKey, f64)>) -> Vec<(FlowKey, u64)> {
        c.into_iter().map(|(k, w)| (k, w.to_bits())).collect()
    }

    /// One flow record: contention packets from every size class the
    /// replay treats differently (none, a handful that all tie, a queue
    /// that stays under the lookback cap, one that exceeds it), wrapped in
    /// counters that are clean, partly paused, or claim more paused
    /// enqueues than enqueues.
    fn flow_strategy() -> impl Strategy<Value = FlowAgg> {
        let contention = (0..5u8, 0u64..2000).prop_map(|(class, raw)| match class {
            0 => 0,
            1 => 1 + raw % 3,
            2 => 1 + raw % 20,
            3 => 1 + raw % 400,
            _ => 1 + raw,
        });
        (contention, 0u64..50, 0..3u8).prop_map(|(c, extra, shape)| match shape {
            0 => fa(c, 0),
            1 => fa(c + extra, extra),
            _ => fa(c, c + 1 + extra),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Key for key and bit for bit the oracle's answer: lone flows,
        /// all-tie streams (`epoch_ns` 0, equal counts), drained and
        /// saturated queues, lookback caps that bite on the first packets.
        #[test]
        fn kernel_equals_the_sorting_oracle(
            flows in proptest::collection::vec(flow_strategy(), 1..13),
            epoch_ns in (0..4usize).prop_map(|i| [0.0, 8e3, 1e5, (1u64 << 20) as f64][i]),
            pkt_tx_ns in (0..3usize).prop_map(|i| [8.0, 80.0, 800.0][i]),
            max_lookback in (0..2u8, 1usize..50).prop_map(|(c, small)| if c == 0 { small } else { 4096 }),
        ) {
            let flows: Vec<(FlowKey, FlowAgg)> = flows
                .into_iter()
                .enumerate()
                .map(|(i, fa)| (key(i as u16), fa))
                .collect();
            let cfg = ReplayConfig { max_lookback, ..ReplayConfig::default() };
            prop_assert_eq!(
                bits(contribution(&flows, epoch_ns, pkt_tx_ns, cfg)),
                bits(contribution_oracle(&flows, epoch_ns, pkt_tx_ns, cfg))
            );
        }
    }

    fn one_port_agg(epoch_len: u64) -> (Topology, PortId, AggTelemetry) {
        let (topo, _hosts, sws) = tiny_topo();
        let pi = PortId::new(sws[0], 1);
        let mut agg = AggTelemetry {
            epoch_len: Nanos(epoch_len),
            ..Default::default()
        };
        agg.ports.insert(pi, PortAgg::default());
        (topo, pi, agg)
    }

    /// `port_contention` replays the port's epochs in start order over the
    /// key-sorted lists and sums per flow in that order — whatever order
    /// the lists were filled in.
    #[test]
    fn port_contention_is_the_oracle_summed_in_epoch_order() {
        const T: u64 = 1 << 13;
        let (topo, pi, mut agg) = one_port_agg(T);
        let epochs = agg.port_epochs.entry(pi).or_default();
        let all_tie = vec![
            (key(5), fa(60, 0)),
            (key(2), fa(60, 0)),
            (key(9), fa(60, 0)),
        ];
        epochs.insert(3 * T, (PortAgg::default(), all_tie.clone()));
        epochs.insert(
            T,
            (
                PortAgg::default(),
                vec![(key(7), fa(120, 0)), (key(1), fa(5, 0))],
            ),
        );
        epochs.insert(2 * T, (PortAgg::default(), vec![(key(4), fa(40, 0))]));
        epochs.insert(
            0,
            (
                PortAgg::default(),
                vec![
                    (key(5), fa(80, 0)),
                    (key(2), fa(30, 30)),
                    (key(1), fa(90, 10)),
                ],
            ),
        );
        let unsorted = agg.port_epochs[&pi].clone();
        sort_epoch_flows(agg.port_epochs.get_mut(&pi).expect("just filled"));

        let replay = ReplayConfig::default();
        let epoch_ns = T as f64;
        let pkt_tx_ns = topo
            .port(pi)
            .bandwidth
            .tx_time(hawkeye_sim::DATA_PKT_SIZE)
            .as_nanos() as f64;
        let mut total: HashMap<FlowKey, f64> = HashMap::new();
        for (_, flows) in unsorted.values() {
            let mut flows = flows.clone();
            flows.sort_by_key(|(k, _)| *k);
            for (k, w) in contribution_oracle(&flows, epoch_ns, pkt_tx_ns, replay) {
                *total.entry(k).or_default() += w;
            }
        }
        let mut expected: Vec<(FlowKey, f64)> = total.into_iter().collect();
        expected.sort_by_key(|(k, _)| *k);
        assert_eq!(
            bits(port_contention(&agg, &topo, replay, pi)),
            bits(expected)
        );
        // The case has teeth: when every arrival ties, list order decides
        // who queues behind whom.
        let mut sorted = all_tie.clone();
        sorted.sort_by_key(|(k, _)| *k);
        let in_order = |flows: &[(FlowKey, FlowAgg)]| {
            let mut c = contribution_oracle(flows, epoch_ns, pkt_tx_ns, replay);
            c.sort_by_key(|(k, _)| *k);
            bits(c)
        };
        assert_ne!(in_order(&all_tie), in_order(&sorted));
    }

    /// The shortcut skips the replay, not the entry: a flow alone at a
    /// port in its epoch is still a node under that port, at weight +0.0.
    #[test]
    fn lone_flow_epoch_keeps_its_zero_entry() {
        let lone = [(key(1), fa(610, 10)), (key(2), fa(7, 7))];
        assert_eq!(
            bits(contribution(&lone, 8000.0, 80.0, ReplayConfig::default())),
            vec![(key(1), 0f64.to_bits())]
        );
        let (topo, pi, mut agg) = one_port_agg(1 << 13);
        agg.port_epochs
            .entry(pi)
            .or_default()
            .insert(0, (PortAgg::default(), lone.to_vec()));
        let g = build_graph(&agg, &topo, ReplayConfig::default());
        let p = g.port_index(pi).expect("port node");
        let f = g.flow_index(&key(1)).expect("the lone flow is a node");
        assert_eq!(g.contention_at(p), &[(f, 0.0)]);
        assert!(g.flow_index(&key(2)).is_none(), "paused-only: no node");
    }
}

/// The deferred port→flow weights against the eager assembly they replace.
#[cfg(test)]
mod lazy_props {
    use super::*;
    use crate::aggregate::{sort_epoch_flows, PortAgg};
    use hawkeye_sim::{chain, Nanos, EVAL_BANDWIDTH, EVAL_DELAY};
    use proptest::prelude::*;

    const T: u64 = 1 << 13;

    /// `(flow, enqueues, paused enqueues)` of one record.
    type FlowRow = (u16, u64, u64);
    /// `(port, per-epoch flow records, port counters, listed)`: `listed`
    /// 0 leaves the port out of `agg.ports`, so its epochs are evidence no
    /// port node reads.
    type PortRow = (usize, Vec<Vec<FlowRow>>, (u64, u64, u64), u8);

    fn key(i: u16) -> FlowKey {
        FlowKey::roce(NodeId(0), NodeId(1), i)
    }

    /// Random aggregates over `chain(3, 2)`, shaped like `properties.rs`'s
    /// `build_graph_deterministic` (port counters on every switch's first
    /// three ports, meters on the middle switch) plus per-epoch flow
    /// records: none, lone and several contenders per epoch, paused-only
    /// records, a flow repeated within an epoch, ports with epochs but no
    /// port node.
    fn agg_strategy() -> impl Strategy<Value = (Vec<PortRow>, Vec<(u8, u8, u64)>)> {
        let flow = (0u16..6, 0u64..300, 0u64..40);
        let epoch = proptest::collection::vec(flow, 0..5);
        let port = (
            0usize..9,
            proptest::collection::vec(epoch, 0..4),
            (0u64..500, 0u64..500, 0u64..5000),
            0u8..4,
        );
        (
            proptest::collection::vec(port, 1..7),
            proptest::collection::vec((0u8..4, 0u8..4, 1u64..1_000_000), 0..6),
        )
    }

    fn build_agg(topo: &Topology, rows: &[PortRow], meters: &[(u8, u8, u64)]) -> AggTelemetry {
        let sws: Vec<NodeId> = topo.switches().collect();
        let mut agg = AggTelemetry {
            epoch_len: Nanos(T),
            ..Default::default()
        };
        for (p, epochs, (pkt, paused, qd), listed) in rows {
            let port = PortId::new(sws[p % 3], (p / 3) as u8);
            if *listed > 0 {
                agg.ports.insert(
                    port,
                    PortAgg {
                        pkt_num: (*pkt).max(*paused),
                        paused_num: *paused,
                        qdepth_sum: *qd,
                    },
                );
            }
            for (e, records) in epochs.iter().enumerate() {
                let flows: Vec<(FlowKey, FlowAgg)> = records
                    .iter()
                    .map(|&(k, pkt_num, paused_num)| {
                        let fa = FlowAgg {
                            pkt_num,
                            paused_num,
                            qdepth_sum: 3 * pkt_num,
                            epochs_active: 1,
                        };
                        let total = agg.flows.entry((key(k), port)).or_default();
                        total.pkt_num += pkt_num;
                        total.paused_num += paused_num;
                        total.epochs_active += 1;
                        (key(k), fa)
                    })
                    .collect();
                let pe = PortAgg {
                    pkt_num: *pkt,
                    paused_num: *paused,
                    qdepth_sum: qd / (e as u64 + 1),
                };
                agg.port_epochs
                    .entry(port)
                    .or_default()
                    .insert(e as u64 * T, (pe, flows));
            }
        }
        for &(ip, op, bytes) in meters {
            agg.meters.insert((sws[1], ip, op), bytes);
        }
        agg.port_epochs.values_mut().for_each(sort_epoch_flows);
        agg
    }

    /// `port_contention` before the compact input: every epoch through
    /// `contribution`, lone and empty ones included, summed per key in a
    /// map from `+0.0`, then sorted by key.
    fn port_contention_oracle(
        agg: &AggTelemetry,
        topo: &Topology,
        replay: ReplayConfig,
        pi: PortId,
    ) -> Vec<(FlowKey, u64)> {
        let epoch_ns = agg.epoch_len.as_nanos() as f64;
        let pkt_tx_ns = topo
            .port(pi)
            .bandwidth
            .tx_time(hawkeye_sim::DATA_PKT_SIZE)
            .as_nanos() as f64;
        let mut total: HashMap<FlowKey, f64> = HashMap::new();
        for (_, flows) in agg.epoch_detail_at(pi) {
            for (key, w) in contribution(flows, epoch_ns, pkt_tx_ns, replay) {
                *total.entry(key).or_default() += w;
            }
        }
        let mut total: Vec<(FlowKey, u64)> =
            total.into_iter().map(|(k, w)| (k, w.to_bits())).collect();
        total.sort_unstable_by_key(|(k, _)| *k);
        total
    }

    /// The eager oracle: every port's `port_contention`, assembled.
    fn eager(agg: &AggTelemetry, topo: &Topology, replay: ReplayConfig) -> ProvenanceGraph {
        let frag_port = agg
            .ports
            .keys()
            .map(|&pi| (pi, port_causality_edges(agg, topo, replay, pi)))
            .collect();
        let frag_cont = agg
            .ports
            .keys()
            .map(|&pi| (pi, port_contention(agg, topo, replay, pi)))
            .collect();
        assemble_graph(agg, &frag_port, &frag_cont)
    }

    fn bits(es: &[(usize, f64)]) -> Vec<(usize, u64)> {
        es.iter().map(|&(i, w)| (i, w.to_bits())).collect()
    }

    fn all_bits<'a>(lists: impl IntoIterator<Item = &'a [(usize, f64)]>) -> Vec<Vec<(usize, u64)>> {
        lists.into_iter().map(bits).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Read a random subset of ports in random order: each read is the
        /// eager oracle's list bit for bit, the unread ports stay
        /// unreplayed, a clone taken midway equals the original, and the
        /// whole graph is the eager one position for position — whose
        /// weights are in turn the full per-epoch replay's.
        #[test]
        fn deferred_weights_equal_eager_in_any_read_order(
            case in agg_strategy(),
            picks in proptest::collection::vec(0usize..1 << 16, 0..12),
            max_lookback in (0..2u8, 1usize..50).prop_map(|(c, small)| if c == 0 { small } else { 4096 }),
        ) {
            let (rows, meters) = case;
            let topo = chain(3, 2, EVAL_BANDWIDTH, EVAL_DELAY);
            let agg = build_agg(&topo, &rows, &meters);
            let replay = ReplayConfig { max_lookback, ..ReplayConfig::default() };
            // The compact input loses nothing: every port's weights are the
            // full replay's, lone-flow `+0.0` addends included.
            for &pi in agg.ports.keys() {
                let weights: Vec<(FlowKey, u64)> = port_contention(&agg, &topo, replay, pi)
                    .into_iter()
                    .map(|(k, w)| (k, w.to_bits()))
                    .collect();
                prop_assert_eq!(weights, port_contention_oracle(&agg, &topo, replay, pi));
            }
            let lazy = build_graph(&agg, &topo, replay);
            let oracle = eager(&agg, &topo, replay);
            prop_assert_eq!(&lazy.ports, &oracle.ports);
            prop_assert_eq!(&lazy.flows, &oracle.flows);

            let mut read: Vec<usize> = Vec::new();
            for pick in picks.into_iter().filter(|_| !lazy.ports.is_empty()) {
                let p = pick % lazy.ports.len();
                if !read.contains(&p) {
                    read.push(p);
                }
            }
            for &p in &read {
                prop_assert_eq!(bits(lazy.contention_at(p)), bits(oracle.contention_at(p)));
            }
            for p in 0..lazy.ports.len() {
                prop_assert_eq!(lazy.contention_filled(p), read.contains(&p));
            }

            let copy = lazy.clone();
            prop_assert!(copy == lazy, "a partly read clone differs");
            prop_assert_eq!(all_bits(lazy.port_edges.iter().map(Vec::as_slice)),
                            all_bits(oracle.port_edges.iter().map(Vec::as_slice)));
            prop_assert_eq!(all_bits(lazy.flow_port_edges.iter().map(Vec::as_slice)),
                            all_bits(oracle.flow_port_edges.iter().map(Vec::as_slice)));
            prop_assert_eq!(all_bits(lazy.port_flow_edges()), all_bits(oracle.port_flow_edges()));
            prop_assert_eq!(all_bits(copy.port_flow_edges()), all_bits(oracle.port_flow_edges()));
        }
    }

    /// Analyses hand graphs across threads; a filled cell must be safe to
    /// share.
    #[test]
    fn graph_is_send_and_sync() {
        fn shareable<G: Send + Sync>() {}
        shareable::<ProvenanceGraph>();
    }
}
