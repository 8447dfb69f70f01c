//! Hand-built provenance graphs mirroring Fig. 12's four case studies —
//! shared by the diagnosis and analyzer tests. Ports refer to the real
//! switches of [`topo4`] so topology lookups (peer devices for injection
//! roots) resolve.

use crate::provenance::ProvenanceGraph;
use hawkeye_sim::{chain, FlowKey, NodeId, PortId, Topology, EVAL_BANDWIDTH, EVAL_DELAY};

/// A 4-switch chain with 2 hosts per switch. Switch ports: 0,1 host-facing;
/// 2 toward the previous switch (or the next, for sw0); 3 toward the next.
pub fn topo4() -> Topology {
    chain(4, 2, EVAL_BANDWIDTH, EVAL_DELAY)
}

pub fn fkey(i: u16) -> FlowKey {
    FlowKey::roce(NodeId(0), NodeId(1), i)
}

/// Port `p` of the `sw`-th switch of [`topo4`].
pub fn port(topo: &Topology, sw: usize, p: u8) -> PortId {
    let s = topo.switches().nth(sw).expect("switch exists");
    PortId::new(s, p)
}

/// Fig. 12(a): PFC backpressure by micro-burst incast.
/// SW0.P2 -> SW1.P3 -> SW2.P0 (host-facing terminal); victim F1 paused at
/// SW0.P2; spreading flow F2 paused at both SW0.P2 and SW1.P3; bursts
/// F3..F6 positively contend at SW2.P0, F2 negative there.
pub fn graph_backpressure_contention(topo: &Topology) -> ProvenanceGraph {
    let mut g = ProvenanceGraph::default();
    let p0 = g.add_port_node(port(topo, 0, 2));
    let p1 = g.add_port_node(port(topo, 1, 3));
    let p2 = g.add_port_node(port(topo, 2, 0));
    g.add_port_edge(p0, p1, 100.0);
    g.add_port_edge(p1, p2, 150.0);
    let f1 = g.add_flow_node(fkey(1));
    let f2 = g.add_flow_node(fkey(2));
    g.add_flow_port_edge(f1, p0, 40.0);
    g.add_flow_port_edge(f2, p0, 30.0);
    g.add_flow_port_edge(f2, p1, 35.0);
    for i in 3..=6 {
        let fb = g.add_flow_node(fkey(i));
        g.add_port_flow_edge(p2, fb, 5.0 + i as f64);
    }
    g.add_port_flow_edge(p2, f2, -20.0);
    g
}

/// Fig. 12(b): PFC storm by host injection. SW0.P0 (host-facing, paused by
/// the host) is the terminal with no positive contention; upstream ports
/// wait on it.
pub fn graph_pfc_storm(topo: &Topology) -> ProvenanceGraph {
    let mut g = ProvenanceGraph::default();
    let p_up2 = g.add_port_node(port(topo, 2, 2));
    let p_up = g.add_port_node(port(topo, 1, 2));
    let p_inj = g.add_port_node(port(topo, 0, 0));
    g.add_port_edge(p_up2, p_up, 60.0);
    g.add_port_edge(p_up, p_inj, 80.0);
    let f1 = g.add_flow_node(fkey(1));
    g.add_flow_port_edge(f1, p_up2, 25.0);
    // Only victims at the injection port: all weights <= 0.
    let f2 = g.add_flow_node(fkey(2));
    g.add_port_flow_edge(p_inj, f2, -10.0);
    g
}

/// Fig. 12(c): initiator-in-loop deadlock — four ports in a cycle, each
/// out-degree 1; contention (bursts F10, F11) at the second loop port;
/// flows F1..F4 paused around the loop.
pub fn graph_in_loop_deadlock(topo: &Topology) -> ProvenanceGraph {
    let mut g = ProvenanceGraph::default();
    let ports = [
        port(topo, 0, 2),
        port(topo, 1, 3),
        port(topo, 2, 3),
        port(topo, 3, 2),
    ];
    let ps: Vec<usize> = ports.iter().map(|&p| g.add_port_node(p)).collect();
    for i in 0..4 {
        g.add_port_edge(ps[i], ps[(i + 1) % 4], 50.0 + i as f64);
    }
    for i in 0..4u16 {
        let f = g.add_flow_node(fkey(i + 1));
        g.add_flow_port_edge(f, ps[i as usize], 20.0);
        g.add_flow_port_edge(f, ps[(i as usize + 1) % 4], 15.0);
    }
    let b1 = g.add_flow_node(fkey(10));
    let b2 = g.add_flow_node(fkey(11));
    g.add_port_flow_edge(ps[1], b1, 8.0);
    g.add_port_flow_edge(ps[1], b2, 6.5);
    g
}

/// Fig. 12(d): initiator-out-of-loop deadlock. A 4-port loop; one member
/// also points outside the loop to a host-facing terminal (SW1.P0);
/// `contention_root` selects whether that terminal shows flow contention
/// (true) or host injection (false).
pub fn graph_out_of_loop_deadlock(topo: &Topology, contention_root: bool) -> ProvenanceGraph {
    let mut g = ProvenanceGraph::default();
    let ports = [
        port(topo, 0, 2),
        port(topo, 1, 3),
        port(topo, 2, 3),
        port(topo, 3, 2),
    ];
    let ps: Vec<usize> = ports.iter().map(|&p| g.add_port_node(p)).collect();
    for i in 0..4 {
        g.add_port_edge(ps[i], ps[(i + 1) % 4], 50.0);
    }
    let escape = g.add_port_node(port(topo, 1, 0));
    g.add_port_edge(ps[0], escape, 70.0);
    for i in 0..4u16 {
        let f = g.add_flow_node(fkey(i + 1));
        g.add_flow_port_edge(f, ps[i as usize], 20.0);
    }
    if contention_root {
        let b = g.add_flow_node(fkey(10));
        g.add_port_flow_edge(escape, b, 9.0);
    } else {
        let v = g.add_flow_node(fkey(20));
        g.add_port_flow_edge(escape, v, -5.0);
    }
    g
}
