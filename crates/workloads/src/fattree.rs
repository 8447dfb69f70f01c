//! Structured navigation of the Clos-family topologies built by
//! `hawkeye_sim::clos` / `fat_tree` / `leaf_spine`: which node is which
//! role, and which port connects what — needed by scenario builders that
//! install deliberate routing misconfigurations.
//!
//! Reconstruction goes through a single name → `NodeId` map built in one
//! pass over the node table, so a K=16 tree (1344 nodes) costs O(n)
//! instead of the old O(n²) per-name scan. All lookups return typed
//! [`NavError`]s.

use hawkeye_sim::{ClosConfig, NodeId, PortId, Topology};
use std::collections::HashMap;
use std::fmt;

/// Why a topology could not be navigated as a Clos/fat-tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NavError {
    /// A node the naming scheme requires is absent — the topology was not
    /// produced by the expected builder (or is a degenerate mutation).
    MissingNode { name: String },
    /// Two nodes expected to share a link are not adjacent.
    NotAdjacent { from: String, to: String },
    /// A role index the scenario needs does not exist at these dimensions.
    RoleOutOfRange {
        role: &'static str,
        index: usize,
        len: usize,
    },
}

impl fmt::Display for NavError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NavError::MissingNode { name } => write!(f, "node {name} not found"),
            NavError::NotAdjacent { from, to } => {
                write!(f, "{from} has no link to {to}")
            }
            NavError::RoleOutOfRange { role, index, len } => {
                write!(f, "role {role}[{index}] out of range (len {len})")
            }
        }
    }
}

impl std::error::Error for NavError {}

/// Role-indexed view of a Clos-family topology.
///
/// For three-tier fabrics (`clos` / `fat_tree`) every field is populated.
/// For two-tier leaf-spine fabrics, leaves are grouped into logical pods of
/// two edges each, `aggs[pod]` holds the (shared) spines for every pod, and
/// `cores` is empty — scenario builders that pin traffic through the core
/// tier fall back to pinning at the spine directly.
#[derive(Debug, Clone)]
pub struct FatTreeNav {
    /// Fat-tree parameter for `fat_tree(k)` topologies; for other family
    /// members, the number of logical pods.
    pub k: usize,
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

/// One-pass name → id index over a topology's node table.
fn name_index(topo: &Topology) -> HashMap<&str, NodeId> {
    (0..topo.node_count() as u32)
        .map(NodeId)
        .map(|n| (topo.name(n), n))
        .collect()
}

impl FatTreeNav {
    /// Reconstruct roles from the `fat_tree(k, ..)` naming scheme.
    pub fn try_new(topo: &Topology, k: usize) -> Result<Self, NavError> {
        let half = k / 2;
        Self::try_clos_dims(topo, k, half, half, half, half)
    }

    /// Reconstruct roles from a generalized `clos(cfg)` topology.
    pub fn try_clos(topo: &Topology, cfg: &ClosConfig) -> Result<Self, NavError> {
        Self::try_clos_dims(
            topo,
            cfg.pods,
            cfg.edges_per_pod,
            cfg.aggs_per_pod,
            cfg.hosts_per_edge,
            cfg.cores_per_group,
        )
    }

    fn try_clos_dims(
        topo: &Topology,
        pods: usize,
        epp: usize,
        app: usize,
        hpe: usize,
        cpg: usize,
    ) -> Result<Self, NavError> {
        let index = name_index(topo);
        let find = |name: String| -> Result<NodeId, NavError> {
            index
                .get(name.as_str())
                .copied()
                .ok_or(NavError::MissingNode { name })
        };
        let mut hosts = vec![vec![Vec::new(); epp]; pods];
        for (pod, pod_hosts) in hosts.iter_mut().enumerate() {
            for (e, edge_hosts) in pod_hosts.iter_mut().enumerate() {
                for h in 0..hpe {
                    edge_hosts.push(find(format!("h{}", pod * epp * hpe + e * hpe + h))?);
                }
            }
        }
        let mut edges = Vec::with_capacity(pods);
        let mut aggs = Vec::with_capacity(pods);
        for p in 0..pods {
            edges.push(
                (0..epp)
                    .map(|e| find(format!("edge{p}_{e}")))
                    .collect::<Result<Vec<_>, _>>()?,
            );
            aggs.push(
                (0..app)
                    .map(|a| find(format!("agg{p}_{a}")))
                    .collect::<Result<Vec<_>, _>>()?,
            );
        }
        let cores = (0..app * cpg)
            .map(|c| find(format!("core{c}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(FatTreeNav {
            k: pods,
            hosts,
            edges,
            aggs,
            cores,
            cores_per_group: cpg,
        })
    }

    /// Reconstruct roles from a `leaf_spine(leaves, spines, hosts_per_leaf)`
    /// topology: consecutive leaf pairs form logical pods, spines play the
    /// aggregation role in every pod, and the core tier is empty.
    pub fn try_leaf_spine(
        topo: &Topology,
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
    ) -> Result<Self, NavError> {
        if !leaves.is_multiple_of(2) || leaves == 0 {
            return Err(NavError::RoleOutOfRange {
                role: "leaf-pods",
                index: leaves,
                len: leaves / 2,
            });
        }
        let index = name_index(topo);
        let find = |name: String| -> Result<NodeId, NavError> {
            index
                .get(name.as_str())
                .copied()
                .ok_or(NavError::MissingNode { name })
        };
        let pods = leaves / 2;
        let spine_ids = (0..spines)
            .map(|s| find(format!("spine{s}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut hosts = vec![vec![Vec::new(); 2]; pods];
        let mut edges = Vec::with_capacity(pods);
        for (pod, pod_hosts) in hosts.iter_mut().enumerate() {
            let mut pod_edges = Vec::with_capacity(2);
            for (e, edge_hosts) in pod_hosts.iter_mut().enumerate() {
                let leaf = pod * 2 + e;
                pod_edges.push(find(format!("leaf{leaf}"))?);
                for h in 0..hosts_per_leaf {
                    edge_hosts.push(find(format!("h{}", leaf * hosts_per_leaf + h))?);
                }
            }
            edges.push(pod_edges);
        }
        let aggs = vec![spine_ids; pods];
        Ok(FatTreeNav {
            k: pods,
            hosts,
            edges,
            aggs,
            cores: Vec::new(),
            cores_per_group: 0,
        })
    }

    /// Whether the fabric has a core tier (three-tier Clos vs leaf-spine).
    pub fn is_three_tier(&self) -> bool {
        !self.cores.is_empty()
    }

    /// Navigation dimensions: (pods, edges_per_pod, aggs_per_pod,
    /// hosts_per_edge).
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (
            self.hosts.len(),
            self.edges.first().map_or(0, |e| e.len()),
            self.aggs.first().map_or(0, |a| a.len()),
            self.hosts
                .first()
                .and_then(|p| p.first())
                .map_or(0, |e| e.len()),
        )
    }

    /// The port on `from` whose link leads to `to`.
    pub fn try_port_to(&self, topo: &Topology, from: NodeId, to: NodeId) -> Result<u8, NavError> {
        (0..topo.ports(from).len() as u8)
            .find(|&p| topo.peer(PortId::new(from, p)).node == to)
            .ok_or_else(|| NavError::NotAdjacent {
                from: topo.name(from).to_string(),
                to: topo.name(to).to_string(),
            })
    }

    /// Egress PortId on `from` toward `to`.
    pub fn egress(&self, topo: &Topology, from: NodeId, to: NodeId) -> Result<PortId, NavError> {
        Ok(PortId::new(from, self.try_port_to(topo, from, to)?))
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
    pub fn pin_ingress_via_agg(
        &self,
        topo: &mut Topology,
        edge: NodeId,
        dst: NodeId,
        via_pod: usize,
        agg_idx: usize,
        core_slot: usize,
    ) -> Result<(), NavError> {
        let pod_aggs = self.aggs.get(via_pod).ok_or(NavError::RoleOutOfRange {
            role: "pod",
            index: via_pod,
            len: self.aggs.len(),
        })?;
        let agg = *pod_aggs.get(agg_idx).ok_or(NavError::RoleOutOfRange {
            role: "agg",
            index: agg_idx,
            len: pod_aggs.len(),
        })?;
        let p = self.try_port_to(topo, edge, agg)?;
        topo.add_route_override(edge, dst, p);
        if self.is_three_tier() {
            let core_idx = agg_idx * self.cores_per_group + core_slot;
            let core = *self.cores.get(core_idx).ok_or(NavError::RoleOutOfRange {
                role: "core",
                index: core_idx,
                len: self.cores.len(),
            })?;
            let p = self.try_port_to(topo, agg, core)?;
            topo.add_route_override(agg, dst, p);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_sim::{clos, fat_tree, leaf_spine, EVAL_BANDWIDTH, EVAL_DELAY};

    #[test]
    fn roles_cover_the_k4_tree() {
        let topo = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let nav = FatTreeNav::try_new(&topo, 4).unwrap();
        assert_eq!(nav.cores.len(), 4);
        assert_eq!(nav.edges.iter().flatten().count(), 8);
        assert_eq!(nav.aggs.iter().flatten().count(), 8);
        assert_eq!(nav.hosts.iter().flatten().flatten().count(), 16);
        // Host h0 attaches to edge0_0.
        let h0 = nav.hosts[0][0][0];
        assert_eq!(topo.peer(PortId::new(h0, 0)).node, nav.edges[0][0]);
    }

    #[test]
    fn port_to_finds_adjacency() {
        let topo = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let nav = FatTreeNav::try_new(&topo, 4).unwrap();
        let e = nav.edges[0][0];
        let a = nav.aggs[0][1];
        let p = nav.try_port_to(&topo, e, a).unwrap();
        assert_eq!(topo.peer(PortId::new(e, p)).node, a);
        // Agg0_0 connects cores 0 and 1.
        let a0 = nav.aggs[0][0];
        nav.try_port_to(&topo, a0, nav.cores[0]).unwrap();
        nav.try_port_to(&topo, a0, nav.cores[1]).unwrap();
        // Agg0_1 connects cores 2 and 3.
        let a1 = nav.aggs[0][1];
        nav.try_port_to(&topo, a1, nav.cores[2]).unwrap();
        nav.try_port_to(&topo, a1, nav.cores[3]).unwrap();
    }

    #[test]
    fn egress_reports_non_adjacent() {
        let topo = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let nav = FatTreeNav::try_new(&topo, 4).unwrap();
        // edge0_0 and core0 are not directly linked.
        let err = nav
            .egress(&topo, nav.edges[0][0], nav.cores[0])
            .unwrap_err();
        assert!(matches!(err, NavError::NotAdjacent { .. }), "{err}");
        assert!(err.to_string().contains("no link"), "{err}");
    }

    #[test]
    fn try_new_rejects_non_fat_tree() {
        let topo = hawkeye_sim::dumbbell(2, 2, EVAL_BANDWIDTH, EVAL_DELAY);
        let err = FatTreeNav::try_new(&topo, 4).unwrap_err();
        assert!(matches!(err, NavError::MissingNode { .. }), "{err}");
    }

    #[test]
    fn try_port_to_reports_missing_links_typed() {
        let topo = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let nav = FatTreeNav::try_new(&topo, 4).unwrap();
        let err = nav
            .try_port_to(&topo, nav.edges[0][0], nav.cores[0])
            .unwrap_err();
        assert!(matches!(err, NavError::NotAdjacent { .. }), "{err}");
    }

    #[test]
    fn clos_nav_covers_generalized_dims() {
        let mut cfg = ClosConfig::fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        cfg.hosts_per_edge = 3;
        let topo = clos(&cfg);
        let nav = FatTreeNav::try_clos(&topo, &cfg).unwrap();
        assert_eq!(nav.dims(), (4, 2, 2, 3));
        assert!(nav.is_three_tier());
        assert_eq!(nav.hosts.iter().flatten().flatten().count(), 24);
    }

    #[test]
    fn leaf_spine_nav_maps_pods_and_spines() {
        let topo = leaf_spine(8, 2, 4, EVAL_BANDWIDTH, EVAL_DELAY);
        let nav = FatTreeNav::try_leaf_spine(&topo, 8, 2, 4).unwrap();
        assert_eq!(nav.dims(), (4, 2, 2, 4));
        assert!(!nav.is_three_tier());
        // Every pod sees the same shared spines.
        assert_eq!(nav.aggs[0], nav.aggs[3]);
        // Hosts attach to their pod's leaves.
        let h = nav.hosts[1][0][0];
        assert_eq!(topo.peer(PortId::new(h, 0)).node, nav.edges[1][0]);
    }

    #[test]
    fn pin_ingress_creates_overrides_on_both_tiers() {
        // Three-tier: edge and agg overrides.
        let mut topo = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
        let nav = FatTreeNav::try_new(&topo, 4).unwrap();
        let dst = nav.hosts[0][0][0];
        let edge = nav.edges[1][0];
        nav.pin_ingress_via_agg(&mut topo, edge, dst, 1, 0, 1)
            .unwrap();
        let f = hawkeye_sim::FlowKey::roce(nav.hosts[1][0][0], dst, 7);
        let path = topo.flow_path(&f).unwrap();
        // Path goes edge1_0 -> agg1_0 -> core1 -> agg0_0 -> edge0_0.
        assert_eq!(path.len(), 5);
        assert_eq!(path[1].0, nav.aggs[1][0]);
        assert_eq!(path[2].0, nav.cores[1]);

        // Two-tier: single leaf -> spine override.
        let mut topo = leaf_spine(8, 2, 4, EVAL_BANDWIDTH, EVAL_DELAY);
        let nav = FatTreeNav::try_leaf_spine(&topo, 8, 2, 4).unwrap();
        let dst = nav.hosts[0][0][0];
        let edge = nav.edges[1][0];
        nav.pin_ingress_via_agg(&mut topo, edge, dst, 1, 1, 0)
            .unwrap();
        let f = hawkeye_sim::FlowKey::roce(nav.hosts[1][0][0], dst, 7);
        let path = topo.flow_path(&f).unwrap();
        assert_eq!(path.len(), 3);
        assert_eq!(path[1].0, nav.aggs[1][1]);
    }
}
