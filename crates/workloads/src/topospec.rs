//! Declarative topology specifications for the scenario corpus.
//!
//! A [`TopologySpec`] names one member of the Clos family the six
//! `ScenarioKind` builders can run on: symmetric fat-trees (K=4/8/16), a
//! fat-tree with failed agg↔core links, an oversubscribed two-tier
//! leaf-spine, and an asymmetric-capacity Clos whose trailing pods uplink
//! at reduced bandwidth. Specs are small, serializable values — the corpus
//! matrix, the golden file, and the fuzzer's mutation plans all traffic in
//! them rather than in concrete `Topology` graphs.

use hawkeye_sim::{
    clos, leaf_spine, ClosConfig, FatTreeNav, NavError, Topology, EVAL_BANDWIDTH, EVAL_DELAY,
};
use std::fmt;

/// One topology the corpus can build scenarios on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum TopologySpec {
    /// Symmetric fat-tree with parameter `k` (the paper's evaluation
    /// fabric at k=4).
    FatTree { k: usize },
    /// Fat-tree with the last `failed` agg↔core links absent — the
    /// link-failure variant. Failures are taken from the highest pods, so
    /// the pod-0/1/2 roles the scenarios script remain fully wired.
    FatTreeDegraded { k: usize, failed: usize },
    /// Two-tier leaf-spine; oversubscribed when
    /// `hosts_per_leaf > spines`. Leaves must be even (paired into
    /// logical pods) and `leaves/2 >= 4`.
    LeafSpine {
        leaves: usize,
        spines: usize,
        hosts_per_leaf: usize,
    },
    /// Fat-tree-shaped Clos whose last `slow_pods` pods uplink to the
    /// core at `1/slow_divisor` of the base bandwidth.
    AsymClos {
        k: usize,
        slow_pods: usize,
        slow_divisor: u64,
    },
}

impl TopologySpec {
    /// The paper's evaluation topology (fat-tree K=4).
    pub const EVAL: TopologySpec = TopologySpec::FatTree { k: 4 };

    /// The standard corpus matrix: five Clos-family fabrics plus the
    /// asymmetric variant.
    pub fn corpus() -> Vec<TopologySpec> {
        vec![
            TopologySpec::FatTree { k: 4 },
            TopologySpec::FatTree { k: 8 },
            TopologySpec::FatTree { k: 16 },
            TopologySpec::FatTreeDegraded { k: 8, failed: 4 },
            TopologySpec::LeafSpine {
                leaves: 8,
                spines: 2,
                hosts_per_leaf: 4,
            },
            TopologySpec::AsymClos {
                k: 8,
                slow_pods: 2,
                slow_divisor: 4,
            },
        ]
    }

    /// Short stable identifier used in golden-file cell coordinates and on
    /// the CLI (`--topos`).
    pub fn slug(&self) -> String {
        match self {
            TopologySpec::FatTree { k } => format!("ft{k}"),
            TopologySpec::FatTreeDegraded { k, failed } => format!("ft{k}-lf{failed}"),
            TopologySpec::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
            } => format!("ls{leaves}x{spines}x{hosts_per_leaf}"),
            TopologySpec::AsymClos {
                k,
                slow_pods,
                slow_divisor,
            } => format!("clos{k}s{slow_pods}d{slow_divisor}"),
        }
    }

    /// Inverse of [`TopologySpec::slug`].
    pub fn parse(s: &str) -> Option<TopologySpec> {
        if let Some(rest) = s.strip_prefix("ls") {
            let mut it = rest.split('x').map(|p| p.parse::<usize>().ok());
            let (l, sp, h) = (it.next()??, it.next()??, it.next()??);
            if it.next().is_some() {
                return None;
            }
            return Some(TopologySpec::LeafSpine {
                leaves: l,
                spines: sp,
                hosts_per_leaf: h,
            });
        }
        if let Some(rest) = s.strip_prefix("clos") {
            let (k, rest) = rest.split_once('s')?;
            let (sp, div) = rest.split_once('d')?;
            return Some(TopologySpec::AsymClos {
                k: k.parse().ok()?,
                slow_pods: sp.parse().ok()?,
                slow_divisor: div.parse().ok()?,
            });
        }
        if let Some(rest) = s.strip_prefix("ft") {
            if let Some((k, failed)) = rest.split_once("-lf") {
                return Some(TopologySpec::FatTreeDegraded {
                    k: k.parse().ok()?,
                    failed: failed.parse().ok()?,
                });
            }
            return Some(TopologySpec::FatTree {
                k: rest.parse().ok()?,
            });
        }
        None
    }

    pub fn host_count(&self) -> usize {
        match *self {
            TopologySpec::FatTree { k }
            | TopologySpec::FatTreeDegraded { k, .. }
            | TopologySpec::AsymClos { k, .. } => k * k * k / 4,
            TopologySpec::LeafSpine {
                leaves,
                hosts_per_leaf,
                ..
            } => leaves * hosts_per_leaf,
        }
    }

    /// Build the concrete topology and the roles its builder placed.
    /// Degenerate dimensions surface as typed errors, not panics, so
    /// fuzzer-mutated specs can be rejected gracefully.
    pub fn build(&self) -> Result<(Topology, FatTreeNav), NavError> {
        let cfg = match *self {
            TopologySpec::FatTree { k } => Self::checked_fat_tree(k, 0, 0, 1)?,
            TopologySpec::FatTreeDegraded { k, failed } => Self::checked_fat_tree(k, failed, 0, 1)?,
            TopologySpec::AsymClos {
                k,
                slow_pods,
                slow_divisor,
            } => Self::checked_fat_tree(k, 0, slow_pods, slow_divisor)?,
            TopologySpec::LeafSpine {
                leaves,
                spines,
                hosts_per_leaf,
            } => {
                if leaves < 2 || !leaves.is_multiple_of(2) {
                    return Err(dimension("leaves", leaves, "must be even and at least 2"));
                }
                if spines == 0 {
                    return Err(dimension("spines", spines, "must be at least 1"));
                }
                if hosts_per_leaf == 0 {
                    return Err(dimension(
                        "hosts_per_leaf",
                        hosts_per_leaf,
                        "must be at least 1",
                    ));
                }
                return Ok(leaf_spine(
                    leaves,
                    spines,
                    hosts_per_leaf,
                    EVAL_BANDWIDTH,
                    EVAL_DELAY,
                ));
            }
        };
        Ok(clos(&cfg))
    }

    fn checked_fat_tree(
        k: usize,
        failed: usize,
        slow_pods: usize,
        slow_divisor: u64,
    ) -> Result<ClosConfig, NavError> {
        if k < 2 || !k.is_multiple_of(2) {
            return Err(dimension("k", k, "must be even and at least 2"));
        }
        let total_core_links = k * (k / 2) * (k / 2);
        if failed >= total_core_links {
            return Err(dimension(
                "failed",
                failed,
                format!("must be below the {total_core_links} core links of k = {k}"),
            ));
        }
        if slow_pods > k {
            return Err(dimension(
                "slow_pods",
                slow_pods,
                format!("exceeds the {k} pods of k = {k}"),
            ));
        }
        // A divisor past the base rate would build zero-bandwidth uplinks.
        let max_divisor = EVAL_BANDWIDTH.bits_per_sec();
        if !(1..=max_divisor).contains(&slow_divisor) {
            return Err(NavError::Dimension {
                dim: "slow_divisor",
                value: slow_divisor,
                bound: format!("must be in 1..={max_divisor}, the base rate in bit/s"),
            });
        }
        let mut cfg = ClosConfig::fat_tree(k, EVAL_BANDWIDTH, EVAL_DELAY);
        cfg.failed_core_links = failed;
        cfg.slow_pods = slow_pods;
        cfg.slow_divisor = slow_divisor;
        Ok(cfg)
    }
}

/// The refusal for dimension `dim` at `value`, which broke `bound`.
fn dimension(dim: &'static str, value: usize, bound: impl Into<String>) -> NavError {
    NavError::Dimension {
        dim,
        value: value as u64,
        bound: bound.into(),
    }
}

impl fmt::Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.slug())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip() {
        for spec in TopologySpec::corpus() {
            let slug = spec.slug();
            assert_eq!(TopologySpec::parse(&slug), Some(spec), "slug {slug}");
        }
    }

    #[test]
    fn corpus_specs_all_build() {
        for spec in TopologySpec::corpus() {
            let (topo, nav) = spec.build().unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(topo.hosts().count(), spec.host_count(), "{spec}");
            let (pods, epp, _, hpe) = nav.dims();
            assert!(pods >= 4 && epp >= 2 && hpe >= 2, "{spec}");
        }
    }

    #[test]
    fn degenerate_specs_reject_typed() {
        assert!(TopologySpec::FatTree { k: 3 }.build().is_err());
        assert!(TopologySpec::FatTree { k: 0 }.build().is_err());
        assert!(TopologySpec::FatTreeDegraded { k: 4, failed: 999 }
            .build()
            .is_err());
        assert!(TopologySpec::LeafSpine {
            leaves: 3,
            spines: 2,
            hosts_per_leaf: 2
        }
        .build()
        .is_err());
        for slow_divisor in [0, EVAL_BANDWIDTH.bits_per_sec() + 1, 200_000_000_000] {
            let spec = TopologySpec::AsymClos {
                k: 8,
                slow_pods: 2,
                slow_divisor,
            };
            assert!(spec.build().is_err(), "{spec}");
        }
        // The slowest uplink that still moves a bit per second builds.
        assert!(TopologySpec::AsymClos {
            k: 8,
            slow_pods: 2,
            slow_divisor: EVAL_BANDWIDTH.bits_per_sec()
        }
        .build()
        .is_ok());
    }

    /// Each refusal names the dimension that failed, its value and the
    /// bound it broke.
    #[test]
    fn each_refusal_names_its_dimension_value_and_bound() {
        let leaf_spine = |leaves, spines, hosts_per_leaf| TopologySpec::LeafSpine {
            leaves,
            spines,
            hosts_per_leaf,
        };
        let asym = |slow_pods, slow_divisor| TopologySpec::AsymClos {
            k: 8,
            slow_pods,
            slow_divisor,
        };
        let cases = [
            (
                TopologySpec::FatTree { k: 3 },
                "k = 3 must be even and at least 2".to_string(),
            ),
            (
                TopologySpec::FatTree { k: 0 },
                "k = 0 must be even and at least 2".into(),
            ),
            (
                TopologySpec::FatTreeDegraded { k: 4, failed: 16 },
                "failed = 16 must be below the 16 core links of k = 4".into(),
            ),
            (
                asym(9, 2),
                "slow_pods = 9 exceeds the 8 pods of k = 8".into(),
            ),
            (
                asym(2, 0),
                format!(
                    "slow_divisor = 0 must be in 1..={}, the base rate in bit/s",
                    EVAL_BANDWIDTH.bits_per_sec()
                ),
            ),
            (
                leaf_spine(3, 2, 2),
                "leaves = 3 must be even and at least 2".into(),
            ),
            (
                leaf_spine(0, 2, 2),
                "leaves = 0 must be even and at least 2".into(),
            ),
            (leaf_spine(4, 0, 2), "spines = 0 must be at least 1".into()),
            (
                leaf_spine(4, 2, 0),
                "hosts_per_leaf = 0 must be at least 1".into(),
            ),
        ];
        for (spec, want) in cases {
            match spec.build() {
                Err(e) => assert_eq!(e.to_string(), want, "{spec}"),
                Ok(_) => panic!("{spec} built"),
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        for spec in TopologySpec::corpus() {
            let v = serde::Serialize::to_value(&spec);
            let back: TopologySpec = serde::Deserialize::from_value(&v).unwrap();
            assert_eq!(back, spec);
        }
    }
}
