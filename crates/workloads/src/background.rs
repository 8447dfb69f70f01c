//! Background workload generation: Poisson arrivals of empirically-sized
//! flows between random host pairs, scaled to a target link load (§4.1).

use crate::flowsize::FlowSizeDist;
use hawkeye_sim::{FlowKey, FlowSpec, Nanos, NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Background traffic parameters.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundConfig {
    /// Average fraction of per-host access bandwidth consumed (0.0..1.0).
    pub load: f64,
    /// Trace duration.
    pub duration: Nanos,
}

/// Host access bandwidth (bits/s).
const HOST_BW_BPS: f64 = 100e9;
/// Cap on a single background flow's size (bytes); the empirical tail
/// reaches 300 MB, far longer than a trace — capping keeps per-trace load
/// near its expectation without changing the in-trace mix.
const MAX_FLOW_BYTES: u64 = 10_000_000;
/// UDP source ports are drawn from this base upward (so scenario flows can
/// use a disjoint range).
const SRC_PORT_BASE: u16 = 10_000;

impl Default for BackgroundConfig {
    fn default() -> Self {
        BackgroundConfig {
            load: 0.3,
            duration: Nanos::from_millis(3),
        }
    }
}

/// Generate background flows across random distinct host pairs.
///
/// The Poisson arrival rate is chosen so offered load equals
/// `cfg.load * host_bw * #hosts` given the (capped) mean flow size.
pub fn generate(topo: &Topology, cfg: &BackgroundConfig, seed: u64) -> Vec<FlowSpec> {
    let hosts: Vec<NodeId> = topo.hosts().collect();
    assert!(hosts.len() >= 2);
    let dist = FlowSizeDist::empirical();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB06D_CAFE);

    // Estimate the capped mean empirically from the same distribution (the
    // analytic mean is for the uncapped tail).
    let mut est = StdRng::seed_from_u64(seed ^ 0x51AB);
    let mean_bytes: f64 = (0..4096)
        .map(|_| dist.sample(&mut est).min(MAX_FLOW_BYTES) as f64)
        .sum::<f64>()
        / 4096.0;

    let offered_bps = cfg.load * HOST_BW_BPS * hosts.len() as f64;
    let flows_per_ns = offered_bps / (mean_bytes * 8.0) / 1e9;

    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut sp = SRC_PORT_BASE;
    loop {
        // Exponential inter-arrival.
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / flows_per_ns;
        if t >= cfg.duration.as_nanos() as f64 {
            break;
        }
        let src = hosts[rng.gen_range(0..hosts.len())];
        let mut dst = hosts[rng.gen_range(0..hosts.len())];
        while dst == src {
            dst = hosts[rng.gen_range(0..hosts.len())];
        }
        let size_bytes = dist.sample(&mut rng).min(MAX_FLOW_BYTES);
        out.push(FlowSpec::new(
            FlowKey::roce(src, dst, sp),
            size_bytes,
            Nanos(t as u64),
        ));
        sp = sp.wrapping_add(1).max(SRC_PORT_BASE);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_sim::{fat_tree, EVAL_BANDWIDTH, EVAL_DELAY};

    fn topo() -> Topology {
        fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY)
    }

    #[test]
    fn offered_load_tracks_target() {
        let t = topo();
        let cfg = BackgroundConfig {
            load: 0.4,
            duration: Nanos::from_millis(20),
        };
        let flows = generate(&t, &cfg, 3);
        let bytes: u64 = flows.iter().map(|f| f.size_bytes).sum();
        let offered = bytes as f64 * 8.0 / cfg.duration.as_secs_f64();
        let target = 0.4 * 100e9 * 16.0;
        assert!(
            (offered - target).abs() / target < 0.35,
            "offered {offered:.3e} vs target {target:.3e}"
        );
    }

    #[test]
    fn arrivals_are_in_window_and_sorted_pairs_valid() {
        let t = topo();
        let cfg = BackgroundConfig::default();
        let flows = generate(&t, &cfg, 9);
        assert!(!flows.is_empty());
        for f in &flows {
            assert!(f.start < cfg.duration);
            assert_ne!(f.key.src, f.key.dst);
            assert!(t.is_host(f.key.src) && t.is_host(f.key.dst));
            assert!(f.size_bytes <= MAX_FLOW_BYTES);
            assert!(f.key.src_port >= SRC_PORT_BASE);
        }
    }

    #[test]
    fn seeds_give_distinct_but_reproducible_traces() {
        let t = topo();
        let cfg = BackgroundConfig::default();
        let a = generate(&t, &cfg, 1);
        let b = generate(&t, &cfg, 1);
        let c = generate(&t, &cfg, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn higher_load_means_more_flows() {
        let t = topo();
        let lo = generate(
            &t,
            &BackgroundConfig {
                load: 0.1,
                ..Default::default()
            },
            5,
        );
        let hi = generate(
            &t,
            &BackgroundConfig {
                load: 0.7,
                ..Default::default()
            },
            5,
        );
        assert!(hi.len() > lo.len() * 3);
    }
}
