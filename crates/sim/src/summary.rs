//! Network-wide run summaries: flow completion times, pause activity, and
//! delivered throughput — the operator-facing counters examples and
//! experiments report alongside diagnoses.
//!
//! Counter-valued fields are populated *through* a
//! [`MetricsRegistry`]: [`RunSummary::of_with`]
//! first folds the simulator's hardware counters into the registry
//! ([`crate::observed::record_sim_metrics`]) and then reads the summary
//! numbers back out of it, so the registry snapshot and the summary can
//! never disagree.

use crate::hooks::SwitchHook;
use crate::ids::FlowId;
use crate::sim::Simulator;
use crate::time::Nanos;
use hawkeye_obs::{MetricKey, MetricsRegistry};
use serde::{Deserialize, Serialize};

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element such that at least `q * 100` percent of the data is ≤ it
/// (rank `⌈q·n⌉`). `q` outside `(0, 1]` clamps to the extremes.
pub fn percentile_nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Aggregate statistics of a finished (or stopped) simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    pub flows_total: usize,
    pub flows_completed: usize,
    /// FCT percentiles over completed flows (p50, p90, p99, max).
    pub fct_p50: Option<Nanos>,
    pub fct_p90: Option<Nanos>,
    pub fct_p99: Option<Nanos>,
    pub fct_max: Option<Nanos>,
    /// Payload bytes delivered to receivers.
    pub bytes_delivered: u64,
    /// Aggregate goodput over the simulated horizon (bits/s).
    pub goodput_bps: f64,
    pub pfc_pauses_sent: u64,
    pub pfc_resumes_sent: u64,
    pub buffer_drops: u64,
    /// Packets discarded for lack of a route — nonzero means the topology
    /// or routing tables are wrong, never normal congestion.
    #[serde(default)]
    pub route_drops: u64,
    pub detections: usize,
}

impl RunSummary {
    /// Compute from a simulator after `run_until`.
    pub fn of<H: SwitchHook>(sim: &Simulator<H>) -> RunSummary {
        RunSummary::of_with(sim, &mut MetricsRegistry::new())
    }

    /// Compute from a simulator, folding every counter through `reg` (see
    /// module docs). The registry afterwards additionally holds per-switch
    /// breakdowns of the aggregated fields and an `fct_ns` histogram.
    pub fn of_with<H: SwitchHook>(sim: &Simulator<H>, reg: &mut MetricsRegistry) -> RunSummary {
        crate::observed::record_sim_metrics(sim, reg);

        let mut fcts: Vec<Nanos> = Vec::new();
        for (id, f) in sim.flows().iter().enumerate() {
            reg.inc(MetricKey::global("flows_total"));
            if let Some(hf) = sim.host(f.key.src).flow_by_id(FlowId(id as u32)) {
                if let Some(fct) = hf.fct() {
                    reg.inc(MetricKey::global("flows_completed"));
                    reg.observe(MetricKey::global("fct_ns"), fct.as_nanos());
                    fcts.push(fct);
                }
            }
        }
        fcts.sort_unstable();

        let data_rcvd = reg.counter_total("host_data_rcvd");
        let bytes_delivered = data_rcvd * crate::packet::DATA_PAYLOAD as u64;
        reg.add(MetricKey::global("bytes_delivered"), bytes_delivered);
        let horizon = sim.now().as_secs_f64().max(1e-12);
        let goodput_bps = bytes_delivered as f64 * 8.0 / horizon;
        reg.set(MetricKey::global("goodput_bps"), goodput_bps);

        RunSummary {
            flows_total: reg.counter(&MetricKey::global("flows_total")) as usize,
            flows_completed: reg.counter(&MetricKey::global("flows_completed")) as usize,
            fct_p50: percentile_nearest_rank(&fcts, 0.50),
            fct_p90: percentile_nearest_rank(&fcts, 0.90),
            fct_p99: percentile_nearest_rank(&fcts, 0.99),
            fct_max: fcts.last().copied(),
            bytes_delivered: reg.counter(&MetricKey::global("bytes_delivered")),
            goodput_bps,
            pfc_pauses_sent: reg.counter_total("pfc_pause_sent"),
            pfc_resumes_sent: reg.counter_total("pfc_resume_sent"),
            buffer_drops: reg.counter_total("drops_buffer"),
            route_drops: reg.counter_total("drops_no_route"),
            detections: reg.counter(&MetricKey::global("detections")) as usize,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hooks::NullHook;
    use crate::ids::FlowKey;
    use crate::sim::{FlowSpec, SimConfig};
    use crate::topology::{dumbbell, EVAL_BANDWIDTH, EVAL_DELAY};

    #[test]
    fn summary_of_simple_run() {
        let topo = dumbbell(2, 2, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = topo.hosts().collect();
        let mut sim = Simulator::new(topo, SimConfig::default(), NullHook);
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[0], hosts[2], 1),
            1_000_000,
            Nanos::ZERO,
        ));
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[1], hosts[3], 2),
            500_000,
            Nanos::ZERO,
        ));
        sim.run_until(Nanos::from_millis(5));
        let s = RunSummary::of(&sim);
        assert_eq!(s.flows_total, 2);
        assert_eq!(s.flows_completed, 2);
        assert_eq!(s.bytes_delivered, 1_500_000);
        assert!(s.goodput_bps > 0.0);
        assert!(s.fct_p50.unwrap() <= s.fct_max.unwrap());
        assert_eq!(s.buffer_drops, 0);
        // JSON round-trip for reporting (floats within printing precision).
        let js = serde_json::to_string(&s).unwrap();
        let back: RunSummary = serde_json::from_str(&js).unwrap();
        assert_eq!(back.flows_completed, s.flows_completed);
        assert_eq!(back.fct_max, s.fct_max);
        assert!((back.goodput_bps - s.goodput_bps).abs() / s.goodput_bps < 1e-9);
    }

    #[test]
    fn incomplete_flows_have_no_fct() {
        let topo = dumbbell(1, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = topo.hosts().collect();
        let mut sim = Simulator::new(topo, SimConfig::default(), NullHook);
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[0], hosts[1], 1),
            100_000_000,
            Nanos::ZERO,
        ));
        sim.run_until(Nanos::from_micros(50)); // far too short
        let s = RunSummary::of(&sim);
        assert_eq!(s.flows_completed, 0);
        assert!(s.fct_p50.is_none());
        assert!(s.flows_total == 1);
    }

    #[test]
    fn summary_agrees_with_registry_snapshot() {
        let topo = dumbbell(2, 2, EVAL_BANDWIDTH, EVAL_DELAY);
        let hosts: Vec<_> = topo.hosts().collect();
        let mut sim = Simulator::new(topo, SimConfig::default(), NullHook);
        sim.add_flow(FlowSpec::new(
            FlowKey::roce(hosts[0], hosts[2], 1),
            200_000,
            Nanos::ZERO,
        ));
        sim.run_until(Nanos::from_millis(3));
        let mut reg = MetricsRegistry::new();
        let s = RunSummary::of_with(&sim, &mut reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("flows_completed"),
            Some(s.flows_completed as u64)
        );
        assert_eq!(snap.counter("bytes_delivered"), Some(s.bytes_delivered));
        assert_eq!(snap.gauge("goodput_bps"), Some(s.goodput_bps));
        // The per-flow FCT histogram holds one sample per completed flow.
        let hist = snap.histograms.iter().find(|h| h.key == "fct_ns").unwrap();
        assert_eq!(hist.count, s.flows_completed as u64);
    }

    // --- percentile semantics -------------------------------------------

    #[test]
    fn percentile_empty_is_none() {
        assert_eq!(percentile_nearest_rank::<u64>(&[], 0.5), None);
    }

    #[test]
    fn percentile_single_element_is_that_element() {
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(percentile_nearest_rank(&[7u64], q), Some(7));
        }
    }

    #[test]
    fn percentile_two_elements() {
        // Nearest-rank: p50 of {1, 2} is rank ⌈0.5·2⌉ = 1 → the 1st element;
        // p90/p99 are rank 2 → the 2nd.
        let v = [1u64, 2];
        assert_eq!(percentile_nearest_rank(&v, 0.50), Some(1));
        assert_eq!(percentile_nearest_rank(&v, 0.90), Some(2));
        assert_eq!(percentile_nearest_rank(&v, 0.99), Some(2));
    }

    #[test]
    fn percentile_nearest_rank_textbook_case() {
        // Classic nearest-rank example: n = 5.
        let v = [15u64, 20, 35, 40, 50];
        assert_eq!(percentile_nearest_rank(&v, 0.05), Some(15));
        assert_eq!(percentile_nearest_rank(&v, 0.30), Some(20));
        assert_eq!(percentile_nearest_rank(&v, 0.40), Some(20));
        assert_eq!(percentile_nearest_rank(&v, 0.50), Some(35));
        assert_eq!(percentile_nearest_rank(&v, 1.00), Some(50));
    }

    #[test]
    fn percentile_p99_distinguishes_tail_from_max() {
        // 200 elements: p99 is rank 198, not the max — the old
        // `(n-1)*q as usize` truncation under-selected the tail.
        let v: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile_nearest_rank(&v, 0.99), Some(198));
        assert_eq!(percentile_nearest_rank(&v, 0.50), Some(100));
        assert_eq!(percentile_nearest_rank(&v, 1.0), Some(200));
    }
}
