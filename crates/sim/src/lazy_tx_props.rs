//! Differential test of the lazy `PortTxDone` ([`crate::event::PortTx`]).
//!
//! The oracle is the behaviour before the event became lazy, kept as a
//! test-only filing policy ([`TxFiling::Eager`]: every `PortTxDone` filed
//! when its frame starts). Random workloads — an incast past Xoff on a
//! dumbbell, a fat-tree with a PFC injector, a ring whose route overrides
//! close a cyclic buffer dependency — run under both policies and must
//! produce the identical simulation: every hook callback in order with
//! every field, every flow's completion time and last RTT, every
//! detection, every switch and host counter, the final clock. The lazy run
//! must pop strictly fewer events. A third policy that files the late event
//! under a *fresh* sequence number must be told apart: the reserved number
//! is what keeps same-instant events in their old order.

use crate::event::TxFiling;
use crate::hooks::{EnqueueRecord, PfcEvent, ProbeDecision, SwitchHook, SwitchView};
use crate::host::{AgentConfig, Detection, HostStats, PfcInjectorConfig};
use crate::ids::{FlowId, FlowKey, NodeId};
use crate::packet::Probe;
use crate::sim::{FlowSpec, SimConfig, Simulator};
use crate::switch::SwitchStats;
use crate::time::Nanos;
use crate::topology::{dumbbell, fat_tree, ring, Topology, EVAL_BANDWIDTH, EVAL_DELAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One hook callback, with everything the simulator handed it.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Seen {
    Enqueue(EnqueueRecord),
    Pfc(PfcEvent),
    Probe {
        switch: NodeId,
        in_port: u8,
        probe: Probe,
        now: Nanos,
    },
}

/// Records the hook stream and forwards each polling packet one hop along
/// its victim's route, so probes cross the fabric in the control class.
#[derive(Default)]
struct Recording {
    seen: Vec<Seen>,
}

impl SwitchHook for Recording {
    fn on_data_enqueue(&mut self, rec: &EnqueueRecord) {
        self.seen.push(Seen::Enqueue(*rec));
    }

    fn on_pfc_frame(&mut self, ev: &PfcEvent) {
        self.seen.push(Seen::Pfc(*ev));
    }

    fn on_probe(
        &mut self,
        switch: NodeId,
        in_port: u8,
        probe: Probe,
        view: &SwitchView<'_>,
        now: Nanos,
    ) -> ProbeDecision {
        self.seen.push(Seen::Probe {
            switch,
            in_port,
            probe,
            now,
        });
        let emit = match view.route_port(&probe.victim) {
            Some(out) if probe.ttl > 0 && !view.is_host_facing(out) => vec![(
                out,
                Probe {
                    ttl: probe.ttl - 1,
                    ..probe
                },
            )],
            _ => Vec::new(),
        };
        ProbeDecision {
            emit,
            mirror_to_cpu: true,
        }
    }
}

struct Workload {
    name: &'static str,
    topo: Topology,
    flows: Vec<FlowSpec>,
    injector: Option<(NodeId, PfcInjectorConfig)>,
    horizon: Nanos,
}

/// Everything observable about a finished run, bar the event count.
#[derive(Debug, PartialEq)]
struct Outcome {
    seen: Vec<Seen>,
    /// `(completed_at, last_rtt)` per flow, in registration order.
    flows: Vec<(Option<Nanos>, Nanos)>,
    detections: Vec<Detection>,
    switches: Vec<SwitchStats>,
    hosts: Vec<HostStats>,
    cpu_mirrors: usize,
    now: Nanos,
}

fn run(w: &Workload, seed: u64, filing: TxFiling) -> (Outcome, u64) {
    let cfg = SimConfig {
        seed,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(w.topo.clone(), cfg, Recording::default());
    sim.set_tx_filing(filing);
    sim.enable_agents(AgentConfig {
        rtt_threshold_factor: 2.0,
        base_rtt: Nanos::from_micros(20),
        check_interval: Nanos::from_micros(50),
        dedup_interval: Nanos::from_micros(400),
        retry: true,
    });
    for f in &w.flows {
        sim.add_flow(*f);
    }
    if let Some((host, inj)) = w.injector {
        sim.set_pfc_injector(host, inj);
    }
    sim.run_until(w.horizon);
    let flows = sim
        .flows()
        .iter()
        .enumerate()
        .map(|(id, f)| {
            let hf = sim
                .host(f.key.src)
                .flow_by_id(FlowId(id as u32))
                .expect("registered");
            (hf.completed_at, hf.last_rtt)
        })
        .collect();
    let outcome = Outcome {
        flows,
        detections: sim.detections(),
        switches: sim.topo().switches().map(|s| sim.switch(s).stats).collect(),
        hosts: sim.topo().hosts().map(|h| sim.host(h).stats).collect(),
        cpu_mirrors: sim.cpu_log.len(),
        now: sim.now(),
        seen: std::mem::take(&mut sim.hook.seen),
    };
    (outcome, sim.events_processed())
}

/// A flow that is sometimes paced well below line rate: sparse traffic is
/// where a port goes idle behind its frame and the event is never filed.
fn flow(rng: &mut StdRng, src: NodeId, dst: NodeId, sport: u16, max_kb: u64) -> FlowSpec {
    FlowSpec {
        key: FlowKey::roce(src, dst, sport),
        size_bytes: rng.gen_range(2..max_kb) * 1000 + rng.gen_range(0..1000u64),
        start: Nanos(rng.gen_range(0..60_000u64)),
        max_rate_bps: match rng.gen_range(0..3usize) {
            0 => None,
            1 => Some(40e9),
            _ => Some(rng.gen_range(2..20u64) as f64 * 1e9),
        },
        cc_enabled: true,
    }
}

/// Four senders across the middle link and one beside it blast one
/// receiver (ingress usage passes Xoff at both switches, so PAUSE reaches
/// hosts and a switch), with paced cross traffic both ways.
fn dumbbell_incast(rng: &mut StdRng) -> Workload {
    let topo = dumbbell(4, 3, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();
    let (left, right) = hosts.split_at(4);
    let mut flows = Vec::new();
    for (i, &src) in left.iter().chain(&right[1..2]).enumerate() {
        flows.push(FlowSpec {
            key: FlowKey::roce(src, right[0], 10 + i as u16),
            size_bytes: rng.gen_range(300_000..900_000u64),
            start: Nanos(rng.gen_range(0..5_000u64)),
            max_rate_bps: None,
            cc_enabled: true,
        });
    }
    for i in 0..rng.gen_range(3..8u16) {
        let (a, b) = (
            left[rng.gen_range(0..left.len())],
            right[rng.gen_range(0..right.len())],
        );
        let (src, dst) = if rng.gen_range(0..2usize) == 0 {
            (a, b)
        } else {
            (b, a)
        };
        flows.push(flow(rng, src, dst, 100 + i, 200));
    }
    Workload {
        name: "dumbbell incast",
        topo,
        flows,
        injector: None,
        horizon: Nanos::from_micros(900),
    }
}

/// Random paced flows on the K=4 fat-tree while one host injects PAUSE
/// frames at its ToR.
fn fat_tree_injector(rng: &mut StdRng) -> Workload {
    let topo = fat_tree(4, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();
    let bad = hosts[rng.gen_range(0..hosts.len())];
    let mut flows = Vec::new();
    for i in 0..rng.gen_range(12..20u16) {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = hosts[rng.gen_range(0..hosts.len())];
        if i % 4 == 0 && src != bad {
            // Line-rate traffic into the storm: it backs up past Xoff.
            flows.push(FlowSpec {
                key: FlowKey::roce(src, bad, 200 + i),
                size_bytes: rng.gen_range(250_000..500_000u64),
                start: Nanos(rng.gen_range(0..40_000u64)),
                max_rate_bps: None,
                cc_enabled: true,
            });
        } else if src != dst {
            flows.push(flow(rng, src, dst, 200 + i, 150));
        }
    }
    Workload {
        name: "fat-tree injector",
        topo,
        flows,
        injector: Some((
            bad,
            PfcInjectorConfig {
                start: Nanos::from_micros(rng.gen_range(20..80u64)),
                stop: Nanos::from_micros(500),
                period: Nanos::from_micros(100),
            },
        )),
        horizon: Nanos::from_micros(800),
    }
}

/// A four-switch ring whose overrides send four two-hop flows clockwise —
/// a cyclic buffer dependency — plus paced flows on the shortest paths.
fn ring_overrides(rng: &mut StdRng) -> Workload {
    let mut topo = ring(4, 2, EVAL_BANDWIDTH, EVAL_DELAY);
    let hosts: Vec<_> = topo.hosts().collect();
    let sws: Vec<_> = topo.switches().collect();
    let next_port = |topo: &Topology, i: usize| {
        topo.egress(sws[i], sws[(i + 1) % 4])
            .expect("ring neighbour")
            .port
    };
    let mut flows = Vec::new();
    for i in 0..4usize {
        let dst = hosts[((i + 2) % 4) * 2];
        let (p1, p2) = (next_port(&topo, i), next_port(&topo, (i + 1) % 4));
        topo.add_route_override(sws[i], dst, p1);
        topo.add_route_override(sws[(i + 1) % 4], dst, p2);
        for j in 0..2u16 {
            flows.push(FlowSpec {
                key: FlowKey::roce(hosts[i * 2 + j as usize], dst, 300 + 2 * i as u16 + j),
                size_bytes: rng.gen_range(200_000..600_000u64),
                start: Nanos(rng.gen_range(0..3_000u64)),
                max_rate_bps: None,
                cc_enabled: true,
            });
        }
    }
    for i in 0..rng.gen_range(2..6u16) {
        let src = hosts[rng.gen_range(0..hosts.len())];
        let dst = hosts[rng.gen_range(0..hosts.len())];
        if src != dst {
            flows.push(flow(rng, src, dst, 400 + i, 100));
        }
    }
    Workload {
        name: "ring overrides",
        topo,
        flows,
        injector: None,
        horizon: Nanos::from_micros(700),
    }
}

#[test]
fn lazy_tx_done_is_the_eager_simulation() {
    let (mut fresh_seq_told_apart, mut cases) = (0, 0);
    for seed in 1..=8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for w in [
            dumbbell_incast(&mut rng),
            fat_tree_injector(&mut rng),
            ring_overrides(&mut rng),
        ] {
            let (eager, eager_events) = run(&w, seed, TxFiling::Eager);
            let (lazy, lazy_events) = run(&w, seed, TxFiling::Lazy);
            assert!(
                eager.seen.len() > 1_000 && eager.switches.iter().any(|s| s.pfc_pause_sent > 0),
                "{} seed {seed}: workload too quiet to prove anything",
                w.name
            );
            // Compared piecewise first so a failure names what moved.
            assert_eq!(eager.seen.len(), lazy.seen.len(), "{} seed {seed}", w.name);
            if let Some(i) = (0..eager.seen.len()).find(|&i| eager.seen[i] != lazy.seen[i]) {
                panic!(
                    "{} seed {seed}: hook stream diverges at callback {i}:\n eager {:?}\n lazy  {:?}",
                    w.name, eager.seen[i], lazy.seen[i]
                );
            }
            assert_eq!(eager, lazy, "{} seed {seed}", w.name);
            assert!(
                lazy_events < eager_events,
                "{} seed {seed}: lazy popped {lazy_events} events, eager {eager_events}",
                w.name
            );

            let (fresh, _) = run(&w, seed, TxFiling::LateFreshSeq);
            fresh_seq_told_apart += (fresh != eager) as usize;
            cases += 1;
        }
    }
    // Same-instant ties between a frame's end and an arrival at that port
    // are common on a fabric of equal links and equal packets, and one is
    // enough to move a queue depth: nearly every workload has one.
    assert!(
        fresh_seq_told_apart * 4 > cases * 3,
        "a late PortTxDone under a fresh seq passed for eager in {} of {cases} workloads",
        cases - fresh_seq_told_apart
    );
}
