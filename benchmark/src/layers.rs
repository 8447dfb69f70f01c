//! The layer probes of a traced run: every layer's public function called
//! from here, inside a span, on inputs generated from the run's seeds.
//!
//! Three groups. *Offline probes* replay twelve corpus cells stage by
//! stage — the same public calls `run_cell` makes, one span each, under a
//! parent span whose self time is what the stages do not explain. *Serve
//! probes* push the daemon trace through codec, store, compactor, engine
//! and WAL on this thread, in steady state, then gather and analyse the
//! store as a Diagnose would. *Session probes* put a live monolith and a
//! live fleet side by side, on identical state, for what only a running
//! daemon can report: its own stage registry, process CPU and context
//! switches, and the front's overhead over the monolith.
//!
//! The probes are the same whatever workload the traced run measured —
//! layer costs are properties of the layers — with one exception: the
//! analysis stages (`core.aggregate` / `core.provenance` /
//! `core.diagnosis`) are reported on the evidence that workload analyses,
//! one trial's snapshots for `offline-corpus`, a full steady-state store
//! for the daemon workloads.

use crate::daemon::{self, Cursor, Plane, Rig, BATCH};
use crate::run::{metric, Metric, RunArgs};
use crate::span::{self, LayerTotal, SpanLog};
use crate::stats;
use crate::tracegen::{self, same_verdict, shift_window, Trace};
use crate::{alloc, host, offline};
use hawkeye_client::proto::{
    decode_request, decode_response, read_frame, write_request, write_response, Request, Response,
};
use hawkeye_cluster::{BackendEndpoint, ShardMap};
use hawkeye_core::{
    assemble_from_fragments, build_graph, diagnose, merge_fragment_sets, victim_coverage_gaps,
    AggTelemetry, AnalyzerConfig, AnomalyType, Confidence, DiagnosisReport, HawkeyeConfig,
    HawkeyeHook, IncrementalProvenance, Window,
};
use hawkeye_eval::corpus::cell_params;
use hawkeye_eval::{
    judge, optimal_run_config, par_map, run_cell, victim_window, CellVerdict, ScoreConfig, Verdict,
};
use hawkeye_obs::ObsConfig;
use hawkeye_serve::wal::REC_BATCH;
use hawkeye_serve::{
    Compactor, FsyncPolicy, ServeConfig, StoreConfig, TelemetryStore, Wal, WalConfig,
};
use hawkeye_sim::{
    EnqueueRecord, Nanos, NodeId, NullHook, ObservedHook, PfcEvent, Probe, ProbeDecision,
    SwitchHook, SwitchView,
};
use hawkeye_telemetry::{
    decode_batch, encode_batch, SwitchTelemetry, TelemetryConfig, TelemetrySnapshot,
};
use hawkeye_workloads::{build_scenario_on, Scenario, ScenarioKind, TopologySpec};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Which evidence the analysis-stage metrics are reported on.
#[derive(Clone, Copy)]
pub enum AnalysisInput<'a> {
    /// One trial's collected snapshots (the probe cells).
    OfflineCells,
    /// A steady-state store of the daemon trace.
    DaemonStore(&'a Trace),
}

#[derive(Default)]
pub struct Probes {
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    pub problems: Vec<String>,
}

/// Cycles the serve probes replay untimed before measuring: what the
/// daemons' warm-up needs on this trace, so rings evict and the engine
/// retires from the first measured snapshot.
const SERVE_WARM_CYCLES: u64 = 25;
const SERVE_TIMED_CYCLES: u64 = 8;
/// Cycle boundaries the retirement probe steps the horizon across.
const RETIRE_CYCLES: u64 = 6;
/// In-process Diagnose repetitions, and live ones per plane.
const DIAGNOSE_REPS: u64 = 21;
/// Live Diagnoses with every allocation counted.
const ALLOC_REPS: u64 = 6;
/// Cycles of the live ingest phase.
const SESSION_INGEST_CYCLES: u64 = 40;

fn probe_cells() -> Vec<(TopologySpec, ScenarioKind, u64)> {
    let mut v = Vec::new();
    for topo in [TopologySpec::EVAL, tracegen::TOPO] {
        for kind in ScenarioKind::ALL {
            v.push((topo, kind, *offline::CORPUS_SEEDS.start()));
        }
    }
    v
}

fn agent_for(cfg: &hawkeye_eval::RunConfig) -> hawkeye_sim::AgentConfig {
    // The agent `run_hawkeye` and `replay_streaming` both configure.
    let mut agent = Scenario::agent(cfg.threshold_factor);
    agent.dedup_interval = Nanos::from_micros(400);
    agent.retry = cfg.agent_retry;
    agent
}

fn hawkeye_config(cfg: &hawkeye_eval::RunConfig) -> HawkeyeConfig {
    HawkeyeConfig {
        telemetry: TelemetryConfig {
            epochs: cfg.epoch,
            ..Default::default()
        },
        policy: cfg.policy,
        faults: cfg.faults,
        ..Default::default()
    }
}

/// `DiagnosisReport` from the three analysis stages, each in its own
/// span, graded as `analyze_victim_window` grades it.
#[allow(clippy::too_many_arguments)]
fn analyse_staged(
    names: [&'static str; 3],
    request: u64,
    victim: &hawkeye_sim::FlowKey,
    window: Window,
    snapshots: &[TelemetrySnapshot],
    topo: &hawkeye_sim::Topology,
    cfg: &AnalyzerConfig,
    log: &mut SpanLog,
) -> DiagnosisReport {
    let mut agg = log.leaf(names[0], request, 1, || {
        AggTelemetry::build(snapshots, window)
    });
    if agg.epoch_len == Nanos::ZERO {
        agg.epoch_len = cfg.epoch_len;
    }
    let g = log.leaf(names[1], request, 1, || build_graph(&agg, topo, cfg.replay));
    let mut report = log.leaf(names[2], request, 1, || {
        diagnose(&g, topo, &agg, victim, cfg.diagnosis)
    });
    let covered: HashSet<NodeId> = snapshots.iter().map(|s| s.switch).collect();
    report.confidence = Confidence::grade(
        victim_coverage_gaps(victim, |sw| covered.contains(&sw), topo),
        report.anomaly != AnomalyType::NoAnomaly,
    );
    report
}

const OFFLINE_STAGES: [&str; 3] = [
    "core.aggregate.build[trial]",
    "core.provenance.build_graph[trial]",
    "core.diagnosis.diagnose[trial]",
];
const STORE_STAGES: [&str; 3] = [
    "core.aggregate.build[store]",
    "core.provenance.build_graph[store]",
    "core.diagnosis.diagnose[store]",
];

struct StagedCell {
    verdict: CellVerdict,
    events: u64,
    data_pkts: u64,
    collected_bytes: u64,
}

/// One corpus cell, stage by stage: the public calls `run_cell` →
/// `run_hawkeye` make, in their order.
fn staged_cell(
    spec: &TopologySpec,
    kind: ScenarioKind,
    seed: u64,
    request: u64,
    log: &mut SpanLog,
) -> Result<StagedCell, String> {
    let score = ScoreConfig::default();
    log.span("offline.cell", request, 1, |log| {
        let sc = log
            .leaf("workloads.build_scenario_on", request, 1, || {
                build_scenario_on(spec, kind, cell_params(spec, seed))
            })
            .map_err(|e| format!("{}/{}/s{seed}: {e}", spec.slug(), kind.name()))?;
        let cfg = optimal_run_config(seed);
        let mut sim = log.leaf("sim.instantiate", request, 1, || {
            let hook = ObservedHook::new(
                HawkeyeHook::new(&sc.topo, hawkeye_config(&cfg)),
                ObsConfig::off(),
            );
            sc.instantiate_faulted(cfg.sim_seed, agent_for(&cfg), hook, cfg.faults)
        });
        let events = log.leaf("sim.run_until[hawkeye]", request, 1, || {
            sim.run_until(sc.params.duration)
        });
        let analyzer = AnalyzerConfig::for_epoch_len(cfg.epoch.epoch_len());
        let window = log.leaf("sim.detections", request, 1, || {
            victim_window(
                &sim.detections(),
                &sc.truth.victim,
                sc.truth.anomaly_at,
                cfg.epoch.epoch_len(),
                analyzer.lookback_epochs,
            )
        });
        let collector = &sim.hook.inner().collector;
        let snapshots = log.leaf("core.collector.snapshots", request, 1, || {
            collector.snapshots()
        });
        let collected_bytes = collector.total_bytes() as u64;
        let report = window.map(|w| {
            let mut r = analyse_staged(
                OFFLINE_STAGES,
                request,
                &sc.truth.victim,
                w,
                &snapshots,
                sim.topo(),
                &analyzer,
                log,
            );
            r.note_missing(&collector.missing_switches(w.from, w.to));
            r
        });
        let verdict = report
            .as_ref()
            .map(|r| log.leaf("eval.judge", request, 1, || judge(&sc.truth, r, &score)));
        Ok(StagedCell {
            verdict: cell_verdict(report.as_ref(), verdict, &score),
            events,
            data_pkts: sim.sum_switch_stats(|s| s.data_pkts),
            collected_bytes,
        })
    })
}

/// The pinned form of a staged outcome, field for field what
/// `hawkeye_eval::corpus::outcome_to_verdict` derives.
fn cell_verdict(
    report: Option<&DiagnosisReport>,
    verdict: Option<Verdict>,
    score: &ScoreConfig,
) -> CellVerdict {
    let label = match verdict {
        Some(Verdict::Correct) => "correct",
        Some(Verdict::WrongAnomalyType) => "wrong-anomaly-type",
        Some(Verdict::MissedCulprits) => "missed-culprits",
        Some(Verdict::SpuriousCulprits) => "spurious-culprits",
        Some(Verdict::WrongInjectionHost) => "wrong-injection-host",
        None => "undetected",
    };
    let (anomaly, confidence, culprits, injection) = match report {
        Some(r) => {
            let mut culprits: Vec<String> = r
                .major_root_cause_flows(score.major_frac)
                .iter()
                .map(|f| f.to_string())
                .collect();
            culprits.sort();
            let mut injection: Vec<String> = r
                .injection_peers()
                .iter()
                .map(|n| n.0.to_string())
                .collect();
            injection.sort();
            (
                format!("{:?}", r.anomaly),
                r.confidence.label().to_string(),
                culprits,
                injection,
            )
        }
        None => ("none".into(), "none".into(), vec![], vec![]),
    };
    CellVerdict {
        verdict: label.to_string(),
        anomaly,
        confidence,
        culprits,
        injection,
    }
}

/// Records the per-packet register-update stream of a simulation.
#[derive(Default)]
struct RecordingHook {
    records: Vec<EnqueueRecord>,
}

impl SwitchHook for RecordingHook {
    fn on_data_enqueue(&mut self, rec: &EnqueueRecord) {
        self.records.push(*rec);
    }
    fn on_pfc_frame(&mut self, _ev: &PfcEvent) {}
    fn on_probe(
        &mut self,
        _switch: NodeId,
        _in_port: u8,
        _probe: Probe,
        _view: &SwitchView<'_>,
        _now: Nanos,
    ) -> ProbeDecision {
        ProbeDecision::default()
    }
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn total(t: &BTreeMap<&'static str, LayerTotal>, name: &str) -> LayerTotal {
    t.get(name).copied().unwrap_or_default()
}

/// Analysis-stage costs, µs per call: (aggregate, graph, diagnose).
type AnalysisUs = (f64, f64, f64);

fn analysis_us(t: &BTreeMap<&'static str, LayerTotal>, names: [&'static str; 3]) -> AnalysisUs {
    let f = |n| us(total(t, n).ns_per_call());
    (f(names[0]), f(names[1]), f(names[2]))
}

fn offline_probes(log: &mut SpanLog, p: &mut Probes) -> Result<(), String> {
    let cells = probe_cells();
    let trials = cells.len() as f64;
    let score = ScoreConfig::default();

    // Reference pass: `run_cell` itself, serially — the verdicts the
    // staged replica must reproduce and the serial side of the speedup.
    let t = Instant::now();
    let reference: Vec<_> = cells
        .iter()
        .map(|(topo, kind, seed)| run_cell(topo, *kind, *seed, &score))
        .collect();
    let serial_s = t.elapsed().as_secs_f64();
    let jobs = host::nproc();
    let t = Instant::now();
    let parallel = par_map(jobs, &cells, |(topo, kind, seed)| {
        run_cell(topo, *kind, *seed, &score)
    });
    let parallel_s = t.elapsed().as_secs_f64();
    if parallel != reference {
        p.problems
            .push("par_map verdicts differ from the serial pass".into());
    }

    let (mut events_hawkeye, mut data_pkts, mut bytes) = (0u64, 0u64, 0u64);
    for (i, (topo, kind, seed)) in cells.iter().enumerate() {
        let staged = staged_cell(topo, *kind, *seed, i as u64, log)?;
        if staged.verdict != reference[i].verdict {
            p.problems.push(format!(
                "staged {} = {:?}, run_cell = {:?}",
                reference[i].key, staged.verdict, reference[i].verdict
            ));
        }
        events_hawkeye += staged.events;
        data_pkts += staged.data_pkts;
        bytes += staged.collected_bytes;
    }

    // The same simulations under a no-op hook: the event loop alone.
    let mut events_null = 0u64;
    for (i, (topo, kind, seed)) in cells.iter().enumerate() {
        let sc =
            build_scenario_on(topo, *kind, cell_params(topo, *seed)).map_err(|e| e.to_string())?;
        let cfg = optimal_run_config(*seed);
        let mut sim = sc.instantiate_faulted(cfg.sim_seed, agent_for(&cfg), NullHook, cfg.faults);
        events_null += log.leaf("sim.run_until[null]", i as u64, 1, || {
            sim.run_until(sc.params.duration)
        });
    }

    // Per-packet telemetry: record one trial's enqueue stream, replay it
    // into fresh register state with nothing else in the loop.
    let (topo, kind, seed) = cells[cells.len() / 2];
    let sc = build_scenario_on(&topo, kind, cell_params(&topo, seed)).map_err(|e| e.to_string())?;
    let cfg = optimal_run_config(seed);
    let mut sim = sc.instantiate_faulted(
        cfg.sim_seed,
        agent_for(&cfg),
        RecordingHook::default(),
        cfg.faults,
    );
    sim.run_until(sc.params.duration);
    let records = std::mem::take(&mut sim.hook.records);
    let tcfg = hawkeye_config(&cfg).telemetry;
    let mut index: HashMap<NodeId, usize> = HashMap::new();
    let mut state: Vec<SwitchTelemetry> = Vec::new();
    for sw in sc.topo.switches() {
        index.insert(sw, state.len());
        state.push(SwitchTelemetry::new(sw, sc.topo.ports(sw).len(), tcfg));
    }
    let routed: Vec<(usize, &EnqueueRecord)> =
        records.iter().map(|r| (index[&r.switch], r)).collect();
    log.leaf(
        "telemetry.switch_state.on_enqueue",
        0,
        routed.len() as u64,
        || {
            for &(i, rec) in &routed {
                state[i].on_enqueue(rec);
            }
        },
    );
    std::hint::black_box(&state);

    // One cell with every allocation counted.
    let before = alloc::totals();
    alloc::set_enabled(true);
    std::hint::black_box(run_cell(&cells[0].0, cells[0].1, cells[0].2, &score));
    alloc::set_enabled(false);
    let allocs = alloc::totals().0 - before.0;

    let t = span::totals(log.spans());
    let hawk = total(&t, "sim.run_until[hawkeye]");
    let null = total(&t, "sim.run_until[null]");
    let cell = total(&t, "offline.cell");
    let hook_ns = hawk.self_ns.saturating_sub(null.self_ns) as f64;
    let m = &mut p.metrics;
    m.push(metric(
        "workloads.build_ms_per_trial",
        total(&t, "workloads.build_scenario_on").ns_per_call() / 1e6,
        "ms",
    ));
    m.push(metric(
        "sim.loop_ms_per_trial",
        null.ns_per_call() / 1e6,
        "ms",
    ));
    m.push(metric(
        "sim.events_per_trial",
        events_null as f64 / trials,
        "count",
    ));
    m.push(metric(
        "sim.events_per_s",
        events_null as f64 * 1e9 / null.self_ns.max(1) as f64,
        "1/s",
    ));
    m.push(metric(
        "core.hook.ms_per_trial",
        hook_ns / trials / 1e6,
        "ms",
    ));
    m.push(metric(
        "core.hook.ns_per_data_pkt",
        hook_ns / data_pkts.max(1) as f64,
        "ns",
    ));
    m.push(metric(
        "telemetry.on_enqueue_ns",
        total(&t, "telemetry.switch_state.on_enqueue").ns_per_item(),
        "ns",
    ));
    m.push(metric(
        "core.collector.snapshots_us",
        us(total(&t, "core.collector.snapshots").ns_per_call()),
        "us",
    ));
    m.push(metric(
        "core.collector.bytes_per_trial",
        bytes as f64 / trials,
        "B",
    ));
    m.push(metric(
        "eval.judge_us",
        us(total(&t, "eval.judge").ns_per_call()),
        "us",
    ));
    m.push(metric(
        "eval.par_map.speedup",
        serial_s / parallel_s.max(1e-9),
        "ratio",
    ));
    m.push(metric(
        "offline.unattributed_share",
        cell.self_ns as f64 / cell.total_ns.max(1) as f64,
        "ratio",
    ));
    m.push(metric("alloc.count_per_trial", allocs as f64, "count"));
    p.notes.push(format!(
        "offline probes: {} cells; {} events/trial instrumented vs {} under the no-op hook; par_map jobs={jobs}: {serial_s:.2} s serial, {parallel_s:.2} s parallel",
        cells.len(),
        events_hawkeye / cells.len() as u64,
        events_null / cells.len() as u64,
    ));
    Ok(())
}

/// What the serve probes hand to the session probes: in-process p50s of
/// the Diagnose path, µs, and per-snapshot ingest-path cost, ns.
struct ServeFacts {
    diagnose_layers_us: f64,
    ingest_layers_ns_per_snap: f64,
}

fn serve_probes(trace: &Trace, log: &mut SpanLog, p: &mut Probes) -> Result<ServeFacts, String> {
    let cfg = ServeConfig::default();
    let store_cfg = StoreConfig {
        deferred_fold: true,
        ..cfg.store
    };
    let mut store = TelemetryStore::new(store_cfg);
    let mut comp = Compactor::new(store_cfg);
    let mut engine =
        IncrementalProvenance::new(cfg.replay, store_cfg.epoch_budget.saturating_mul(2));
    let wal_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("wal-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let mut wal = Wal::create(WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::new(&wal_dir)
    })
    .map_err(|e| format!("wal probe: {e}"))?;
    let len = trace.snaps.len();

    let ingest = |snap: &TelemetrySnapshot,
                  store: &mut TelemetryStore,
                  comp: &mut Compactor,
                  engine: &mut IncrementalProvenance,
                  log: &mut SpanLog| {
        log.leaf("serve.store.append", 0, 1, || store.append(snap));
        log.leaf("serve.compactor.absorb", 0, 1, || {
            let staged = store.take_pending_folds();
            comp.absorb(staged)
        });
        log.leaf("core.incremental.apply", 0, 1, || engine.apply(snap));
    };

    // Untimed: to steady state, through the same calls.
    let mut quiet = SpanLog::new(false, Instant::now());
    for cycle in 0..SERVE_WARM_CYCLES {
        for snap in trace.batch(cycle, 0..len) {
            ingest(&snap, &mut store, &mut comp, &mut engine, &mut quiet);
        }
    }
    engine.refresh(&trace.topo);

    let st0 = *store.stats();
    let en0 = *engine.stats();
    let wal0 = *wal.stats();
    let mut wire_bytes = 0u64;
    let mut codec_problem = None;
    for cycle in SERVE_WARM_CYCLES..SERVE_WARM_CYCLES + SERVE_TIMED_CYCLES {
        let snaps = log.leaf("bench.restamp", cycle, len as u64, || {
            trace.batch(cycle, 0..len)
        });
        for chunk in snaps.chunks(BATCH) {
            let n = chunk.len() as u64;
            let bytes = log.leaf("telemetry.wire.encode_batch", cycle, n, || {
                encode_batch(chunk)
            });
            wire_bytes += bytes.len() as u64;
            let decoded = log
                .leaf("telemetry.wire.decode_batch", cycle, n, || {
                    decode_batch(&bytes)
                })
                .map_err(|e| format!("decode_batch: {e:?}"))?;
            let req = Request::IngestBatch(chunk.to_vec());
            let mut frame = Vec::with_capacity(bytes.len() + 16);
            log.leaf("client.proto.write_request", cycle, n, || {
                write_request(&mut frame, &req)
            })
            .map_err(|e| e.to_string())?;
            let back = log.leaf("client.proto.decode_request", cycle, n, || {
                let (op, body) = read_frame(&mut &frame[..])?.expect("one whole frame");
                decode_request(op, &body)
            });
            match back {
                Ok(Request::IngestBatch(b)) if b == decoded && b.as_slice() == chunk => {}
                other => {
                    codec_problem = Some(format!("frame round trip changed a batch: {other:?}"))
                }
            }
            log.leaf("serve.wal.append", cycle, n, || {
                wal.append(REC_BATCH, &bytes)
            })
            .map_err(|e| format!("wal append: {e}"))?;
            for snap in &decoded {
                ingest(snap, &mut store, &mut comp, &mut engine, log);
            }
        }
        // An operator's Stats refreshes the engine's graph; once a cycle
        // here, so the fragment counters move.
        log.leaf("core.incremental.refresh", cycle, 1, || {
            engine.refresh(&trace.topo)
        });
    }
    p.problems.extend(codec_problem);
    let snaps_timed = (SERVE_TIMED_CYCLES as usize * len) as f64;
    let st1 = *store.stats();
    let en1 = *engine.stats();
    // On this trace the stores' retention horizon never moves — a switch
    // that reports in one segment only re-uses its few ring keys instead
    // of evicting — so `retire_before` does not run on the ingest path
    // above (nor in the daemons). Measure it on its own instead: a copy of
    // the engine's evidence retired cycle by cycle, one cycle's epochs a
    // call, as a uniformly reporting fabric would drive it.
    let mut aged = IncrementalProvenance::new(cfg.replay, store_cfg.epoch_budget.saturating_mul(2));
    for snap in store.snapshots() {
        aged.apply(&snap);
    }
    let newest = SERVE_WARM_CYCLES + SERVE_TIMED_CYCLES;
    let mut retired_epochs = 0u64;
    for cycle in newest.saturating_sub(RETIRE_CYCLES)..newest {
        let h = trace.cycle_shift(cycle);
        retired_epochs += log.leaf("core.incremental.retire_before", cycle, len as u64, || {
            aged.retire_before(h)
        });
    }
    let wal1 = *wal.stats();
    drop(wal);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // The Diagnose path on this thread: gather, analyse, encode the answer.
    let end_pos = (SERVE_WARM_CYCLES + SERVE_TIMED_CYCLES) * len as u64;
    let complete = daemon::segments_complete(trace, end_pos);
    let nseg = trace.segments.len() as u64;
    let n_switches = trace.topo.switches().map(|s| s.0).max().unwrap_or(0) + 1;
    let ranges: Vec<_> = ShardMap::even_split(
        n_switches,
        vec![BackendEndpoint::Tcp("unbound:0".into()); 2],
        1,
    )
    .shards
    .into_iter()
    .map(|e| e.range)
    .collect();
    let mut gather_epochs = 0u64;
    for rep in 0..DIAGNOSE_REPS {
        let g = complete - 1 - rep % 3;
        let seg = &trace.segments[(g % nseg) as usize];
        let w = shift_window(seg.window, trace.cycle_shift(g / nseg));
        let gathered = log.leaf("serve.store.snapshots", rep, 1, || store.snapshots());
        gather_epochs = gathered.iter().map(|s| s.epochs.len() as u64).sum();
        let report = analyse_staged(
            STORE_STAGES,
            rep,
            &seg.victim,
            w,
            &gathered,
            &trace.topo,
            &trace.analyzer,
            log,
        );
        if !same_verdict(&report, &seg.reference) {
            p.problems.push(format!(
                "in-process diagnose of segment {g} differs from the one-shot verdict"
            ));
        }
        let resp = Response::Diagnosis(report);
        log.leaf("client.proto.response_codec", rep, 1, || {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).expect("write to a Vec");
            let (op, body) = read_frame(&mut &buf[..])
                .expect("own frame")
                .expect("one whole frame");
            decode_response(op, &body)
        })
        .map_err(|e| e.to_string())?;
        let shards: Vec<Vec<TelemetrySnapshot>> = ranges
            .iter()
            .map(|r| {
                gathered
                    .iter()
                    .filter(|s| r.contains(s.switch))
                    .cloned()
                    .collect()
            })
            .collect();
        let owned = shards.clone();
        let merged = log.leaf("core.incremental.merge_fragment_sets", rep, 1, || {
            merge_fragment_sets(owned)
        });
        if merged != gathered {
            p.problems
                .push("merge_fragment_sets changed the evidence set".into());
        }
        log.leaf("core.incremental.assemble_from_fragments", rep, 1, || {
            assemble_from_fragments(shards, w, &trace.topo, trace.analyzer.replay)
        });
    }

    let t = span::totals(log.spans());
    let per_snap = |name: &str| total(&t, name).self_ns as f64 / snaps_timed;
    let p50_us = |name: &str| {
        us(stats::percentile(&span::self_ns_of(log.spans(), name), 0.5).unwrap_or(0) as f64)
    };
    let m = &mut p.metrics;
    m.push(metric(
        "bench.restamp_ns_per_snap",
        per_snap("bench.restamp"),
        "ns",
    ));
    m.push(metric(
        "telemetry.wire.encode_ns_per_snap",
        per_snap("telemetry.wire.encode_batch"),
        "ns",
    ));
    m.push(metric(
        "telemetry.wire.decode_ns_per_snap",
        per_snap("telemetry.wire.decode_batch"),
        "ns",
    ));
    m.push(metric(
        "telemetry.wire.bytes_per_snap",
        wire_bytes as f64 / snaps_timed,
        "B",
    ));
    m.push(metric(
        "client.proto.write_request_ns_per_snap",
        per_snap("client.proto.write_request"),
        "ns",
    ));
    m.push(metric(
        "client.proto.decode_request_ns_per_snap",
        per_snap("client.proto.decode_request"),
        "ns",
    ));
    m.push(metric(
        "serve.store.append_ns_per_snap",
        per_snap("serve.store.append"),
        "ns",
    ));
    m.push(metric(
        "serve.store.epochs_evicted_per_snap",
        (st1.epochs_evicted - st0.epochs_evicted) as f64 / snaps_timed,
        "count",
    ));
    let stale = st1.epochs_stale_rejected - st0.epochs_stale_rejected;
    m.push(metric("serve.store.stale_rejected", stale as f64, "count"));
    if stale > 0 || st0.epochs_stale_rejected > 0 {
        p.problems
            .push(format!("store rejected {stale} epochs as stale"));
    }
    m.push(metric(
        "serve.compactor.absorb_ns_per_snap",
        per_snap("serve.compactor.absorb"),
        "ns",
    ));
    m.push(metric(
        "core.incremental.apply_ns_per_snap",
        per_snap("core.incremental.apply"),
        "ns",
    ));
    m.push(metric(
        "core.incremental.retire_ns_per_snap",
        total(&t, "core.incremental.retire_before").ns_per_item(),
        "ns",
    ));
    m.push(metric(
        "core.incremental.frags_recomputed_per_snap",
        (en1.frags_recomputed - en0.frags_recomputed) as f64 / snaps_timed,
        "count",
    ));
    m.push(metric(
        "serve.wal.append_ns_per_snap",
        per_snap("serve.wal.append"),
        "ns",
    ));
    m.push(metric(
        "serve.wal.bytes_per_snap",
        (wal1.bytes_appended - wal0.bytes_appended) as f64 / snaps_timed,
        "B",
    ));
    m.push(metric(
        "serve.store.snapshots_us",
        p50_us("serve.store.snapshots"),
        "us",
    ));
    m.push(metric(
        "serve.store.gather_epochs",
        gather_epochs as f64,
        "count",
    ));
    m.push(metric(
        "client.proto.response_codec_us",
        p50_us("client.proto.response_codec"),
        "us",
    ));
    m.push(metric(
        "core.incremental.merge_fragments_us",
        p50_us("core.incremental.merge_fragment_sets"),
        "us",
    ));
    m.push(metric(
        "core.incremental.assemble_us",
        p50_us("core.incremental.assemble_from_fragments"),
        "us",
    ));
    p.notes.push(format!(
        "serve probes: {} snapshots timed after {} warm-up cycles; {} raw epochs gathered per diagnose; retirement probe aged out {} epochs in {} calls",
        snaps_timed as u64, SERVE_WARM_CYCLES, gather_epochs, retired_epochs, RETIRE_CYCLES
    ));
    Ok(ServeFacts {
        diagnose_layers_us: p50_us("serve.store.snapshots")
            + STORE_STAGES.iter().map(|n| p50_us(n)).sum::<f64>()
            + p50_us("client.proto.response_codec"),
        ingest_layers_ns_per_snap: [
            "bench.restamp",
            "client.proto.write_request",
            "client.proto.decode_request",
            "serve.store.append",
            "serve.compactor.absorb",
            "core.incremental.apply",
        ]
        .iter()
        .map(|n| per_snap(n))
        .sum(),
    })
}

/// Closed-loop ingest of whole cycles on a live plane; returns the wall
/// and every `ingest_batch` call's duration, ns.
fn session_ingest(
    client: &mut hawkeye_client::ServeClient,
    trace: &Trace,
    cursor: &mut Cursor,
    name: &'static str,
    log: &mut SpanLog,
) -> Result<(f64, Vec<u64>), String> {
    let t = Instant::now();
    let mut calls = Vec::new();
    let target = cursor.pos + SESSION_INGEST_CYCLES * trace.snaps.len() as u64;
    while cursor.pos < target {
        let n = BATCH.min((target - cursor.pos) as usize);
        let batch = cursor.take(trace, n);
        let t_call = Instant::now();
        let ack = log
            .leaf(name, calls.len() as u64, n as u64, || {
                client.ingest_batch(&batch)
            })
            .map_err(|e| e.to_string())?;
        calls.push(t_call.elapsed().as_nanos() as u64);
        if ack.shed > 0 {
            return Err(format!("{name}: {} snapshots shed", ack.shed));
        }
    }
    let ack = client.finish_ingest().map_err(|e| e.to_string())?;
    if ack.shed > 0 {
        return Err(format!("{name}: {} snapshots shed", ack.shed));
    }
    // Acknowledged is not applied: close the phase on the barrier op
    // (FlowHistory flushes shard queues and compactor; `Stats` would add
    // an engine refresh that belongs to neither plane's ingest).
    client
        .flow_history(trace.segments[0].victim)
        .map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), calls))
}

fn session_probes(
    trace: &Trace,
    facts: &ServeFacts,
    log: &mut SpanLog,
    p: &mut Probes,
) -> Result<(), String> {
    let mono = Rig::spawn(trace, Plane::Monolith)?;
    let fleet = Rig::spawn(trace, Plane::Fleet)?;
    let result = (|| {
        let mut cm = mono.connect()?;
        let mut cf = fleet.connect()?;
        let mut cur_m = daemon::warm_up(&mut cm, trace)?.cursor;
        let mut cur_f = daemon::warm_up(&mut cf, trace)?.cursor;
        if cur_m.pos != cur_f.pos {
            return Err("monolith and fleet warmed up over different streams".to_string());
        }

        // Ingest, monolith: the daemon's own registry, the process's CPU
        // and context switches, every allocation.
        let (reg0, _) = cm.metrics().map_err(|e| e.to_string())?;
        let proc0 = host::proc_sample();
        let alloc0 = alloc::totals();
        alloc::set_enabled(true);
        let (mono_s, calls) = session_ingest(
            &mut cm,
            trace,
            &mut cur_m,
            "client.ingest_batch[monolith]",
            log,
        )?;
        alloc::set_enabled(false);
        let alloc1 = alloc::totals();
        let proc1 = host::proc_sample();
        let (reg1, _) = cm.metrics().map_err(|e| e.to_string())?;
        let snaps = (SESSION_INGEST_CYCLES * trace.snaps.len() as u64) as f64;
        let batches = calls.len() as f64;
        // The same stream through the front.
        let (fleet_s, _) = session_ingest(
            &mut cf,
            trace,
            &mut cur_f,
            "client.ingest_batch[fleet]",
            log,
        )?;

        let stage =
            |name: &str| (reg1.counter_total(name) - reg0.counter_total(name)) as f64 / snaps;
        let cpu = proc1.cpu_s - proc0.cpu_s;
        let m = &mut p.metrics;
        m.push(metric(
            "client.ingest_batch_us_p50",
            us(stats::percentile(&calls, 0.5).unwrap_or(0) as f64),
            "us",
        ));
        for (out, reg) in [
            (
                "daemon.stage_append_ns_per_snap",
                hawkeye_obs::names::STAGE_APPEND_NS,
            ),
            (
                "daemon.stage_fold_ns_per_snap",
                hawkeye_obs::names::STAGE_FOLD_NS,
            ),
            (
                "daemon.stage_engine_apply_ns_per_snap",
                hawkeye_obs::names::STAGE_ENGINE_APPLY_NS,
            ),
            (
                "daemon.stage_retire_ns_per_snap",
                hawkeye_obs::names::STAGE_RETIRE_NS,
            ),
        ] {
            m.push(metric(out, stage(reg), "ns"));
        }
        m.push(metric("proc.cpu_s_per_100k_snaps", cpu * 1e5 / snaps, "s"));
        m.push(metric("proc.threads", proc1.threads as f64, "count"));
        m.push(metric(
            "proc.ctx_switches_per_snap",
            (proc1.ctx_switches - proc0.ctx_switches) as f64 / snaps,
            "count",
        ));
        m.push(metric(
            "serve.server.residual_cpu_share",
            1.0 - facts.ingest_layers_ns_per_snap * snaps / (cpu * 1e9).max(1.0),
            "ratio",
        ));
        m.push(metric(
            "alloc.count_per_snap",
            (alloc1.0 - alloc0.0) as f64 / snaps,
            "count",
        ));
        m.push(metric(
            "cluster.front.ingest_overhead_us_per_batch",
            (fleet_s - mono_s) * 1e6 / batches,
            "us",
        ));

        // Diagnose, both planes quiesced on identical state, turn about.
        let complete = daemon::segments_complete(trace, cur_m.pos);
        let nseg = trace.segments.len() as u64;
        let mut lat_m = Vec::new();
        let mut lat_f = Vec::new();
        let target = |rep: u64| {
            let g = complete - 1 - rep % 3;
            let seg = &trace.segments[(g % nseg) as usize];
            (
                g,
                seg,
                shift_window(seg.window, trace.cycle_shift(g / nseg)),
            )
        };
        for rep in 0..DIAGNOSE_REPS {
            let (g, seg, w) = target(rep);
            for (client, lat, name) in [
                (&mut cm, &mut lat_m, "client.diagnose[monolith]"),
                (&mut cf, &mut lat_f, "client.diagnose[fleet]"),
            ] {
                let t = Instant::now();
                let report = log
                    .leaf(name, rep, 1, || {
                        client.diagnose(seg.victim, w.from, w.to, Vec::new())
                    })
                    .map_err(|e| e.to_string())?;
                lat.push(t.elapsed().as_nanos() as u64);
                if !same_verdict(&report, &seg.reference) {
                    p.problems.push(format!(
                        "{name}: segment {g} differs from the one-shot verdict"
                    ));
                }
            }
        }
        // Allocations of a Diagnose, client and daemon sides together,
        // counted apart from the timed calls above.
        let alloc0 = alloc::totals();
        alloc::set_enabled(true);
        for rep in 0..ALLOC_REPS {
            let (_, seg, w) = target(rep);
            cm.diagnose(seg.victim, w.from, w.to, Vec::new())
                .map_err(|e| e.to_string())?;
        }
        alloc::set_enabled(false);
        let alloc1 = alloc::totals();
        let mono_allocs = (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1);
        let mut frag = Vec::new();
        for rep in 0..DIAGNOSE_REPS {
            let t = Instant::now();
            let f = log
                .leaf("client.fragments", rep, 1, || cm.fragments())
                .map_err(|e| e.to_string())?;
            frag.push(t.elapsed().as_nanos() as u64);
            std::hint::black_box(f);
        }
        let (reg2, _) = cm.metrics().map_err(|e| e.to_string())?;
        let p50 = |v: &[u64]| stats::percentile(v, 0.5).unwrap_or(0) as f64;
        let m = &mut p.metrics;
        m.push(metric(
            "daemon.op_diagnose_ms_p50",
            reg2.histogram(hawkeye_obs::names::OP_DIAGNOSE_NS)
                .and_then(|h| h.percentile(0.5))
                .unwrap_or(0) as f64
                / 1e6,
            "ms",
        ));
        m.push(metric(
            "serve.server.diagnose_residual_ms",
            (p50(&lat_m) - facts.diagnose_layers_us * 1e3) / 1e6,
            "ms",
        ));
        m.push(metric("serve.fragments_us", us(p50(&frag)), "us"));
        m.push(metric(
            "cluster.front.overhead_ms_p50",
            (p50(&lat_f) - p50(&lat_m)) / 1e6,
            "ms",
        ));
        m.push(metric(
            "alloc.count_per_diagnose",
            mono_allocs.0 as f64 / ALLOC_REPS as f64,
            "count",
        ));
        m.push(metric(
            "alloc.bytes_per_diagnose",
            mono_allocs.1 as f64 / ALLOC_REPS as f64,
            "B",
        ));
        p.notes.push(format!(
            "session probes: {} snapshots ingested per plane ({mono_s:.2} s monolith, {fleet_s:.2} s fleet); quiesced diagnose p50 {:.2} ms monolith, {:.2} ms fleet",
            snaps as u64,
            p50(&lat_m) / 1e6,
            p50(&lat_f) / 1e6
        ));
        Ok(())
    })();
    fleet.shutdown();
    mono.shutdown();
    result
}

pub fn probe_suite(
    args: &RunArgs,
    input: AnalysisInput<'_>,
    log: &mut SpanLog,
) -> Result<Probes, String> {
    let generated;
    let trace = match input {
        AnalysisInput::DaemonStore(t) => t,
        AnalysisInput::OfflineCells => {
            generated = tracegen::generate(args.seed, host::nproc().min(2))?;
            &generated
        }
    };
    let mut p = Probes::default();
    offline_probes(log, &mut p)?;
    let facts = serve_probes(trace, log, &mut p)?;
    let t = span::totals(log.spans());
    let (agg, graph, diag) = analysis_us(
        &t,
        match input {
            AnalysisInput::OfflineCells => OFFLINE_STAGES,
            AnalysisInput::DaemonStore(_) => STORE_STAGES,
        },
    );
    p.metrics.push(metric("core.aggregate.build_us", agg, "us"));
    p.metrics
        .push(metric("core.provenance.build_graph_us", graph, "us"));
    p.metrics
        .push(metric("core.diagnosis.diagnose_us", diag, "us"));
    session_probes(trace, &facts, log, &mut p)?;
    Ok(p)
}
