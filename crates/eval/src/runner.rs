//! Run one scenario under any of the seven compared methods and extract
//! everything the figures need: the victim diagnosis, collection/overhead
//! statistics, and causal-switch coverage.
//!
//! A method is a view of its deployment's run: [`run_methods`] simulates
//! each deployment (polling policy, full polling or not) its methods need
//! once and concludes every method over it, and every evaluation sweep is
//! a list of crate-private `Trial`s (kind, seed, load, [`RunConfig`]) run
//! through it.
//!
//! Every offline trial becomes a verdict through [`conclude_trial`]; the
//! runners here, the figures and `hawkeye-serve`'s replay all call it.
//! Its evidence rule is the daemon's: the analyzer reads every collected
//! snapshot after the method's visibility transform, and the aggregate
//! keeps what overlaps the window. Its accounting rule is the paper's
//! per-diagnosis one: coverage and overheads count only the collections
//! the victim's polling packets triggered inside the window.
//!
//! Every counter reported on [`RunOutcome`] is first folded into a
//! [`hawkeye_obs::MetricsRegistry`] and then read back from it, so the
//! registry snapshot carried on the outcome is the single source of truth:
//! a figure script consuming `outcome.metrics` sees exactly the numbers the
//! outcome fields were computed from.

use crate::metrics::{judge, ScoreConfig, Verdict};
use crate::parallel::par_map;
use hawkeye_baselines::{
    filter_victim_path, netsight_bandwidth, netsight_processing, polling_bandwidth,
    spidermon_bandwidth, spidermon_processing, strip_flows, strip_pfc, strip_ports, Method,
};
use hawkeye_core::{
    analyze_victim_window_obs, AnalyzerConfig, Collector, DiagnosisError, DiagnosisReport,
    HawkeyeConfig, HawkeyeHook, TracingPolicy, Window,
};
use hawkeye_obs::{MetricKey, MetricsSnapshot, ObsConfig, Recorder};
use hawkeye_sim::{
    record_sim_metrics, trace_detections, trace_drop_warnings, Detection, FaultPlan, Nanos, NodeId,
    ObservedHook, Simulator, SwitchHook,
};
use hawkeye_telemetry::{EpochConfig, TelemetryConfig, TelemetrySnapshot};
use hawkeye_workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};

/// Per-run knobs (the paper's Fig. 7 sweep axes plus seeds). The default
/// is the optimal operating point of the cross-method comparisons,
/// simulated at seed 1.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub epoch: EpochConfig,
    /// Detection threshold as a fraction of base RTT (2.0 = the paper's
    /// "200% RTT").
    pub threshold_factor: f64,
    pub sim_seed: u64,
    pub policy: TracingPolicy,
    /// Control-plane fault injection; [`FaultPlan::none()`] reproduces the
    /// fault-free pipeline bit for bit.
    pub faults: FaultPlan,
    /// Host-agent probe re-poll ladder (false = single-shot probes).
    pub agent_retry: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            epoch: EpochConfig::for_epoch_len(Nanos::from_micros(100), 2),
            threshold_factor: 2.0,
            sim_seed: 1,
            policy: TracingPolicy::Hawkeye,
            faults: FaultPlan::none(),
            agent_retry: false,
        }
    }
}

impl RunConfig {
    /// The analyzer configuration for this run's epoch length.
    pub fn analyzer(&self) -> AnalyzerConfig {
        AnalyzerConfig::for_epoch_len(self.epoch.epoch_len())
    }

    /// [`victim_window`] of `scenario`'s victim over `dets`, at this run's
    /// epoch length and the analyzer's lookback.
    pub fn victim_window(&self, scenario: &Scenario, dets: &[Detection]) -> Option<Window> {
        victim_window(
            dets,
            &scenario.truth.victim,
            scenario.truth.anomaly_at,
            self.epoch.epoch_len(),
            self.analyzer().lookback_epochs,
        )
    }
}

/// Set up one offline trial and run it to the scenario's end: the Hawkeye
/// deployment `cfg` describes is handed to `hook`, which builds the switch
/// hook from it (adjusting or wrapping it as its caller needs), behind the
/// host agent every trial uses, on the simulator seeded and faulted as
/// `cfg` says. [`run_method_obs`], the figures and `hawkeye-serve`'s
/// replay all set their trials up here.
pub fn simulate<H: SwitchHook>(
    scenario: &Scenario,
    cfg: &RunConfig,
    hook: impl FnOnce(HawkeyeConfig) -> H,
) -> Simulator<H> {
    let hook = hook(HawkeyeConfig {
        telemetry: TelemetryConfig {
            epochs: cfg.epoch,
            ..Default::default()
        },
        policy: cfg.policy,
        faults: cfg.faults,
        ..Default::default()
    });
    let mut agent = Scenario::agent(cfg.threshold_factor);
    agent.dedup_interval = Nanos::from_micros(400);
    agent.retry = cfg.agent_retry;
    let mut sim = scenario.instantiate_faulted(cfg.sim_seed, agent, hook, cfg.faults);
    sim.run_until(scenario.params.duration);
    sim
}

/// Everything extracted from one trial of one method.
#[derive(Debug)]
pub struct RunOutcome {
    /// The victim's last post-anomaly detection, if any.
    pub detection: Option<Detection>,
    /// The diagnosis window, when a detection produced one.
    pub window: Option<Window>,
    /// Switches whose collection demonstrably failed inside the window,
    /// folded into the report's confidence.
    pub missing: Vec<NodeId>,
    /// Diagnosis of the victim detection.
    pub report: Option<DiagnosisReport>,
    pub verdict: Option<Verdict>,
    /// Why the pipeline could not produce a (meaningful) diagnosis, when it
    /// could not. A report may still accompany a [`DiagnosisError::NoTelemetry`]
    /// (graded inconclusive); [`DiagnosisError::NoDetection`] never has one.
    pub error: Option<DiagnosisError>,
    /// Distinct switches whose telemetry this diagnosis consumed / causal
    /// coverage (Fig. 11).
    pub collected_switches: Vec<NodeId>,
    pub causal_covered: usize,
    pub causal_total: usize,
    /// Telemetry bytes processed by the analyzer per diagnosis (Fig. 9a).
    pub processing_bytes: u64,
    /// Extra bytes placed on the wire by monitoring (Fig. 9b).
    pub bandwidth_bytes: u64,
    /// Report packets shipped (Hawkeye-family only; 0 otherwise).
    pub report_packets: usize,
    /// Data packets the hosts sent.
    pub data_packets: u64,
    /// Data packets forwarded, counted once per switch hop.
    pub packet_hops: u64,
    /// The registry snapshot every counter above was read back from.
    pub metrics: MetricsSnapshot,
}

/// The window a victim's diagnosis aggregates over, given every detection
/// the run produced: from `lookback_epochs` before the FIRST post-anomaly
/// detection of the victim (onset evidence) to one epoch after the LAST
/// (fully-developed causality — a persisting anomaly re-triggers detection
/// every dedup interval, and e.g. a deadlock loop takes hundreds of
/// microseconds to close). `None` when the victim was never detected after
/// the anomaly. [`conclude_trial`] windows every trial with it; a served
/// `Diagnose` is asked for the same window, so verdict parity with the
/// daemon depends on this one arithmetic.
pub fn victim_window(
    dets: &[Detection],
    victim: &hawkeye_sim::FlowKey,
    anomaly_at: Nanos,
    epoch_len: Nanos,
    lookback_epochs: u64,
) -> Option<Window> {
    let victim_dets: Vec<&Detection> = dets
        .iter()
        .filter(|d| d.key == *victim && d.at >= anomaly_at)
        .collect();
    victim_dets
        .first()
        .zip(victim_dets.last())
        .map(|(f, l)| Window {
            from: f
                .at
                .saturating_sub(Nanos(epoch_len.as_nanos() * lookback_epochs)),
            to: l.at + epoch_len,
        })
}

/// The deployment `method` runs on: the switches' polling policy and
/// whether every switch is collected on each trigger. A method is a view
/// of its deployment's run, so methods that share a deployment share its
/// simulation: Hawkeye and port-only, full polling and NetSight, and
/// victim-only, SpiderMon and flow-only.
fn deployment(method: Method) -> (TracingPolicy, bool) {
    let policy = if method.victim_path_only() || method == Method::FlowOnly {
        TracingPolicy::VictimOnly
    } else {
        TracingPolicy::Hawkeye
    };
    (policy, method.collects_everything())
}

/// [`simulate`] `scenario` on `method`'s deployment, its Hawkeye hook
/// handed to `wrap`.
fn simulate_deployment<H: SwitchHook>(
    scenario: &Scenario,
    cfg: &RunConfig,
    method: Method,
    wrap: impl FnOnce(HawkeyeHook) -> H,
) -> Simulator<H> {
    let (policy, full_polling) = deployment(method);
    simulate(scenario, &RunConfig { policy, ..*cfg }, |h| {
        wrap(HawkeyeHook::new(
            &scenario.topo,
            HawkeyeConfig { full_polling, ..h },
        ))
    })
}

/// Run `scenario` under `method` and judge the result.
pub fn run_method(
    scenario: &Scenario,
    cfg: &RunConfig,
    method: Method,
    score: &ScoreConfig,
) -> RunOutcome {
    run_methods(scenario, cfg, &[method], score)
        .pop()
        .expect("one outcome per method")
}

/// Run `scenario` under each of `methods` and judge each result, in
/// `methods` order. Each deployment the methods need is simulated once,
/// and every method on it is concluded over that one run with a recorder
/// of its own, so each outcome equals its own [`run_method`].
pub fn run_methods(
    scenario: &Scenario,
    cfg: &RunConfig,
    methods: &[Method],
    score: &ScoreConfig,
) -> Vec<RunOutcome> {
    let mut outs: Vec<Option<RunOutcome>> = methods.iter().map(|_| None).collect();
    for (i, &first) in methods.iter().enumerate() {
        if outs[i].is_some() {
            continue;
        }
        let sim = simulate_deployment(scenario, cfg, first, |h| h);
        let collector = &sim.hook.collector;
        for (out, &m) in outs.iter_mut().zip(methods).skip(i) {
            if deployment(m) == deployment(first) {
                let obs = &mut Recorder::disabled();
                *out = Some(conclude_trial(
                    &sim, collector, scenario, cfg, m, score, obs,
                ));
            }
        }
    }
    outs.into_iter()
        .map(|o| o.expect("every method's deployment ran"))
        .collect()
}

/// [`run_method`] with observability: the simulation runs under an
/// [`ObservedHook`] so PFC pause/resume, probe hops, CPU mirrors and
/// detections land in the recorder's trace, and the diagnosis stages are
/// span-timed. Returns the recorder alongside the outcome so callers can
/// emit the trace (JSONL / Chrome) or inspect the stage profile.
pub fn run_method_obs(
    scenario: &Scenario,
    cfg: &RunConfig,
    method: Method,
    score: &ScoreConfig,
    ocfg: ObsConfig,
) -> (RunOutcome, Recorder) {
    let mut sim = simulate_deployment(scenario, cfg, method, |h| ObservedHook::new(h, ocfg));
    let mut obs = std::mem::take(&mut sim.hook.obs);
    let collector = &sim.hook.inner().collector;
    let out = conclude_trial(&sim, collector, scenario, cfg, method, score, &mut obs);
    (out, obs)
}

/// One evaluation trial: `kind` on the evaluation fabric at scenario seed
/// `seed` and background `load`, run at `run`. Every sweep — the figures
/// and the chaos sweep — is a list of these.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Trial {
    pub kind: ScenarioKind,
    pub seed: u64,
    pub load: f64,
    pub run: RunConfig,
}

/// `kind` on the evaluation fabric at `seed` and background `load`.
pub(crate) fn scenario(kind: ScenarioKind, seed: u64, load: f64) -> Scenario {
    build_scenario(
        kind,
        ScenarioParams {
            seed,
            load,
            ..Default::default()
        },
    )
}

/// [`run_methods`] over every trial, the trials spread across `jobs`
/// threads: one outcome list per trial, in input order and in `methods`
/// order, so the result does not depend on `jobs`.
pub(crate) fn sweep(jobs: usize, trials: &[Trial], methods: &[Method]) -> Vec<Vec<RunOutcome>> {
    par_map(jobs, trials, |t| {
        let sc = scenario(t.kind, t.seed, t.load);
        run_methods(&sc, &t.run, methods, &ScoreConfig::default())
    })
}

/// Turn the finished trial `sim` of `scenario`, whose telemetry reached
/// `collector`, into its outcome as `method` sees it: the victim's
/// detection and window, the switches missing inside it, the typed error,
/// the report over every collected snapshot after the method's visibility
/// transform, the verdict, and the per-diagnosis overheads. Detections,
/// the diagnosis stages and the registry fold land in `obs`.
pub fn conclude_trial<H: SwitchHook>(
    sim: &Simulator<H>,
    collector: &Collector,
    scenario: &Scenario,
    cfg: &RunConfig,
    method: Method,
    score: &ScoreConfig,
    obs: &mut Recorder,
) -> RunOutcome {
    let victim = &scenario.truth.victim;
    let dets = sim.detections();
    trace_detections(obs, &dets);
    let detection = dets
        .iter()
        .rfind(|d| d.key == *victim && d.at >= scenario.truth.anomaly_at)
        .copied();
    // No detection → no window → no diagnosis: a typed error, not a panic.
    let window = cfg.victim_window(scenario, &dets);
    let missing: Vec<NodeId> = window
        .map(|w| collector.missing_switches(w.from, w.to))
        .unwrap_or_default();

    let all = collector.snapshots();
    let on_path = |s: &[TelemetrySnapshot]| filter_victim_path(s, sim.topo(), victim);
    let snapshots = match method {
        Method::Hawkeye | Method::FullPolling => all,
        Method::VictimOnly => on_path(&all),
        Method::SpiderMon => strip_pfc(&on_path(&all)),
        Method::NetSight => strip_pfc(&all),
        Method::PortOnly => strip_flows(&all),
        Method::FlowOnly => strip_ports(&on_path(&all)),
    };
    let error = if window.is_none() {
        Some(DiagnosisError::NoDetection { victim: *victim })
    } else if snapshots.is_empty() {
        Some(DiagnosisError::NoTelemetry {
            victim: *victim,
            missing: missing.clone(),
        })
    } else {
        None
    };
    let report = window.map(|w| {
        let analyzer = cfg.analyzer();
        let mut r = analyze_victim_window_obs(victim, w, &snapshots, sim.topo(), &analyzer, obs).0;
        r.note_missing(&missing);
        r
    });
    let verdict = report.as_ref().map(|r| judge(&scenario.truth, r, score));

    // Per-diagnosis attribution: only the collections THIS victim's polling
    // packets triggered (within its window) count toward its overheads —
    // the collector is shared with every other concurrent anomaly.
    let victim_snaps: Vec<TelemetrySnapshot> = window
        .map(|w| collector.attributed_snapshots(victim, w.from, w.to))
        .unwrap_or_default();
    let mut collected: Vec<NodeId> = victim_snaps.iter().map(|s| s.switch).collect();
    collected.sort_unstable();
    collected.dedup();
    let causal_covered = scenario
        .truth
        .causal_switches
        .iter()
        .filter(|s| collected.contains(s))
        .count();

    // Fold everything into the registry, then read the outcome's counters
    // back out of it — the snapshot and the fields can never disagree.
    record_sim_metrics(sim, &mut obs.metrics);
    trace_drop_warnings(sim, obs);
    let m = &mut obs.metrics;
    // Fault-handling counters fold only when they fired: zero-valued keys
    // would perturb the registry snapshot of every fault-free run.
    if !cfg.faults.is_none() {
        let cs = collector.fault_stats;
        m.add(
            MetricKey::global("faults_injected"),
            cs.uploads_dropped
                + cs.uploads_delayed
                + cs.snapshots_stale
                + cs.snapshots_truncated
                + cs.meter_entries_corrupted
                + cs.cpu_down_drops,
        );
        m.add(
            MetricKey::global("snapshots_stale_dropped"),
            cs.snapshots_stale_dropped,
        );
    }
    if report.as_ref().is_some_and(|r| !r.confidence.is_complete()) {
        m.inc(MetricKey::global("verdicts_degraded"));
    }
    m.add(
        MetricKey::global("collected_bytes"),
        collector.total_bytes() as u64,
    );
    m.add(
        MetricKey::global("collected_bytes_full_dump"),
        collector.total_bytes_full_dump() as u64,
    );
    m.add(
        MetricKey::global("report_packets"),
        collector.report_packets() as u64,
    );
    let polling_packets = m.counter_total("probes_emitted") + dets.len() as u64;
    m.add(MetricKey::global("polling_packets"), polling_packets);
    let data_packets = m.counter_total("host_data_sent");
    let packet_hops = m.counter_total("switch_data_pkts");
    let processing_bytes = match method {
        Method::SpiderMon => {
            let flow_entries = victim_snaps.iter().flat_map(|s| &s.epochs);
            spidermon_processing(flow_entries.map(|e| e.flows.len()).sum()) as u64
        }
        Method::NetSight => netsight_processing(packet_hops),
        _ => victim_snaps
            .iter()
            .map(|s| s.wire_size_filtered() as u64)
            .sum(),
    };
    let bandwidth_bytes = match method {
        Method::SpiderMon => spidermon_bandwidth(data_packets),
        Method::NetSight => netsight_bandwidth(packet_hops),
        // Full polling is triggered out of band: no polling packets.
        Method::FullPolling => 0,
        _ => polling_bandwidth(polling_packets),
    };
    m.add(MetricKey::global("processing_bytes"), processing_bytes);
    m.add(MetricKey::global("bandwidth_bytes"), bandwidth_bytes);
    m.set(
        MetricKey::global("collected_switches"),
        collected.len() as f64,
    );
    m.set(MetricKey::global("causal_covered"), causal_covered as f64);
    m.set(
        MetricKey::global("causal_total"),
        scenario.truth.causal_switches.len() as f64,
    );

    RunOutcome {
        detection,
        window,
        missing,
        report,
        verdict,
        error,
        collected_switches: collected,
        causal_covered,
        causal_total: scenario.truth.causal_switches.len(),
        processing_bytes: m.counter_total("processing_bytes"),
        bandwidth_bytes: m.counter_total("bandwidth_bytes"),
        report_packets: m.counter_total("report_packets") as usize,
        data_packets,
        packet_hops,
        metrics: m.snapshot(),
    }
}
