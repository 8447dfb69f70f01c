//! Run one scenario under the Hawkeye pipeline (or a tracing-policy
//! variant) and extract everything the figures need: the victim diagnosis,
//! collection/overhead statistics, and causal-switch coverage.
//!
//! Every counter reported on [`RunOutcome`] is first folded into a
//! [`hawkeye_obs::MetricsRegistry`] and then read back from it, so the
//! registry snapshot carried on the outcome is the single source of truth:
//! a figure script consuming `outcome.metrics` sees exactly the numbers the
//! outcome fields were computed from.

use crate::metrics::{judge, ScoreConfig, Verdict};
use hawkeye_core::{
    analyze_victim_window_obs, AnalyzerConfig, DiagnosisError, DiagnosisReport, HawkeyeConfig,
    HawkeyeHook, TracingPolicy, Window,
};
use hawkeye_obs::{MetricKey, MetricsSnapshot, ObsConfig, Recorder};
use hawkeye_sim::{
    record_sim_metrics, trace_detections, trace_drop_warnings, Detection, FaultPlan, Nanos, NodeId,
    ObservedHook, ProbeRetryConfig, Simulator, SwitchHook,
};
use hawkeye_telemetry::{EpochConfig, TelemetryConfig};
use hawkeye_workloads::Scenario;

/// Per-run knobs (the paper's Fig. 7 sweep axes plus seeds).
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
    /// Host-agent probe re-poll ladder (None = single-shot probes).
    pub agent_retry: Option<ProbeRetryConfig>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            epoch: EpochConfig::for_epoch_len(Nanos::from_micros(100), 2),
            threshold_factor: 2.0,
            sim_seed: 1,
            policy: TracingPolicy::Hawkeye,
            faults: FaultPlan::none(),
            agent_retry: None,
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
/// `cfg` says. [`run_hawkeye_obs`], [`run_method`](crate::run_method), the
/// figures and `hawkeye-serve`'s replay all set their trials up here.
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

/// Everything extracted from one simulated trial.
#[derive(Debug)]
pub struct RunOutcome {
    /// The victim's post-anomaly detection, if any.
    pub detection: Option<Detection>,
    /// Diagnosis of the victim detection.
    pub report: Option<DiagnosisReport>,
    pub verdict: Option<Verdict>,
    /// Switches collected / causal coverage (Fig. 11).
    pub collected_switches: Vec<NodeId>,
    pub causal_covered: usize,
    pub causal_total: usize,
    /// Telemetry bytes shipped to the analyzer (Fig. 9a).
    pub collected_bytes: usize,
    pub collected_bytes_full_dump: usize,
    pub report_packets: usize,
    /// Polling packets emitted in-network (Fig. 9b bandwidth overhead).
    pub polling_packets: u64,
    /// Total data packets forwarded (for normalizing overheads).
    pub data_packets: u64,
    pub all_detections: usize,
    /// Why the pipeline could not produce a (meaningful) diagnosis, when it
    /// could not. A report may still accompany a [`DiagnosisError::NoTelemetry`]
    /// (graded inconclusive); [`DiagnosisError::NoDetection`] never has one.
    pub error: Option<DiagnosisError>,
    /// The registry snapshot every counter above was read back from.
    pub metrics: MetricsSnapshot,
}

/// The victim's last post-anomaly detection in `dets`, if any.
pub(crate) fn last_victim_detection(scenario: &Scenario, dets: &[Detection]) -> Option<Detection> {
    dets.iter()
        .rfind(|d| d.key == scenario.truth.victim && d.at >= scenario.truth.anomaly_at)
        .copied()
}

/// The window a victim's diagnosis aggregates over, given every detection
/// the run produced: from `lookback_epochs` before the FIRST post-anomaly
/// detection of the victim (onset evidence) to one epoch after the LAST
/// (fully-developed causality — a persisting anomaly re-triggers detection
/// every dedup interval, and e.g. a deadlock loop takes hundreds of
/// microseconds to close). `None` when the victim was never detected after
/// the anomaly. Shared by the one-shot runner and the online replay path
/// (`hawkeye-serve`), whose verdict parity depends on using the *same*
/// window arithmetic.
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

/// Run a scenario under Hawkeye (full or victim-only tracing).
///
/// This analyzes *every* snapshot the run collected, and counts every
/// switch the collector touched. [`run_method`](crate::run_method) with
/// `Method::Hawkeye` is the other Hawkeye pipeline: it analyzes only the
/// snapshots taken inside the diagnosis window and counts only the
/// collections attributed to the victim. Over the 108 corpus cells their
/// reports differ in 11 cells but their verdict labels agree in all 108;
/// `collected_switches` differs in most cells (clos8s2d4: ≈40 here, ≈5
/// there). This one feeds the corpus, `chaos`, `fuzz` and the daemon's
/// parity reference; the other feeds `hawkeye scenario`/`matrix` and every
/// figure.
pub fn run_hawkeye(scenario: &Scenario, cfg: &RunConfig, score: &ScoreConfig) -> RunOutcome {
    run_hawkeye_obs(scenario, cfg, score, ObsConfig::off()).0
}

/// [`run_hawkeye`] with observability: the simulation runs under an
/// [`ObservedHook`] so PFC pause/resume, probe hops, CPU mirrors and
/// detections land in the recorder's trace, and the diagnosis stages are
/// span-timed. Returns the recorder alongside the outcome so callers can
/// emit the trace (JSONL / Chrome) or inspect the stage profile.
pub fn run_hawkeye_obs(
    scenario: &Scenario,
    cfg: &RunConfig,
    score: &ScoreConfig,
    ocfg: ObsConfig,
) -> (RunOutcome, Recorder) {
    let mut sim = simulate(scenario, cfg, |h| {
        ObservedHook::new(HawkeyeHook::new(&scenario.topo, h), ocfg)
    });

    let dets = sim.detections();
    trace_detections(&mut sim.hook.obs, &dets);
    let detection = last_victim_detection(scenario, &dets);

    let snapshots = sim.hook.inner().collector.snapshots();
    let analyzer = cfg.analyzer();
    // No detection → no window → no diagnosis: a typed error, not a panic.
    let window = cfg.victim_window(scenario, &dets);
    // Collections that demonstrably failed inside the diagnosis window —
    // folded into the verdict's confidence below.
    let missing_in_window: Vec<NodeId> = window
        .map(|w| sim.hook.inner().collector.missing_switches(w.from, w.to))
        .unwrap_or_default();
    let error = if window.is_none() {
        Some(DiagnosisError::NoDetection {
            victim: scenario.truth.victim,
        })
    } else if snapshots.is_empty() {
        Some(DiagnosisError::NoTelemetry {
            victim: scenario.truth.victim,
            missing: missing_in_window.clone(),
        })
    } else {
        None
    };
    let report = window.map(|w| {
        let mut r = analyze_victim_window_obs(
            &scenario.truth.victim,
            w,
            &snapshots,
            &scenario.topo,
            &analyzer,
            &mut sim.hook.obs,
        )
        .0;
        r.note_missing(&missing_in_window);
        r
    });
    let verdict = report.as_ref().map(|r| judge(&scenario.truth, r, score));

    let mut collected: Vec<NodeId> = sim
        .hook
        .inner()
        .collector
        .events
        .iter()
        .map(|e| e.switch)
        .collect();
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
    let mut obs = std::mem::replace(&mut sim.hook.obs, Recorder::disabled());
    record_sim_metrics(&sim, &mut obs.metrics);
    trace_drop_warnings(&sim, &mut obs);
    let collector = &sim.hook.inner().collector;
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
            cs.snapshots_stale_dropped + cs.uploads_late_dropped,
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
    let probes_emitted = m.counter_total("probes_emitted");
    m.add(
        MetricKey::global("polling_packets"),
        probes_emitted + dets.len() as u64,
    );
    m.set(
        MetricKey::global("collected_switches"),
        collected.len() as f64,
    );
    m.set(MetricKey::global("causal_covered"), causal_covered as f64);
    m.set(
        MetricKey::global("causal_total"),
        scenario.truth.causal_switches.len() as f64,
    );

    let outcome = RunOutcome {
        detection,
        verdict,
        causal_covered,
        causal_total: scenario.truth.causal_switches.len(),
        collected_bytes: m.counter_total("collected_bytes") as usize,
        collected_bytes_full_dump: m.counter_total("collected_bytes_full_dump") as usize,
        report_packets: m.counter_total("report_packets") as usize,
        polling_packets: m.counter_total("polling_packets"),
        data_packets: m.counter_total("switch_data_pkts"),
        all_detections: m.counter_total("detections") as usize,
        collected_switches: collected,
        report,
        error,
        metrics: m.snapshot(),
    };
    (outcome, obs)
}
