//! Experiment drivers that regenerate every accuracy/efficiency table and
//! figure of the paper's evaluation (§4.2–§4.4). Each returns a
//! [`FigureTable`] whose rows mirror what the paper plots; the
//! `hawkeye-bench` crate prints them from `cargo bench`.

use crate::methods::{run_method, MethodOutcome};
use crate::metrics::{PrecisionRecall, ScoreConfig};
use crate::parallel::{default_jobs, par_map};
use crate::runner::RunConfig;
use hawkeye_baselines::Method;
use hawkeye_core::TracingPolicy;
use hawkeye_sim::Nanos;
use hawkeye_telemetry::EpochConfig;
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};
use std::fmt;

/// A printable experiment result.
#[derive(Debug, Clone)]
pub struct FigureTable {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl fmt::Display for FigureTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n=== {} ===", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, c) in cells.iter().enumerate() {
                write!(f, "{:<w$}  ", c, w = widths.get(i).copied().unwrap_or(8))?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Shared experiment parameters (trial counts are deliberately small by
/// default so `cargo bench` completes in minutes; crank `trials` up to
/// approach the paper's 100-trace batches).
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    pub trials: usize,
    pub load: f64,
    pub base_seed: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            trials: env_usize("HAWKEYE_TRIALS", 3),
            load: env_f64("HAWKEYE_LOAD", 0.1),
            base_seed: 1,
        }
    }
}

fn env_usize(k: &str, d: usize) -> usize {
    std::env::var(k)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(d)
}
fn env_f64(k: &str, d: f64) -> f64 {
    std::env::var(k)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(d)
}

/// The paper's epoch-size sweep: ~100 µs to ~2 ms (power-of-two actuals).
pub fn epoch_sweep() -> Vec<(&'static str, EpochConfig)> {
    vec![
        (
            "100us",
            EpochConfig::for_epoch_len(Nanos::from_micros(100), 2),
        ),
        (
            "500us",
            EpochConfig::for_epoch_len(Nanos::from_micros(500), 2),
        ),
        ("1ms", EpochConfig::for_epoch_len(Nanos::from_millis(1), 2)),
        ("2ms", EpochConfig::for_epoch_len(Nanos::from_millis(2), 2)),
    ]
}

/// The paper's detection-threshold sweep: 200%–500% of base RTT.
pub fn threshold_sweep() -> [f64; 4] {
    [2.0, 3.0, 4.0, 5.0]
}

/// The optimal operating point used for the cross-method comparisons.
pub fn optimal_run_config(seed: u64) -> RunConfig {
    RunConfig {
        epoch: EpochConfig::for_epoch_len(Nanos::from_micros(100), 2),
        threshold_factor: 2.0,
        sim_seed: seed,
        policy: TracingPolicy::Hawkeye,
        ..RunConfig::default()
    }
}

/// One cell of a figure grid, flattened for the parallel runner: a single
/// `(scenario, seed, method)` simulation at one operating point.
#[derive(Debug, Clone, Copy)]
struct TrialSpec {
    kind: ScenarioKind,
    epoch: EpochConfig,
    threshold: f64,
    seed: u64,
    method: Method,
    load: f64,
}

/// Run one grid cell. Pure in its spec: two calls with equal specs return
/// identical outcomes, which is what lets the parallel sweeps aggregate in
/// input order and stay bit-for-bit equal to a sequential pass.
fn run_trial(t: &TrialSpec) -> MethodOutcome {
    let score = ScoreConfig::default();
    let sc = build_scenario(
        t.kind,
        ScenarioParams {
            seed: t.seed,
            load: t.load,
            ..Default::default()
        },
    );
    let run = RunConfig {
        epoch: t.epoch,
        threshold_factor: t.threshold,
        sim_seed: t.seed,
        policy: TracingPolicy::Hawkeye,
        ..RunConfig::default()
    };
    run_method(&sc, &run, t.method, &score)
}

impl EvalConfig {
    /// All trials of one operating point, seeded `base_seed..+trials`.
    fn trials_at(&self, kind: ScenarioKind, run: &RunConfig, method: Method) -> Vec<TrialSpec> {
        (0..self.trials)
            .map(|t| TrialSpec {
                kind,
                epoch: run.epoch,
                threshold: run.threshold_factor,
                seed: self.base_seed + t as u64,
                method,
                load: self.load,
            })
            .collect()
    }
}

/// Fold one operating point's verdicts (a `trials`-sized chunk of the flat
/// outcome list) into a precision/recall cell.
fn pr_of(outcomes: &[MethodOutcome]) -> PrecisionRecall {
    let mut pr = PrecisionRecall::default();
    for o in outcomes {
        pr.record(o.verdict.clone());
    }
    pr
}

/// **Figure 7**: Hawkeye's precision & recall per anomaly across epoch
/// sizes and detection thresholds.
pub fn fig7_param_sweep(cfg: &EvalConfig) -> FigureTable {
    fig7_param_sweep_jobs(cfg, default_jobs())
}

/// [`fig7_param_sweep`] with an explicit worker count: the full
/// anomaly × epoch × threshold × trial grid is flattened and fanned across
/// `jobs` threads, then folded back per operating point in input order.
pub fn fig7_param_sweep_jobs(cfg: &EvalConfig, jobs: usize) -> FigureTable {
    let mut specs = Vec::new();
    for kind in ScenarioKind::ALL {
        for (_, epoch) in epoch_sweep() {
            for th in threshold_sweep() {
                let run = RunConfig {
                    epoch,
                    threshold_factor: th,
                    sim_seed: cfg.base_seed,
                    policy: TracingPolicy::Hawkeye,
                    ..RunConfig::default()
                };
                specs.extend(cfg.trials_at(kind, &run, Method::Hawkeye));
            }
        }
    }
    let outcomes = par_map(jobs, &specs, run_trial);
    let mut rows = Vec::new();
    let mut chunks = outcomes.chunks(cfg.trials.max(1));
    for kind in ScenarioKind::ALL {
        for (elabel, _) in epoch_sweep() {
            for th in threshold_sweep() {
                let pr = pr_of(chunks.next().unwrap_or(&[]));
                rows.push(vec![
                    kind.name().to_string(),
                    elabel.to_string(),
                    format!("{:.0}%", th * 100.0),
                    format!("{:.2}", pr.precision()),
                    format!("{:.2}", pr.recall()),
                ]);
            }
        }
    }
    FigureTable {
        title: format!(
            "Fig 7: precision & recall vs epoch size and detection threshold \
             (trials={}, load={})",
            cfg.trials, cfg.load
        ),
        headers: ["anomaly", "epoch", "threshold", "precision", "recall"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// One full run of the method × anomaly matrix at the optimal operating
/// point; feeds Figures 8, 9 and 11.
pub fn method_matrix(
    cfg: &EvalConfig,
    methods: &[Method],
) -> Vec<(Method, ScenarioKind, Vec<MethodOutcome>)> {
    method_matrix_jobs(cfg, methods, default_jobs())
}

/// [`method_matrix`] with an explicit worker count: the
/// method × anomaly × trial grid is flattened, fanned across `jobs`
/// threads, and regrouped per `(method, anomaly)` in input order.
pub fn method_matrix_jobs(
    cfg: &EvalConfig,
    methods: &[Method],
    jobs: usize,
) -> Vec<(Method, ScenarioKind, Vec<MethodOutcome>)> {
    let mut specs = Vec::new();
    for &m in methods {
        for kind in ScenarioKind::ALL {
            specs.extend(cfg.trials_at(kind, &optimal_run_config(cfg.base_seed), m));
        }
    }
    let mut outcomes = par_map(jobs, &specs, run_trial).into_iter();
    let mut out = Vec::new();
    for &m in methods {
        for kind in ScenarioKind::ALL {
            let group: Vec<MethodOutcome> = (0..cfg.trials)
                .map(|_| outcomes.next().expect("one outcome per spec"))
                .collect();
            out.push((m, kind, group));
        }
    }
    out
}

/// **Figure 8**: precision & recall upper bound per method per anomaly.
pub fn fig8_baseline_accuracy(
    matrix: &[(Method, ScenarioKind, Vec<MethodOutcome>)],
    cfg: &EvalConfig,
) -> FigureTable {
    let mut rows = Vec::new();
    for (m, kind, outcomes) in matrix {
        let mut pr = PrecisionRecall::default();
        for o in outcomes {
            pr.record(o.verdict.clone());
        }
        rows.push(vec![
            m.name().to_string(),
            kind.name().to_string(),
            format!("{:.2}", pr.precision()),
            format!("{:.2}", pr.recall()),
        ]);
    }
    FigureTable {
        title: format!(
            "Fig 8: precision & recall vs baselines (trials={}, load={})",
            cfg.trials, cfg.load
        ),
        headers: ["method", "anomaly", "precision", "recall"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// **Figure 9**: processing overhead (telemetry bytes per diagnosis) and
/// monitoring bandwidth overhead per method, averaged across anomalies.
pub fn fig9_overhead(
    matrix: &[(Method, ScenarioKind, Vec<MethodOutcome>)],
    cfg: &EvalConfig,
) -> FigureTable {
    let mut rows = Vec::new();
    for &m in &[
        Method::Hawkeye,
        Method::VictimOnly,
        Method::FullPolling,
        Method::SpiderMon,
        Method::NetSight,
    ] {
        let all: Vec<&MethodOutcome> = matrix
            .iter()
            .filter(|(mm, _, _)| *mm == m)
            .flat_map(|(_, _, os)| os.iter())
            .collect();
        if all.is_empty() {
            continue;
        }
        let n = all.len() as f64;
        let proc: f64 = all.iter().map(|o| o.processing_bytes as f64).sum::<f64>() / n;
        let bw: f64 = all.iter().map(|o| o.bandwidth_bytes as f64).sum::<f64>() / n;
        rows.push(vec![
            m.name().to_string(),
            format!("{:.0}", proc),
            format!("{:.0}", bw),
        ]);
    }
    FigureTable {
        title: format!(
            "Fig 9: processing (telemetry bytes/diagnosis) and monitoring \
             bandwidth overhead (bytes/trace) (trials={}, load={})",
            cfg.trials, cfg.load
        ),
        headers: ["method", "processing_bytes", "bandwidth_bytes"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// **Figure 10**: diagnosis effectiveness of the telemetry granularities
/// (Hawkeye vs port-only vs flow-only), aggregated over all anomalies.
pub fn fig10_granularity(cfg: &EvalConfig) -> FigureTable {
    fig10_granularity_jobs(cfg, default_jobs())
}

/// [`fig10_granularity`] with an explicit worker count.
pub fn fig10_granularity_jobs(cfg: &EvalConfig, jobs: usize) -> FigureTable {
    let mut specs = Vec::new();
    for m in Method::FIG10 {
        for kind in ScenarioKind::ALL {
            specs.extend(cfg.trials_at(kind, &optimal_run_config(cfg.base_seed), m));
        }
    }
    let outcomes = par_map(jobs, &specs, run_trial);
    let mut rows = Vec::new();
    let per_method = ScenarioKind::ALL.len() * cfg.trials;
    for (i, m) in Method::FIG10.into_iter().enumerate() {
        let slice = &outcomes[i * per_method..(i + 1) * per_method];
        let pr = pr_of(slice);
        rows.push(vec![
            m.name().to_string(),
            format!("{:.2}", pr.precision()),
            format!("{:.2}", pr.recall()),
        ]);
    }
    FigureTable {
        title: format!(
            "Fig 10: telemetry granularity ablation over mixed anomalies \
             (trials={} per anomaly, load={})",
            cfg.trials, cfg.load
        ),
        headers: ["telemetry", "precision", "recall"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// **Figure 11**: switches collected per diagnosis and causal-switch
/// coverage ratio, per method.
pub fn fig11_switch_coverage(
    matrix: &[(Method, ScenarioKind, Vec<MethodOutcome>)],
    cfg: &EvalConfig,
) -> FigureTable {
    let mut rows = Vec::new();
    for &m in &[Method::Hawkeye, Method::FullPolling, Method::VictimOnly] {
        let all: Vec<&MethodOutcome> = matrix
            .iter()
            .filter(|(mm, _, _)| *mm == m)
            .flat_map(|(_, _, os)| os.iter())
            .collect();
        if all.is_empty() {
            continue;
        }
        let n = all.len() as f64;
        let count: f64 = all
            .iter()
            .map(|o| o.collected_switches.len() as f64)
            .sum::<f64>()
            / n;
        let cov: f64 = all
            .iter()
            .map(|o| o.causal_covered as f64 / o.causal_total.max(1) as f64)
            .sum::<f64>()
            / n;
        rows.push(vec![
            m.name().to_string(),
            format!("{:.1}", count),
            format!("{:.2}", cov),
        ]);
    }
    FigureTable {
        title: format!(
            "Fig 11: collected switch count & causal coverage ratio \
             (trials={}, load={}; network has 20 switches)",
            cfg.trials, cfg.load
        ),
        headers: ["method", "avg_switches_collected", "causal_coverage"]
            .map(String::from)
            .to_vec(),
        rows,
    }
}

/// **Figure 12**: the case-study provenance graphs of the four PFC
/// anomalies, rendered as Graphviz DOT plus a diagnosis summary.
pub fn fig12_case_study() -> Vec<(String, String, String)> {
    use hawkeye_core::{analyze_victim_window, AnalyzerConfig, HawkeyeConfig, HawkeyeHook, Window};
    use hawkeye_telemetry::TelemetryConfig;
    use hawkeye_workloads::Scenario;

    let cases = [
        ScenarioKind::MicroBurstIncast,
        ScenarioKind::PfcStorm,
        ScenarioKind::InLoopDeadlock,
        ScenarioKind::OutOfLoopDeadlockInjection,
    ];
    let mut out = Vec::new();
    for kind in cases {
        let sc = build_scenario(
            kind,
            ScenarioParams {
                load: 0.0,
                ..Default::default()
            },
        );
        let run = optimal_run_config(1);
        let hook = HawkeyeHook::new(
            &sc.topo,
            HawkeyeConfig {
                telemetry: TelemetryConfig {
                    epochs: run.epoch,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let mut agent = Scenario::agent(run.threshold_factor);
        agent.dedup_interval = Nanos::from_micros(400);
        let mut sim = sc.instantiate_seeded(1, agent, hook);
        sim.run_until(sc.params.duration);
        let dets = sim.detections();
        let vdets: Vec<_> = dets
            .iter()
            .filter(|d| d.key == sc.truth.victim && d.at >= sc.truth.anomaly_at)
            .collect();
        let (Some(first), Some(last)) = (vdets.first(), vdets.last()) else {
            out.push((kind.name().into(), String::new(), "undetected".into()));
            continue;
        };
        let analyzer = AnalyzerConfig::for_epoch_len(run.epoch.epoch_len());
        let window = Window {
            from: first.at.saturating_sub(Nanos(
                run.epoch.epoch_len().as_nanos() * analyzer.lookback_epochs,
            )),
            to: last.at + run.epoch.epoch_len(),
        };
        let (report, graph, _) = analyze_victim_window(
            &sc.truth.victim,
            window,
            &sim.hook.collector.snapshots(),
            sim.topo(),
            &analyzer,
        );
        let summary = format!(
            "diagnosed: {:?}; pfc paths: {:?}; loop: {:?}; root causes: {}",
            report.anomaly,
            report
                .pfc_paths
                .iter()
                .map(|p| p
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(" -> "))
                .collect::<Vec<_>>(),
            report.deadlock_loop.as_ref().map(|l| l
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")),
            report.root_causes.len()
        );
        out.push((kind.name().into(), graph.to_dot(sim.topo()), summary));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_table_renders_aligned_columns() {
        let t = FigureTable {
            title: "T".into(),
            headers: vec!["a".into(), "bbbb".into()],
            rows: vec![
                vec!["xxxxx".into(), "1".into()],
                vec!["y".into(), "22".into()],
            ],
        };
        let s = t.to_string();
        assert!(s.contains("=== T ==="));
        // Column width follows the widest cell.
        assert!(s.contains("xxxxx  1"));
        assert!(s.contains("y      22"));
    }

    #[test]
    fn sweeps_cover_the_paper_grid() {
        let es = epoch_sweep();
        assert_eq!(es.len(), 4);
        assert_eq!(es[0].1.epoch_len(), hawkeye_sim::Nanos(1 << 17));
        assert_eq!(es[3].1.epoch_len(), hawkeye_sim::Nanos(1 << 21));
        assert_eq!(threshold_sweep(), [2.0, 3.0, 4.0, 5.0]);
        let rc = optimal_run_config(7);
        assert_eq!(rc.sim_seed, 7);
        assert_eq!(rc.threshold_factor, 2.0);
    }

    #[test]
    fn eval_config_reads_env() {
        // Defaults without env.
        let c = EvalConfig::default();
        assert!(c.trials >= 1);
        assert!((0.0..=1.0).contains(&c.load));
    }
}
