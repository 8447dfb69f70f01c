//! The paper's evaluation (§4.2–§4.5 and two extensions), one entry point:
//! [`figure`] renders the figure named by one of [`FIGURE_IDS`] — its
//! banner (the figure and the paper's claim) followed by the rows the
//! paper plots. `hawkeye figure <id>` prints it; `bench_results_reference.txt`
//! is `hawkeye figure all` at the defaults. The sweeps fan their trials
//! across `jobs` threads with [`par_map`], which returns results in input
//! order, so the output does not depend on `jobs`.

use crate::metrics::{judge, PrecisionRecall, ScoreConfig};
use crate::parallel::par_map;
use crate::runner::{conclude_trial, scenario, simulate, sweep, RunConfig, RunOutcome, Trial};
use hawkeye_baselines::{partial_deployment, Method};
use hawkeye_core::{analyze_victim_window, HawkeyeHook};
use hawkeye_obs::Recorder;
use hawkeye_sim::{Nanos, NodeId, NullHook, PortId, SwitchConfig};
use hawkeye_telemetry::{EpochConfig, TelemetryConfig};
use hawkeye_tofino::{memory_sweep, poll, poll_analytic, poll_time_ms, resource_usage, SwitchDims};
use hawkeye_workloads::ScenarioKind;
use std::fmt::{self, Write};

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

/// Shared experiment parameters. The default trial count is deliberately
/// small so `hawkeye figure all` completes in seconds; raise `trials`
/// (`--trials`) to approach the paper's 100-trace batches. Trial `t` of
/// an operating point runs at scenario and simulation seed `t` (from 1).
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    pub trials: usize,
    pub load: f64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            trials: 3,
            load: 0.1,
        }
    }
}

impl EvalConfig {
    /// Every trial of operating point `run` on `kinds`, kind-major.
    fn trials(&self, kinds: &[ScenarioKind], run: RunConfig) -> Vec<Trial> {
        let seeds = 1..=self.trials as u64;
        (kinds.iter())
            .flat_map(|&kind| {
                seeds.clone().map(move |seed| Trial {
                    kind,
                    seed,
                    load: self.load,
                    run: RunConfig {
                        sim_seed: seed,
                        ..run
                    },
                })
            })
            .collect()
    }
}

/// The paper's epoch-size sweep: ~100 µs to ~2 ms (power-of-two actuals).
fn epoch_sweep() -> Vec<(&'static str, EpochConfig)> {
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
fn threshold_sweep() -> [f64; 4] {
    [2.0, 3.0, 4.0, 5.0]
}

/// The optimal operating point used for the cross-method comparisons,
/// simulated at `seed`.
pub fn optimal_run_config(seed: u64) -> RunConfig {
    RunConfig {
        sim_seed: seed,
        ..RunConfig::default()
    }
}

/// The figures [`figure`] renders, in the order `hawkeye figure all`
/// prints them. `fig8` is Figures 8, 9 and 11 from one method matrix.
pub const FIGURE_IDS: [&str; 9] = [
    "fig7",
    "fig8",
    "fig10",
    "fig12",
    "fig13",
    "fig14",
    "ablations",
    "partial-deployment",
    "load-sweep",
];

/// Render figure `id` (one of [`FIGURE_IDS`]) at `cfg`, its trials spread
/// over `jobs` threads. `None` for an unknown id. Figures 12–14 and the
/// ablations read neither `cfg` nor `jobs`: they are fixed case studies,
/// models and sweeps.
pub fn figure(id: &str, cfg: &EvalConfig, jobs: usize) -> Option<String> {
    let mut out = String::new();
    match id {
        "fig7" => fig7(&mut out, cfg, jobs),
        "fig8" => fig8(&mut out, cfg, jobs),
        "fig10" => fig10(&mut out, cfg, jobs),
        "fig12" => fig12(&mut out),
        "fig13" => fig13(&mut out),
        "fig14" => fig14(&mut out),
        "ablations" => ablations(&mut out),
        "partial-deployment" => partial(&mut out, cfg, jobs),
        "load-sweep" => load_sweep(&mut out, cfg, jobs),
        _ => return None,
    }
    .expect("writing to a String cannot fail");
    Some(out)
}

/// Each figure's header: what it shows and the paper's claim about it.
fn banner(out: &mut String, fig: &str, paper_claim: &str) -> fmt::Result {
    const RULE: &str = "################################################################";
    writeln!(out, "\n{RULE}\n# {fig}\n# Paper: {paper_claim}\n{RULE}")
}

/// Fold one operating point's verdicts into a precision/recall cell.
fn pr_of<'a>(outcomes: impl IntoIterator<Item = &'a RunOutcome>) -> PrecisionRecall {
    let mut pr = PrecisionRecall::default();
    for o in outcomes {
        pr.record(o.verdict.clone());
    }
    pr
}

/// **Figure 7**: Hawkeye's precision & recall per anomaly across epoch
/// sizes and detection thresholds. The full anomaly × epoch × threshold ×
/// trial grid is one sweep, folded back per operating point in input
/// order.
fn fig7_param_sweep(cfg: &EvalConfig, jobs: usize) -> FigureTable {
    let mut trials = Vec::new();
    for kind in ScenarioKind::ALL {
        for (_, epoch) in epoch_sweep() {
            for th in threshold_sweep() {
                let run = RunConfig {
                    epoch,
                    threshold_factor: th,
                    ..RunConfig::default()
                };
                trials.extend(cfg.trials(&[kind], run));
            }
        }
    }
    let outcomes = sweep(jobs, &trials, &[Method::Hawkeye]);
    let mut rows = Vec::new();
    let mut chunks = outcomes.chunks(cfg.trials.max(1));
    for kind in ScenarioKind::ALL {
        for (elabel, _) in epoch_sweep() {
            for th in threshold_sweep() {
                let pr = pr_of(chunks.next().unwrap_or(&[]).iter().flatten());
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

fn fig7(out: &mut String, cfg: &EvalConfig, jobs: usize) -> fmt::Result {
    banner(
        out,
        "Figure 7: precision & recall vs epoch size and threshold",
        "100% precision/recall with correct parameters; precision degrades \
         as the epoch grows (transient bursts smear, events conflate); \
         recall stays near 1 (RTT-threshold detection rarely misses).",
    )?;
    write!(out, "{}", fig7_param_sweep(cfg, jobs))
}

/// One run of the method × anomaly matrix at the optimal operating point;
/// feeds Figures 8, 9 and 11 (with [`Method::FIG8`]) and Figure 10 (with
/// [`Method::FIG10`]). Each anomaly × trial runs every method in one
/// sweep; the outcomes are regrouped per `(method, anomaly)`, trials in
/// input order.
fn method_matrix(
    cfg: &EvalConfig,
    methods: &[Method],
    jobs: usize,
) -> Vec<(Method, ScenarioKind, Vec<RunOutcome>)> {
    let trials = cfg.trials(&ScenarioKind::ALL, RunConfig::default());
    let mut per_trial: Vec<_> = (sweep(jobs, &trials, methods).into_iter())
        .map(Vec::into_iter)
        .collect();
    let mut out = Vec::new();
    for &m in methods {
        for (kind, group) in ScenarioKind::ALL
            .into_iter()
            .zip(per_trial.chunks_mut(cfg.trials.max(1)))
        {
            let group = (group.iter_mut())
                .map(|os| os.next().expect("one outcome per method"))
                .collect();
            out.push((m, kind, group));
        }
    }
    out
}

/// **Figure 8**: precision & recall upper bound per method per anomaly.
fn fig8_baseline_accuracy(
    matrix: &[(Method, ScenarioKind, Vec<RunOutcome>)],
    cfg: &EvalConfig,
) -> FigureTable {
    let mut rows = Vec::new();
    for (m, kind, outcomes) in matrix {
        let pr = pr_of(outcomes);
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

/// The mean of `f` over every outcome of method `m` in `matrix`, in
/// matrix order; `None` when the matrix did not run `m`.
fn mean_of(
    matrix: &[(Method, ScenarioKind, Vec<RunOutcome>)],
    m: Method,
    f: impl Fn(&RunOutcome) -> f64,
) -> Option<f64> {
    let all: Vec<f64> = (matrix.iter().filter(|(mm, _, _)| *mm == m))
        .flat_map(|(_, _, os)| os.iter().map(&f))
        .collect();
    (!all.is_empty()).then(|| all.iter().sum::<f64>() / all.len() as f64)
}

/// **Figure 9**: processing overhead (telemetry bytes per diagnosis) and
/// monitoring bandwidth overhead per method, averaged across anomalies.
fn fig9_overhead(
    matrix: &[(Method, ScenarioKind, Vec<RunOutcome>)],
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
        let proc = mean_of(matrix, m, |o| o.processing_bytes as f64);
        let bw = mean_of(matrix, m, |o| o.bandwidth_bytes as f64);
        if let (Some(proc), Some(bw)) = (proc, bw) {
            rows.push(vec![
                m.name().to_string(),
                format!("{:.0}", proc),
                format!("{:.0}", bw),
            ]);
        }
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

/// **Figure 11**: switches collected per diagnosis and causal-switch
/// coverage ratio, per method.
fn fig11_switch_coverage(
    matrix: &[(Method, ScenarioKind, Vec<RunOutcome>)],
    cfg: &EvalConfig,
) -> FigureTable {
    let mut rows = Vec::new();
    for &m in &[Method::Hawkeye, Method::FullPolling, Method::VictimOnly] {
        let count = mean_of(matrix, m, |o| o.collected_switches.len() as f64);
        let cov = mean_of(matrix, m, |o| {
            o.causal_covered as f64 / o.causal_total.max(1) as f64
        });
        if let (Some(count), Some(cov)) = (count, cov) {
            rows.push(vec![
                m.name().to_string(),
                format!("{:.1}", count),
                format!("{:.2}", cov),
            ]);
        }
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

fn fig8(out: &mut String, cfg: &EvalConfig, jobs: usize) -> fmt::Result {
    banner(
        out,
        "Figures 8, 9, 11: methods comparison",
        "Hawkeye ~ full-polling accuracy >> victim-only (collapses on \
         deadlocks) >> SpiderMon/NetSight (only normal contention); \
         overheads 1-4 orders lower than NetSight; 100% causal coverage \
         with far fewer switches than full polling.",
    )?;
    let matrix = method_matrix(cfg, &Method::FIG8, jobs);
    write!(out, "{}", fig8_baseline_accuracy(&matrix, cfg))?;
    write!(out, "{}", fig9_overhead(&matrix, cfg))?;
    write!(out, "{}", fig11_switch_coverage(&matrix, cfg))
}

/// **Figure 10**: diagnosis effectiveness of the telemetry granularities
/// (Hawkeye vs port-only vs flow-only), aggregated over all anomalies.
fn fig10_granularity(cfg: &EvalConfig, jobs: usize) -> FigureTable {
    let matrix = method_matrix(cfg, &Method::FIG10, jobs);
    let mut rows = Vec::new();
    for m in Method::FIG10 {
        let of_m = matrix.iter().filter(|(mm, _, _)| *mm == m);
        let pr = pr_of(of_m.flat_map(|(_, _, os)| os));
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

fn fig10(out: &mut String, cfg: &EvalConfig, jobs: usize) -> fmt::Result {
    banner(
        out,
        "Figure 10: telemetry granularity ablation",
        "Port-only traces PFC paths but misses root-cause flows; flow-only \
         cannot trace PFC spreading; both fall far below full Hawkeye.",
    )?;
    write!(out, "{}", fig10_granularity(cfg, jobs))
}

/// The four PFC anomalies Figure 12 draws, in the figure's order.
pub const FIG12_CASES: [ScenarioKind; 4] = [
    ScenarioKind::MicroBurstIncast,
    ScenarioKind::PfcStorm,
    ScenarioKind::InLoopDeadlock,
    ScenarioKind::OutOfLoopDeadlockInjection,
];

/// **Figure 12**, one case study: the diagnosis summary and the Graphviz
/// DOT provenance graph of `kind` (one of [`FIG12_CASES`]) on a quiet
/// fabric — `"undetected"` and an empty graph if the victim never
/// triggers.
pub fn fig12_case(kind: ScenarioKind) -> (String, String) {
    let sc = scenario(kind, 1, 0.0);
    let run = RunConfig::default();
    let sim = simulate(&sc, &run, |h| HawkeyeHook::new(&sc.topo, h));
    let Some(window) = run.victim_window(&sc, &sim.detections()) else {
        return ("undetected".into(), String::new());
    };
    let (report, graph, _) = analyze_victim_window(
        &sc.truth.victim,
        window,
        &sim.hook.collector.snapshots(),
        sim.topo(),
        &run.analyzer(),
    );
    let joined = |ports: &[PortId], sep| {
        ports
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(sep)
    };
    let summary = format!(
        "diagnosed: {:?}; pfc paths: {:?}; loop: {:?}; root causes: {}",
        report.anomaly,
        report
            .pfc_paths
            .iter()
            .map(|p| joined(p, " -> "))
            .collect::<Vec<_>>(),
        report.deadlock_loop.as_deref().map(|l| joined(l, ", ")),
        report.root_causes.len()
    );
    (summary, graph.to_dot(sim.topo()))
}

fn fig12(out: &mut String) -> fmt::Result {
    banner(
        out,
        "Figure 12: case-study provenance graphs",
        "Backpressure: chain of port edges to a contended terminal; storm: \
         chain ending at an injection port; deadlocks: a port-edge loop, \
         with/without an escape to the initiator.",
    )?;
    for kind in FIG12_CASES {
        let (summary, dot) = fig12_case(kind);
        writeln!(out, "\n--- {} ---\n{summary}\n{dot}", kind.name())?;
    }
    Ok(())
}

/// **Figure 13**: (a) Tofino resource usage of the Hawkeye program; (b)
/// switch memory vs epoch count and flow capacity.
fn fig13(out: &mut String) -> fmt::Result {
    banner(
        out,
        "Figure 13: hardware resource usage",
        "Fits comfortably on Tofino; causality + port telemetry constant \
         (port-bounded); flow telemetry scales O(#flow).",
    )?;
    let u = resource_usage(&TelemetryConfig::default(), SwitchDims::default());
    writeln!(
        out,
        "\n(a) ASIC usage at the testbed config (4 epochs x 4096 flows, 64 ports):"
    )?;
    writeln!(
        out,
        "    SRAM {:.1}%  TCAM {:.1}%  PHV {:.1}%  stages {}/12  sALU {:.1}%",
        u.sram_pct, u.tcam_pct, u.phv_pct, u.stages_used, u.salu_pct
    )?;
    writeln!(out, "\n(b) memory vs epochs and max flows (bytes):")?;
    writeln!(
        out,
        "    epochs  max_flows  flow_telemetry  constant(causality+port+status)  total"
    )?;
    for (epochs, flows, m) in memory_sweep(SwitchDims::default()) {
        writeln!(
            out,
            "    {:<6}  {:<9}  {:<14}  {:<31}  {}",
            epochs,
            flows,
            m.flow_telemetry,
            m.constant_part(),
            m.total()
        )?;
    }
    Ok(())
}

/// **Figure 14**: the CPU poller's telemetry-size reduction from
/// zero-filtering (a) and report-packet reduction from MTU batching (b),
/// on real collected snapshots from a simulated incast and across an
/// analytic occupancy sweep.
fn fig14(out: &mut String) -> fmt::Result {
    banner(
        out,
        "Figure 14: CPU poller efficiency",
        ">80% telemetry-size reduction by zero-filtering; ~95% report \
         packet reduction by MTU batching; poll ~80/120 ms for 2/4 epochs.",
    )?;
    writeln!(
        out,
        "\npoll times: 2 epochs = {} ms, 4 epochs = {} ms",
        poll_time_ms(2),
        poll_time_ms(4)
    )?;

    // (1) On real snapshots from a simulated incast at moderate load.
    let sc = scenario(ScenarioKind::MicroBurstIncast, 1, 0.2);
    let sim = simulate(&sc, &RunConfig::default(), |h| {
        HawkeyeHook::new(&sc.topo, h)
    });
    let snaps = sim.hook.collector.snapshots();
    writeln!(
        out,
        "\n(real snapshots from a simulated incast, {} collections)",
        snaps.len()
    )?;
    writeln!(out, "    switch  flows  size_reduction  packet_reduction")?;
    for s in &snaps {
        let r = poll(s);
        writeln!(
            out,
            "    sw{:<4}  {:<5}  {:>6.1}%        {:>6.1}%",
            s.switch.0,
            s.distinct_flows(),
            100.0 * r.size_reduction(),
            100.0 * r.packet_reduction()
        )?;
    }

    // (2) Analytic occupancy sweep (4 epochs, 4096-slot tables, 64 ports).
    writeln!(
        out,
        "\n(analytic occupancy sweep: 4 epochs x 4096 slots, 64 ports)"
    )?;
    writeln!(
        out,
        "    concurrent_flows  size_reduction  packet_reduction"
    )?;
    for flows in [64, 128, 256, 512, 1024, 2048, 4096] {
        let r = poll_analytic(4, 4096, flows, 64, 32);
        writeln!(
            out,
            "    {:<16}  {:>6.1}%        {:>6.1}%",
            flows,
            100.0 * r.size_reduction(),
            100.0 * r.packet_reduction()
        )?;
    }
    Ok(())
}

/// The design ablation: a PFC Xoff threshold sweep (how buffer headroom
/// shapes pause frequency and the victim's detected RTT). Collection scope
/// is Figure 11's table.
fn ablations(out: &mut String) -> fmt::Result {
    banner(
        out,
        "Ablation 2: PFC Xoff threshold sweep",
        "Smaller Xoff pauses earlier and more often; larger Xoff deepens \
         queues before pausing (shapes cascade onset).",
    )?;
    writeln!(out, "xoff_kb  pause_frames  victim_rtt_us")?;
    for xoff_kb in [50u64, 100, 200, 400] {
        let mut sc = scenario(ScenarioKind::MicroBurstIncast, 1, 0.0);
        sc.sim_config.switch = SwitchConfig {
            xoff_bytes: xoff_kb * 1024,
            xon_bytes: (xoff_kb * 1024) * 4 / 5,
            ..sc.sim_config.switch
        };
        let sim = simulate(&sc, &RunConfig::default(), |_| NullHook);
        let pauses = sim.sum_switch_stats(|s| s.pfc_pause_sent);
        // The victim's last post-anomaly detection, as a diagnosis reads
        // it. (Its completion time is past the scenario's end.)
        let rtt = (sim.detections().iter())
            .rfind(|d| d.key == sc.truth.victim && d.at >= sc.truth.anomaly_at)
            .map_or(f64::NAN, |d| d.observed_rtt.as_micros_f64());
        writeln!(out, "{:<7}  {:<12}  {:.1}", xoff_kb, pauses, rtt)?;
    }
    Ok(())
}

/// Extension (paper §5 "Partial Deployment of HAWKEYE"): PFC causality
/// analysis on every switch, but flow-level telemetry deployed only on the
/// edge (ToR) tier. Both variants analyze the same simulation of each
/// trial: full deployment as `Method::Hawkeye` sees it, ToR-only with the
/// off-tier flow tables stripped from every collected snapshot.
fn partial(out: &mut String, cfg: &EvalConfig, jobs: usize) -> fmt::Result {
    banner(
        out,
        "Extension: partial deployment (flow telemetry on ToR tier only)",
        "PFC spreading stays fully traceable; root causes on ToR switches \
         remain covered; causes on agg/core tiers are lost (\"diagnosis \
         effectiveness is still inevitably compromised\").",
    )?;
    let score = ScoreConfig::default();
    writeln!(
        out,
        "\nanomaly                          full_precision  tor_only_precision"
    )?;
    let trials = cfg.trials(&ScenarioKind::ALL, RunConfig::default());
    let verdicts = par_map(jobs, &trials, |t| {
        let (sc, run) = (scenario(t.kind, t.seed, t.load), t.run);
        let sim = simulate(&sc, &run, |h| HawkeyeHook::new(&sc.topo, h));
        let collector = &sim.hook.collector;
        let obs = &mut Recorder::disabled();
        let full = conclude_trial(&sim, collector, &sc, &run, Method::Hawkeye, &score, obs);
        let tor: Vec<NodeId> = sc.nav.edges.iter().flatten().copied().collect();
        let partial = full.window.map(|w| {
            let snaps = partial_deployment(&collector.snapshots(), &tor);
            let (report, _, _) =
                analyze_victim_window(&sc.truth.victim, w, &snaps, sim.topo(), &run.analyzer());
            judge(&sc.truth, &report, &score)
        });
        (full.verdict, partial)
    });
    let (mut kept, mut lost) = (Vec::new(), Vec::new());
    for (kind, trials) in ScenarioKind::ALL
        .into_iter()
        .zip(verdicts.chunks(cfg.trials.max(1)))
    {
        let mut full = PrecisionRecall::default();
        let mut partial = PrecisionRecall::default();
        for (f, p) in trials {
            full.record(f.clone());
            partial.record(p.clone());
        }
        writeln!(
            out,
            "{:<31}  {:<14.2}  {:.2}",
            kind.name(),
            full.precision(),
            partial.precision()
        )?;
        let side = if partial.precision() >= full.precision() {
            &mut kept
        } else {
            &mut lost
        };
        side.push(kind.name());
    }
    let list = |names: &[&str]| match names {
        [] => "none".to_string(),
        _ => names.join(", "),
    };
    writeln!(
        out,
        "\n(ToR-only keeps the full deployment's precision on: {}; loses it on: {})",
        list(&kept),
        list(&lost)
    )
}

/// Extension sweep: Hawkeye's accuracy as background link load grows
/// (§4.1 varies "the link load of the network"). Event conflation inside
/// epochs — the paper's stated precision-loss mechanism — appears as load
/// rises.
fn load_sweep(out: &mut String, cfg: &EvalConfig, jobs: usize) -> fmt::Result {
    banner(
        out,
        "Extension: precision & recall vs background load",
        "Precision is highest on a quiet fabric and degrades as background \
         events conflate with the injected anomaly inside epochs.",
    )?;
    writeln!(
        out,
        "\nload  precision  recall   (aggregated over all six anomaly classes)"
    )?;
    for load in [0.0, 0.1, 0.2, 0.3] {
        let trials = EvalConfig { load, ..*cfg }.trials(&ScenarioKind::ALL, RunConfig::default());
        let pr = pr_of(sweep(jobs, &trials, &[Method::Hawkeye]).iter().flatten());
        writeln!(
            out,
            "{:<4}  {:<9.2}  {:.2}",
            load,
            pr.precision(),
            pr.recall()
        )?;
    }
    Ok(())
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
    fn eval_config_default_is_the_reference_point() {
        let c = EvalConfig::default();
        assert_eq!((c.trials, c.load), (3, 0.1));
    }

    #[test]
    fn figure_renders_known_ids_only() {
        let fig13 = figure("fig13", &EvalConfig::default(), 1).expect("fig13 is an id");
        assert!(fig13.starts_with("\n####"), "banner first: {fig13:?}");
        assert!(fig13.contains("# Figure 13: hardware resource usage\n"));
        assert!(figure("nope", &EvalConfig::default(), 1).is_none());
    }
}
