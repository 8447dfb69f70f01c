//! One run of one workload: set-up, the measured window, the correctness
//! checks, and the metrics that come out. A traced run measures the same
//! window three times — untraced, with spans and allocation counting on,
//! untraced again — and follows them with the layer probes.

use crate::daemon::{self, Cursor, IngestOutcome, Plane, Rig};
use crate::span::{self, Span, SpanLog};
use crate::stats::{self, Sample, WindowStats};
use crate::tracegen::{self, Trace};
use crate::{alloc, host, layers, offline};
use std::time::{Duration, Instant};

/// Slice length of the daemon workloads' windows.
pub const SLICE_NS: u64 = 2_000_000_000;
/// Warm-up passes of `offline-corpus` over the six ft4 cells: 3 s of
/// deterministic set-up, so a 0.2 s hiccup of the host stays small in
/// `setup_s`.
const OFFLINE_WARMUP_PASSES: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OfflineCorpus,
    ServeIngest,
    ServeDiagnose,
    FleetDiagnose,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::OfflineCorpus,
        Workload::ServeIngest,
        Workload::ServeDiagnose,
        Workload::FleetDiagnose,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineCorpus => "offline-corpus",
            Workload::ServeIngest => "serve-ingest",
            Workload::ServeDiagnose => "serve-diagnose",
            Workload::FleetDiagnose => "fleet-diagnose",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    /// Order of the inputs (cell shuffle, segment permutation).
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

#[derive(Debug, Default)]
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable context and every reason `correct` is false.
    pub notes: Vec<String>,
}

/// What one measured window yields, whatever the workload.
struct WindowOutcome {
    stats: WindowStats,
    /// Work units completed in the window (cells, snapshots, verdicts).
    work: u64,
    attempted: u64,
    failed: u64,
    correct_share: f64,
    problems: Vec<String>,
    notes: Vec<String>,
    /// Per-thread span lists of a traced window.
    spans: Vec<(&'static str, Vec<Span>)>,
    /// Spin-kernel timings taken while the window ran, µs.
    ref_kernel_us: Vec<f64>,
    /// Median reference request of the window, ms (0: none was timed).
    ref_request_ms: f64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn e2e_metrics(setup_s: f64, w: &WindowOutcome) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("work_per_s", w.stats.work_per_s, "1/s"),
        metric("latency_ms_p50", ms(w.stats.p50_ns), "ms"),
        metric("latency_ms_p90", ms(w.stats.p90_ns), "ms"),
        metric("correct_share", w.correct_share, "ratio"),
        metric("peak_rss_mb", host::proc_sample().peak_rss_mb, "MB"),
    ]
}

// ---------------------------------------------------------------- offline

struct OfflineSetup {
    golden: std::collections::BTreeMap<String, hawkeye_eval::CorpusCell>,
    gauge: host::HostGauge,
    setup_s: f64,
}

/// Everything before the first cell is timed, measured from process start
/// like the daemon workloads' set-up: the golden file parsed (it is
/// compiled in; nothing is read at run time) and the warm-up passes.
fn offline_setup(t_start: Instant) -> Result<OfflineSetup, String> {
    let golden = offline::golden();
    for _ in 0..OFFLINE_WARMUP_PASSES {
        offline::warm_up();
    }
    let gauge = host::HostGauge::start().map_err(|e| format!("reference server: {e}"))?;
    Ok(OfflineSetup {
        golden,
        gauge,
        setup_s: t_start.elapsed().as_secs_f64(),
    })
}

fn offline_window(
    cells: &[offline::CellSpec],
    setup: &mut OfflineSetup,
    log: &mut SpanLog,
) -> WindowOutcome {
    let r = offline::run(cells, &setup.golden, &mut setup.gauge, log);
    let requests: Vec<u64> = r.readings.iter().map(|x| x.request_ns).collect();
    let total_ns: u64 = r.cell_wall_ns.iter().sum();
    let mut sorted = r.cell_wall_ns.clone();
    sorted.sort_unstable();
    let rate = r.cells as f64 * 1e9 / total_ns.max(1) as f64;
    let p50 = stats::percentile_sorted(&sorted, 0.5).unwrap_or(0);
    WindowOutcome {
        // One thread of simulation moves a third as much with the host as
        // the reference request does (dividing by it was tried: it trades a
        // 17 % range for a 15 % one and shifts the level by a third between
        // a quiet hour and a slow one): wall-clock numbers, not normalised.
        stats: WindowStats {
            work_per_s: rate,
            raw_work_per_s: rate,
            work_per_s_mean: rate,
            p50_ns: p50,
            raw_p50_ns: p50,
            p90_ns: stats::percentile_sorted(&sorted, 0.9).unwrap_or(0),
            slow_slice_share: 0.0,
            slowdown: 1.0,
            slices: 1,
            samples: r.cells,
        },
        work: r.cells as u64,
        attempted: r.cells as u64,
        failed: r.golden_drift.len() as u64,
        correct_share: r.correct_cells as f64 / r.cells.max(1) as f64,
        notes: vec![format!(
            "{} cells, {} correct against ground truth, {} differ from their pin in the golden file",
            r.cells,
            r.correct_cells,
            r.golden_drift.len()
        )],
        problems: r.golden_drift,
        spans: Vec::new(),
        ref_kernel_us: r.readings.iter().map(|x| x.spin_us).collect(),
        ref_request_ms: ms(stats::percentile(&requests, 0.5).unwrap_or(0)),
    }
}

// ---------------------------------------------------------------- daemons

struct DaemonSetup {
    trace: Trace,
    rig: Rig,
    /// The generator's one connection.
    client: hawkeye_client::ServeClient,
    gauge: host::HostGauge,
    cursor: Cursor,
    /// Snapshots the stores held when `serve-ingest` last read them: at the
    /// end of warm-up, then at each of its windows' final barriers.
    appended: u64,
    setup_s: f64,
    notes: Vec<String>,
}

/// Readings taken in a row at each of three points of a daemon set-up.
const SETUP_READINGS: usize = 20;

fn daemon_setup(args: &RunArgs, plane: Plane, t_start: Instant) -> Result<DaemonSetup, String> {
    let reading = |e: std::io::Error| format!("reference server: {e}");
    let mut gauge = host::HostGauge::start().map_err(reading)?;
    let trace = tracegen::generate(args.seed, host::nproc().min(2))?;
    gauge.read(t_start, SETUP_READINGS).map_err(reading)?;
    let rig = Rig::spawn(&trace, plane)?;
    let mut client = rig.connect()?;
    let warm = daemon::warm_up(&mut client, &trace)?;
    gauge.read(t_start, SETUP_READINGS).map_err(reading)?;
    // The untimed pass over the query path: one verdict per scenario kind
    // — which must already match the one-shot reference.
    let bad = daemon::post_window_check(&mut client, &trace, warm.cursor.pos)?;
    if !bad.is_empty() {
        return Err(format!(
            "verdict mismatch after warm-up: {}",
            bad.join("; ")
        ));
    }
    gauge.read(t_start, SETUP_READINGS).map_err(reading)?;
    // Set-up time is host-normalised like the window's numbers: the wall
    // since process start, scaled by how slow the reference request ran
    // at the three points of the set-up where it was read.
    let requests: Vec<u64> = gauge.take().iter().map(|r| r.request_ns).collect();
    let slowdown =
        stats::percentile(&requests, 0.5).unwrap_or(0) as f64 / host::REF_NOMINAL_NS as f64;
    let wall_s = t_start.elapsed().as_secs_f64();
    let notes = vec![
        format!(
            "trace: {} snapshots in {} segments per cycle; steady state after {} cycles ({} raw epochs, {} engine epochs, {} compacted buckets held)",
            trace.snaps.len(),
            trace.segments.len(),
            warm.cycles,
            warm.stats.epochs_held,
            warm.stats.engine_epochs_held,
            warm.stats.compacted_buckets,
        ),
        format!(
            "set-up: {wall_s:.3} s as the clock read it, reference request at {slowdown:.3} x nominal over {} readings",
            requests.len()
        ),
    ];
    Ok(DaemonSetup {
        trace,
        rig,
        client,
        gauge,
        cursor: warm.cursor,
        appended: warm.stats.snapshots_appended,
        setup_s: wall_s / slowdown.max(f64::MIN_POSITIVE),
        notes,
    })
}

fn late(samples: &[Sample]) -> u64 {
    samples
        .iter()
        .filter(|s| s.latency_ns > daemon::LATE_NS)
        .count() as u64
}

fn ingest_problems(out: &IngestOutcome, problems: &mut Vec<String>) -> u64 {
    let mut failed = late(&out.samples) + out.errors.len() as u64;
    if out.shed > 0 {
        failed += out.shed.div_ceil(daemon::BATCH as u64);
        problems.push(format!("{} snapshots shed", out.shed));
    }
    problems.extend(out.errors.iter().cloned());
    failed
}

/// What the gauge read during a window, and the window's statistics
/// normalised by it.
struct HostView {
    stats: WindowStats,
    ref_kernel_us: Vec<f64>,
    ref_request_ms: f64,
    note: String,
}

fn host_view(gauge: &mut host::HostGauge, samples: &[Sample], end_ns: u64) -> HostView {
    let readings = gauge.take();
    let stats = stats::window_stats(samples, &readings, end_ns, SLICE_NS, host::REF_NOMINAL_NS)
        .unwrap_or_default();
    let requests: Vec<u64> = readings.iter().map(|r| r.request_ns).collect();
    let ref_request_ms = ms(stats::percentile(&requests, 0.5).unwrap_or(0));
    HostView {
        note: format!(
            "host: reference request p50 {:.3} ms over {} readings = {:.3} x nominal; as the clock read it: {:.1} /s, p50 {:.3} ms",
            ref_request_ms,
            readings.len(),
            stats.slowdown,
            stats.raw_work_per_s,
            ms(stats.raw_p50_ns),
        ),
        stats,
        ref_kernel_us: readings.iter().map(|r| r.spin_us).collect(),
        ref_request_ms,
    }
}

fn serve_ingest_window(s: &mut DaemonSetup, seconds: u64, traced: bool) -> WindowOutcome {
    let window = Duration::from_secs(seconds);
    let (pos_at_open, appended_at_open) = (s.cursor.pos, s.appended);
    let t0 = Instant::now();
    let mut log = SpanLog::new(traced, t0);
    let out = daemon::ingest_loop(
        &mut s.client,
        &s.trace,
        &mut s.cursor,
        t0,
        window,
        &mut s.gauge,
        &mut log,
    );
    let mut problems = Vec::new();
    let failed = ingest_problems(&out, &mut problems);
    // Final barrier: every snapshot sent in this window must be in the
    // stores, and the freshest evidence of each scenario kind must diagnose
    // as one-shot.
    let mut correct_share = 0.0;
    match daemon::barrier_stats(&mut s.client, &s.trace) {
        Ok(st) => {
            correct_share = st.snapshots_appended.saturating_sub(appended_at_open) as f64
                / (s.cursor.pos - pos_at_open).max(1) as f64;
            s.appended = st.snapshots_appended;
            if st.snapshots_appended != s.cursor.pos || st.shed + st.wrong_shard > 0 {
                problems.push(format!(
                    "{} snapshots sent, {} ingested, {} shed, {} mis-routed",
                    s.cursor.pos, st.snapshots_appended, st.shed, st.wrong_shard
                ));
            }
        }
        Err(e) => problems.push(format!("final barrier: {e}")),
    }
    match daemon::post_window_check(&mut s.client, &s.trace, s.cursor.pos) {
        Ok(bad) => problems.extend(bad),
        Err(e) => problems.push(format!("post-window diagnose: {e}")),
    }
    let view = host_view(&mut s.gauge, &out.samples, out.end_ns);
    WindowOutcome {
        notes: vec![
            format!(
                "{} batches of {} in {} slices; ingest_batch call p50 {:.1} us",
                out.batches,
                daemon::BATCH,
                view.stats.slices,
                stats::percentile(&out.call_ns, 0.5).unwrap_or(0) as f64 / 1e3
            ),
            view.note,
        ],
        stats: view.stats,
        work: out.accepted,
        attempted: out.batches,
        failed,
        correct_share,
        problems,
        spans: vec![("ingest", log.into_spans())],
        ref_kernel_us: view.ref_kernel_us,
        ref_request_ms: view.ref_request_ms,
    }
}

fn diagnose_window(s: &mut DaemonSetup, seconds: u64, traced: bool) -> WindowOutcome {
    let window = Duration::from_secs(seconds);
    let t0 = Instant::now();
    let mut log = SpanLog::new(traced, t0);
    let out = daemon::round_loop(
        &mut s.client,
        &s.trace,
        &mut s.cursor,
        t0,
        window,
        &mut s.gauge,
        &mut log,
    );
    let diag = &out.diagnose;
    let mut problems = Vec::new();
    let mut failed = late(&diag.samples) + diag.errors.len() as u64 + diag.mismatches.len() as u64;
    if out.shed > 0 {
        failed += out.shed.div_ceil(daemon::BATCH as u64);
        problems.push(format!("{} snapshots shed", out.shed));
    }
    problems.extend(diag.errors.iter().cloned());
    problems.extend(diag.mismatches.iter().take(5).cloned());
    if diag.checked == 0 {
        problems.push("no verdict could be checked".into());
    }
    match daemon::barrier_stats(&mut s.client, &s.trace) {
        Ok(st) if st.snapshots_appended != s.cursor.pos || st.shed + st.wrong_shard > 0 => {
            problems.push(format!(
                "{} snapshots sent, {} ingested, {} shed, {} mis-routed",
                s.cursor.pos, st.snapshots_appended, st.shed, st.wrong_shard
            ));
        }
        Ok(_) => {}
        Err(e) => problems.push(format!("final barrier: {e}")),
    }
    let view = host_view(&mut s.gauge, &diag.samples, diag.end_ns);
    WindowOutcome {
        notes: vec![
            format!(
                "{} rounds of {} batches of {} and one verdict, in {} slices: {} verdicts equal to one-shot of {} checked; a round's ingest part p50 {:.3} ms",
                diag.samples.len(),
                daemon::ROUND_BATCHES,
                daemon::BATCH,
                view.stats.slices,
                diag.matched,
                diag.checked,
                ms(stats::percentile(&out.ingest_ns, 0.5).unwrap_or(0)),
            ),
            view.note,
        ],
        stats: view.stats,
        work: diag.samples.len() as u64,
        attempted: diag.attempted + out.batches,
        failed,
        correct_share: diag.matched as f64 / diag.checked.max(1) as f64,
        problems,
        spans: vec![("rounds", log.into_spans())],
        ref_kernel_us: view.ref_kernel_us,
        ref_request_ms: view.ref_request_ms,
    }
}

// ------------------------------------------------------------------- runs

fn finish(mut out: RunOutput, w: &WindowOutcome) -> RunOutput {
    out.notes.push(format!(
        "host: spin kernel p50 {:.1} us over {} samples during the window",
        stats::median(&w.ref_kernel_us).unwrap_or(0.0),
        w.ref_kernel_us.len()
    ));
    out.attempted = w.attempted.max(1);
    out.failed = w.failed;
    out.notes.extend(w.notes.iter().cloned());
    out.notes
        .extend(w.problems.iter().map(|p| format!("INCORRECT: {p}")));
    out.correct = w.problems.is_empty() && w.failed == 0;
    out
}

/// The harness-context layer metrics of a traced window, next to the
/// mean rate of the untraced windows either side of it — raw rates: the
/// counting allocator slows the reference request too, so normalised ones
/// would hide part of what tracing costs.
fn context_metrics(
    untraced_work_per_s_mean: f64,
    traced: &WindowOutcome,
    allocs: (u64, u64),
) -> Vec<Metric> {
    let work = traced.work;
    let rk = &traced.ref_kernel_us;
    let rk_p50 = stats::median(rk).unwrap_or(0.0);
    let rk_slow = rk.iter().filter(|&&v| v > 1.2 * rk_p50).count() as f64 / rk.len().max(1) as f64;
    vec![
        metric("e2e.work_per_s_mean", traced.stats.work_per_s_mean, "1/s"),
        metric(
            "e2e.slow_slice_share",
            traced.stats.slow_slice_share,
            "ratio",
        ),
        metric("e2e.raw_work_per_s", traced.stats.raw_work_per_s, "1/s"),
        metric("e2e.raw_latency_ms_p50", ms(traced.stats.raw_p50_ns), "ms"),
        metric("host.ref_request_ms_p50", traced.ref_request_ms, "ms"),
        metric("host.ref_kernel_us_p50", rk_p50, "us"),
        metric("host.ref_kernel_slow_share", rk_slow, "ratio"),
        metric(
            "trace.overhead_share",
            1.0 - traced.stats.work_per_s_mean / untraced_work_per_s_mean.max(1e-9),
            "ratio",
        ),
        metric(
            "alloc.count_per_work_unit",
            allocs.0 as f64 / work.max(1) as f64,
            "count",
        ),
        metric(
            "alloc.bytes_per_work_unit",
            allocs.1 as f64 / work.max(1) as f64,
            "B",
        ),
    ]
}

fn trace_path(workload: Workload) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}.json", workload.name()))
}

/// The windows of one run: always an untraced one; on a traced run a
/// second with spans and allocation counting on (and what it allocated),
/// then a third, untraced again — the traced window is compared with the
/// mean of its two neighbours, so a steady drift of the host or of the
/// daemons' state across the three cancels.
struct Measured {
    untraced: Vec<WindowOutcome>,
    traced: Option<(WindowOutcome, (u64, u64))>,
}

fn run_windows(traced: bool, mut window: impl FnMut(bool) -> WindowOutcome) -> Measured {
    let mut untraced = vec![window(false)];
    let traced = traced.then(|| {
        let before = alloc::totals();
        alloc::set_enabled(true);
        let w = window(true);
        alloc::set_enabled(false);
        let after = alloc::totals();
        untraced.push(window(false));
        (w, (after.0 - before.0, after.1 - before.1))
    });
    Measured { untraced, traced }
}

/// Assemble the run's output; on a traced run, run the layer probes and
/// write the span file first.
fn report(
    args: &RunArgs,
    setup_s: f64,
    setup_notes: Vec<String>,
    m: Measured,
    probe_input: layers::AnalysisInput<'_>,
) -> RunOutput {
    let out = RunOutput {
        notes: setup_notes,
        ..Default::default()
    };
    let Measured { untraced, traced } = m;
    let Some((traced, allocs)) = traced else {
        let mut out = finish(out, &untraced[0]);
        out.metrics = e2e_metrics(setup_s, &untraced[0]);
        return out;
    };
    let mut out = finish(out, &traced);
    for u in &untraced {
        if !u.problems.is_empty() || u.failed > 0 {
            out.correct = false;
            out.failed += u.failed;
            out.notes.extend(
                u.problems
                    .iter()
                    .map(|p| format!("INCORRECT (untraced window): {p}")),
            );
        }
        out.attempted += u.attempted;
    }
    let untraced_rate = untraced
        .iter()
        .map(|u| u.stats.work_per_s_mean)
        .sum::<f64>()
        / untraced.len() as f64;
    out.metrics = context_metrics(untraced_rate, &traced, allocs);
    let mut probe_log = SpanLog::new(true, Instant::now());
    match layers::probe_suite(args, probe_input, &mut probe_log) {
        Ok(p) => {
            out.metrics.extend(p.metrics);
            out.notes.extend(p.notes);
            if !p.problems.is_empty() {
                out.correct = false;
                out.notes
                    .extend(p.problems.iter().map(|p| format!("INCORRECT (probe): {p}")));
            }
        }
        Err(e) => {
            out.correct = false;
            out.notes
                .push(format!("INCORRECT: layer probes failed: {e}"));
        }
    }
    let probe_spans = probe_log.into_spans();
    let mut logs: Vec<(&str, &[Span])> = traced
        .spans
        .iter()
        .map(|(t, s)| (*t, s.as_slice()))
        .collect();
    logs.push(("probes", &probe_spans));
    let path = trace_path(args.workload);
    match span::write_trace(&path, args.workload.name(), args.seed, &logs) {
        Ok(()) => out.notes.push(format!(
            "spans written to {} ({} spans)",
            path.display(),
            logs.iter().map(|(_, s)| s.len()).sum::<usize>()
        )),
        Err(e) => {
            out.correct = false;
            out.notes.push(format!("INCORRECT: span file: {e}"));
        }
    }
    out
}

pub fn run(args: &RunArgs, t_start: Instant) -> RunOutput {
    let fail = |e: String| RunOutput {
        correct: false,
        attempted: 1,
        failed: 1,
        metrics: Vec::new(),
        notes: vec![format!("INCORRECT: set-up failed: {e}")],
    };
    // A traced run splits the time between its three windows.
    let seconds = if args.traced {
        (args.seconds / 3).max(1)
    } else {
        args.seconds
    };
    match args.workload {
        Workload::OfflineCorpus => {
            let mut setup = match offline_setup(t_start) {
                Ok(s) => s,
                Err(e) => return fail(e),
            };
            let mut cells = offline::cell_order(args.seed);
            if args.traced {
                // Three passes and the probes must fit the time one run
                // may take: a traced run measures the first corpus seed's
                // 36 cells each time.
                cells.retain(|c| c.seed == *offline::CORPUS_SEEDS.start());
            }
            let t0 = Instant::now();
            let m = run_windows(args.traced, |traced| {
                let mut log = SpanLog::new(traced, t0);
                let mut w = offline_window(&cells, &mut setup, &mut log);
                w.spans = vec![("cells", log.into_spans())];
                w
            });
            report(
                args,
                setup.setup_s,
                Vec::new(),
                m,
                layers::AnalysisInput::OfflineCells,
            )
        }
        Workload::ServeIngest | Workload::ServeDiagnose | Workload::FleetDiagnose => {
            let plane = if args.workload == Workload::FleetDiagnose {
                Plane::Fleet
            } else {
                Plane::Monolith
            };
            let mut s = match daemon_setup(args, plane, t_start) {
                Ok(s) => s,
                Err(e) => return fail(e),
            };
            let m = run_windows(args.traced, |traced| match args.workload {
                Workload::ServeIngest => serve_ingest_window(&mut s, seconds, traced),
                _ => diagnose_window(&mut s, seconds, traced),
            });
            // The plane goes before the probes start their own.
            let DaemonSetup {
                trace,
                rig,
                setup_s,
                notes,
                ..
            } = s;
            rig.shutdown();
            report(
                args,
                setup_s,
                notes,
                m,
                layers::AnalysisInput::DaemonStore(&trace),
            )
        }
    }
}
