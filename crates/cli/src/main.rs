//! `hawkeye` — command-line driver for the reproduction.
//!
//! Subcommands: `scenario` (run + diagnose one anomaly), `matrix` (all six
//! anomalies' verdicts), `methods` (every baseline on one trace), `cbd`
//! (static deadlock-prevention analysis), `dot` (a Fig 12 provenance graph
//! as Graphviz DOT), `summary` (network-wide run statistics), `trace`
//! (event trace of a run), `chaos` (fault-rate sweep), `corpus` (verdict
//! matrix vs golden pins), `fuzz` (disagreement fuzzer), `serve` (the
//! online diagnosis daemon), `replay` (stream one scenario into a daemon
//! and check its verdict), `front` (shard-routing front-end),
//! `serve-stats` (a daemon's observability view) and `figure` (the
//! paper's figures). [`COMMANDS`] gives each one's arguments and the
//! flags it reads; `hawkeye` alone prints them. A flag the subcommand does
//! not read is a usage error.
//! Kinds: incast, storm, inloop, oolc, oolinj, contention. Figure ids:
//! fig7, fig8 (Figs 8, 9 and 11), fig10, fig12, fig13, fig14, ablations,
//! partial-deployment, load-sweep; `figure all` prints every one in order.
//!
//! `chaos` sweeps control-plane fault rates (default 0%-50%) across the
//! whole scenario matrix, prints an accuracy/confidence table, and writes
//! the same data as JSON (default `CHAOS.json`). Exit codes: 0 success,
//! 2 usage, 3 diagnosis failed with a typed cause (`scenario`, `replay`).
//! Every subcommand exits 0 when the reader of its stdout goes away
//! (`hawkeye ... | head`), and 1 on any other stdout write error; a
//! reader of stderr that went away changes no exit code.
//!
//! `trace` emits sim-time-stamped events (PFC pause/resume, probe hops, CPU
//! mirrors, detections, diagnosis stage spans) — `--format chrome` produces
//! a file Perfetto / `chrome://tracing` load directly, `--format jsonl`
//! (default) one JSON record per line, byte-identical across same-seed runs.

use hawkeye_baselines::Method;
use hawkeye_core::{BufferDependencyGraph, RootCause};
use hawkeye_eval::{
    chaos_sweep, default_jobs, fig12_case, figure, optimal_run_config, par_map, run_method,
    run_method_obs, simulate, ChaosConfig, EvalConfig, ScoreConfig, FIG12_CASES, FIGURE_IDS,
};
use hawkeye_obs::{kind as evkind, ObsConfig};
use hawkeye_serve::Endpoint;
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams, TopologySpec};
use serde::Serialize;
use std::io::Write;
use std::str::FromStr;

/// The scenario kinds, by the name the command line gives them.
const KINDS: [(&str, ScenarioKind); 6] = [
    ("incast", ScenarioKind::MicroBurstIncast),
    ("storm", ScenarioKind::PfcStorm),
    ("inloop", ScenarioKind::InLoopDeadlock),
    ("oolc", ScenarioKind::OutOfLoopDeadlockContention),
    ("oolinj", ScenarioKind::OutOfLoopDeadlockInjection),
    ("contention", ScenarioKind::NormalContention),
];

/// [`print!`] through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// [`println!`] through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// [`eprintln!`] through [`note`].
macro_rules! errln {
    ($($arg:tt)*) => {
        note(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// The one writer of stdout. A reader that went away (`hawkeye ... |
/// head`) ends the run quietly with exit 0; any other write error exits 1
/// with a message.
fn emit(args: std::fmt::Arguments) {
    let Err(e) = std::io::stdout().write_fmt(args) else {
        return;
    };
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    fail(format_args!("cannot write to stdout: {e}"))
}

/// `doc` as pretty JSON on stdout.
fn print_json(doc: &(impl Serialize + ?Sized)) {
    outln!(
        "{}",
        serde_json::to_string_pretty(doc).expect("serialization is infallible")
    );
}

/// The one writer of stderr. A failed write is dropped: a message nobody
/// can read must not turn the run's exit code into a panic's.
fn note(args: std::fmt::Arguments) {
    let _ = std::io::stderr().write_fmt(args);
}

/// `hawkeye: <why>` and exit 1: the run could not do its work.
fn fail(why: impl std::fmt::Display) -> ! {
    errln!("hawkeye: {why}");
    std::process::exit(1)
}

/// `hawkeye: <why>`, the usage text and exit 2: the command line asked
/// for something no run does.
fn refuse(why: impl std::fmt::Display) -> ! {
    errln!("hawkeye: {why}");
    usage()
}

fn parse_kind(s: &str) -> Option<ScenarioKind> {
    KINDS.iter().find(|(name, _)| *name == s).map(|&(_, k)| k)
}

/// Every subcommand: its name, its positional argument, and each flag it
/// reads followed by its value's placeholder when it takes one. Usage is
/// printed from this table, and a flag is parsed only for a subcommand
/// that lists it.
const COMMANDS: [&str; 15] = [
    "scenario <kind> --load F --seed N --json",
    "matrix --load F --seed N --jobs N",
    "methods <kind> --load F --seed N --jobs N",
    "cbd <kind> --load F --seed N",
    "dot <kind>",
    "summary <kind> --load F --seed N --json",
    "trace <kind> --load F --seed N --format jsonl|chrome",
    "chaos --rates R,.. --trials N --out F --load F --seed N --jobs N --json",
    "corpus --golden F --write --topos T,.. --seeds N,.. --jobs N --json",
    "fuzz --budget N --base-topo T --seed N --bank F --json",
    "serve --socket P --tcp A --epoch-budget N --queue-depth N --slow-shard-us N \
     --durable DIR --fsync never|interval|always --shard LO..HI --map-epoch N",
    "replay <kind> --socket P --tcp A --batch N --history --stream-only --query-only \
     --load F --seed N --json",
    "front [kind] --map F --socket P --tcp A",
    "serve-stats --socket P --tcp A --json",
    "figure <id|all> --trials N --load F --jobs N",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Jsonl,
    Chrome,
}

struct Opts {
    load: f64,
    seed: u64,
    json: bool,
    format: TraceFormat,
    /// Worker threads for sweep-style subcommands (`matrix`, `methods`,
    /// `chaos`). Precedence: `--jobs` flag, then `HAWKEYE_JOBS`, then
    /// `available_parallelism`.
    jobs: usize,
    /// Fault rates for `chaos` (fractions).
    rates: Vec<f64>,
    /// Trials per operating point for `chaos` and `figure` (each has its
    /// own default).
    trials: Option<usize>,
    /// JSON output path for `chaos`.
    out: String,
    /// Unix socket path: the one `serve` and `front` bind, the one
    /// `replay` and `serve-stats` connect to.
    socket: Option<String>,
    /// TCP address, bound or connected to as `--socket` is (e.g.
    /// 127.0.0.1:0 to bind an ephemeral port).
    tcp: Option<String>,
    /// Per-switch raw-ring budget override for `serve` (tiny values force
    /// compaction; the retention smoke uses this).
    epoch_budget: Option<usize>,
    /// `replay`: also fetch the victim's flow history (raw + compacted
    /// tiers) from the daemon and report it.
    history: bool,
    /// Snapshots per ingest frame for `replay` (default 1), sent
    /// pipelined under the client's credit window.
    batch: Option<usize>,
    /// Ingest queue depth override for `serve`: frames the store thread
    /// may have queued before a session blocks.
    queue_depth: Option<usize>,
    /// Artificial per-snapshot store-thread delay for `serve`
    /// (microseconds) — deliberately slows ingest to exercise the
    /// backpressure path.
    slow_shard_us: u64,
    /// Durable evidence-log directory for `serve`: journal every accepted
    /// epoch and verdict, and recover from the directory on startup.
    durable: Option<String>,
    /// Fsync policy for `--durable` (never|interval|always).
    fsync: Option<hawkeye_serve::FsyncPolicy>,
    /// `replay` against a running daemon: stream telemetry and stop after
    /// the stats barrier, with no diagnosis (crash-smoke half 1).
    stream_only: bool,
    /// `replay` against a running daemon: skip streaming; compute the
    /// diagnosis window locally and query the daemon's recovered state
    /// (crash-smoke half 2).
    query_only: bool,
    /// Owned switch-id range for `serve` (`--shard LO..HI`): refuse
    /// ingest outside it with a typed `wrong_shard` error.
    shard: Option<hawkeye_client::ShardRange>,
    /// Shard-map generation this daemon was cut from (`serve
    /// --map-epoch`); sessions announcing a different epoch are refused.
    map_epoch: Option<u64>,
    /// Shard-map file for `front`.
    map: Option<String>,
    /// Golden-verdict file for `corpus` (default `tests/corpus_golden.json`).
    golden: String,
    /// `corpus --write`: regenerate the golden file instead of checking it.
    write: bool,
    /// Topology slice for `corpus` (comma-separated slugs); restricting the
    /// matrix switches the check into subset mode.
    topos: Option<Vec<hawkeye_workloads::TopologySpec>>,
    /// Seed slice for `corpus` (comma-separated integers).
    seeds: Option<Vec<u64>>,
    /// Mutation budget for `fuzz`.
    budget: usize,
    /// Base operating point the fuzzer perturbs (`fuzz --base-topo SLUG`).
    base_topo: Option<hawkeye_workloads::TopologySpec>,
    /// Bank-file path for `fuzz`: write minimized repros here.
    bank: Option<String>,
}

/// Strict option parser for subcommand `cmd`: every `--flag` must be one
/// `cmd` reads and every value must parse; anything else is a usage error.
/// Returns the parsed options plus the positional arguments in order.
fn parse_opts(cmd: &str, args: &[String]) -> Result<(Opts, Vec<String>), String> {
    let spec = COMMANDS
        .iter()
        .find(|spec| spec.split_whitespace().next() == Some(cmd))
        .ok_or_else(|| format!("unknown command '{cmd}'"))?;
    let mut o = Opts {
        load: 0.1,
        seed: 1,
        json: false,
        format: TraceFormat::Jsonl,
        jobs: default_jobs(),
        rates: ChaosConfig::default().rates,
        trials: None,
        out: "CHAOS.json".to_string(),
        socket: None,
        tcp: None,
        epoch_budget: None,
        history: false,
        batch: None,
        queue_depth: None,
        slow_shard_us: 0,
        durable: None,
        fsync: None,
        stream_only: false,
        query_only: false,
        shard: None,
        map_epoch: None,
        map: None,
        golden: "tests/corpus_golden.json".to_string(),
        write: false,
        topos: None,
        seeds: None,
        budget: hawkeye_eval::FuzzConfig::default().budget,
        base_topo: None,
        bank: None,
    };
    let mut pos = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        if !flag.starts_with('-') {
            pos.push(a.clone());
            continue;
        }
        // Whether `spec` lists the flag, and if so whether a value's
        // placeholder follows it.
        let listed = |spec: &str| {
            let mut words = spec.split_whitespace().skip_while(|w| *w != flag);
            words
                .next()
                .map(|_| words.next().is_some_and(|w| !w.starts_with("--")))
        };
        let Some(takes_value) = listed(spec) else {
            return Err(if COMMANDS.iter().any(|s| listed(s).is_some()) {
                format!("{flag} does not apply to {cmd}")
            } else {
                format!("unknown option '{flag}'")
            });
        };
        let v = if takes_value {
            it.next()
                .ok_or(format!("{flag} requires a value"))?
                .as_str()
        } else {
            ""
        };
        let slug = |s: &str| {
            TopologySpec::parse(s).ok_or_else(|| format!("{flag}: unknown topology slug '{s}'"))
        };
        match flag {
            "--load" => o.load = fraction(flag, v)?,
            "--seed" => o.seed = unsigned(flag, v)?,
            "--json" => o.json = true,
            "--jobs" => o.jobs = positive(flag, v)?,
            "--rates" => o.rates = list(v, |r| fraction(flag, r))?,
            "--trials" => o.trials = Some(positive(flag, v)?),
            "--out" => o.out = v.to_string(),
            "--socket" => o.socket = Some(v.to_string()),
            "--tcp" => o.tcp = Some(v.to_string()),
            "--epoch-budget" => o.epoch_budget = Some(positive(flag, v)?),
            "--history" => o.history = true,
            "--batch" => o.batch = Some(positive(flag, v)?),
            "--queue-depth" => o.queue_depth = Some(positive(flag, v)?),
            "--durable" => o.durable = Some(v.to_string()),
            "--fsync" => o.fsync = Some(hawkeye_serve::FsyncPolicy::parse(v)?),
            "--stream-only" => o.stream_only = true,
            "--query-only" => o.query_only = true,
            "--shard" => o.shard = Some(hawkeye_client::ShardRange::parse(v)?),
            "--map-epoch" => o.map_epoch = Some(unsigned(flag, v)?),
            "--map" => o.map = Some(v.to_string()),
            "--slow-shard-us" => o.slow_shard_us = unsigned(flag, v)?,
            "--golden" => o.golden = v.to_string(),
            "--write" => o.write = true,
            "--topos" => o.topos = Some(list(v, slug)?),
            "--seeds" => o.seeds = Some(list(v, |s| unsigned(flag, s))?),
            "--budget" => o.budget = positive(flag, v)?,
            "--base-topo" => o.base_topo = Some(slug(v)?),
            "--bank" => o.bank = Some(v.to_string()),
            "--format" => {
                o.format = match v {
                    "jsonl" => TraceFormat::Jsonl,
                    "chrome" => TraceFormat::Chrome,
                    _ => return Err(format!("--format: '{v}' is not jsonl|chrome")),
                }
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    Ok((o, pos))
}

/// `v` as an integer of at least 1.
fn positive<T: FromStr + PartialOrd + From<u8>>(flag: &str, v: &str) -> Result<T, String> {
    (v.parse().ok())
        .filter(|n| *n >= T::from(1))
        .ok_or_else(|| format!("{flag}: '{v}' is not a positive integer"))
}

fn unsigned<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: '{v}' is not an unsigned integer"))
}

/// `v` as a finite fraction in [0, 1].
fn fraction(flag: &str, v: &str) -> Result<f64, String> {
    (v.parse().ok())
        .filter(|f| (0.0..=1.0).contains(f))
        .ok_or_else(|| format!("{flag}: '{v}' is not a fraction in [0, 1]"))
}

/// A comma-separated list, each item parsed by `item`.
fn list<T>(v: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    v.split(',').map(|s| item(s.trim())).collect()
}

fn usage() -> ! {
    errln!("usage:");
    for spec in COMMANDS {
        errln!("  hawkeye {spec}");
    }
    errln!(
        "kinds: {}\nfigures: {} all",
        KINDS.map(|(name, _)| name).join(" "),
        FIGURE_IDS.join(" ")
    );
    std::process::exit(2)
}

fn build(kind: ScenarioKind, o: &Opts) -> hawkeye_workloads::Scenario {
    build_scenario(
        kind,
        ScenarioParams {
            seed: o.seed,
            load: o.load,
            ..Default::default()
        },
    )
}

fn cmd_scenario(kind: ScenarioKind, o: &Opts) {
    let sc = build(kind, o);
    let out = run_method(
        &sc,
        &optimal_run_config(o.seed),
        Method::Hawkeye,
        &ScoreConfig::default(),
    );
    let Some(report) = &out.report else {
        // A typed failure, not a panic: one line on stderr, exit 3 so
        // scripts can tell "no diagnosis" from a crash or a usage error.
        let cause = out
            .error
            .map_or_else(|| "no diagnosis produced".to_string(), |e| e.to_string());
        errln!("hawkeye: {cause}");
        std::process::exit(3);
    };
    if o.json {
        print_json(report);
        return;
    }
    outln!("scenario : {}", kind.name());
    outln!("victim   : {}", sc.truth.victim);
    outln!(
        "verdict  : {:?}",
        out.verdict.expect("verdict accompanies every report")
    );
    outln!("diagnosis: {:?}", report.anomaly);
    for p in &report.pfc_paths {
        outln!(
            "pfc path : {}",
            p.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(" -> ")
        );
    }
    if let Some(lp) = &report.deadlock_loop {
        outln!(
            "deadlock : {}",
            lp.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(" -> ")
        );
    }
    for rc in &report.root_causes {
        match rc {
            RootCause::FlowContention { port, flows } => {
                outln!("root     : contention at {port}");
                for (k, w) in flows.iter().take(6) {
                    outln!("           {k} (weight {w:.1})");
                }
            }
            RootCause::HostPfcInjection { port, peer } => {
                outln!("root     : PFC injection at {port} from host {peer}");
            }
        }
    }
    outln!(
        "collected: {} switches, {} B telemetry, causal coverage {}/{}",
        out.collected_switches.len(),
        out.processing_bytes,
        out.causal_covered,
        out.causal_total
    );
}

fn cmd_matrix(o: &Opts) {
    outln!("{:<33} {:<10} diagnosis", "anomaly", "verdict");
    let outs = par_map(o.jobs, &ScenarioKind::ALL, |&kind| {
        let sc = build(kind, o);
        run_method(
            &sc,
            &optimal_run_config(o.seed),
            Method::Hawkeye,
            &ScoreConfig::default(),
        )
    });
    for (kind, out) in ScenarioKind::ALL.into_iter().zip(outs) {
        outln!(
            "{:<33} {:<10} {}",
            kind.name(),
            out.verdict
                .map_or("Undetected".into(), |v| format!("{v:?}")),
            out.report
                .map_or("-".into(), |r| format!("{:?}", r.anomaly)),
        );
    }
}

fn cmd_methods(kind: ScenarioKind, o: &Opts) {
    outln!(
        "{:<13} {:<17} {:<10} {:<10} bw_B",
        "method",
        "verdict",
        "switches",
        "proc_B"
    );
    let outs = par_map(o.jobs, &Method::ALL, |&m| {
        let sc = build(kind, o);
        run_method(&sc, &optimal_run_config(o.seed), m, &ScoreConfig::default())
    });
    for (m, out) in Method::ALL.into_iter().zip(outs) {
        outln!(
            "{:<13} {:<17} {:<10} {:<10} {}",
            m.name(),
            out.verdict
                .map_or("Undetected".into(), |v| format!("{v:?}")),
            out.collected_switches.len(),
            out.processing_bytes,
            out.bandwidth_bytes
        );
    }
}

fn cmd_cbd(kind: ScenarioKind, o: &Opts) {
    let sc = build(kind, o);
    let flows: Vec<_> = sc.flows.iter().map(|f| f.key).collect();
    let g = BufferDependencyGraph::build(&sc.topo, &flows);
    let cycles = g.find_cycles();
    outln!(
        "{}: {} buffer dependencies, {} cycle(s)",
        kind.name(),
        g.edge_count(),
        cycles.len()
    );
    for cyc in &cycles {
        outln!(
            "  CBD: {}",
            cyc.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(" -> ")
        );
        for f in g.cycle_flows(cyc) {
            outln!("    via flow {f}");
        }
    }
    if cycles.is_empty() {
        outln!("  routing is deadlock-free");
    }
}

/// `hawkeye dot <kind>`: Figure 12's provenance graph of one case study
/// as Graphviz DOT on stdout, its diagnosis summary on stderr.
fn cmd_dot(kind: ScenarioKind) {
    if !FIG12_CASES.contains(&kind) {
        let drawn: Vec<&str> = KINDS
            .iter()
            .filter(|(_, k)| FIG12_CASES.contains(k))
            .map(|(name, _)| *name)
            .collect();
        refuse(format_args!(
            "no case study for {}; dot draws {}",
            kind.name(),
            drawn.join(" ")
        ))
    }
    let (summary, dot) = fig12_case(kind);
    errln!("// {summary}");
    outln!("{dot}");
}

/// `hawkeye figure <id>`: one of the paper's figures (`all`: every one,
/// in [`FIGURE_IDS`] order) — its banner, then the rows the paper plots.
fn cmd_figure(id: Option<&str>, o: &Opts) {
    let ids = match id {
        Some("all") => FIGURE_IDS.to_vec(),
        Some(id) => vec![id],
        None => refuse("figure requires an id"),
    };
    let cfg = EvalConfig {
        trials: o.trials.unwrap_or(EvalConfig::default().trials),
        load: o.load,
        ..EvalConfig::default()
    };
    for id in ids {
        let Some(text) = figure(id, &cfg, o.jobs) else {
            refuse(format_args!("unknown figure '{id}'"))
        };
        out!("{text}");
    }
}

/// `hawkeye summary <kind>`: network-wide statistics of the same trial
/// `scenario` diagnoses.
fn cmd_summary(kind: ScenarioKind, o: &Opts) {
    use hawkeye_core::HawkeyeHook;
    use hawkeye_obs::MetricsRegistry;
    use hawkeye_sim::RunSummary;
    let sc = build(kind, o);
    let sim = simulate(&sc, &optimal_run_config(o.seed), |h| {
        HawkeyeHook::new(&sc.topo, h)
    });
    let mut reg = MetricsRegistry::new();
    let s = RunSummary::of_with(&sim, &mut reg);
    if o.json {
        let doc = serde::Value::Object(vec![
            ("summary".to_string(), s.to_value()),
            // Shared with the serve daemon's Metrics handler so both
            // surfaces stay byte-identical (see emit::golden tests).
            (
                "metrics".to_string(),
                hawkeye_obs::emit::metrics_value(&reg.snapshot()),
            ),
        ]);
        print_json(&doc);
    } else {
        outln!("{s:#?}");
        let snap = reg.snapshot();
        outln!(
            "metrics  : {} counters, {} gauges, {} histograms (use --json for the full snapshot)",
            snap.counters.len(),
            snap.gauges.len(),
            snap.histograms.len()
        );
    }
}

/// Run one scenario under the observed Hawkeye pipeline and emit its event
/// trace to stdout. Events carry simulation timestamps only, so the JSONL
/// output is byte-identical across runs with the same seed.
fn cmd_trace(kind: ScenarioKind, o: &Opts) {
    let sc = build(kind, o);
    let ocfg = ObsConfig {
        enabled: true,
        // Per-packet enqueue events are excluded by default: they dwarf the
        // control-plane signal and would evict it from the ring.
        capacity: 1 << 20,
        mask: evkind::DEFAULT,
    };
    let (_, obs) = run_method_obs(
        &sc,
        &optimal_run_config(o.seed),
        Method::Hawkeye,
        &ScoreConfig::default(),
        ocfg,
    );
    let recs: Vec<_> = obs.tracer.records().cloned().collect();
    match o.format {
        TraceFormat::Jsonl => out!("{}", hawkeye_obs::emit::jsonl(&recs)),
        TraceFormat::Chrome => outln!("{}", hawkeye_obs::emit::chrome_trace(&recs)),
    }
    if obs.tracer.dropped() > 0 {
        errln!(
            "note: ring buffer overflowed, oldest {} of {} events dropped",
            obs.tracer.dropped(),
            obs.tracer.recorded()
        );
    }
}

fn cmd_chaos(o: &Opts) {
    let cfg = ChaosConfig {
        rates: o.rates.clone(),
        trials: o.trials.unwrap_or(ChaosConfig::default().trials),
        load: o.load,
        base_seed: o.seed,
    };
    let rep = chaos_sweep(&cfg, o.jobs);
    let json =
        serde_json::to_string_pretty(&rep.to_value()).expect("value serialization is infallible");
    if o.json {
        outln!("{json}");
    } else {
        outln!("{}", rep.to_figure());
    }
    if let Err(e) = std::fs::write(&o.out, json + "\n") {
        fail(format_args!("cannot write {}: {e}", o.out))
    }
    if !o.json {
        errln!("wrote {}", o.out);
    }
}

/// `hawkeye corpus`: run the topology x scenario x seed matrix and pin
/// every cell's verdict against the committed golden file. `--write`
/// regenerates the golden (full matrix only); otherwise the run is a
/// check, and `--topos`/`--seeds` restrict it to a slice compared in
/// subset mode (golden-only cells outside the slice are ignored).
///
/// Exit codes: 0 golden matches, 1 drift (with one typed diff line per
/// mismatched cell), 2 usage.
fn cmd_corpus(o: &Opts) {
    use hawkeye_eval::{diff_cells, golden_from_json, golden_to_json, run_corpus, CorpusConfig};
    let mut cfg = CorpusConfig::default();
    let subset = o.topos.is_some() || o.seeds.is_some();
    if let Some(t) = &o.topos {
        cfg.topos = t.clone();
    }
    if let Some(s) = &o.seeds {
        cfg.seeds = s.clone();
    }
    if o.write && subset {
        errln!("hawkeye: corpus --write pins the full matrix; drop --topos/--seeds");
        std::process::exit(2);
    }
    let cells = run_corpus(&cfg, o.jobs);
    if o.write {
        let json = golden_to_json(&cells);
        if let Err(e) = std::fs::write(&o.golden, json + "\n") {
            fail(format_args!("cannot write {}: {e}", o.golden))
        }
        errln!("wrote {} ({} cells)", o.golden, cells.len());
        return;
    }
    let golden_src = std::fs::read_to_string(&o.golden).unwrap_or_else(|e| {
        fail(format_args!(
            "cannot read {}: {e} (generate it with `hawkeye corpus --write`)",
            o.golden
        ))
    });
    let golden =
        golden_from_json(&golden_src).unwrap_or_else(|e| fail(format_args!("{}: {e}", o.golden)));
    let diffs = diff_cells(&golden, &cells, subset);
    if o.json {
        let doc = serde::Value::Object(vec![
            ("cells".into(), serde::Value::UInt(cells.len() as u64)),
            ("subset".into(), serde::Value::Bool(subset)),
            (
                "diffs".into(),
                serde::Value::Array(
                    diffs
                        .iter()
                        .map(|d| serde::Value::Str(d.to_string()))
                        .collect(),
                ),
            ),
        ]);
        print_json(&doc);
    } else {
        for d in &diffs {
            outln!("{d}");
        }
        outln!(
            "corpus: {} cells checked against {}: {}",
            cells.len(),
            o.golden,
            if diffs.is_empty() {
                "match".to_string()
            } else {
                format!("{} diffs", diffs.len())
            }
        );
    }
    std::process::exit(if diffs.is_empty() { 0 } else { 1 });
}

/// `hawkeye fuzz`: deterministic Collie-style disagreement hunt. Mutates
/// workload/topology/fault parameters from the plan seed, runs each case
/// through the full pipeline, shrinks any ground-truth disagreement by
/// parameter bisection, and (with `--bank FILE`) writes the minimized
/// repros as regression cells.
///
/// Exit codes: 0 hunt completed (finding disagreements is the fuzzer's
/// job, not a failure), 1 a minimized repro failed re-verification or the
/// bank file could not be written, 2 usage.
fn cmd_fuzz(o: &Opts) {
    use hawkeye_eval::{bank_to_json, run_fuzz, FuzzConfig};
    let mut cfg = FuzzConfig {
        budget: o.budget,
        seed: o.seed,
        ..FuzzConfig::default()
    };
    if let Some(b) = o.base_topo {
        cfg.base = b;
    }
    let rep = run_fuzz(&cfg);
    if o.json {
        print_json(&rep.to_value());
    } else {
        outln!(
            "fuzz: base {} seed {}: {} runs, {} degenerate topologies rejected, \
             {} disagreements, {} shrink runs, {} banked",
            cfg.base,
            cfg.seed,
            rep.runs,
            rep.rejected,
            rep.disagreements,
            rep.shrink_runs,
            rep.banked.len()
        );
        for (cell, ag) in &rep.agreement {
            outln!("  {cell}: {}/{} agree", ag.agree, ag.runs);
        }
        for b in &rep.banked {
            outln!(
                "  banked: {}/{} seed {} -> {}",
                b.params.spec,
                b.params.kind.name(),
                b.params.seed,
                b.outcome.verdict
            );
        }
    }
    if let Some(path) = &o.bank {
        let json = bank_to_json(&rep.banked);
        if let Err(e) = std::fs::write(path, json + "\n") {
            fail(format_args!("cannot write {path}: {e}"))
        }
        if !o.json {
            errln!("wrote {path} ({} repros)", rep.banked.len());
        }
    }
    std::process::exit(if rep.reverify_failures == 0 { 0 } else { 1 });
}

/// The `--socket`/`--tcp` address `o` gives, if any. Giving both is a
/// usage error: only one of them would be used.
fn address(o: &Opts) -> Option<Endpoint> {
    match (&o.socket, &o.tcp) {
        (Some(_), Some(_)) => refuse("give --socket or --tcp, not both"),
        (Some(path), None) => Some(Endpoint::Unix(path.into())),
        (None, Some(addr)) => Some(Endpoint::Tcp(addr.clone())),
        (None, None) => None,
    }
}

/// [`address`], which `cmd` cannot run without.
fn required_address(cmd: &str, o: &Opts) -> Endpoint {
    address(o).unwrap_or_else(|| refuse(format_args!("{cmd} requires --socket PATH or --tcp ADDR")))
}

/// A client of the daemon or front listening at `at`.
fn connect(at: &Endpoint) -> hawkeye_client::ServeClient {
    use hawkeye_client::ServeClient;
    match at {
        Endpoint::Unix(path) => ServeClient::connect_unix(path),
        Endpoint::Tcp(addr) => ServeClient::connect_tcp(addr),
    }
    .unwrap_or_else(|e| fail(format_args!("cannot connect to daemon: {e}")))
}

/// The analyzer a daemon or front runs: epochs as long as the trials'
/// ([`optimal_run_config`] fixes them whatever the seed).
fn analyzer() -> hawkeye_core::AnalyzerConfig {
    hawkeye_core::AnalyzerConfig::for_epoch_len(optimal_run_config(0).epoch.epoch_len())
}

/// The fabric a daemon or front diagnoses on: `kind`'s topology and
/// routes, which neither `--load` nor `--seed` changes.
fn fabric(kind: ScenarioKind) -> hawkeye_sim::Topology {
    let params = ScenarioParams {
        load: 0.0,
        ..Default::default()
    };
    build_scenario(kind, params).topo
}

/// `hawkeye serve`: the online diagnosis daemon on the incast fabric, in
/// the foreground at `--socket`/`--tcp` until a `Shutdown` frame or
/// SIGINT/SIGTERM. With `--durable DIR` it journals accepted epochs and
/// verdicts to `DIR` and replays the log on startup; with `--shard
/// LO..HI` it owns that switch-id range of a fleet. `hawkeye replay`
/// drives it.
///
/// Exit codes: 0 stopped, 1 cannot bind (or recover), 2 usage.
fn cmd_serve(o: &Opts) {
    use hawkeye_serve::{ServeConfig, WalConfig};
    let endpoint = required_address("serve", o);
    if o.fsync.is_some() && o.durable.is_none() {
        refuse("--fsync needs --durable DIR")
    }
    if o.map_epoch.is_some() && o.shard.is_none() {
        refuse("--map-epoch needs --shard LO..HI")
    }
    let mut cfg = ServeConfig {
        analyzer: analyzer(),
        ingest_delay_ns: o.slow_shard_us * 1_000,
        ..Default::default()
    };
    if let Some(n) = o.epoch_budget {
        cfg.store.epoch_budget = n;
    }
    if let Some(d) = o.queue_depth {
        cfg.queue_depth = d;
    }
    if let Some(mut range) = o.shard {
        range.epoch = o.map_epoch.unwrap_or(0);
        cfg.shard_range = Some(range);
    }
    let wal = o.durable.as_ref().map(|d| {
        let mut w = WalConfig::new(std::path::Path::new(d));
        if let Some(f) = o.fsync {
            w.fsync = f;
        }
        w
    });
    hawkeye_serve::install_signal_handlers();
    let fabric = fabric(ScenarioKind::MicroBurstIncast);
    let handle = hawkeye_serve::spawn_durable(fabric, cfg, endpoint, wal)
        .unwrap_or_else(|e| fail(format_args!("cannot bind daemon: {e}")));
    if let Some(rep) = &handle.recovery {
        errln!(
            "hawkeye: recovered {} records ({} snapshots, {} verdicts, checkpoint: {}, \
             {} truncated), resuming at seq {}",
            rep.records_scanned,
            rep.snapshots_replayed,
            rep.verdicts_replayed,
            rep.checkpoint_restored,
            rep.truncated_records,
            rep.next_seq
        );
    }
    if let Some(addr) = handle.local_addr {
        errln!("hawkeye: serving on {addr}");
    }
    handle.wait();
}

/// What a replay reads back from the daemon besides the served report.
#[derive(Default)]
struct Readback {
    stats: Option<serde::Value>,
    obs: Option<(hawkeye_obs::MetricsSnapshot, serde::Value)>,
    explain: Option<hawkeye_client::ExplainRecord>,
    history: Option<Vec<hawkeye_client::FlowObservation>>,
}

/// `hawkeye replay <kind>`: simulate one scenario, stream its telemetry
/// into a daemon in frames of `--batch` snapshots, ask the daemon for a
/// diagnosis of the window the one-shot pipeline uses, and check that the
/// two agree. With `--socket`/`--tcp` it is a client of that running
/// daemon or front and leaves it running. With neither it is
/// self-contained: it spawns a daemon of its own on the scenario's fabric
/// (a `serve` daemon always has the incast one) and shuts it down.
///
/// Against a running daemon, `--stream-only` stops after the journaled
/// stats barrier and `--query-only` streams nothing and diagnoses what
/// the daemon already holds — together they bracket a `kill -9` in the
/// crash-recovery smoke.
///
/// Exit codes: 0 parity verified (or streamed), 1 served/one-shot
/// mismatch or no daemon reached, 2 usage, 3 no diagnosis produced.
fn cmd_replay(kind: ScenarioKind, o: &Opts) {
    use hawkeye_serve::{replay_streaming, replay_streaming_batched, ServeConfig, VecSink};
    let address = address(o);
    if address.is_none() && (o.stream_only || o.query_only) {
        refuse("--stream-only and --query-only drive a running daemon: give --socket or --tcp")
    }
    if o.stream_only && o.query_only {
        refuse("--stream-only and --query-only exclude each other")
    }
    if o.query_only && o.batch.is_some() {
        refuse("--batch does not apply to --query-only, which streams nothing")
    }
    if o.stream_only && o.history {
        refuse("--history does not apply to --stream-only, which diagnoses nothing")
    }
    let sc = build(kind, o);
    let runcfg = optimal_run_config(o.seed);
    let (daemon, at) = match address {
        Some(at) => (None, at),
        None => {
            let cfg = ServeConfig {
                analyzer: analyzer(),
                ..Default::default()
            };
            let at = Endpoint::Tcp("127.0.0.1:0".to_string());
            let h = hawkeye_serve::spawn(sc.topo.clone(), cfg, at)
                .unwrap_or_else(|e| fail(format_args!("cannot bind daemon: {e}")));
            let bound = h.local_addr.expect("a TCP daemon knows its address");
            (Some(h), Endpoint::Tcp(bound.to_string()))
        }
    };
    let client = connect(&at);
    let (outcome, mut client) = if o.query_only {
        // The daemon already holds the telemetry: the local run only
        // finds the diagnosis window.
        (replay_streaming(&sc, &runcfg, VecSink::default()).0, client)
    } else {
        replay_streaming_batched(&sc, &runcfg, client, o.batch.unwrap_or(1))
    };
    if o.stream_only {
        // Stats doubles as the flush barrier: once it returns, every
        // accepted epoch has been applied AND journaled — the daemon may
        // now be killed without losing what this run streamed.
        let rb = Readback {
            stats: client.stats().ok(),
            ..Readback::default()
        };
        if o.json {
            print_json(&replay_doc(kind, &outcome, None, &rb));
        } else {
            print_streamed(&outcome.stream);
        }
        return;
    }
    let served = outcome.window.and_then(|w| {
        client
            .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
            .map_err(|e| errln!("hawkeye: served diagnosis failed: {e}"))
            .ok()
    });
    let rb = Readback {
        stats: client.stats().ok(),
        obs: client
            .metrics()
            .map_err(|e| errln!("hawkeye: metrics fetch failed: {e}"))
            .ok(),
        explain: served
            .is_some()
            .then(|| client.explain(None).ok())
            .flatten(),
        history: if o.history {
            client
                .flow_history(sc.truth.victim)
                .map_err(|e| errln!("hawkeye: flow history failed: {e}"))
                .ok()
        } else {
            None
        },
    };
    // A daemon given by its address belongs to someone else: it stays up.
    if let Some(h) = daemon {
        if let Err(e) = client.shutdown() {
            errln!("hawkeye: daemon shutdown failed: {e}");
        }
        h.wait();
    }
    let (Some(one), Some(served)) = (&outcome.oneshot, &served) else {
        errln!(
            "hawkeye: no diagnosis produced ({})",
            if outcome.window.is_none() {
                "victim anomaly never detected"
            } else {
                "served diagnosis unavailable"
            }
        );
        std::process::exit(3);
    };
    let parity = outcome.parity_with(served);
    if o.json {
        print_json(&replay_doc(
            kind,
            &outcome,
            Some((one, served, parity)),
            &rb,
        ));
    } else {
        print_replay(kind, &outcome, served, parity, &rb);
    }
    if !parity {
        std::process::exit(1);
    }
}

fn print_streamed(s: &hawkeye_serve::StreamStats) {
    outln!(
        "streamed : {} snapshots ({} shed, {} errors)",
        s.pushed,
        s.shed,
        s.errors
    );
}

/// A replay's JSON report; `diagnosed` is the one-shot and served reports
/// and their parity, absent under `--stream-only`.
fn replay_doc(
    kind: ScenarioKind,
    outcome: &hawkeye_serve::ReplayOutcome,
    diagnosed: Option<(
        &hawkeye_core::DiagnosisReport,
        &hawkeye_core::DiagnosisReport,
        bool,
    )>,
    rb: &Readback,
) -> serde::Value {
    use serde::Value;
    let mut doc = vec![("scenario".to_string(), Value::Str(kind.name().into()))];
    if let Some((one, served, parity)) = diagnosed {
        let verdict = outcome
            .verdict
            .as_ref()
            .expect("verdict accompanies every report");
        doc.push(("verdict".to_string(), Value::Str(format!("{verdict:?}"))));
        doc.push(("parity".to_string(), Value::Bool(parity)));
        doc.push(("oneshot".to_string(), one.to_value()));
        doc.push(("served".to_string(), served.to_value()));
    }
    let s = &outcome.stream;
    doc.push(("epochs_streamed".to_string(), Value::UInt(s.pushed)));
    doc.push(("epochs_shed".to_string(), Value::UInt(s.shed)));
    if let Some(stats) = &rb.stats {
        doc.push(("daemon".to_string(), stats.clone()));
    }
    if let Some((snap, flight)) = &rb.obs {
        if let Some(p99) = snap
            .histogram(hawkeye_obs::names::OP_DIAGNOSE_NS)
            .and_then(|h| h.percentile(0.99))
        {
            doc.push(("diagnose_p99_ns".to_string(), Value::UInt(p99)));
        }
        let metrics = hawkeye_obs::emit::metrics_value(snap);
        doc.push(("metrics".to_string(), metrics));
        doc.push(("flight".to_string(), flight.clone()));
    }
    if let Some(rec) = &rb.explain {
        doc.push(("explain".to_string(), rec.to_value()));
    }
    if let Some(rows) = &rb.history {
        let rows = rows.iter().map(hawkeye_client::observation_to_value);
        doc.push(("history".to_string(), Value::Array(rows.collect())));
    }
    Value::Object(doc)
}

/// A diagnosed replay's text report.
fn print_replay(
    kind: ScenarioKind,
    outcome: &hawkeye_serve::ReplayOutcome,
    served: &hawkeye_core::DiagnosisReport,
    parity: bool,
    rb: &Readback,
) {
    outln!("scenario : {}", kind.name());
    outln!(
        "verdict  : {:?}",
        outcome
            .verdict
            .as_ref()
            .expect("verdict accompanies every report")
    );
    outln!("served   : {:?} ({:?})", served.anomaly, served.confidence);
    print_streamed(&outcome.stream);
    outln!("parity   : {}", if parity { "ok" } else { "MISMATCH" });
    if let Some(stats) = &rb.stats {
        outln!(
            "daemon   : {}",
            serde_json::to_string(stats).expect("value serialization is infallible")
        );
    }
    if let Some((snap, _)) = &rb.obs {
        if let Some(h) = snap.histogram(hawkeye_obs::names::OP_DIAGNOSE_NS) {
            outln!(
                "diagnose : {} calls, p50 {} ns, p99 {} ns",
                h.count,
                h.percentile(0.50).unwrap_or(0),
                h.percentile(0.99).unwrap_or(0)
            );
        }
    }
    if let Some(rec) = &rb.explain {
        outln!(
            "explain  : verdict #{} {} ({}), {} epochs from {} switches, \
             {} dirty, frags {}r/{}c",
            rec.seq,
            rec.signature_row,
            rec.confidence,
            rec.contributing_epochs,
            rec.contributing_switches.len(),
            rec.dirty_switches.len(),
            rec.frags_reused,
            rec.frags_recomputed
        );
    }
    if let Some(rows) = &rb.history {
        let raw = rows
            .iter()
            .filter(|r| r.fidelity == hawkeye_client::Fidelity::Raw)
            .count();
        let pkts: u64 = rows.iter().map(|r| r.pkt_count).sum();
        outln!(
            "history  : {} rows ({} raw, {} compacted), {} pkts total",
            rows.len(),
            raw,
            rows.len() - raw,
            pkts
        );
    }
}

/// `hawkeye front`: the stateless routing front-end of a sharded fleet.
/// Loads the `--map` shard-map file, listens on `--socket`/`--tcp`, and
/// routes the same frame protocol a daemon speaks: ingest goes to the
/// shard owning each switch id, `Diagnose` gathers every shard's
/// fragments and analyzes the merged evidence (byte-identical verdicts
/// to one big daemon; a dead shard degrades confidence instead of
/// failing). The optional positional kind names the scenario whose
/// fabric diagnosis runs against (default incast, the `serve` daemon's).
/// Runs in the foreground until a `Shutdown` frame or SIGINT/SIGTERM;
/// shard daemons are never stopped by the front.
fn cmd_front(kind: Option<ScenarioKind>, o: &Opts) {
    use hawkeye_cluster::{spawn_front, FrontConfig, ShardMap};
    let Some(map_path) = &o.map else {
        refuse("front requires --map FILE")
    };
    let map = ShardMap::load(std::path::Path::new(map_path))
        .unwrap_or_else(|e| fail(format_args!("cannot load shard map {map_path}: {e}")));
    let endpoint = required_address("front", o);
    let fabric = fabric(kind.unwrap_or(ScenarioKind::MicroBurstIncast));
    let cfg = FrontConfig {
        analyzer: analyzer(),
    };
    hawkeye_serve::install_signal_handlers();
    let handle = spawn_front(fabric, map, cfg, endpoint)
        .unwrap_or_else(|e| fail(format_args!("cannot bind front: {e}")));
    if let Some(addr) = handle.local_addr {
        errln!("hawkeye: front serving on {addr}");
    }
    handle.wait();
}

/// `hawkeye serve-stats`: the observability view of a *running* daemon —
/// counters, per-op latency percentiles, health gauges, the flight-ring
/// tail and the latest verdict's audit record, over the `Metrics` and
/// `Explain` wire ops. Point it at the daemon's `--socket`/`--tcp`.
fn cmd_serve_stats(o: &Opts) {
    let mut client = connect(&required_address("serve-stats", o));
    let (snap, flight) = client
        .metrics()
        .unwrap_or_else(|e| fail(format_args!("metrics fetch failed: {e}")));
    // No verdict journaled yet is a normal state, not an error.
    let explain = client.explain(None).ok();

    if o.json {
        let mut doc = vec![
            (
                "metrics".to_string(),
                hawkeye_obs::emit::metrics_value(&snap),
            ),
            ("flight".to_string(), flight),
        ];
        if let Some(rec) = &explain {
            doc.push(("explain".to_string(), rec.to_value()));
        }
        print_json(&serde::Value::Object(doc));
        return;
    }

    for (name, total) in hawkeye_obs::emit::counter_totals(&snap) {
        outln!("{name:<28} {total}");
    }
    for g in &snap.gauges {
        outln!("{:<28} {}", g.key, g.value);
    }
    // Every per-op latency histogram the daemon recorded (the snapshot
    // lists them in name order), not a list this command has to be told
    // about.
    for h in snap.histograms.iter().filter(|h| h.key.starts_with("op_")) {
        outln!(
            "{:<28} {} calls, p50 {} ns, p99 {} ns, max {} ns",
            h.key,
            h.count,
            h.percentile(0.50).unwrap_or(0),
            h.percentile(0.99).unwrap_or(0),
            h.max
        );
    }
    if let Some(events) = flight.as_array() {
        outln!("flight ring: {} events", events.len());
        for e in events.iter().rev().take(8) {
            outln!(
                "  [{}] {} {}: {}",
                e.get("seq").and_then(|v| v.as_u64()).unwrap_or(0),
                e.get("kind").and_then(|v| v.as_str()).unwrap_or("?"),
                e.get("what").and_then(|v| v.as_str()).unwrap_or("?"),
                e.get("detail").and_then(|v| v.as_str()).unwrap_or("")
            );
        }
    }
    match &explain {
        Some(rec) => outln!(
            "latest verdict: #{} {} → {} ({}), {} epochs from {} switches, \
             {} dirty, frags {}r/{}c, stages {}/{}/{} ns",
            rec.seq,
            rec.victim,
            rec.signature_row,
            rec.confidence,
            rec.contributing_epochs,
            rec.contributing_switches.len(),
            rec.dirty_switches.len(),
            rec.frags_reused,
            rec.frags_recomputed,
            rec.stage_collect_ns,
            rec.stage_graph_ns,
            rec.stage_match_ns
        ),
        None => outln!("latest verdict: none journaled yet"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let (opts, pos) = parse_opts(cmd, &args[1..]).unwrap_or_else(|e| refuse(e));
    if pos.len() > 1 {
        refuse(format_args!("unexpected argument '{}'", pos[1]))
    }
    if cmd == "figure" {
        return cmd_figure(pos.first().map(String::as_str), &opts);
    }
    let kind_arg = pos
        .first()
        .map(|k| parse_kind(k).unwrap_or_else(|| refuse(format_args!("unknown kind '{k}'"))));
    match (cmd.as_str(), kind_arg) {
        ("scenario", Some(k)) => cmd_scenario(k, &opts),
        ("matrix", None) => cmd_matrix(&opts),
        ("methods", Some(k)) => cmd_methods(k, &opts),
        ("cbd", Some(k)) => cmd_cbd(k, &opts),
        ("dot", Some(k)) => cmd_dot(k),
        ("summary", Some(k)) => cmd_summary(k, &opts),
        ("trace", Some(k)) => cmd_trace(k, &opts),
        ("chaos", None) => cmd_chaos(&opts),
        ("corpus", None) => cmd_corpus(&opts),
        ("fuzz", None) => cmd_fuzz(&opts),
        ("serve", None) => cmd_serve(&opts),
        ("replay", Some(k)) => cmd_replay(k, &opts),
        ("front", k) => cmd_front(k, &opts),
        ("serve-stats", None) => cmd_serve_stats(&opts),
        _ => usage(),
    }
}
