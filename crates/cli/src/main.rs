//! `hawkeye` — command-line driver for the reproduction.
//!
//! Subcommands: `scenario` (run + diagnose one anomaly), `matrix` (all six
//! anomalies' verdicts), `methods` (every baseline on one trace), `cbd`
//! (static deadlock-prevention analysis), `dot` (a Fig 12 provenance graph
//! as Graphviz DOT), `summary` (network-wide run statistics), `trace`
//! (event trace of a run), `chaos` (fault-rate sweep), `corpus` (verdict
//! matrix vs golden pins), `fuzz` (disagreement fuzzer), `serve` (online
//! diagnosis daemon and replay client), `front` (shard-routing
//! front-end), `serve-stats` (a daemon's observability view) and `figure`
//! (the paper's figures). [`COMMANDS`] gives each one's arguments and the
//! flags it reads; `hawkeye` alone prints them. A flag the subcommand does
//! not read is a usage error.
//! Kinds: incast, storm, inloop, oolc, oolinj, contention. Figure ids:
//! fig7, fig8 (Figs 8, 9 and 11), fig10, fig12, fig13, fig14, ablations,
//! partial-deployment, load-sweep; `figure all` prints every one in order.
//!
//! `chaos` sweeps control-plane fault rates (default 0%-50%) across the
//! whole scenario matrix, prints an accuracy/confidence table, and writes
//! the same data as JSON (default `CHAOS.json`). Exit codes: 0 success,
//! 2 usage, 3 diagnosis failed with a typed cause (`scenario` only).
//! Every subcommand exits 0 when the reader of its stdout goes away
//! (`hawkeye ... | head`), and 1 on any other stdout write error.
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
use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams, TopologySpec};
use serde::Serialize;
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

/// The one writer of stdout. A reader that went away (`hawkeye ... |
/// head`) ends the run quietly with exit 0; any other write error exits 1
/// with a message.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write;
    let Err(e) = std::io::stdout().write_fmt(args) else {
        return;
    };
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("hawkeye: cannot write to stdout: {e}");
    std::process::exit(1);
}

fn parse_kind(s: &str) -> Option<ScenarioKind> {
    KINDS.iter().find(|(name, _)| *name == s).map(|&(_, k)| k)
}

/// Every subcommand: its name, its positional argument, and each flag it
/// reads followed by its value's placeholder when it takes one. Usage is
/// printed from this table, and a flag is parsed only for a subcommand
/// that lists it.
const COMMANDS: [&str; 14] = [
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
    "serve --replay KIND --socket P --tcp A --epoch-budget N --history --batch N \
     --queue-depth N --slow-shard-us N --durable DIR --fsync never|interval|always \
     --connect --stream-only --query-only --shard LO..HI \
     --map-epoch N --load F --seed N --json",
    "front [kind] --map F --socket P --tcp A --load F --seed N",
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
    /// Unix socket path for `serve`.
    socket: Option<String>,
    /// TCP bind address for `serve` (e.g. 127.0.0.1:0).
    tcp: Option<String>,
    /// Scenario to stream through the daemon (`serve --replay <kind>`).
    replay: Option<ScenarioKind>,
    /// Per-switch raw-ring budget override for `serve` (tiny values force
    /// compaction; the long-run smoke uses this).
    epoch_budget: Option<usize>,
    /// `serve --replay`: also fetch the victim's flow history (raw +
    /// compacted tiers) from the daemon and report it.
    history: bool,
    /// Snapshots per ingest frame for `serve --replay` (default 1), sent
    /// pipelined under the client's credit window.
    batch: usize,
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
    /// `serve --replay`: connect to an *already running* daemon at
    /// `--socket`/`--tcp` instead of spawning one, and leave it running.
    connect: bool,
    /// `serve --replay`: stream telemetry and stop after the stats
    /// barrier — no diagnosis, no daemon shutdown (crash-smoke half 1).
    stream_only: bool,
    /// `serve --replay`: skip streaming; compute the diagnosis window
    /// locally and query the daemon's recovered state (crash-smoke half 2).
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
        replay: None,
        epoch_budget: None,
        history: false,
        batch: 1,
        queue_depth: None,
        slow_shard_us: 0,
        durable: None,
        fsync: None,
        connect: false,
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
            "--replay" => {
                o.replay = Some(parse_kind(v).ok_or(format!("--replay: unknown kind '{v}'"))?)
            }
            "--epoch-budget" => o.epoch_budget = Some(positive(flag, v)?),
            "--history" => o.history = true,
            "--batch" => o.batch = positive(flag, v)?,
            "--queue-depth" => o.queue_depth = Some(positive(flag, v)?),
            "--durable" => o.durable = Some(v.to_string()),
            "--fsync" => o.fsync = Some(hawkeye_serve::FsyncPolicy::parse(v)?),
            "--connect" => o.connect = true,
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
    eprintln!("usage:");
    for spec in COMMANDS {
        eprintln!("  hawkeye {spec}");
    }
    eprintln!(
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
        eprintln!("hawkeye: {cause}");
        std::process::exit(3);
    };
    if o.json {
        outln!(
            "{}",
            serde_json::to_string_pretty(report).expect("report serialization is infallible")
        );
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
        eprintln!(
            "hawkeye: no case study for {}; dot draws {}",
            kind.name(),
            drawn.join(" ")
        );
        usage()
    }
    let (summary, dot) = fig12_case(kind);
    eprintln!("// {summary}");
    outln!("{dot}");
}

/// `hawkeye figure <id>`: one of the paper's figures (`all`: every one,
/// in [`FIGURE_IDS`] order) — its banner, then the rows the paper plots.
fn cmd_figure(id: Option<&str>, o: &Opts) {
    let ids = match id {
        Some("all") => FIGURE_IDS.to_vec(),
        Some(id) => vec![id],
        None => {
            eprintln!("hawkeye: figure requires an id");
            usage()
        }
    };
    let cfg = EvalConfig {
        trials: o.trials.unwrap_or(EvalConfig::default().trials),
        load: o.load,
        ..EvalConfig::default()
    };
    for id in ids {
        let Some(text) = figure(id, &cfg, o.jobs) else {
            eprintln!("hawkeye: unknown figure '{id}'");
            usage()
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
        outln!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("value serialization is infallible")
        );
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
        eprintln!(
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
        eprintln!("hawkeye: cannot write {}: {e}", o.out);
        std::process::exit(1);
    }
    if !o.json {
        eprintln!("wrote {}", o.out);
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
        eprintln!("hawkeye: corpus --write pins the full matrix; drop --topos/--seeds");
        std::process::exit(2);
    }
    let cells = run_corpus(&cfg, o.jobs);
    if o.write {
        let json = golden_to_json(&cells);
        if let Err(e) = std::fs::write(&o.golden, json + "\n") {
            eprintln!("hawkeye: cannot write {}: {e}", o.golden);
            std::process::exit(1);
        }
        eprintln!("wrote {} ({} cells)", o.golden, cells.len());
        return;
    }
    let golden_src = match std::fs::read_to_string(&o.golden) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "hawkeye: cannot read {}: {e} (generate it with `hawkeye corpus --write`)",
                o.golden
            );
            std::process::exit(1);
        }
    };
    let golden = match golden_from_json(&golden_src) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("hawkeye: {}: {e}", o.golden);
            std::process::exit(1);
        }
    };
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
        outln!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("value serialization is infallible")
        );
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
        outln!(
            "{}",
            serde_json::to_string_pretty(&rep.to_value())
                .expect("value serialization is infallible")
        );
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
            eprintln!("hawkeye: cannot write {path}: {e}");
            std::process::exit(1);
        }
        if !o.json {
            eprintln!("wrote {path} ({} repros)", rep.banked.len());
        }
    }
    std::process::exit(if rep.reverify_failures == 0 { 0 } else { 1 });
}

/// `hawkeye serve`: start the online diagnosis daemon. With `--replay
/// <kind>` the CLI also streams that scenario's telemetry into the daemon
/// over the socket, asks it for a diagnosis of the same window the
/// one-shot pipeline would use, verifies verdict parity, and shuts the
/// daemon down — the end-to-end online mode. Without `--replay` the daemon
/// runs in the foreground (SIGINT/SIGTERM tear it down like a `Shutdown`
/// frame) until stopped; with `--durable DIR` it journals accepted epochs
/// and verdicts to `DIR` and replays the log on startup.
///
/// `--connect` targets an already running daemon instead of spawning one
/// (and leaves it running); `--stream-only` stops after the journaled
/// stats barrier, `--query-only` skips streaming and diagnoses against
/// whatever state the daemon already holds — together they bracket a
/// `kill -9` in the crash-recovery smoke.
///
/// Exit codes: 0 success (replay: parity verified), 1 served/one-shot
/// mismatch, 3 no diagnosis produced.
fn cmd_serve(o: &Opts) {
    use hawkeye_client::{ServeClient, VecSink};
    use hawkeye_core::AnalyzerConfig;
    use hawkeye_serve::{
        replay_streaming, replay_streaming_batched, Endpoint, ServeConfig, StoreConfig, WalConfig,
    };

    let runcfg = optimal_run_config(o.seed);
    let store = o
        .epoch_budget
        .map_or_else(StoreConfig::default, |n| StoreConfig {
            epoch_budget: n,
            ..StoreConfig::default()
        });
    let make_cfg = |store: StoreConfig| {
        let mut cfg = ServeConfig {
            analyzer: AnalyzerConfig::for_epoch_len(runcfg.epoch.epoch_len()),
            store,
            ingest_delay_ns: o.slow_shard_us * 1_000,
            ..Default::default()
        };
        if let Some(d) = o.queue_depth {
            cfg.queue_depth = d;
        }
        if let Some(mut range) = o.shard {
            range.epoch = o.map_epoch.unwrap_or(0);
            cfg.shard_range = Some(range);
        }
        cfg
    };
    let endpoint = match (&o.socket, &o.tcp) {
        (Some(path), _) => Endpoint::Unix(path.into()),
        (None, Some(addr)) => Endpoint::Tcp(addr.clone()),
        // Replay is self-contained, so an ephemeral local port is the
        // no-flags default; a foreground daemon needs an address the
        // operator knows.
        (None, None) if o.replay.is_some() && !o.connect => {
            Endpoint::Tcp("127.0.0.1:0".to_string())
        }
        (None, None) => {
            eprintln!("hawkeye: serve requires --socket PATH or --tcp ADDR (or --replay KIND)");
            usage()
        }
    };
    let wal_cfg = o.durable.as_ref().map(|d| {
        let mut w = WalConfig::new(std::path::Path::new(d));
        if let Some(f) = o.fsync {
            w.fsync = f;
        }
        w
    });
    let report_recovery = |h: &hawkeye_serve::DaemonHandle| {
        if let Some(rep) = &h.recovery {
            eprintln!(
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
    };
    let Some(kind) = o.replay else {
        // Foreground daemon mode: a replay client (possibly another
        // hawkeye process) connects later. The topology must match the
        // scenario the client streams; default to the incast fabric.
        let sc = build(ScenarioKind::MicroBurstIncast, o);
        let cfg = make_cfg(store);
        hawkeye_serve::install_signal_handlers();
        match hawkeye_serve::spawn_durable(sc.topo, cfg, endpoint, wal_cfg) {
            Ok(handle) => {
                report_recovery(&handle);
                if let Some(addr) = handle.local_addr {
                    eprintln!("hawkeye: serving on {addr}");
                }
                handle.wait();
            }
            Err(e) => {
                eprintln!("hawkeye: cannot bind daemon: {e}");
                std::process::exit(1);
            }
        }
        return;
    };

    let sc = build(kind, o);
    let handle = if o.connect {
        None
    } else {
        let cfg = make_cfg(store);
        match hawkeye_serve::spawn_durable(sc.topo.clone(), cfg, endpoint.clone(), wal_cfg) {
            Ok(h) => {
                report_recovery(&h);
                Some(h)
            }
            Err(e) => {
                eprintln!("hawkeye: cannot bind daemon: {e}");
                std::process::exit(1);
            }
        }
    };
    let client = match &endpoint {
        Endpoint::Unix(path) => ServeClient::connect_unix(std::path::Path::new(path)),
        Endpoint::Tcp(addr) => {
            // A spawned TCP daemon may have bound port 0; a --connect
            // target is addressed exactly as given.
            let addr = handle
                .as_ref()
                .and_then(|h| h.local_addr)
                .map_or_else(|| addr.clone(), |a| a.to_string());
            ServeClient::connect_tcp(&addr)
        }
    };
    let client = match client {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hawkeye: cannot connect to daemon: {e}");
            if let Some(h) = handle {
                h.shutdown();
            }
            std::process::exit(1);
        }
    };

    // --query-only runs the simulation against a local throwaway sink
    // (the daemon already holds the recovered telemetry); everything else
    // streams into the daemon for real.
    let (outcome, mut client) = if o.query_only {
        let (outcome, _) = replay_streaming(&sc, &runcfg, VecSink::default());
        (outcome, client)
    } else {
        replay_streaming_batched(&sc, &runcfg, client, o.batch)
    };

    if o.stream_only {
        // Stats doubles as the flush barrier: once it returns, every
        // accepted epoch has been applied AND journaled — the daemon may
        // now be killed without losing what this run streamed.
        let stats = client.stats().ok();
        let mut doc = vec![
            (
                "scenario".to_string(),
                serde::Value::Str(kind.name().into()),
            ),
            (
                "epochs_streamed".to_string(),
                serde::Value::UInt(outcome.stream.pushed),
            ),
            (
                "epochs_shed".to_string(),
                serde::Value::UInt(outcome.stream.shed),
            ),
        ];
        if let Some(stats) = stats {
            doc.push(("daemon".to_string(), stats));
        }
        let doc = serde::Value::Object(doc);
        if o.json {
            outln!(
                "{}",
                serde_json::to_string_pretty(&doc).expect("value serialization is infallible")
            );
        } else {
            outln!(
                "streamed : {} snapshots ({} shed, {} errors)",
                outcome.stream.pushed,
                outcome.stream.shed,
                outcome.stream.errors
            );
        }
        return;
    }
    let served = outcome.window.and_then(|w| {
        client
            .diagnose(sc.truth.victim, w.from, w.to, outcome.missing.clone())
            .map_err(|e| eprintln!("hawkeye: served diagnosis failed: {e}"))
            .ok()
    });
    let stats = client.stats().ok();
    let obs = client
        .metrics()
        .map_err(|e| eprintln!("hawkeye: metrics fetch failed: {e}"))
        .ok();
    let explain = served
        .is_some()
        .then(|| client.explain(None).ok())
        .flatten();
    let history = if o.history {
        client
            .flow_history(sc.truth.victim)
            .map_err(|e| eprintln!("hawkeye: flow history failed: {e}"))
            .ok()
    } else {
        None
    };
    if o.connect {
        // The daemon belongs to someone else; leave it running.
        drop(client);
    } else {
        if let Err(e) = client.shutdown() {
            eprintln!("hawkeye: daemon shutdown failed: {e}");
        }
        if let Some(h) = handle {
            h.wait();
        }
    }

    let (Some(one), Some(served)) = (&outcome.oneshot, &served) else {
        eprintln!(
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
        let mut doc = vec![
            (
                "scenario".to_string(),
                serde::Value::Str(kind.name().into()),
            ),
            (
                "verdict".to_string(),
                serde::Value::Str(format!(
                    "{:?}",
                    outcome.verdict.expect("verdict accompanies every report")
                )),
            ),
            ("parity".to_string(), serde::Value::Bool(parity)),
            ("oneshot".to_string(), one.to_value()),
            ("served".to_string(), served.to_value()),
            (
                "epochs_streamed".to_string(),
                serde::Value::UInt(outcome.stream.pushed),
            ),
            (
                "epochs_shed".to_string(),
                serde::Value::UInt(outcome.stream.shed),
            ),
        ];
        if let Some(stats) = stats {
            doc.push(("daemon".to_string(), stats));
        }
        if let Some((snap, flight)) = &obs {
            if let Some(p99) = snap
                .histogram(hawkeye_obs::names::OP_DIAGNOSE_NS)
                .and_then(|h| h.percentile(0.99))
            {
                doc.push(("diagnose_p99_ns".to_string(), serde::Value::UInt(p99)));
            }
            doc.push((
                "metrics".to_string(),
                hawkeye_obs::emit::metrics_value(snap),
            ));
            doc.push(("flight".to_string(), flight.clone()));
        }
        if let Some(rec) = &explain {
            doc.push(("explain".to_string(), rec.to_value()));
        }
        if let Some(rows) = &history {
            doc.push((
                "history".to_string(),
                serde::Value::Array(
                    rows.iter()
                        .map(hawkeye_client::observation_to_value)
                        .collect(),
                ),
            ));
        }
        outln!(
            "{}",
            serde_json::to_string_pretty(&serde::Value::Object(doc))
                .expect("value serialization is infallible")
        );
    } else {
        outln!("scenario : {}", kind.name());
        outln!(
            "verdict  : {:?}",
            outcome.verdict.expect("verdict accompanies every report")
        );
        outln!("served   : {:?} ({:?})", served.anomaly, served.confidence);
        outln!(
            "streamed : {} snapshots ({} shed, {} errors)",
            outcome.stream.pushed,
            outcome.stream.shed,
            outcome.stream.errors
        );
        outln!("parity   : {}", if parity { "ok" } else { "MISMATCH" });
        if let Some(stats) = stats {
            outln!(
                "daemon   : {}",
                serde_json::to_string(&stats).expect("value serialization is infallible")
            );
        }
        if let Some((snap, _)) = &obs {
            if let Some(h) = snap.histogram(hawkeye_obs::names::OP_DIAGNOSE_NS) {
                outln!(
                    "diagnose : {} calls, p50 {} ns, p99 {} ns",
                    h.count,
                    h.percentile(0.50).unwrap_or(0),
                    h.percentile(0.99).unwrap_or(0)
                );
            }
        }
        if let Some(rec) = &explain {
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
        if let Some(rows) = &history {
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
    if !parity {
        std::process::exit(1);
    }
}

/// `hawkeye front`: the stateless routing front-end of a sharded fleet.
/// Loads the `--map` shard-map file, listens on `--socket`/`--tcp`, and
/// routes the same frame protocol a daemon speaks: ingest goes to the
/// shard owning each switch id, `Diagnose` gathers every shard's
/// fragments and analyzes the merged evidence (byte-identical verdicts
/// to one big daemon; a dead shard degrades confidence instead of
/// failing). The optional positional kind names the scenario whose
/// topology diagnosis runs against (default incast, matching `serve`'s
/// foreground mode). Runs in the foreground until a `Shutdown` frame or
/// SIGINT/SIGTERM; shard daemons are never stopped by the front.
fn cmd_front(kind: Option<ScenarioKind>, o: &Opts) {
    use hawkeye_cluster::{spawn_front, FrontConfig, ShardMap};
    use hawkeye_serve::Endpoint;

    let Some(map_path) = &o.map else {
        eprintln!("hawkeye: front requires --map FILE");
        usage()
    };
    let map = match ShardMap::load(std::path::Path::new(map_path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("hawkeye: cannot load shard map {map_path}: {e}");
            std::process::exit(1);
        }
    };
    let endpoint = match (&o.socket, &o.tcp) {
        (Some(path), _) => Endpoint::Unix(path.into()),
        (None, Some(addr)) => Endpoint::Tcp(addr.clone()),
        (None, None) => {
            eprintln!("hawkeye: front requires --socket PATH or --tcp ADDR");
            usage()
        }
    };
    let runcfg = optimal_run_config(o.seed);
    let sc = build(kind.unwrap_or(ScenarioKind::MicroBurstIncast), o);
    let cfg = FrontConfig {
        analyzer: hawkeye_core::AnalyzerConfig::for_epoch_len(runcfg.epoch.epoch_len()),
    };
    hawkeye_serve::install_signal_handlers();
    match spawn_front(sc.topo, map, cfg, endpoint) {
        Ok(handle) => {
            if let Some(addr) = handle.local_addr {
                eprintln!("hawkeye: front serving on {addr}");
            }
            handle.wait();
        }
        Err(e) => {
            eprintln!("hawkeye: cannot bind front: {e}");
            std::process::exit(1);
        }
    }
}

/// `hawkeye serve-stats`: the observability view of a *running* daemon —
/// counters, per-op latency percentiles, health gauges, the flight-ring
/// tail and the latest verdict's audit record, over the `Metrics` and
/// `Explain` wire ops. Point it at the daemon's `--socket`/`--tcp`.
fn cmd_serve_stats(o: &Opts) {
    use hawkeye_client::ServeClient;

    let client = match (&o.socket, &o.tcp) {
        (Some(path), _) => ServeClient::connect_unix(std::path::Path::new(path)),
        (None, Some(addr)) => ServeClient::connect_tcp(addr),
        (None, None) => {
            eprintln!("hawkeye: serve-stats requires --socket PATH or --tcp ADDR");
            usage()
        }
    };
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hawkeye: cannot connect to daemon: {e}");
            std::process::exit(1);
        }
    };
    let (snap, flight) = match client.metrics() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("hawkeye: metrics fetch failed: {e}");
            std::process::exit(1);
        }
    };
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
        outln!(
            "{}",
            serde_json::to_string_pretty(&serde::Value::Object(doc))
                .expect("value serialization is infallible")
        );
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
    let (opts, pos) = match parse_opts(cmd, &args[1..]) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("hawkeye: {e}");
            usage()
        }
    };
    if pos.len() > 1 {
        eprintln!("hawkeye: unexpected argument '{}'", pos[1]);
        usage()
    }
    if cmd == "figure" {
        return cmd_figure(pos.first().map(String::as_str), &opts);
    }
    let kind_arg = match pos.first() {
        Some(k) => match parse_kind(k) {
            Some(k) => Some(k),
            None => {
                eprintln!("hawkeye: unknown kind '{k}'");
                usage()
            }
        },
        None => None,
    };
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
        ("front", k) => cmd_front(k, &opts),
        ("serve-stats", None) => cmd_serve_stats(&opts),
        _ => usage(),
    }
}
