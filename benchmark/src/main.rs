//! `hawkeye-benchmark`: the repository's benchmark. See `README.md` in
//! this directory for the workloads, the metrics and how to read them.

mod aa;
mod alloc;
mod daemon;
mod host;
mod layers;
mod offline;
mod run;
mod span;
mod stats;
mod tracegen;

use run::{RunArgs, RunOutput, Workload};
use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: hawkeye-benchmark [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--aa N]
  --workload W   offline-corpus | serve-ingest | serve-diagnose | fleet-diagnose;
                 run it once and print one JSON result line last.
                 Without it: every workload in turn, each in its own process.
  --seed S       order of the inputs: cell shuffle, segment permutation (default 1)
  --seconds N    length of the measured window of the daemon workloads
                 (default 30; offline-corpus is fixed work, one 108-cell pass)
  --trace 1      per-layer metrics and span files instead of end-to-end metrics
  --aa N         A/A calibration: two alternated sets of N runs of every
                 workload, medians, gap and quartile distance per metric";

struct Cli {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    traced: bool,
    aa: Option<usize>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 30,
        traced: false,
        aa: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("'{v}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("a workload name")?;
                cli.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload '{v}'"))?);
            }
            "--seed" => cli.seed = number(value("a number")?)?,
            "--seconds" => cli.seconds = number(value("a number")?)?.max(1),
            "--trace" => {
                cli.traced = match value("0 or 1")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--aa" => {
                // N is optional: `--aa` alone means five runs per set.
                cli.aa = Some(5);
                if let Some(n) = it.clone().next().and_then(|v| v.parse::<usize>().ok()) {
                    it.next();
                    cli.aa = Some(n.max(2));
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(cli)
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn result_line(out: &RunOutput) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

/// Every digit as measured; JSON has no NaN or infinity, so those print 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn print_run(args: &RunArgs, out: &RunOutput) {
    println!(
        "# {} --seed {} --seconds {} --trace {} on {} cpus",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        host::nproc()
    );
    for n in &out.notes {
        println!("# {n}");
    }
    for m in &out.metrics {
        println!("{:<46} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "# correct:{} attempted {} failed {}",
        out.correct, out.attempted, out.failed
    );
    println!("{}", result_line(out));
}

fn main() {
    let t_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("hawkeye-benchmark: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(n) = cli.aa {
        std::process::exit(aa::calibrate(n, cli.seed, cli.seconds));
    }
    let Some(workload) = cli.workload else {
        // Each workload in a process of its own: a clean allocator and a
        // peak RSS that is that workload's alone.
        let mut worst = 0;
        for w in Workload::ALL {
            let code = aa::spawn_self(w, cli.seed, cli.seconds, cli.traced, true)
                .map_or(1, |r| r.exit_code);
            worst = worst.max(code);
        }
        std::process::exit(worst);
    };
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.traced,
    };
    let out = run::run(&args, t_start);
    print_run(&args, &out);
    std::process::exit(if out.correct { 0 } else { 1 });
}
