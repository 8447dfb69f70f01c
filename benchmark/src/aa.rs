//! A/A calibration and the all-workloads mode: runs of this same binary
//! in child processes, their result lines parsed back.
//!
//! `--aa N` measures how far two sets of runs of *identical code* drift
//! apart on this host: set A and set B alternate run by run, so both see
//! the same mix of the host's fast and slow phases. A bound in
//! `BENCHMARK.json` must exceed twice the largest gap between their
//! medians and the wider set's quartile distance.

use crate::run::Workload;
use crate::stats;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

pub struct ChildRun {
    pub exit_code: i32,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

/// Run one workload in a child process of this binary and wait for it.
/// `echo` passes the child's output through.
pub fn spawn_self(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    let last = text.lines().last().unwrap_or("");
    let v =
        serde_json::parse(last).map_err(|e| format!("{}: result line: {e:?}", workload.name()))?;
    let mut metrics = BTreeMap::new();
    if let Some(obj) = v.get("metrics").and_then(serde::Value::as_object) {
        for (name, m) in obj {
            if let Some(x) = m.get("value").and_then(serde::Value::as_f64) {
                metrics.insert(name.clone(), x);
            }
        }
    }
    Ok(ChildRun {
        exit_code: out.status.code().unwrap_or(1),
        correct: v
            .get("correct")
            .and_then(serde::Value::as_bool)
            .unwrap_or(false),
        metrics,
    })
}

/// Whether a larger value of the end-to-end metric `name` is better.
fn higher_is_better(name: &str) -> bool {
    matches!(name, "work_per_s" | "correct_share")
}

pub fn calibrate(n: usize, seed: u64, seconds: u64) -> i32 {
    println!(
        "A/A calibration: 2 sets x {n} runs x {} workloads, --seconds {seconds}, seeds {seed}..{}",
        Workload::ALL.len(),
        seed + n as u64 - 1
    );
    let mut code = 0;
    // sets[set][workload/metric] = one value per run
    let mut sets: [BTreeMap<String, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for i in 0..n {
        for w in Workload::ALL {
            // Alternate which set goes first; both sets use the same seeds.
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                match spawn_self(w, seed + i as u64, seconds, false, false) {
                    Ok(r) => {
                        if !r.correct || r.exit_code != 0 {
                            println!("run {i} set {set} {}: correct:false", w.name());
                            code = 1;
                        }
                        for (m, v) in r.metrics {
                            sets[set]
                                .entry(format!("{}/{m}", w.name()))
                                .or_default()
                                .push(v);
                        }
                    }
                    Err(e) => {
                        println!("run {i} set {set} {}: {e}", w.name());
                        code = 1;
                    }
                }
            }
        }
        println!("round {} of {n} done", i + 1);
    }
    println!(
        "\n| workload/metric | median A | median B | gap (B worse) | IQR/median A | IQR/median B |"
    );
    println!("|---|---:|---:|---:|---:|---:|");
    for (key, a) in &sets[0] {
        let Some(b) = sets[1].get(key) else { continue };
        let (Some(ma), Some(mb)) = (stats::median(a), stats::median(b)) else {
            continue;
        };
        let metric = key.rsplit('/').next().unwrap_or("");
        let worse = if higher_is_better(metric) {
            (ma - mb) / ma.abs().max(f64::MIN_POSITIVE)
        } else {
            (mb - ma) / ma.abs().max(f64::MIN_POSITIVE)
        };
        let spread = |v: &[f64]| stats::quartile_spread(v).unwrap_or(0.0) * 100.0;
        println!(
            "| {key} | {ma:.4} | {mb:.4} | {:+.2} % | {:.2} % | {:.2} % |",
            worse * 100.0,
            spread(a),
            spread(b)
        );
    }
    code
}
