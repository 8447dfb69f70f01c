//! # hawkeye-bench
//!
//! The paper's evaluation, regenerated: `cargo bench -p hawkeye-bench` runs
//! `fig07_param_sweep`, `fig08_09_11_methods`, `fig10_granularity`,
//! `fig12_case_study`, `fig13_resources`, `fig14_cpu_poller`, `ablations`,
//! `ext_partial_deployment` and `ext_load_sweep` — plain `main` harnesses
//! that print the rows/series of the corresponding tables and figures
//! (reference output: `bench_results_reference.txt`). They report accuracy
//! and overhead, not speed; speed numbers come from `benchmark/` and
//! `BENCHMARK.json` only.
//!
//! Knobs: `HAWKEYE_TRIALS` (traces per configuration; default 3),
//! `HAWKEYE_LOAD` (background load fraction; default 0.1) and
//! `HAWKEYE_JOBS` (worker threads for the sweep harnesses; default
//! `available_parallelism`).

/// Shared banner so every figure harness states its provenance.
pub fn banner(fig: &str, paper_claim: &str) {
    println!("\n################################################################");
    println!("# {fig}");
    println!("# Paper: {paper_claim}");
    println!("################################################################");
}
