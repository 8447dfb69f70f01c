//! # hawkeye-eval
//!
//! Evaluation harness: precision/recall scoring against scenario ground
//! truth, one per-trial runner for Hawkeye and the baselines alike
//! ([`run_methods`]: every offline trial is set up by [`simulate`], once
//! per deployment its methods need, and each method becomes a verdict in
//! [`conclude_trial`] over that one run), and the paper's figures behind
//! one entry point, [`figure`] (`hawkeye figure <id>` prints them). Every
//! sweep, the figures' and [`chaos_sweep`]'s, is one trial list.

pub mod chaos;
pub mod corpus;
pub mod figures;
pub mod fuzz;
pub mod metrics;
pub mod parallel;
pub mod runner;

pub use chaos::{chaos_sweep, ChaosCell, ChaosConfig, ChaosReport};
pub use corpus::{
    diff_cells, golden_from_json, golden_to_json, run_cell, run_corpus, CellDiff, CellKey,
    CellVerdict, CorpusCell, CorpusConfig,
};
pub use figures::{
    fig12_case, figure, optimal_run_config, EvalConfig, FigureTable, FIG12_CASES, FIGURE_IDS,
};
pub use fuzz::{
    bank_from_json, bank_to_json, reverify_bank, run_fuzz, BankedRepro, FuzzConfig, FuzzParams,
    FuzzReport,
};
pub use hawkeye_baselines::Method;
pub use metrics::{judge, PrecisionRecall, ScoreConfig, Verdict};
pub use parallel::{default_jobs, par_map};
pub use runner::{
    conclude_trial, run_method, run_method_obs, run_methods, simulate, victim_window, RunConfig,
    RunOutcome,
};
