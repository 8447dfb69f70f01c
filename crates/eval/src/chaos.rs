//! Chaos sweep: diagnosis accuracy and verdict confidence as functions of
//! control-plane fault rate.
//!
//! Each grid cell runs one scenario under the [`FaultPlan`] of one scalar
//! fault rate (its fault mix is defined in `hawkeye_sim::faults`) with the
//! host agent's re-poll ladder enabled, then records whether the pipeline
//! still detected, diagnosed correctly, and how the verdict's
//! [`Confidence`] degraded. The whole grid is one trial list on the
//! figures' sweep and aggregates in input order, so a sweep is bit-for-bit
//! reproducible from `(rates, seeds)`.
//!
//! [`Confidence`]: hawkeye_core::Confidence

use crate::metrics::Verdict;
use crate::runner::{sweep, RunConfig, RunOutcome, Trial};
use hawkeye_baselines::Method;
use hawkeye_sim::FaultPlan;
use hawkeye_workloads::ScenarioKind;
use serde::{Serialize, Value};

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Fault rates to sweep (fractions, e.g. `0.2` = 20%).
    pub rates: Vec<f64>,
    /// Trials (seeds) per scenario per rate.
    pub trials: usize,
    /// Background load for every scenario.
    pub load: f64,
    pub base_seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            rates: vec![0.0, 0.1, 0.2, 0.3, 0.5],
            trials: 2,
            load: 0.1,
            base_seed: 1,
        }
    }
}

/// Aggregated results at one fault rate, across the scenario matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosCell {
    pub rate: f64,
    /// Total runs at this rate (scenarios × trials).
    pub trials: usize,
    /// Runs where the victim was still detected post-anomaly.
    pub detected: usize,
    /// Runs judged [`Verdict::Correct`].
    pub correct: usize,
    /// Verdicts carrying degraded confidence.
    pub degraded: usize,
    /// Verdicts carrying inconclusive confidence.
    pub inconclusive: usize,
    /// Runs ending in a typed [`DiagnosisError`](hawkeye_core::DiagnosisError).
    pub errors: usize,
    pub faults_injected: u64,
    pub probes_retried: u64,
}

impl ChaosCell {
    fn absorb(&mut self, out: &RunOutcome) {
        self.trials += 1;
        if out.detection.is_some() {
            self.detected += 1;
        }
        if matches!(out.verdict, Some(Verdict::Correct)) {
            self.correct += 1;
        }
        if let Some(r) = &out.report {
            if r.confidence.is_degraded() {
                self.degraded += 1;
            }
            if r.confidence.is_inconclusive() {
                self.inconclusive += 1;
            }
        }
        if out.error.is_some() {
            self.errors += 1;
        }
        self.faults_injected += out.metrics.counter("faults_injected").unwrap_or(0);
        self.probes_retried += out.metrics.counter("probes_retried").unwrap_or(0);
    }

    pub fn accuracy(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.correct as f64 / self.trials as f64
        }
    }
}

impl Serialize for ChaosCell {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("rate".to_string(), Value::Float(self.rate)),
            ("trials".to_string(), Value::UInt(self.trials as u64)),
            ("detected".to_string(), Value::UInt(self.detected as u64)),
            ("correct".to_string(), Value::UInt(self.correct as u64)),
            ("accuracy".to_string(), Value::Float(self.accuracy())),
            ("degraded".to_string(), Value::UInt(self.degraded as u64)),
            (
                "inconclusive".to_string(),
                Value::UInt(self.inconclusive as u64),
            ),
            ("errors".to_string(), Value::UInt(self.errors as u64)),
            (
                "faults_injected".to_string(),
                Value::UInt(self.faults_injected),
            ),
            (
                "probes_retried".to_string(),
                Value::UInt(self.probes_retried),
            ),
        ])
    }
}

/// One row per swept fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    pub cells: Vec<ChaosCell>,
}

impl ChaosReport {
    pub fn to_figure(&self) -> crate::figures::FigureTable {
        crate::figures::FigureTable {
            title: "Diagnosis accuracy vs. control-plane fault rate".to_string(),
            headers: [
                "fault_rate",
                "trials",
                "detected",
                "correct",
                "accuracy",
                "degraded",
                "inconclusive",
                "errors",
                "faults",
                "repolls",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows: self
                .cells
                .iter()
                .map(|c| {
                    vec![
                        format!("{:.0}%", c.rate * 100.0),
                        c.trials.to_string(),
                        c.detected.to_string(),
                        c.correct.to_string(),
                        format!("{:.2}", c.accuracy()),
                        c.degraded.to_string(),
                        c.inconclusive.to_string(),
                        c.errors.to_string(),
                        c.faults_injected.to_string(),
                        c.probes_retried.to_string(),
                    ]
                })
                .collect(),
        }
    }
}

impl Serialize for ChaosReport {
    fn to_value(&self) -> Value {
        Value::Object(vec![(
            "chaos".to_string(),
            Value::Array(self.cells.iter().map(|c| c.to_value()).collect()),
        )])
    }
}

/// Run the full rate × scenario × trial grid across `jobs` workers and
/// aggregate per rate, in input order (bit-reproducible for any `jobs`).
pub fn chaos_sweep(cfg: &ChaosConfig, jobs: usize) -> ChaosReport {
    let mut trials = Vec::new();
    for &rate in &cfg.rates {
        for kind in ScenarioKind::ALL {
            for seed in cfg.base_seed..cfg.base_seed + cfg.trials as u64 {
                let faults = FaultPlan { seed, rate };
                let run = RunConfig {
                    sim_seed: seed,
                    faults,
                    // The re-poll ladder is part of the resilience story
                    // under faults; at rate zero it stays off so that row
                    // IS the fault-free baseline.
                    agent_retry: !faults.is_none(),
                    ..RunConfig::default()
                };
                trials.push(Trial {
                    kind,
                    seed,
                    load: cfg.load,
                    run,
                });
            }
        }
    }
    let outcomes = sweep(jobs, &trials, &[Method::Hawkeye]);
    let per_rate = ScenarioKind::ALL.len() * cfg.trials;
    let cells = cfg
        .rates
        .iter()
        .zip(outcomes.chunks(per_rate.max(1)))
        .map(|(&rate, chunk)| {
            let mut cell = ChaosCell {
                rate,
                ..ChaosCell::default()
            };
            for out in chunk.iter().flatten() {
                cell.absorb(out);
            }
            cell
        })
        .collect();
    ChaosReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_aggregates_and_serializes() {
        let cfg = ChaosConfig {
            rates: vec![0.0, 0.3],
            trials: 1,
            load: 0.0,
            base_seed: 1,
        };
        let rep = chaos_sweep(&cfg, 2);
        assert_eq!(rep.cells.len(), 2);
        assert_eq!(rep.cells[0].rate, 0.0);
        assert_eq!(rep.cells[0].trials, ScenarioKind::ALL.len());
        assert_eq!(
            rep.cells[0].faults_injected, 0,
            "rate 0 must inject nothing"
        );
        assert!(rep.cells[1].faults_injected > 0, "rate 0.3 must inject");
        let js = serde_json::to_string(&rep.to_value()).unwrap();
        assert!(js.contains("\"accuracy\""));
        assert_eq!(rep.to_figure().rows.len(), 2);
    }
}
