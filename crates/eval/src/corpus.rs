//! Scenario corpus at scale: the topology × scenario × seed matrix, with
//! golden-verdict pinning (ROADMAP "scenario corpus at scale", in the
//! spirit of Chameleon's multi-topology artifact sweep).
//!
//! Every cell runs one `(TopologySpec, ScenarioKind, seed)` triple through
//! the standard Hawkeye pipeline and reduces the outcome to a
//! [`CellVerdict`]: the judged verdict label, the diagnosed anomaly, the
//! confidence grade, and the major culprit/injection sets. The whole
//! matrix is pinned against a committed golden file
//! (`tests/corpus_golden.json`); [`diff_cells`] reports typed,
//! coordinate-addressed differences so any behavioral drift in diagnosis
//! is caught cell by cell rather than as a single opaque failure.
//!
//! Golden cells are regression pins, not accuracy assertions: a cell whose
//! pinned verdict is (say) `missed-culprits` records today's behavior on
//! that fabric so later PRs can only change it consciously.

use crate::figures::optimal_run_config;
use crate::metrics::ScoreConfig;
use crate::parallel::par_map;
use crate::runner::{run_method, RunOutcome};
use hawkeye_baselines::Method;
use hawkeye_core::DiagnosisError;
use hawkeye_sim::Nanos;
use hawkeye_workloads::{build_scenario_on, ScenarioKind, ScenarioParams, TopologySpec};
use std::collections::BTreeMap;
use std::fmt;

/// Golden-file format version; bump on incompatible layout changes.
pub const GOLDEN_VERSION: u64 = 1;

/// Background load of the K=4 baseline cell; other fabrics scale it down
/// by host count so the absolute offered background traffic — and thus the
/// per-cell simulation cost — stays roughly constant across the matrix.
pub const BASE_LOAD: f64 = 0.2;
const BASE_HOSTS: f64 = 16.0;

/// Coordinates of one corpus cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    pub topo: String,
    pub scenario: String,
    pub seed: u64,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/s{}", self.topo, self.scenario, self.seed)
    }
}

/// The pinned observable outcome of one cell: everything `judge` and the
/// confidence grader derive from a run, reduced to stable strings.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CellVerdict {
    /// `correct`, `wrong-anomaly-type`, `missed-culprits`,
    /// `spurious-culprits`, `wrong-injection-host`, `undetected`,
    /// `no-telemetry`, or `build-rejected`.
    pub verdict: String,
    /// Diagnosed anomaly type (`none` when nothing was diagnosed).
    pub anomaly: String,
    /// Confidence grade label (`none` when nothing was diagnosed).
    pub confidence: String,
    /// Major root-cause flows, as sorted `src:port->dst:port/proto` keys.
    pub culprits: Vec<String>,
    /// PFC-injecting hosts named by the diagnosis, as sorted node ids.
    pub injection: Vec<String>,
}

/// One matrix cell: coordinates plus pinned outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCell {
    pub key: CellKey,
    pub verdict: CellVerdict,
}

impl serde::Serialize for CorpusCell {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("topo".into(), serde::Value::Str(self.key.topo.clone())),
            (
                "scenario".into(),
                serde::Value::Str(self.key.scenario.clone()),
            ),
            ("seed".into(), serde::Value::UInt(self.key.seed)),
            ("outcome".into(), self.verdict.to_value()),
        ])
    }
}

impl serde::Deserialize for CorpusCell {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(CorpusCell {
            key: CellKey {
                topo: serde::Deserialize::from_value(serde::field(v, "topo")?)?,
                scenario: serde::Deserialize::from_value(serde::field(v, "scenario")?)?,
                seed: serde::Deserialize::from_value(serde::field(v, "seed")?)?,
            },
            verdict: serde::Deserialize::from_value(serde::field(v, "outcome")?)?,
        })
    }
}

/// The matrix to run.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    pub topos: Vec<TopologySpec>,
    pub kinds: Vec<ScenarioKind>,
    pub seeds: Vec<u64>,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            topos: TopologySpec::corpus(),
            kinds: ScenarioKind::ALL.to_vec(),
            seeds: vec![1, 2, 3],
        }
    }
}

/// Scenario parameters for a corpus cell on `spec`: the default trial
/// shape with background load scaled by host count.
pub fn cell_params(spec: &TopologySpec, seed: u64) -> ScenarioParams {
    ScenarioParams {
        seed,
        load: BASE_LOAD * BASE_HOSTS / spec.host_count().max(1) as f64,
        duration: Nanos::from_millis(3),
        anomaly_at: Nanos::from_millis(1),
    }
}

fn verdict_label(out: &RunOutcome) -> String {
    match (&out.verdict, &out.error) {
        (Some(v), _) => match v {
            crate::metrics::Verdict::Correct => "correct",
            crate::metrics::Verdict::WrongAnomalyType => "wrong-anomaly-type",
            crate::metrics::Verdict::MissedCulprits => "missed-culprits",
            crate::metrics::Verdict::SpuriousCulprits => "spurious-culprits",
            crate::metrics::Verdict::WrongInjectionHost => "wrong-injection-host",
        }
        .to_string(),
        (None, Some(DiagnosisError::NoDetection { .. })) => "undetected".to_string(),
        (None, Some(DiagnosisError::NoTelemetry { .. })) => "no-telemetry".to_string(),
        (None, None) => "no-verdict".to_string(),
    }
}

/// Reduce a run outcome to its pinned cell verdict.
pub fn outcome_to_verdict(out: &RunOutcome, score: &ScoreConfig) -> CellVerdict {
    let (anomaly, confidence, culprits, injection) = match &out.report {
        Some(r) => {
            let mut culprits: Vec<String> = r
                .major_root_cause_flows(score.major_frac)
                .iter()
                .map(|f| f.to_string())
                .collect();
            culprits.sort();
            let mut injection: Vec<String> = r
                .injection_peers()
                .iter()
                .map(|n| n.0.to_string())
                .collect();
            injection.sort();
            (
                format!("{:?}", r.anomaly),
                r.confidence.label().to_string(),
                culprits,
                injection,
            )
        }
        None => ("none".to_string(), "none".to_string(), vec![], vec![]),
    };
    CellVerdict {
        verdict: verdict_label(out),
        anomaly,
        confidence,
        culprits,
        injection,
    }
}

/// Run one corpus cell. A topology the scenario cannot be scripted on
/// yields a `build-rejected` pin rather than an error: the rejection
/// itself is a regression-guarded behavior.
pub fn run_cell(
    spec: &TopologySpec,
    kind: ScenarioKind,
    seed: u64,
    score: &ScoreConfig,
) -> CorpusCell {
    let key = CellKey {
        topo: spec.slug(),
        scenario: kind.name().to_string(),
        seed,
    };
    let verdict = match build_scenario_on(spec, kind, cell_params(spec, seed)) {
        Ok(scenario) => {
            let cfg = optimal_run_config(seed);
            let out = run_method(&scenario, &cfg, Method::Hawkeye, score);
            outcome_to_verdict(&out, score)
        }
        Err(_) => CellVerdict {
            verdict: "build-rejected".to_string(),
            anomaly: "none".to_string(),
            confidence: "none".to_string(),
            culprits: vec![],
            injection: vec![],
        },
    };
    CorpusCell { key, verdict }
}

/// Run the full matrix on the parallel trial runner. Output order is
/// deterministic (sorted by cell coordinates) regardless of `jobs`.
pub fn run_corpus(cfg: &CorpusConfig, jobs: usize) -> Vec<CorpusCell> {
    let mut specs = Vec::new();
    for topo in &cfg.topos {
        for &kind in &cfg.kinds {
            for &seed in &cfg.seeds {
                specs.push((*topo, kind, seed));
            }
        }
    }
    let score = ScoreConfig::default();
    let mut cells = par_map(jobs, &specs, |(topo, kind, seed)| {
        run_cell(topo, *kind, *seed, &score)
    });
    cells.sort_by(|a, b| a.key.cmp(&b.key));
    cells
}

/// Serialize a cell list as the golden-file JSON document.
pub fn golden_to_json(cells: &[CorpusCell]) -> String {
    let doc = serde::Value::Object(vec![
        ("version".into(), serde::Value::UInt(GOLDEN_VERSION)),
        (
            "cells".into(),
            serde::Value::Array(cells.iter().map(serde::Serialize::to_value).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("golden serialization is infallible")
}

/// Parse a golden-file JSON document.
pub fn golden_from_json(s: &str) -> Result<Vec<CorpusCell>, String> {
    let v = serde_json::parse(s).map_err(|e| format!("golden file: {e:?}"))?;
    let version: u64 = serde::Deserialize::from_value(
        serde::field(&v, "version").map_err(|e| format!("golden file: {e:?}"))?,
    )
    .map_err(|e| format!("golden file: {e:?}"))?;
    if version != GOLDEN_VERSION {
        return Err(format!(
            "golden file version {version} != supported {GOLDEN_VERSION}"
        ));
    }
    let cells: Vec<CorpusCell> = serde::Deserialize::from_value(
        serde::field(&v, "cells").map_err(|e| format!("golden file: {e:?}"))?,
    )
    .map_err(|e| format!("golden file: {e:?}"))?;
    Ok(cells)
}

/// One typed difference between a golden and an actual cell set. Every
/// variant carries the cell coordinates, so a drift report names exactly
/// which (topology, scenario, seed) moved and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellDiff {
    /// Pinned in the golden file but absent from this run.
    Missing { key: CellKey },
    /// Produced by this run but not pinned in the golden file.
    Unexpected { key: CellKey },
    /// Pinned and produced, but a field changed.
    Changed {
        key: CellKey,
        field: &'static str,
        golden: String,
        actual: String,
    },
}

impl CellDiff {
    pub fn key(&self) -> &CellKey {
        match self {
            CellDiff::Missing { key } | CellDiff::Unexpected { key } => key,
            CellDiff::Changed { key, .. } => key,
        }
    }
}

impl fmt::Display for CellDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellDiff::Missing { key } => write!(f, "{key}: pinned in golden, not produced"),
            CellDiff::Unexpected { key } => write!(f, "{key}: produced, not pinned in golden"),
            CellDiff::Changed {
                key,
                field,
                golden,
                actual,
            } => write!(
                f,
                "{key}: {field} changed: golden {golden:?} -> actual {actual:?}"
            ),
        }
    }
}

fn field_diffs(key: &CellKey, golden: &CellVerdict, actual: &CellVerdict, out: &mut Vec<CellDiff>) {
    let pairs: [(&'static str, String, String); 5] = [
        ("verdict", golden.verdict.clone(), actual.verdict.clone()),
        ("anomaly", golden.anomaly.clone(), actual.anomaly.clone()),
        (
            "confidence",
            golden.confidence.clone(),
            actual.confidence.clone(),
        ),
        (
            "culprits",
            golden.culprits.join(","),
            actual.culprits.join(","),
        ),
        (
            "injection",
            golden.injection.join(","),
            actual.injection.join(","),
        ),
    ];
    for (field, g, a) in pairs {
        if g != a {
            out.push(CellDiff::Changed {
                key: key.clone(),
                field,
                golden: g,
                actual: a,
            });
        }
    }
}

/// Diff an actual cell set against the golden pins.
///
/// `subset` mode compares only the coordinates the run actually produced —
/// the check.sh smoke runs a small matrix slice against the full golden
/// file, where golden-only cells are simply out of scope. A full check
/// (`subset = false`) also reports golden cells the run no longer covers.
pub fn diff_cells(golden: &[CorpusCell], actual: &[CorpusCell], subset: bool) -> Vec<CellDiff> {
    let gmap: BTreeMap<&CellKey, &CellVerdict> =
        golden.iter().map(|c| (&c.key, &c.verdict)).collect();
    let amap: BTreeMap<&CellKey, &CellVerdict> =
        actual.iter().map(|c| (&c.key, &c.verdict)).collect();
    let mut diffs = Vec::new();
    for (key, averdict) in &amap {
        match gmap.get(*key) {
            None => diffs.push(CellDiff::Unexpected {
                key: (*key).clone(),
            }),
            Some(gverdict) => field_diffs(key, gverdict, averdict, &mut diffs),
        }
    }
    if !subset {
        for key in gmap.keys() {
            if !amap.contains_key(*key) {
                diffs.push(CellDiff::Missing {
                    key: (*key).clone(),
                });
            }
        }
    }
    diffs.sort_by(|a, b| a.key().cmp(b.key()));
    diffs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(topo: &str, scenario: &str, seed: u64, verdict: &str) -> CorpusCell {
        CorpusCell {
            key: CellKey {
                topo: topo.to_string(),
                scenario: scenario.to_string(),
                seed,
            },
            verdict: CellVerdict {
                verdict: verdict.to_string(),
                anomaly: "PfcStorm".to_string(),
                confidence: "complete".to_string(),
                culprits: vec!["1:500->2:4791/UDP".to_string()],
                injection: vec!["7".to_string()],
            },
        }
    }

    #[test]
    fn golden_json_round_trips() {
        let cells = vec![
            cell("ft4", "pfc-storm", 1, "correct"),
            cell("ls8x2x4", "in-loop-deadlock", 3, "missed-culprits"),
        ];
        let js = golden_to_json(&cells);
        let back = golden_from_json(&js).unwrap();
        assert_eq!(back, cells);
    }

    #[test]
    fn golden_version_mismatch_rejected() {
        let js = r#"{"version": 999, "cells": []}"#;
        assert!(golden_from_json(js).is_err());
    }

    #[test]
    fn diff_reports_cell_coordinates_on_mismatch() {
        let golden = vec![
            cell("ft4", "pfc-storm", 1, "correct"),
            cell("ft8", "pfc-storm", 2, "correct"),
        ];
        let mut actual = golden.clone();
        actual[1].verdict.verdict = "wrong-anomaly-type".to_string();
        actual[1]
            .verdict
            .culprits
            .push("9:600->3:4791/UDP".to_string());

        let diffs = diff_cells(&golden, &actual, false);
        assert_eq!(diffs.len(), 2);
        for d in &diffs {
            // Every reported diff is addressed to the changed cell.
            assert_eq!(d.key().topo, "ft8");
            assert_eq!(d.key().scenario, "pfc-storm");
            assert_eq!(d.key().seed, 2);
            let msg = d.to_string();
            assert!(msg.contains("ft8/pfc-storm/s2"), "coordinates in {msg:?}");
        }
        assert!(matches!(
            &diffs[0],
            CellDiff::Changed {
                field: "verdict",
                ..
            } | CellDiff::Changed {
                field: "culprits",
                ..
            }
        ));
    }

    #[test]
    fn diff_subset_ignores_uncovered_golden_cells() {
        let golden = vec![
            cell("ft4", "pfc-storm", 1, "correct"),
            cell("ft16", "pfc-storm", 1, "correct"),
        ];
        let actual = vec![cell("ft4", "pfc-storm", 1, "correct")];
        assert!(diff_cells(&golden, &actual, true).is_empty());
        let full = diff_cells(&golden, &actual, false);
        assert_eq!(full.len(), 1);
        assert!(matches!(&full[0], CellDiff::Missing { key } if key.topo == "ft16"));
    }

    #[test]
    fn unexpected_cells_are_drift() {
        let golden = vec![cell("ft4", "pfc-storm", 1, "correct")];
        let actual = vec![
            cell("ft4", "pfc-storm", 1, "correct"),
            cell("ft4", "pfc-storm", 99, "correct"),
        ];
        let diffs = diff_cells(&golden, &actual, true);
        assert_eq!(diffs.len(), 1);
        assert!(matches!(&diffs[0], CellDiff::Unexpected { key } if key.seed == 99));
    }

    #[test]
    fn corpus_runs_a_tiny_slice_deterministically() {
        let cfg = CorpusConfig {
            topos: vec![TopologySpec::EVAL],
            kinds: vec![ScenarioKind::PfcStorm],
            seeds: vec![1],
        };
        let a = run_corpus(&cfg, 1);
        let b = run_corpus(&cfg, 2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].key.topo, "ft4");
        assert_eq!(a[0].verdict.verdict, "correct");
    }
}
