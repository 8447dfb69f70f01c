//! Collie-style deterministic disagreement fuzzer (ROADMAP "search-based
//! scenario fuzzer").
//!
//! From a seed plan, the fuzzer mutates workload, topology, timing and
//! detection parameters around a base operating point (every run is
//! fault-free; control-plane faults are the chaos sweep's axis), runs each
//! mutated scenario
//! through the full Hawkeye pipeline, and hunts for runs where the
//! pipeline's verdict *disagrees* with the scenario's ground truth
//! (anything other than `correct`). Each disagreement is shrunk by
//! parameter bisection toward the base point — the smallest still-failing
//! parameter delta is what a human debugs — re-verified, and banked as a
//! regression cell the corpus checker replays.
//!
//! Everything is deterministic: the mutation stream is a seeded RNG, the
//! simulations are seeded, and shrinking is a pure function of run
//! outcomes, so a plan seed reproduces the entire hunt bit for bit.
//! Degenerate mutated topologies (odd fat-tree arity, too-few pods, …)
//! are rejected by `build_scenario_on`'s typed errors and counted, never
//! crash the sweep.

use crate::corpus::{outcome_to_verdict, CellVerdict};
use crate::metrics::{ScoreConfig, Verdict};
use crate::runner::{run_method, RunConfig};
use hawkeye_baselines::Method;
use hawkeye_obs::{names, MetricKey, MetricsRegistry, MetricsSnapshot};
use hawkeye_sim::Nanos;
use hawkeye_telemetry::EpochConfig;
use hawkeye_workloads::{build_scenario_on, ScenarioKind, ScenarioParams, TopologySpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// Bank-file format version; bump on incompatible layout changes.
pub const BANK_VERSION: u64 = 1;

/// One fully specified fuzzer run: every mutable axis, integer-encoded so
/// bisection and serialization are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzParams {
    pub spec: TopologySpec,
    pub kind: ScenarioKind,
    /// Scenario + simulation seed.
    pub seed: u64,
    /// Background load in 1/1000 of link capacity.
    pub load_milli: u64,
    pub anomaly_at_us: u64,
    pub duration_us: u64,
    /// Telemetry epoch length.
    pub epoch_us: u64,
    /// Detection threshold factor in 1/1000 (2000 = the paper's 200% RTT).
    pub threshold_milli: u64,
}

impl FuzzParams {
    pub fn scenario_params(&self) -> ScenarioParams {
        ScenarioParams {
            seed: self.seed,
            load: self.load_milli as f64 / 1000.0,
            duration: Nanos::from_micros(self.duration_us),
            anomaly_at: Nanos::from_micros(self.anomaly_at_us),
        }
    }

    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            epoch: EpochConfig::for_epoch_len(Nanos::from_micros(self.epoch_us), 2),
            threshold_factor: self.threshold_milli as f64 / 1000.0,
            sim_seed: self.seed,
            ..RunConfig::default()
        }
    }
}

impl serde::Serialize for FuzzParams {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("topo".into(), serde::Value::Str(self.spec.slug())),
            (
                "scenario".into(),
                serde::Value::Str(self.kind.name().into()),
            ),
            ("seed".into(), serde::Value::UInt(self.seed)),
            ("load_milli".into(), serde::Value::UInt(self.load_milli)),
            (
                "anomaly_at_us".into(),
                serde::Value::UInt(self.anomaly_at_us),
            ),
            ("duration_us".into(), serde::Value::UInt(self.duration_us)),
            ("epoch_us".into(), serde::Value::UInt(self.epoch_us)),
            (
                "threshold_milli".into(),
                serde::Value::UInt(self.threshold_milli),
            ),
        ])
    }
}

impl serde::Deserialize for FuzzParams {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let topo: String = serde::Deserialize::from_value(serde::field(v, "topo")?)?;
        let kind: String = serde::Deserialize::from_value(serde::field(v, "scenario")?)?;
        Ok(FuzzParams {
            spec: TopologySpec::parse(&topo)
                .ok_or_else(|| serde::Error::custom(format!("unknown topology slug {topo:?}")))?,
            kind: ScenarioKind::from_name(&kind)
                .ok_or_else(|| serde::Error::custom(format!("unknown scenario {kind:?}")))?,
            seed: serde::Deserialize::from_value(serde::field(v, "seed")?)?,
            load_milli: serde::Deserialize::from_value(serde::field(v, "load_milli")?)?,
            anomaly_at_us: serde::Deserialize::from_value(serde::field(v, "anomaly_at_us")?)?,
            duration_us: serde::Deserialize::from_value(serde::field(v, "duration_us")?)?,
            epoch_us: serde::Deserialize::from_value(serde::field(v, "epoch_us")?)?,
            threshold_milli: serde::Deserialize::from_value(serde::field(v, "threshold_milli")?)?,
        })
    }
}

/// A minimized, re-verified disagreement: the repro and its pinned (wrong)
/// outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankedRepro {
    pub params: FuzzParams,
    pub outcome: CellVerdict,
}

impl serde::Serialize for BankedRepro {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("params".into(), self.params.to_value()),
            ("outcome".into(), self.outcome.to_value()),
        ])
    }
}

impl serde::Deserialize for BankedRepro {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(BankedRepro {
            params: serde::Deserialize::from_value(serde::field(v, "params")?)?,
            outcome: serde::Deserialize::from_value(serde::field(v, "outcome")?)?,
        })
    }
}

/// Fuzzer plan knobs.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Mutated cases to attempt (rejected topologies count against this).
    pub budget: usize,
    /// Plan seed: same seed = same mutation stream = same hunt.
    pub seed: u64,
    /// Base operating point the mutations perturb and shrinking returns
    /// toward.
    pub base: TopologySpec,
    /// Max extra runs spent shrinking each disagreement.
    pub shrink_budget: usize,
    /// Stop banking after this many distinct minimized repros (further
    /// disagreements are still counted, just not shrunk).
    pub max_bank: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            budget: 200,
            seed: 1,
            base: TopologySpec::FatTree { k: 8 },
            shrink_budget: 40,
            max_bank: 3,
        }
    }
}

/// Ground-truth agreement accounting for one (topology, scenario) cell of
/// the mutation space.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellAgreement {
    pub runs: u64,
    pub agree: u64,
}

/// Everything a fuzz hunt produced.
#[derive(Debug)]
pub struct FuzzReport {
    /// Mutated runs completed (excludes rejected topologies).
    pub runs: u64,
    /// Degenerate mutations rejected with a typed build error.
    pub rejected: u64,
    /// Runs whose verdict disagreed with ground truth (pre-shrink).
    pub disagreements: u64,
    /// Extra runs spent shrinking.
    pub shrink_runs: u64,
    /// Minimized repros whose re-verification did not reproduce the
    /// disagreement (0 for a deterministic pipeline).
    pub reverify_failures: u64,
    pub banked: Vec<BankedRepro>,
    /// Per `topo-slug/scenario` agreement accounting.
    pub agreement: BTreeMap<String, CellAgreement>,
    /// Counter snapshot (the `fuzz_*` names in `hawkeye_obs::names`).
    pub metrics: MetricsSnapshot,
}

impl serde::Serialize for FuzzReport {
    fn to_value(&self) -> serde::Value {
        let agreement = serde::Value::Object(
            self.agreement
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        serde::Value::Object(vec![
                            ("runs".into(), serde::Value::UInt(v.runs)),
                            ("agree".into(), serde::Value::UInt(v.agree)),
                        ]),
                    )
                })
                .collect(),
        );
        serde::Value::Object(vec![
            ("runs".into(), serde::Value::UInt(self.runs)),
            ("rejected".into(), serde::Value::UInt(self.rejected)),
            (
                "disagreements".into(),
                serde::Value::UInt(self.disagreements),
            ),
            ("shrink_runs".into(), serde::Value::UInt(self.shrink_runs)),
            (
                "reverify_failures".into(),
                serde::Value::UInt(self.reverify_failures),
            ),
            (
                "banked".into(),
                serde::Value::Array(self.banked.iter().map(|b| b.to_value()).collect()),
            ),
            ("agreement".into(), agreement),
        ])
    }
}

/// The base operating point on `base`: the corpus cell shape (load scaled
/// by host count, 3 ms trial, anomaly at 1 ms, 100 µs epochs, 200% RTT).
pub fn base_params(base: &TopologySpec) -> FuzzParams {
    let load = crate::corpus::BASE_LOAD * 16.0 / base.host_count().max(1) as f64;
    FuzzParams {
        spec: *base,
        kind: ScenarioKind::MicroBurstIncast,
        seed: 1,
        load_milli: (load * 1000.0).round() as u64,
        anomaly_at_us: 1000,
        duration_us: 3000,
        epoch_us: 100,
        threshold_milli: 2000,
    }
}

fn base_k(spec: &TopologySpec) -> usize {
    match *spec {
        TopologySpec::FatTree { k }
        | TopologySpec::FatTreeDegraded { k, .. }
        | TopologySpec::AsymClos { k, .. } => k,
        TopologySpec::LeafSpine { .. } => 8,
    }
}

/// Draw a mutated topology. The menu deliberately includes degenerate
/// members (odd arity, too-few pods) to keep the typed-rejection path
/// exercised.
fn mutate_topology(k: usize, rng: &mut StdRng) -> TopologySpec {
    match rng.gen_range(0..8u32) {
        0 => TopologySpec::FatTree { k: 4 },
        1 => TopologySpec::FatTree { k },
        2 => TopologySpec::FatTreeDegraded {
            k,
            failed: 1 + rng.gen_range(0..4usize),
        },
        3 => TopologySpec::LeafSpine {
            leaves: 8,
            spines: 2,
            hosts_per_leaf: 4,
        },
        4 => TopologySpec::AsymClos {
            k,
            slow_pods: 1 + rng.gen_range(0..2usize),
            slow_divisor: 2 << rng.gen_range(0..2u32),
        },
        5 => TopologySpec::FatTree {
            k: 3 + 2 * rng.gen_range(0..2usize), // odd: rejected
        },
        6 => TopologySpec::LeafSpine {
            leaves: 4, // 2 pods: rejected as too small
            spines: 2,
            hosts_per_leaf: 2,
        },
        _ => TopologySpec::FatTree { k: 8 },
    }
}

/// Mutate 1–3 axes of the base point (plus a fresh kind and seed, which
/// identify the case rather than being shrinkable deltas).
fn mutate(base: &FuzzParams, rng: &mut StdRng) -> FuzzParams {
    let mut p = *base;
    p.kind = ScenarioKind::ALL[rng.gen_range(0..ScenarioKind::ALL.len())];
    p.seed = 1 + rng.gen_range(0..1000u64);
    let axes = 1 + rng.gen_range(0..3usize);
    for _ in 0..axes {
        match rng.gen_range(0..6u32) {
            0 => p.spec = mutate_topology(base_k(&base.spec), rng),
            1 => p.load_milli = [0, 25, 50, 100, 200][rng.gen_range(0..5usize)],
            2 => p.anomaly_at_us = [400, 800, 1000, 1500][rng.gen_range(0..4usize)],
            3 => p.duration_us = [2000, 3000, 4500][rng.gen_range(0..3usize)],
            4 => p.epoch_us = [50, 100, 200, 500][rng.gen_range(0..4usize)],
            _ => p.threshold_milli = [1500, 2000, 3000, 5000][rng.gen_range(0..4usize)],
        }
    }
    p
}

/// Run one parameter point. `Ok((verdict, agrees))`; `Err` is a typed
/// build rejection.
fn run_point(p: &FuzzParams, score: &ScoreConfig) -> Result<(CellVerdict, bool), String> {
    let scenario =
        build_scenario_on(&p.spec, p.kind, p.scenario_params()).map_err(|e| e.to_string())?;
    let out = run_method(&scenario, &p.run_config(), Method::Hawkeye, score);
    let agrees = out.verdict == Some(Verdict::Correct);
    Ok((outcome_to_verdict(&out, score), agrees))
}

/// Shrink a disagreeing point toward the base by axis-at-a-time parameter
/// bisection: for each mutated axis, first try the base value outright
/// (the biggest jump), then bisect the integer gap, keeping whatever still
/// disagrees. Returns the minimized params, the outcome at that point, and
/// the number of runs spent.
fn shrink(
    found: &FuzzParams,
    found_outcome: &CellVerdict,
    base: &FuzzParams,
    budget: usize,
    score: &ScoreConfig,
) -> (FuzzParams, CellVerdict, u64) {
    let mut cur = *found;
    let mut cur_outcome = found_outcome.clone();
    let mut spent = 0u64;
    let try_point = |candidate: &FuzzParams, spent: &mut u64| -> Option<CellVerdict> {
        if *spent >= budget as u64 {
            return None;
        }
        *spent += 1;
        match run_point(candidate, score) {
            Ok((v, false)) => Some(v),
            _ => None,
        }
    };

    // Axis 1: topology — try the base fabric, then halve fat-tree arity.
    if cur.spec != base.spec {
        let mut cand = cur;
        cand.spec = base.spec;
        if let Some(v) = try_point(&cand, &mut spent) {
            cur = cand;
            cur_outcome = v;
        }
    }
    while let TopologySpec::FatTree { k } = cur.spec {
        if k <= 4 {
            break;
        }
        let mut cand = cur;
        cand.spec = TopologySpec::FatTree { k: (k / 2).max(4) };
        match try_point(&cand, &mut spent) {
            Some(v) => {
                cur = cand;
                cur_outcome = v;
            }
            None => break,
        }
    }

    // Integer axes: base-jump then bisection.
    type AxisGet = fn(&FuzzParams) -> u64;
    type AxisSet = fn(&mut FuzzParams, u64);
    for axis in 0..4usize {
        let (get, set): (AxisGet, AxisSet) = match axis {
            0 => (|p| p.load_milli, |p, v| p.load_milli = v),
            1 => (|p| p.anomaly_at_us, |p, v| p.anomaly_at_us = v),
            2 => (|p| p.duration_us, |p, v| p.duration_us = v),
            _ => (|p| p.threshold_milli, |p, v| p.threshold_milli = v),
        };
        let target = get(base);
        if get(&cur) == target {
            continue;
        }
        let mut cand = cur;
        set(&mut cand, target);
        if let Some(v) = try_point(&cand, &mut spent) {
            cur = cand;
            cur_outcome = v;
            continue;
        }
        // Bisect between the base value (known agreeing) and the current
        // (known disagreeing) until the gap closes.
        let (mut lo, mut hi) = (target, get(&cur));
        for _ in 0..4 {
            let mid = lo.midpoint(hi);
            if mid == lo || mid == hi {
                break;
            }
            let mut cand = cur;
            set(&mut cand, mid);
            match try_point(&cand, &mut spent) {
                Some(v) => {
                    hi = mid;
                    cur = cand;
                    cur_outcome = v;
                }
                None => lo = mid,
            }
        }
    }
    // Epoch length is left unshrunk: it is drawn from a fixed menu, not a
    // continuum, and bisecting between menu points lands off-grid.
    (cur, cur_outcome, spent)
}

/// Run the whole hunt.
pub fn run_fuzz(cfg: &FuzzConfig) -> FuzzReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC0111E);
    let base = base_params(&cfg.base);
    let score = ScoreConfig::default();
    let mut reg = MetricsRegistry::new();
    let mut report = FuzzReport {
        runs: 0,
        rejected: 0,
        disagreements: 0,
        shrink_runs: 0,
        reverify_failures: 0,
        banked: Vec::new(),
        agreement: BTreeMap::new(),
        metrics: MetricsSnapshot::default(),
    };
    let mut banked_keys: BTreeSet<(String, String, String)> = BTreeSet::new();

    for _case in 0..cfg.budget {
        let p = mutate(&base, &mut rng);
        let cell = format!("{}/{}", p.spec.slug(), p.kind.name());
        match run_point(&p, &score) {
            Err(_) => {
                report.rejected += 1;
                reg.inc(MetricKey::global(names::FUZZ_TOPOLOGIES_REJECTED));
            }
            Ok((outcome, agrees)) => {
                report.runs += 1;
                reg.inc(MetricKey::global(names::FUZZ_RUNS));
                let ag = report.agreement.entry(cell).or_default();
                ag.runs += 1;
                if agrees {
                    ag.agree += 1;
                    continue;
                }
                report.disagreements += 1;
                reg.inc(MetricKey::global(names::FUZZ_DISAGREEMENTS));
                if report.banked.len() >= cfg.max_bank {
                    continue;
                }
                let (min_p, min_outcome, spent) =
                    shrink(&p, &outcome, &base, cfg.shrink_budget, &score);
                report.shrink_runs += spent;
                reg.add(MetricKey::global(names::FUZZ_SHRINK_RUNS), spent);
                // Re-verify the minimized repro end to end before banking.
                report.shrink_runs += 1;
                reg.add(MetricKey::global(names::FUZZ_SHRINK_RUNS), 1);
                match run_point(&min_p, &score) {
                    Ok((v, false)) if v == min_outcome => {
                        let key = (
                            min_p.spec.slug(),
                            min_p.kind.name().to_string(),
                            v.verdict.clone(),
                        );
                        if banked_keys.insert(key) {
                            report.banked.push(BankedRepro {
                                params: min_p,
                                outcome: v,
                            });
                            reg.inc(MetricKey::global(names::FUZZ_BANKED));
                        }
                    }
                    _ => report.reverify_failures += 1,
                }
            }
        }
    }
    report.metrics = reg.snapshot();
    report
}

/// Serialize banked repros as the bank-file JSON document.
pub fn bank_to_json(repros: &[BankedRepro]) -> String {
    let doc = serde::Value::Object(vec![
        ("version".into(), serde::Value::UInt(BANK_VERSION)),
        (
            "repros".into(),
            serde::Value::Array(repros.iter().map(serde::Serialize::to_value).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("bank serialization is infallible")
}

/// Parse a bank-file JSON document.
pub fn bank_from_json(s: &str) -> Result<Vec<BankedRepro>, String> {
    let v = serde_json::parse(s).map_err(|e| format!("bank file: {e:?}"))?;
    let version: u64 =
        serde::Deserialize::from_value(serde::field(&v, "version").map_err(|e| format!("{e:?}"))?)
            .map_err(|e| format!("bank file: {e:?}"))?;
    if version != BANK_VERSION {
        return Err(format!("bank file version {version} != {BANK_VERSION}"));
    }
    serde::Deserialize::from_value(serde::field(&v, "repros").map_err(|e| format!("{e:?}"))?)
        .map_err(|e| format!("bank file: {e:?}"))
}

/// Replay every banked repro and report the ones whose outcome no longer
/// matches the pin — the corpus checker treats these exactly like golden
/// cell drift.
pub fn reverify_bank(repros: &[BankedRepro], score: &ScoreConfig) -> Vec<(usize, CellVerdict)> {
    let mut drifts = Vec::new();
    for (i, r) in repros.iter().enumerate() {
        let actual = match run_point(&r.params, score) {
            Ok((v, _)) => v,
            Err(e) => CellVerdict {
                verdict: "build-rejected".to_string(),
                anomaly: "none".to_string(),
                confidence: "none".to_string(),
                culprits: vec![],
                injection: vec![e],
            },
        };
        if actual != r.outcome {
            drifts.push((i, actual));
        }
    }
    drifts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_params_round_trip() {
        let p = FuzzParams {
            spec: TopologySpec::FatTreeDegraded { k: 8, failed: 3 },
            kind: ScenarioKind::InLoopDeadlock,
            seed: 42,
            load_milli: 50,
            anomaly_at_us: 800,
            duration_us: 3000,
            epoch_us: 100,
            threshold_milli: 3000,
        };
        let v = serde::Serialize::to_value(&p);
        let back: FuzzParams = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn bank_json_round_trips() {
        let repro = BankedRepro {
            params: base_params(&TopologySpec::FatTree { k: 4 }),
            outcome: CellVerdict {
                verdict: "undetected".to_string(),
                anomaly: "none".to_string(),
                confidence: "none".to_string(),
                culprits: vec![],
                injection: vec![],
            },
        };
        let js = bank_to_json(std::slice::from_ref(&repro));
        let back = bank_from_json(&js).unwrap();
        assert_eq!(back, vec![repro]);
    }

    #[test]
    fn mutation_stream_is_deterministic() {
        let base = base_params(&TopologySpec::FatTree { k: 8 });
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a: Vec<FuzzParams> = (0..50).map(|_| mutate(&base, &mut r1)).collect();
        let b: Vec<FuzzParams> = (0..50).map(|_| mutate(&base, &mut r2)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn mutations_cover_degenerate_topologies() {
        let base = base_params(&TopologySpec::FatTree { k: 8 });
        let mut rng = StdRng::seed_from_u64(11);
        let mut saw_reject = false;
        for _ in 0..200 {
            let p = mutate(&base, &mut rng);
            if p.spec.build().is_err() {
                saw_reject = true;
                break;
            }
        }
        assert!(saw_reject, "degenerate topologies appear in the stream");
    }

    #[test]
    fn tiny_fuzz_hunt_is_deterministic_and_panic_free() {
        let cfg = FuzzConfig {
            budget: 4,
            seed: 3,
            base: TopologySpec::FatTree { k: 4 },
            shrink_budget: 4,
            max_bank: 1,
        };
        let a = run_fuzz(&cfg);
        let b = run_fuzz(&cfg);
        assert_eq!(a.runs + a.rejected, 4);
        assert_eq!(a.runs, b.runs);
        assert_eq!(a.disagreements, b.disagreements);
        assert_eq!(a.banked, b.banked);
        assert_eq!(a.reverify_failures, 0);
        // Counter snapshot mirrors the report.
        assert_eq!(a.metrics.counter_total(names::FUZZ_RUNS), a.runs);
        assert_eq!(
            a.metrics.counter_total(names::FUZZ_TOPOLOGIES_REJECTED),
            a.rejected
        );
    }
}
