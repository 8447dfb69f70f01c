//! `offline-corpus`: the researcher's path, seed → verdict, through
//! `hawkeye_eval::corpus::run_cell` alone. One thread, sequential, fixed
//! work: every (topology, scenario, seed) cell of the golden file once.

use crate::host::{HostGauge, HostReading};
use crate::span::SpanLog;
use crate::stats;
use hawkeye_eval::{golden_from_json, run_cell, CorpusCell, ScoreConfig};
use hawkeye_workloads::{ScenarioKind, TopologySpec};
use std::collections::BTreeMap;
use std::time::Instant;

/// Read at compile time: no file access once the program runs, and a
/// golden-file change rebuilds the benchmark.
const GOLDEN_JSON: &str = include_str!("../../tests/corpus_golden.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellSpec {
    pub topo: TopologySpec,
    pub kind: ScenarioKind,
    pub seed: u64,
}

/// The simulator seeds of the corpus matrix: the golden file's own, so
/// every run re-validates every pin.
pub const CORPUS_SEEDS: std::ops::RangeInclusive<u64> = 1..=3;

/// The corpus matrix — exactly the golden file's 108 cells — in an order
/// that is a function of `order_seed` only: shuffled so that a slow phase
/// of the host does not line up with one topology group.
pub fn cell_order(order_seed: u64) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for topo in TopologySpec::corpus() {
        for kind in ScenarioKind::ALL {
            for seed in CORPUS_SEEDS {
                cells.push(CellSpec { topo, kind, seed });
            }
        }
    }
    stats::shuffle(&mut cells, order_seed);
    cells
}

pub fn golden() -> BTreeMap<String, CorpusCell> {
    golden_from_json(GOLDEN_JSON)
        .expect("tests/corpus_golden.json parses")
        .into_iter()
        .map(|c| (c.key.to_string(), c))
        .collect()
}

/// One warm-up pass: the six ft4 cells at the first corpus seed. Fills
/// allocator arenas and instruction caches on the exact code path.
pub fn warm_up() {
    let score = ScoreConfig::default();
    for kind in ScenarioKind::ALL {
        std::hint::black_box(run_cell(
            &TopologySpec::EVAL,
            kind,
            *CORPUS_SEEDS.start(),
            &score,
        ));
    }
}

#[derive(Debug, Default)]
pub struct OfflineResult {
    pub cells: usize,
    /// Cells judged `correct` against simulator ground truth.
    pub correct_cells: usize,
    /// Cells that differ from their pin in the golden file, or have none.
    pub golden_drift: Vec<String>,
    pub cell_wall_ns: Vec<u64>,
    /// The host, read after every cell — context only: this workload's
    /// numbers are not normalised.
    pub readings: Vec<HostReading>,
}

/// Run `cells` once each, in order, timing every call.
pub fn run(
    cells: &[CellSpec],
    golden: &BTreeMap<String, CorpusCell>,
    gauge: &mut HostGauge,
    log: &mut SpanLog,
) -> OfflineResult {
    let score = ScoreConfig::default();
    let t0 = Instant::now();
    let mut out = OfflineResult {
        cells: cells.len(),
        ..Default::default()
    };
    for (i, c) in cells.iter().enumerate() {
        let t = Instant::now();
        let cell = log.leaf("eval.corpus.run_cell", i as u64, 1, || {
            run_cell(&c.topo, c.kind, c.seed, &score)
        });
        out.cell_wall_ns.push(t.elapsed().as_nanos() as u64);
        if let Err(e) = gauge.read(t0, 1) {
            out.golden_drift.push(format!("host reading: {e}"));
        }
        if cell.verdict.verdict == "correct" {
            out.correct_cells += 1;
        }
        match golden.get(&cell.key.to_string()) {
            Some(pin) if pin.verdict == cell.verdict => {}
            Some(pin) => out.golden_drift.push(format!(
                "{}: golden {:?} -> actual {:?}",
                cell.key, pin.verdict, cell.verdict
            )),
            None => out
                .golden_drift
                .push(format!("{}: no pin in the golden file", cell.key)),
        }
    }
    out.readings = gauge.take();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_order_is_a_permutation_fixed_by_the_seed() {
        let a = cell_order(11);
        assert_eq!(a.len(), 108);
        assert_eq!(a, cell_order(11));
        assert_ne!(a, cell_order(12));
        // Same multiset as the unshuffled matrix.
        for topo in TopologySpec::corpus() {
            for kind in ScenarioKind::ALL {
                for seed in CORPUS_SEEDS {
                    let c = CellSpec { topo, kind, seed };
                    assert_eq!(a.iter().filter(|x| **x == c).count(), 1);
                }
            }
        }
    }

    #[test]
    fn golden_file_holds_the_108_pins_and_its_own_correct_count() {
        let g = golden();
        assert_eq!(g.len(), 108);
        let correct = g
            .values()
            .filter(|c| c.verdict.verdict == "correct")
            .count();
        assert_eq!(correct, 94);
    }
}
