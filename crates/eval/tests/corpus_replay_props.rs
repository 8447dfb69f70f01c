//! Every corpus cell must be replay-deterministic: the same
//! (topology, scenario, seed) coordinate produces a byte-identical
//! serialized verdict no matter how many worker threads the matrix is
//! fanned across. The golden file is only meaningful if this holds —
//! otherwise a pin would encode the scheduler, not the pipeline.

use hawkeye_eval::{golden_to_json, run_corpus, CorpusConfig};
use hawkeye_workloads::{ScenarioKind, TopologySpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A randomly drawn two-cell slice of the matrix serializes to the
    /// same bytes at `--jobs 1`, `2`, and `4`.
    #[test]
    fn corpus_cells_replay_byte_identical_across_job_counts(
        topo_idx in 0usize..2,
        kind_idx in 0usize..ScenarioKind::ALL.len(),
        seed in 1u64..50,
    ) {
        let topos = [
            TopologySpec::FatTree { k: 4 },
            TopologySpec::LeafSpine { leaves: 8, spines: 2, hosts_per_leaf: 4 },
        ];
        let cfg = CorpusConfig {
            topos: vec![topos[topo_idx]],
            kinds: vec![ScenarioKind::ALL[kind_idx]],
            seeds: vec![seed, seed + 1],
        };
        let reference = golden_to_json(&run_corpus(&cfg, 1));
        for jobs in [2usize, 4] {
            let replay = golden_to_json(&run_corpus(&cfg, jobs));
            prop_assert!(
                replay == reference,
                "jobs={} diverged from the sequential reference", jobs
            );
        }
    }
}
