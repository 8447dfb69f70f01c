//! Mutation fuzzing of the shard-map text parser. Seeds are the module
//! doc's example map and `even_split` renders; each mutant is one to four
//! byte flips, truncations and insertions of the parser's own tokens
//! (`#`, `..`, `epoch`, whitespace). `ShardMap::parse` must never panic,
//! and every map it accepts must be valid and survive
//! `parse(render(m)) == m`. Deterministic: a fixed-seed generator, so a
//! failure names its input and reproduces on every run.

use hawkeye_cluster::{BackendEndpoint, ShardMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// The example map of `shard_map.rs`'s module doc.
const DOC_MAP: &str = "# three-way split of a 12-switch fabric
epoch 3
0..4  unix:/var/run/hawkeye/shard0.sock
4..8  tcp:10.0.0.2:7001
8..12 tcp:10.0.0.3:7001
";

/// Tokens the parser gives meaning to, inserted whole.
const TOKENS: [&str; 9] = [
    "#",
    "..",
    "epoch",
    "epoch 7\n",
    " ",
    "\t",
    "\n",
    "\r\n",
    "\u{a0}",
];

/// SplitMix64: enough randomness for mutation, no dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn seeds() -> Vec<String> {
    let mut out = vec![DOC_MAP.to_string()];
    for (n_switches, n_shards, epoch) in [(12, 3, 3), (20, 2, 0), (5, 4, 9), (1024, 1, 42)] {
        let eps = (0..n_shards)
            .map(|i| match i % 2 {
                0 => BackendEndpoint::Unix(PathBuf::from(format!("/tmp/shard{i}.sock"))),
                _ => BackendEndpoint::Tcp(format!("127.0.0.1:{}", 7000 + i)),
            })
            .collect();
        out.push(ShardMap::even_split(n_switches, eps, epoch).render());
    }
    out
}

fn mutate(seed: &str, rng: &mut Rng) -> String {
    let mut b = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.below(4) {
        let at = rng.below(b.len() + 1);
        match rng.below(4) {
            0 if !b.is_empty() => {
                let i = at.min(b.len() - 1);
                b[i] ^= 1 << rng.below(8);
            }
            1 => b.truncate(at),
            _ => {
                let tok = TOKENS[rng.below(TOKENS.len())].as_bytes();
                b.splice(at..at, tok.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

/// What an accepted map promises its users.
fn check_accepted(text: &str, m: &ShardMap) {
    assert!(
        !m.shards.is_empty(),
        "accepted a map with no ranges: {text:?}"
    );
    for e in &m.shards {
        assert!(e.range.lo < e.range.hi, "empty range in {text:?}");
        assert_eq!(e.range.epoch, m.epoch, "unstamped range in {text:?}");
        let empty = match &e.endpoint {
            BackendEndpoint::Unix(p) => p.as_os_str().is_empty(),
            BackendEndpoint::Tcp(a) => a.is_empty(),
        };
        assert!(!empty, "accepted an empty endpoint: {text:?}");
    }
    let mut ranges: Vec<_> = m.shards.iter().map(|e| e.range).collect();
    ranges.sort_by_key(|r| r.lo);
    for w in ranges.windows(2) {
        assert!(w[0].hi <= w[1].lo, "accepted overlapping ranges: {text:?}");
    }
    assert_eq!(
        ShardMap::parse(&m.render()).as_ref(),
        Ok(m),
        "render of {text:?} does not parse back to the same map"
    );
}

#[test]
fn mutated_maps_never_panic_and_accepted_maps_round_trip() {
    let mut rng = Rng(0x5eed_5a4d);
    let (mut accepted, mut refused) = (0usize, 0usize);
    for seed in seeds() {
        let m = ShardMap::parse(&seed).expect("every seed is a valid map");
        check_accepted(&seed, &m);
        for _ in 0..4000 {
            let text = mutate(&seed, &mut rng);
            let parsed = catch_unwind(AssertUnwindSafe(|| ShardMap::parse(&text)))
                .unwrap_or_else(|_| panic!("parse panicked on {text:?}"));
            match parsed {
                Ok(m) => {
                    check_accepted(&text, &m);
                    accepted += 1;
                }
                Err(e) => {
                    assert!(
                        e.starts_with("shard map "),
                        "untyped error {e:?} for {text:?}"
                    );
                    refused += 1;
                }
            }
        }
    }
    // Both sides of the parser were exercised.
    assert!(
        accepted > 1000 && refused > 1000,
        "{accepted} accepted, {refused} refused"
    );
}
