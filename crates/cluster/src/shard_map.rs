//! The fleet's routing table: which daemon owns which contiguous
//! switch-id range.
//!
//! A shard map is a small text file an operator writes once per fleet
//! generation:
//!
//! ```text
//! # three-way split of a 12-switch fabric
//! epoch 3
//! 0..4  unix:/var/run/hawkeye/shard0.sock
//! 4..8  tcp:10.0.0.2:7001
//! 8..12 tcp:10.0.0.3:7001
//! ```
//!
//! `epoch` is the map's generation number: the front-end announces it on
//! every `Hello` and a daemon whose `--map-epoch` differs refuses the
//! session with a typed `wrong_shard` error, so a front-end routing under
//! a stale map can never feed a daemon that has moved on. Ranges are
//! half-open (`lo..hi`, exclusive), must be non-empty, and must not
//! overlap — a switch with two owners would make ingest routing
//! ambiguous. Gaps are legal: a switch no shard owns is refused at the
//! front door with the same typed error a daemon would give.

use std::io;
use std::path::{Path, PathBuf};

use hawkeye_client::ShardRange;
use hawkeye_sim::NodeId;

/// How to reach one shard daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendEndpoint {
    /// `unix:/path/to.sock`
    Unix(PathBuf),
    /// `tcp:host:port`
    Tcp(String),
}

impl std::fmt::Display for BackendEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendEndpoint::Unix(p) => write!(f, "unix:{}", p.display()),
            BackendEndpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// One line of the map: a switch-id range and the daemon that owns it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Owned range, with [`ShardRange::epoch`] stamped from the map's
    /// `epoch` line so it can be handed straight to a client's `Hello`.
    pub range: ShardRange,
    pub endpoint: BackendEndpoint,
}

/// A parsed, validated shard map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    /// Map generation; every entry's `range.epoch` equals this.
    pub epoch: u64,
    /// Entries in file order.
    pub shards: Vec<ShardEntry>,
}

impl ShardMap {
    /// Parse the text format. Errors carry the offending line so an
    /// operator can fix the file without reading this source.
    pub fn parse(text: &str) -> Result<ShardMap, String> {
        let mut epoch: Option<u64> = None;
        let mut shards: Vec<ShardEntry> = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |msg: String| format!("shard map line {}: {msg}", lineno + 1);
            if let Some(rest) = line.strip_prefix("epoch") {
                if epoch.is_some() {
                    return Err(err("duplicate epoch line".into()));
                }
                if !shards.is_empty() {
                    return Err(err("epoch must precede the first range".into()));
                }
                epoch = Some(
                    rest.trim()
                        .parse::<u64>()
                        .map_err(|_| err(format!("'{}' is not an epoch number", rest.trim())))?,
                );
                continue;
            }
            let mut parts = line.split_whitespace();
            let (Some(range_s), Some(ep_s), None) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(err(format!(
                    "expected 'LO..HI unix:PATH|tcp:ADDR', got '{line}'"
                )));
            };
            let mut range = ShardRange::parse(range_s).map_err(&err)?;
            range.epoch = 0; // stamped below once the epoch line is known

            // An empty path or address would only fail at connect time,
            // on every request for the shard, with no line to point at.
            let endpoint = match ep_s.split_once(':') {
                Some(("unix", p)) if !p.is_empty() => BackendEndpoint::Unix(PathBuf::from(p)),
                Some(("tcp", a)) if !a.is_empty() => BackendEndpoint::Tcp(a.to_string()),
                Some(("unix" | "tcp", _)) => {
                    return Err(err(format!("endpoint '{ep_s}' names no path or address")))
                }
                _ => return Err(err(format!("'{ep_s}' is not unix:PATH or tcp:ADDR"))),
            };
            shards.push(ShardEntry { range, endpoint });
        }
        if shards.is_empty() {
            return Err("shard map has no ranges".into());
        }
        let epoch = epoch.unwrap_or(0);
        for e in &mut shards {
            e.range.epoch = epoch;
        }
        // Overlap check on a sorted copy; the stored order stays the
        // file's so shard indices are stable for operators.
        let mut sorted: Vec<ShardRange> = shards.iter().map(|e| e.range).collect();
        sorted.sort_by_key(|r| r.lo);
        for w in sorted.windows(2) {
            if w[1].lo < w[0].hi {
                return Err(format!(
                    "shard map ranges {} and {} overlap: a switch may have only one owner",
                    w[0], w[1]
                ));
            }
        }
        Ok(ShardMap { epoch, shards })
    }

    /// Parse a map file from disk.
    pub fn load(path: &Path) -> io::Result<ShardMap> {
        let text = std::fs::read_to_string(path)?;
        ShardMap::parse(&text).map_err(io::Error::other)
    }

    /// Render back to the text format (what `parse` accepts).
    pub fn render(&self) -> String {
        let mut out = format!("epoch {}\n", self.epoch);
        for e in &self.shards {
            out.push_str(&format!("{} {}\n", e.range, e.endpoint));
        }
        out
    }

    /// Index of the shard owning `switch`, or `None` for a gap.
    pub fn owner_of(&self, switch: NodeId) -> Option<usize> {
        self.shards.iter().position(|e| e.range.contains(switch))
    }

    /// An even split of switch ids `[0, n_switches)` across `n_shards`
    /// daemons at `endpoints` — the programmatic constructor tests and
    /// the fleet smoke use. The remainder goes to the last shard.
    pub fn even_split(n_switches: u32, endpoints: Vec<BackendEndpoint>, epoch: u64) -> ShardMap {
        let n = endpoints.len().max(1) as u32;
        let per = (n_switches / n).max(1);
        let shards = endpoints
            .into_iter()
            .enumerate()
            .map(|(i, endpoint)| {
                let lo = (i as u32) * per;
                let hi = if i as u32 == n - 1 {
                    n_switches.max(lo + per)
                } else {
                    lo + per
                };
                ShardEntry {
                    range: ShardRange { lo, hi, epoch },
                    endpoint,
                }
            })
            .collect();
        ShardMap { epoch, shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_epoch_and_both_endpoint_kinds() {
        let m = ShardMap::parse(
            "# a fleet\nepoch 7\n0..4 unix:/tmp/s0.sock # first\n4..8 tcp:127.0.0.1:7001\n",
        )
        .expect("valid map");
        assert_eq!(m.epoch, 7);
        assert_eq!(m.shards.len(), 2);
        assert_eq!(
            m.shards[0].range,
            ShardRange {
                lo: 0,
                hi: 4,
                epoch: 7
            }
        );
        assert_eq!(
            m.shards[0].endpoint,
            BackendEndpoint::Unix(PathBuf::from("/tmp/s0.sock"))
        );
        assert_eq!(
            m.shards[1].endpoint,
            BackendEndpoint::Tcp("127.0.0.1:7001".into())
        );
        assert_eq!(m.owner_of(NodeId(3)), Some(0));
        assert_eq!(m.owner_of(NodeId(4)), Some(1));
        assert_eq!(m.owner_of(NodeId(8)), None);
    }

    #[test]
    fn epoch_defaults_to_zero_and_stamps_ranges() {
        let m = ShardMap::parse("0..2 tcp:a:1\n").expect("valid map");
        assert_eq!(m.epoch, 0);
        assert_eq!(m.shards[0].range.epoch, 0);
    }

    #[test]
    fn render_roundtrips() {
        let m = ShardMap::parse("epoch 2\n0..4 unix:/tmp/x\n4..9 tcp:h:1\n").expect("valid");
        assert_eq!(ShardMap::parse(&m.render()).expect("reparse"), m);
    }

    #[test]
    fn rejects_overlap_garbage_and_empty() {
        assert!(ShardMap::parse("0..4 tcp:a:1\n3..8 tcp:b:1\n")
            .unwrap_err()
            .contains("overlap"));
        assert!(ShardMap::parse("").unwrap_err().contains("no ranges"));
        assert!(ShardMap::parse("4..4 tcp:a:1\n").is_err()); // empty range
        assert!(ShardMap::parse("0..4 http://x\n").is_err());
        assert!(ShardMap::parse("epoch x\n0..4 tcp:a:1\n").is_err());
        assert!(ShardMap::parse("0..4 tcp:a:1\nepoch 2\n").is_err()); // epoch after ranges
        assert!(ShardMap::parse("epoch 1\nepoch 2\n0..4 tcp:a:1\n").is_err());
    }

    #[test]
    fn rejects_empty_endpoints_with_their_line() {
        for ep in ["unix:", "tcp:", "unix: # no path"] {
            let e = ShardMap::parse(&format!("epoch 1\n0..4 {ep}\n")).unwrap_err();
            assert!(
                e.starts_with("shard map line 2: endpoint '") && e.contains("names no"),
                "{ep}: {e}"
            );
        }
    }

    #[test]
    fn even_split_covers_every_switch_once() {
        let eps = (0..3)
            .map(|i| BackendEndpoint::Tcp(format!("h{i}:1")))
            .collect();
        let m = ShardMap::even_split(11, eps, 5);
        for sw in 0..11 {
            assert!(m.owner_of(NodeId(sw)).is_some(), "switch {sw} unowned");
        }
        assert_eq!(m.shards[2].range.hi, 11); // remainder lands on the last
        assert_eq!(m.epoch, 5);
    }
}
