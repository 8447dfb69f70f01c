//! # hawkeye-cluster
//!
//! Multi-daemon sharded serving: scale the online diagnosis plane past
//! one process by cutting the fabric's switch-id space into contiguous
//! ranges, giving each range to its own `hawkeye serve --shard LO..HI`
//! daemon, and putting a stateless `hawkeye front` router in front.
//!
//! * [`ShardMap`] — the operator-written routing table (`epoch N` +
//!   `LO..HI unix:PATH|tcp:ADDR` lines): who owns which switches, under
//!   which map generation.
//! * [`spawn_front`] / [`FrontHandle`] — the front-end daemon. It speaks
//!   the identical frame protocol as a shard daemon, so every existing
//!   client works against it unchanged: ingest routes by switch id,
//!   `Diagnose` gathers per-shard fragment sets over the `Fragments`
//!   wire op and analyzes the merged evidence through the same
//!   `assemble_graph` path as a monolithic daemon — same graph, same
//!   verdict bytes. A dead shard degrades the verdict's confidence
//!   (its switches are reported missing) instead of failing the query.
//!
//! Safety rails live at both ends: a shard daemon refuses ingest for
//! switches it doesn't own and refuses sessions announcing a different
//! shard-map epoch — both with typed `wrong_shard` errors the front
//! passes through — so a stale or mis-cut map is loud, never silent
//! data misplacement. See DESIGN.md §13.

pub mod front;
pub mod shard_map;

pub use front::{spawn_front, FrontConfig, FrontHandle};
pub use shard_map::{BackendEndpoint, ShardEntry, ShardMap};
