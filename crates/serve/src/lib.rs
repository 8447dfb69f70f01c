//! `hawkeye-serve`: the online diagnosis service.
//!
//! Turns the one-shot pipeline (simulate → collect → diagnose → exit) into
//! a long-running monitoring plane, the deployment shape §3.4's
//! controller-assisted collection implies:
//!
//! - [`store`] — epoch-indexed telemetry store with per-switch ring
//!   retention and watermark tracking; the daemon's source of truth.
//! - [`server`] — the multi-threaded daemon: per-connection sessions, a
//!   bounded ingest queue that backpressures, one store thread that owns
//!   the daemon's one store and the
//!   [`IncrementalGraph`](hawkeye_core::IncrementalGraph) over its raw
//!   ring, and one core thread that owns the folded tier, the evidence log
//!   and the audit trail. With a
//!   [`ShardRange`](hawkeye_client::ShardRange) the daemon serves one
//!   shard of a fleet and enforces switch ownership on ingest.
//! - [`listen`] — the listening socket, the process stop signal and the
//!   accept loop that reaps finished sessions, shared with the cluster
//!   front-end.
//! - [`replay`] — end-to-end online diagnosis: run a scenario, send its
//!   collected telemetry into a live daemon in frames, and check
//!   served-vs-one-shot verdict parity.
//! - [`wal`] / [`recovery`] — disk-backed segmented evidence log (CRC32
//!   framing, size-based rotation, checkpoint-coupled retirement) and the
//!   startup replay that lets a `--durable` daemon survive `kill -9`.
//!
//! The frame protocol and its synchronous client live in the standalone
//! [`hawkeye_client`] crate (every frame speaker — CLI, daemon, cluster
//! front-end, external collectors — shares that one implementation) and
//! are imported from there, not from this crate.

pub mod audit;
pub mod compactor;
pub mod listen;
pub mod recovery;
pub mod replay;
pub mod server;
pub mod store;
pub mod wal;

pub use audit::AuditTrail;
pub use compactor::{Compactor, CompactorStats, PendingFold};
// The one `hawkeye_client` name exported here: `benchmark/src/tracegen.rs` imports it.
pub use hawkeye_client::VecSink;
pub use listen::{install_signal_handlers, Endpoint, Listener};
pub use recovery::{recover_and_open, scan, RecoveryReport, Scan, ScannedRecord, WalEntry};
pub use replay::{replay_streaming, replay_streaming_batched, ReplayOutcome, StreamStats};
pub use server::{spawn, spawn_durable, DaemonHandle, ServeConfig};
pub use store::{StoreConfig, StoreStats, SwitchRestore, TelemetryStore};
pub use wal::{FsyncPolicy, Wal, WalConfig, WalStats};
