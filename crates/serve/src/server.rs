//! The `hawkeye serve` daemon: a multi-threaded diagnosis service whose
//! state is coordinated by **ownership and messages**, nothing else.
//!
//! ```text
//!  accept loop ─Export──────────────┐
//!                                   ▼
//!  session ─Ingest / Snapshots(w)/▶ shard worker i ─Applied / Export─▶ core
//!     │     FlowHistory / Stats    owns TelemetryStore i              owns engine,
//!     │                                                               folded tier,
//!     └────Verdict / Explain / FlowHistory / Stats──────────────────▶ WAL, audit
//! ```
//!
//! `Ingest` and `Applied` each carry a **frame slice** — the snapshots of
//! one `IngestBatch` frame that belong to one shard, in frame order: one
//! message per shard per frame from socket to core, whatever the frame
//! size (a single snapshot is a frame of one).
//!
//! - One **accept loop** (the daemon thread) polls the listener, spawns
//!   one **session thread** per connection, and — when the core raises
//!   its flag — asks every worker to export for a checkpoint round.
//! - **Sessions** decode request frames and route `IngestBatch` by
//!   `switch id % shards` into bounded per-shard queues once the whole
//!   frame passed the shard-ownership gate.
//!   A full queue **backpressures**: the session blocks, the client's
//!   credit window (granted on `Hello`, replenished by every ack) empties,
//!   and the producer slows to the slowest shard's pace with zero loss.
//! - **Shard worker** *i* owns [`TelemetryStore`] partition *i* outright.
//!   It appends a slice in order and forwards one `Applied` (the slice,
//!   the ring evictions the appends staged, the journal record that rode
//!   in with it, the store's horizon and watermark) to the core. Reads of
//!   the raw ring — `Diagnose`, `Fragments`, `FlowHistory`, `Stats` — are
//!   request messages on the same queue, answered from the owned store;
//!   `Diagnose` and `Fragments` carry their window, so a worker clones
//!   only the epochs the window overlaps, never its whole ring.
//! - The single **core thread** owns the [`IncrementalProvenance`] engine,
//!   the folded tier ([`Compactor`]), the evidence log ([`Wal`]) and the
//!   [`AuditTrail`]. Per slice it applies every snapshot to the engine,
//!   absorbs the folds, retires the engine behind the fleet-minimum store
//!   horizon (so store and engine age out telemetry in lockstep, see
//!   `tests/retention.rs`) and appends the journal record — each once.
//!
//! **Messages travel one way only: session → shard worker → core.**
//! Replies come back on a per-request rendezvous channel. No owner ever
//! waits on a thread upstream of it — the core never sends to a worker, a
//! worker never sends to a session except as a reply — so the wait-for
//! relation between threads is acyclic and the plane cannot deadlock
//! (`tests/lock_order.rs` hammers it anyway). Because every queue is FIFO
//! the request *is* the barrier: a worker answers a query only after every
//! slice queued before it, and the core answers only after every
//! `Applied` those appends forwarded. `Diagnose` therefore waits for the
//! workers' appends but not for the engine applies behind them — it reads
//! its window of the raw ring only, and the store's canonical form makes
//! the verdict identical to the one-shot path on the same telemetry (see
//! `tests/serve_e2e.rs`).
//!
//! The [`MetricsRegistry`] and the flight ring are the only shared state:
//! one leaf mutex each, written by sessions and the core, and nothing is
//! ever acquired while one is held. Counters (`epochs_ingested`,
//! `incremental_updates`, `serve_sessions`, …) are reported over `Stats`;
//! per-op latency histograms, stage timings, health gauges and the flight
//! ring ride the `Metrics` request, and every `Diagnose` journals an
//! [`ExplainRecord`] queryable over `Explain`. All of it is gated on
//! [`ServeConfig::obs`] so the instrumented hot path stays within a few
//! percent of the bare one (`tests/obs_e2e.rs` pins off == byte-identical).

use crate::audit::AuditTrail;
use crate::compactor::{Compactor, PendingFold};
use crate::listen::{serve_session, stop_signalled, Endpoint, FLIGHT_CAPACITY};
use crate::recovery::{recover_and_open, RecoveryReport};
use crate::store::{StoreConfig, SwitchRestore, TelemetryStore};
use crate::wal::{
    encode_audit_checkpoint, encode_switch_checkpoint, AuditCheckpoint, SwitchCheckpoint, Wal,
    WalConfig, WalStats, REC_BATCH, REC_CKPT_AUDIT, REC_CKPT_BEGIN, REC_CKPT_END, REC_CKPT_SWITCH,
    REC_VERDICT,
};
use hawkeye_client::proto::{
    check_evidence, DiagnoseParams, Request, Response, WRONG_SHARD_PREFIX,
};
use hawkeye_client::{AnyStream, ExplainRecord, FlowObservation, ShardRange};
use hawkeye_core::{
    analyze_victim_window_obs, AnalyzerConfig, AnomalyType, Confidence, DiagnosisReport,
    IncrementalProvenance, ReplayConfig, RootCause, Window,
};
use hawkeye_obs::flight as flight_kind;
use hawkeye_obs::names::{
    COMPACTOR_QUEUE_DEPTH, CREDITS_OUTSTANDING, INGEST_BATCHES, INGEST_WRONG_SHARD, OP_DIAGNOSE_NS,
    OP_EXPLAIN_NS, OP_FLOW_HISTORY_NS, OP_FRAGMENTS_NS, OP_INGEST_BATCH_NS, OP_METRICS_NS,
    OP_STATS_NS, RECOVERY_TRUNCATED, RETENTION_LAG_NS, SHARD_QUEUE_DEPTH, SHARD_WATERMARK_LAG_NS,
    SLOW_OPS, STAGE_APPEND_NS, STAGE_ENGINE_APPLY_NS, STAGE_FOLD_NS, STAGE_RETIRE_NS, WAL_BYTES,
    WAL_RECORDS_APPENDED, WAL_SEGMENTS_RETIRED, WATERMARK_LAG_WARNS,
};
use hawkeye_obs::{FlightRecorder, MetricKey, MetricsRegistry, ObsConfig, Recorder, Stage};
use hawkeye_sim::{FlowKey, Nanos, NodeId, Topology};
use hawkeye_telemetry::{encode_batch, TelemetrySnapshot};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

pub use hawkeye_obs::names::{
    ENGINE_EPOCHS_RETIRED, EPOCHS_INGESTED, INCREMENTAL_UPDATES, SERVE_SESSIONS,
};

/// Daemon tuning.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    pub store: StoreConfig,
    pub replay: ReplayConfig,
    pub analyzer: AnalyzerConfig,
    /// Ingest shards (worker threads + store partitions).
    pub shards: usize,
    /// Bounded depth of each shard's ingest queue, in frame slices (one
    /// frame's snapshots for that shard: at most the batch size); a full
    /// queue blocks the session (backpressure).
    pub queue_depth: usize,
    /// Master switch for serve-plane observability: per-op latency
    /// histograms, stage timings, health gauges, the flight ring and the
    /// verdict audit trail. Off = the bare hot path.
    pub obs: bool,
    /// Credit window granted per session on `Hello`: the maximum
    /// un-acknowledged snapshots a pipelining client may have in flight.
    pub session_credits: u32,
    /// Artificial per-snapshot delay (wall ns) in every shard worker — the
    /// "deliberately slow shard" knob for backpressure tests (and the CLI's
    /// `--slow-shard-us`); 0 in production.
    pub ingest_delay_ns: u64,
    /// The contiguous switch-id range this daemon owns when it serves one
    /// shard of a fleet (`hawkeye serve --shard LO..HI`). Ingest for a
    /// switch outside the range is refused with a typed `wrong_shard`
    /// error — never silently stored against stale ownership — and a
    /// Hello announcing a different shard-map epoch is refused the same
    /// way. `None` (the default) is the monolithic daemon: every switch
    /// is owned and Hello epochs are not checked.
    pub shard_range: Option<ShardRange>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            store: StoreConfig::default(),
            replay: ReplayConfig::default(),
            analyzer: AnalyzerConfig::for_epoch_len(Nanos::from_micros(100)),
            shards: 4,
            queue_depth: 256,
            obs: true,
            session_credits: 64,
            ingest_delay_ns: 0,
            shard_range: None,
        }
    }
}

/// Audit-trail ring capacity (explain records).
const AUDIT_CAPACITY: usize = 64;

/// A shard lagging more than this (sim-time ns) behind the fleet-max
/// watermark records a WARNING flight event. Generous, so fault-free
/// replays stay warning-free.
const LAG_WARN_NS: u64 = 1_000_000_000;

/// A frame's evidence-log record (`REC_BATCH`) riding the ingest path:
/// the received frame body — never a re-encode.
type JournalRecord = Vec<u8>;

/// Messages to a shard worker, the owner of one store partition.
enum ShardMsg {
    /// One frame's snapshots for this shard, in frame order, plus (on a
    /// `--durable` daemon, on one slice of the frame) the journal record
    /// the frame settles. The record rides the shard queue and the
    /// worker's `Applied` instead of a message of its own, so durable
    /// ingest wakes exactly the threads durability-off ingest does.
    Ingest(Vec<TelemetrySnapshot>, Option<JournalRecord>),
    /// The partition's canonical per-switch snapshots, restricted to the
    /// epochs overlapping the window (`Diagnose`, `Fragments`).
    Snapshots(Window, SyncSender<Vec<TelemetrySnapshot>>),
    /// Raw-ring rows for one flow (unsorted; the session merges).
    FlowHistory(FlowKey, SyncSender<Vec<FlowObservation>>),
    /// The partition's share of the `Stats` totals.
    Stats(SyncSender<StoreTotals>),
    /// Checkpoint round: forward every switch's ring image to the core.
    Export,
}

/// One partition's contribution to `Stats`.
struct StoreTotals {
    snapshots_appended: u64,
    epochs_held: usize,
    switches: usize,
}

/// What a shard worker hands the core for one appended slice.
struct Applied {
    shard: usize,
    snaps: Vec<TelemetrySnapshot>,
    /// Ring evictions the appends staged for the folded tier.
    staged: Vec<PendingFold>,
    journal: Option<JournalRecord>,
    /// The partition's retention horizon and freshest-data watermark
    /// after the last append; `None` = no reporting switch yet. The
    /// horizon only moves forward, so once per slice can delay an engine
    /// retirement by a frame and never cause an early one.
    horizon: Option<Nanos>,
    watermark: Option<Nanos>,
    /// The store's own wall-clock over the slice: ring admission and the
    /// eviction loop.
    append_ns: u64,
    evict_ns: u64,
    /// Ingest-queue occupancy (snapshots) behind this slice at dequeue.
    queue_depth: u64,
}

/// Messages to the core thread. Workers send `Applied` and `Export`;
/// sessions send the rest.
enum CoreMsg {
    Applied(Applied),
    /// One worker's share of a checkpoint round. It follows, on the same
    /// FIFO, every `Applied` the worker sent before exporting, so the
    /// buckets the core pairs with each image hold exactly the epochs that
    /// image has evicted — no more, no fewer.
    Export(Vec<SwitchRestore>),
    /// A verdict to journal: the core fills in its engine's view and the
    /// trail assigns the seq.
    Verdict(Box<ExplainRecord>),
    Explain(Option<u64>, SyncSender<Response>),
    /// Compacted-tier rows for one flow (unsorted; the session merges).
    FlowHistory(FlowKey, SyncSender<Vec<FlowObservation>>),
    /// The core's `Stats` fields, in response order. Syncs the WAL first:
    /// once `Stats` returns, every accepted epoch is applied *and*
    /// journaled.
    Stats(SyncSender<Vec<(String, serde::Value)>>),
}

/// Depth of the core thread's channel, in messages (an `Applied` is a
/// frame slice). Bounded on purpose: if the core falls this far behind,
/// shard workers block on the send and the slowdown propagates up the
/// ingest path (and, under the credit window, back to the client) instead
/// of growing an unbounded queue. 128 slices park about the 1024
/// snapshots the per-snapshot `Applied` did at 32-snapshot frames over
/// four shards; left at 1024, a core stall parked eight times that and
/// showed as +14 % peak RSS on `serve-ingest`.
const CORE_QUEUE_DEPTH: usize = 128;

/// What every thread of one daemon can see: the configuration, the stop
/// and checkpoint flags, two queue-occupancy statistics, and the two
/// leaf-locked observability sinks. No telemetry, graph or log state
/// lives here — that is owned by the workers and the core.
struct Plane {
    topo: Topology,
    cfg: ServeConfig,
    /// True when the daemon journals to a durable evidence log. Gates
    /// the journaling call sites so a durability-off daemon's behaviour
    /// (and byte output) is identical to pre-WAL builds.
    durable: bool,
    metrics: Mutex<MetricsRegistry>,
    flight: Mutex<FlightRecorder>,
    stop: AtomicBool,
    /// Raised by the core when enough segments have completed to warrant
    /// a checkpoint; the accept loop polls it and starts the round.
    ckpt_wanted: AtomicBool,
    /// Per-shard ingest-queue occupancy in snapshots: added *before* the
    /// slice is sent, so the worker's subtraction on dequeue can never run
    /// ahead of it and wrap; taken back if the send fails.
    queue_depths: Vec<AtomicU64>,
    /// `Applied` messages sent but not yet processed by the core (the
    /// `compactor_queue_depth` gauge).
    core_depth: AtomicU64,
}

impl Plane {
    fn new(topo: Topology, cfg: ServeConfig, durable: bool) -> Plane {
        Plane {
            topo,
            cfg,
            durable,
            metrics: Mutex::new(seeded_registry(durable)),
            flight: Mutex::new(FlightRecorder::new(FLIGHT_CAPACITY)),
            stop: AtomicBool::new(false),
            ckpt_wanted: AtomicBool::new(false),
            queue_depths: (0..cfg.shards).map(|_| AtomicU64::new(0)).collect(),
            core_depth: AtomicU64::new(0),
        }
    }

    /// A WAL write failed (disk full, dir deleted, …). The daemon keeps
    /// serving — durability is degraded, not availability — and the fault
    /// lands in the flight ring where operators look first.
    fn wal_fault(&self, what: &'static str, e: &io::Error) {
        if self.cfg.obs {
            self.flight
                .lock()
                .expect("flight lock")
                .note(flight_kind::ERROR, what, e.to_string());
        }
    }

    /// The `Metrics` request: the full metrics snapshot plus the flight
    /// ring, as one JSON object.
    fn metrics_response(&self) -> Response {
        let snap = self.metrics.lock().expect("metrics lock").snapshot();
        let flight = self.flight.lock().expect("flight lock").to_value();
        Response::Metrics(serde::Value::Object(vec![
            ("metrics".into(), hawkeye_obs::emit::metrics_value(&snap)),
            ("flight".into(), flight),
        ]))
    }
}

/// A registry pre-seeded with every well-known serve counter at zero, so
/// `Stats` (which iterates registered names) reports them all even before
/// the first event.
fn seeded_registry(durable: bool) -> MetricsRegistry {
    let mut m = MetricsRegistry::default();
    for name in [
        EPOCHS_INGESTED,
        INCREMENTAL_UPDATES,
        SERVE_SESSIONS,
        ENGINE_EPOCHS_RETIRED,
        SLOW_OPS,
        WATERMARK_LAG_WARNS,
        INGEST_BATCHES,
    ] {
        m.add(MetricKey::global(name), 0);
    }
    // WAL counters exist only on a durable daemon, so a durability-off
    // Stats response stays byte-identical to pre-WAL builds.
    if durable {
        for name in [
            WAL_RECORDS_APPENDED,
            WAL_BYTES,
            WAL_SEGMENTS_RETIRED,
            RECOVERY_TRUNCATED,
        ] {
            m.add(MetricKey::global(name), 0);
        }
    }
    m
}

fn elapsed_ns(t: Option<Instant>) -> u64 {
    t.map_or(0, |t| t.elapsed().as_nanos() as u64)
}

fn uint(name: &str, v: u64) -> (String, serde::Value) {
    (name.into(), serde::Value::UInt(v))
}

/// A checkpoint round in flight: opened when the core asks for one,
/// written when the last worker's images arrive.
struct CheckpointRound {
    /// WAL seq when the round opened. Every record below it had already
    /// been applied by its worker, so every image covers it; records at or
    /// above may or may not be inside the images, and recovery re-applies
    /// them all, which the store's dedup rules make idempotent.
    boundary: u64,
    /// Encoded `REC_CKPT_SWITCH` payloads collected so far.
    images: Vec<Vec<u8>>,
    workers_reported: usize,
}

/// The core thread's state: single owner of the engine, the folded tier,
/// the evidence log and the audit trail.
struct Core {
    plane: Arc<Plane>,
    engine: IncrementalProvenance,
    comp: Compactor,
    wal: Option<Wal>,
    audit: AuditTrail,
    /// Per-shard store retention horizons and freshest-data watermarks as
    /// last reported in an `Applied`; `None` places no constraint.
    horizons: Vec<Option<Nanos>>,
    watermarks: Vec<Option<Nanos>>,
    /// Fleet horizon last pushed into the engine — most snapshots don't
    /// move it, and comparing here skips the engine call entirely.
    last_fleet: Nanos,
    /// `Wal::stats` as of the last publish to the registry.
    wal_published: WalStats,
    round: Option<CheckpointRound>,
}

impl Core {
    fn run(mut self, rx: Receiver<CoreMsg>) {
        // Ends when every sender is gone: the accept loop drops the last
        // one after joining the sessions and workers, so everything they
        // sent is processed first.
        while let Ok(msg) = rx.recv() {
            self.handle(msg);
        }
        self.sync_wal();
    }

    fn handle(&mut self, msg: CoreMsg) {
        match msg {
            CoreMsg::Applied(a) => self.applied(a),
            CoreMsg::Export(images) => self.export(images),
            CoreMsg::Verdict(rec) => self.verdict(*rec),
            CoreMsg::Explain(seq, reply) => {
                let _ = reply.send(self.explain(seq));
            }
            CoreMsg::FlowHistory(key, reply) => {
                let _ = reply.send(self.comp.flow_history(&key));
            }
            CoreMsg::Stats(reply) => {
                let _ = reply.send(self.stats());
            }
        }
    }

    /// The minimum of every reporting shard's store horizon;
    /// [`Nanos::ZERO`] (retire nothing) until one has reported.
    fn fleet_horizon(&self) -> Nanos {
        self.horizons
            .iter()
            .flatten()
            .min()
            .copied()
            .unwrap_or(Nanos::ZERO)
    }

    fn applied(&mut self, a: Applied) {
        let obs = self.plane.cfg.obs;
        let queued = self
            .plane
            .core_depth
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        let mut epochs = 0;
        let mut changed = 0;
        let t = obs.then(Instant::now);
        for snap in a.snaps {
            epochs += snap.epochs.len() as u64;
            changed += u64::from(self.engine.apply_owned(snap));
        }
        let apply_ns = elapsed_ns(t);
        let fold_ns = a.evict_ns + self.comp.absorb(a.staged);
        self.horizons[a.shard] = a.horizon;
        self.watermarks[a.shard] = a.watermark;
        let fleet = self.fleet_horizon();
        let t = obs.then(Instant::now);
        // Retire engine state the stores no longer back with raw epochs —
        // what keeps a long-running daemon's wait-for graph bounded.
        let retired = if fleet > self.last_fleet {
            self.last_fleet = fleet;
            self.engine.retire_before(fleet)
        } else {
            0
        };
        let retire_ns = elapsed_ns(t);
        if let Some(frame) = a.journal {
            self.journal(REC_BATCH, &frame);
        }

        let mut m = self.plane.metrics.lock().expect("metrics lock");
        m.add(MetricKey::global(EPOCHS_INGESTED), epochs);
        if changed > 0 {
            m.add(MetricKey::global(INCREMENTAL_UPDATES), changed);
        }
        if retired > 0 {
            m.add(MetricKey::global(ENGINE_EPOCHS_RETIRED), retired);
        }
        if !obs {
            return;
        }
        // Stage split: where does the ingest path spend its wall-clock —
        // ring admission, eviction + fold, engine apply, or retirement
        // (sums over the slice).
        m.add(MetricKey::global(STAGE_APPEND_NS), a.append_ns);
        m.add(MetricKey::global(STAGE_FOLD_NS), fold_ns);
        m.add(MetricKey::global(STAGE_ENGINE_APPLY_NS), apply_ns);
        m.add(MetricKey::global(STAGE_RETIRE_NS), retire_ns);
        let shard = a.shard as u32;
        let freshest = self.watermarks.iter().flatten().max().copied();
        // How far this shard's data lags the freshest shard's, and the
        // raw-history span the daemon holds (both sim-time ns).
        let lag = match (a.watermark, freshest) {
            (Some(own), Some(max)) => max.0.saturating_sub(own.0),
            _ => 0,
        };
        let retention = freshest.map_or(0, |max| max.0.saturating_sub(fleet.0));
        m.set(
            MetricKey::at_switch(SHARD_QUEUE_DEPTH, shard),
            a.queue_depth as f64,
        );
        m.set(
            MetricKey::at_switch(SHARD_WATERMARK_LAG_NS, shard),
            lag as f64,
        );
        m.set(MetricKey::global(RETENTION_LAG_NS), retention as f64);
        m.set(MetricKey::global(COMPACTOR_QUEUE_DEPTH), queued as f64);
        add_wal_counters(&self.wal, &mut self.wal_published, &mut m);
        let warn = lag >= LAG_WARN_NS;
        if warn {
            m.inc(MetricKey::global(WATERMARK_LAG_WARNS));
        }
        drop(m);
        if warn {
            self.plane.flight.lock().expect("flight lock").warn(
                "watermark_lag",
                format!("shard {shard} is {lag}ns behind the fleet watermark"),
            );
        }
    }

    /// Append one record to the evidence log (no-op when durability is
    /// off) and open a checkpoint round once enough segments completed.
    fn journal(&mut self, kind: u8, payload: &[u8]) {
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.append(kind, payload) {
            self.plane.wal_fault("wal_append", &e);
        }
        self.maybe_open_round();
    }

    /// Ask the accept loop for a checkpoint round when the log wants one
    /// and none is in flight (the core never sends upstream, so the ask is
    /// a flag the accept loop polls).
    fn maybe_open_round(&mut self) {
        let Some(w) = self.wal.as_ref() else { return };
        if self.round.is_none() && w.wants_checkpoint() {
            self.round = Some(CheckpointRound {
                boundary: w.next_seq(),
                images: Vec::new(),
                workers_reported: 0,
            });
            self.plane.ckpt_wanted.store(true, Ordering::SeqCst);
        }
    }

    /// One worker's ring images for the open round. Paired right here with
    /// the buckets of the same switches — see [`CoreMsg::Export`] for why
    /// this instant is the consistent one — and, once every worker has
    /// reported, written out as one checkpoint.
    fn export(&mut self, images: Vec<SwitchRestore>) {
        let Some(round) = self.round.as_mut() else {
            return;
        };
        for restore in images {
            let buckets = self
                .comp
                .buckets_of(restore.switch)
                .into_iter()
                .cloned()
                .collect();
            round
                .images
                .push(encode_switch_checkpoint(&SwitchCheckpoint {
                    restore,
                    buckets,
                }));
        }
        round.workers_reported += 1;
        if round.workers_reported < self.horizons.len() {
            return;
        }
        let round = self.round.take().expect("round checked above");
        if let Err(e) = self.write_checkpoint(round) {
            self.plane.wal_fault("wal_checkpoint", &e);
        }
        self.maybe_open_round();
    }

    /// Write one complete checkpoint (per-switch ring images + compacted
    /// buckets + the audit trail) and retire the raw segments it covers —
    /// disk stays bounded in lockstep with the compaction tiers.
    fn write_checkpoint(&mut self, round: CheckpointRound) -> io::Result<()> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        wal.append(REC_CKPT_BEGIN, &round.boundary.to_le_bytes())?;
        for payload in &round.images {
            wal.append(REC_CKPT_SWITCH, payload)?;
        }
        let audit = AuditCheckpoint {
            next_seq: self.audit.total(),
            records: self.audit.records().cloned().collect(),
        };
        wal.append(REC_CKPT_AUDIT, &encode_audit_checkpoint(&audit))?;
        wal.append(REC_CKPT_END, &[])?;
        // The checkpoint must be durable *before* the raw segments it
        // replaces are deleted — a torn checkpoint (no END on disk) must
        // still find the previous one's segments intact.
        wal.sync()?;
        wal.retire_below(round.boundary)?;
        Ok(())
    }

    /// Sync the log and bring the `wal_*` counters up to date (`Stats`,
    /// shutdown).
    fn sync_wal(&mut self) {
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.sync() {
            self.plane.wal_fault("wal_sync", &e);
        }
        if self.plane.cfg.obs {
            let mut m = self.plane.metrics.lock().expect("metrics lock");
            add_wal_counters(&self.wal, &mut self.wal_published, &mut m);
        }
    }

    /// Deposit a verdict's provenance in the audit trail: the session
    /// filled in which evidence was consulted, which signature row matched
    /// and where the wall-clock went; the engine's pending state is added
    /// here. A durable daemon journals the record under the seq the trail
    /// is about to assign, so recovery rebuilds the ring *and* its counter.
    fn verdict(&mut self, mut rec: ExplainRecord) {
        let st = self.engine.stats();
        rec.frags_reused = st.frags_reused;
        rec.frags_recomputed = st.frags_recomputed;
        rec.dirty_switches = self.engine.dirty_switches().iter().map(|n| n.0).collect();
        rec.seq = self.audit.total();
        if self.wal.is_some() {
            if let Ok(js) = serde_json::to_string(&rec) {
                self.journal(REC_VERDICT, js.as_bytes());
            }
        }
        self.audit.push(rec);
    }

    /// The `Explain` request: a journaled verdict by seq, or the latest.
    fn explain(&self, seq: Option<u64>) -> Response {
        let rec = match seq {
            Some(s) => self.audit.get(s),
            None => self.audit.latest(),
        };
        match rec {
            Some(r) => Response::Explain(r.clone()),
            None => Response::Error(match seq {
                Some(s) => format!(
                    "verdict {s} is not in the audit ring ({} journaled, capacity {})",
                    self.audit.total(),
                    self.audit.capacity()
                ),
                None => "no verdicts journaled yet".into(),
            }),
        }
    }

    fn stats(&mut self) -> Vec<(String, serde::Value)> {
        self.sync_wal();
        // Refresh so node/fragment counts reflect retirement, not the
        // last diagnosis — Stats is the bounded-memory observability
        // surface.
        self.engine.refresh(&self.plane.topo);
        let st = self.engine.stats();
        vec![
            uint("store_epochs_compacted_held", self.comp.epochs_held()),
            uint("store_compacted_buckets", self.comp.buckets_held() as u64),
            uint("store_retention_horizon", self.fleet_horizon().0),
            uint("engine_snapshots_applied", st.snapshots_applied),
            uint("engine_frags_recomputed", st.frags_recomputed),
            uint("engine_frags_reused", st.frags_reused),
            uint("engine_epochs_held", self.engine.epochs_held() as u64),
            // Horizon-driven + ring-budget retirement combined; the
            // `engine_epochs_retired` counter is horizon-driven only.
            uint("engine_epochs_retired_total", st.epochs_retired),
            uint("engine_horizon", self.engine.horizon().0),
            uint("engine_fragments", self.engine.fragments_held() as u64),
            uint("engine_nodes", self.engine.node_count() as u64),
        ]
    }
}

/// Add what the log has appended since the last publish to the `wal_*`
/// counters.
fn add_wal_counters(wal: &Option<Wal>, published: &mut WalStats, m: &mut MetricsRegistry) {
    let Some(wal) = wal else { return };
    let now = *wal.stats();
    if now == *published {
        return; // only one slice of a batch frame carries the record
    }
    m.add(
        MetricKey::global(WAL_RECORDS_APPENDED),
        now.records_appended - published.records_appended,
    );
    m.add(
        MetricKey::global(WAL_BYTES),
        now.bytes_appended - published.bytes_appended,
    );
    m.add(
        MetricKey::global(WAL_SEGMENTS_RETIRED),
        now.segments_retired - published.segments_retired,
    );
    *published = now;
}

fn shard_worker(
    plane: Arc<Plane>,
    shard: usize,
    mut store: TelemetryStore,
    rx: Receiver<ShardMsg>,
    core: SyncSender<CoreMsg>,
) {
    // A send to the core fails only when the core thread is gone; with
    // nothing downstream left to feed, the worker exits and sessions see
    // "shard worker gone".
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Ingest(snaps, journal) => {
                let n = snaps.len() as u64;
                let queue_depth = plane.queue_depths[shard]
                    .fetch_sub(n, Ordering::Relaxed)
                    .saturating_sub(n);
                let before = *store.stats();
                for snap in &snaps {
                    if plane.cfg.ingest_delay_ns > 0 {
                        // The deliberately-slow-shard knob: backpressure
                        // tests throttle the consumer here.
                        thread::sleep(Duration::from_nanos(plane.cfg.ingest_delay_ns));
                    }
                    store.append(snap);
                }
                let after = store.stats();
                let applied = Applied {
                    shard,
                    append_ns: after.append_ns - before.append_ns,
                    evict_ns: after.fold_ns - before.fold_ns,
                    staged: store.take_pending_folds(),
                    horizon: store.retention_horizon(),
                    watermark: store.min_watermark(),
                    queue_depth,
                    snaps,
                    journal,
                };
                // A full core channel blocks here, which is the intended
                // backpressure, not a failure.
                plane.core_depth.fetch_add(1, Ordering::Relaxed);
                if core.send(CoreMsg::Applied(applied)).is_err() {
                    return;
                }
            }
            ShardMsg::Snapshots(window, reply) => {
                let _ = reply.send(store.snapshots_in(window));
            }
            ShardMsg::FlowHistory(key, reply) => {
                let _ = reply.send(store.flow_history(&key));
            }
            ShardMsg::Stats(reply) => {
                let _ = reply.send(StoreTotals {
                    snapshots_appended: store.stats().snapshots_appended,
                    epochs_held: store.epochs_held(),
                    switches: store.switches().len(),
                });
            }
            ShardMsg::Export => {
                if core.send(CoreMsg::Export(store.export())).is_err() {
                    return;
                }
            }
        }
    }
}

/// A session's (and the accept loop's) senders into the plane.
#[derive(Clone)]
struct Routes {
    shards: Vec<SyncSender<ShardMsg>>,
    core: SyncSender<CoreMsg>,
}

/// An owner thread that is gone (it panicked). A query or barrier that
/// needs it fails with a request error — it never answers from part of
/// the state.
struct Gone(&'static str);

impl From<Gone> for Response {
    fn from(gone: Gone) -> Response {
        Response::Error(format!("{} gone", gone.0))
    }
}

impl Routes {
    fn shard_of(&self, switch: NodeId) -> usize {
        switch.0 as usize % self.shards.len()
    }

    /// Send the core one request built around a fresh reply channel and
    /// wait for the answer.
    fn ask_core<R>(&self, request: impl FnOnce(SyncSender<R>) -> CoreMsg) -> Result<R, Gone> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.core
            .send(request(reply_tx))
            .map_err(|_| Gone("core thread"))?;
        reply_rx.recv().map_err(|_| Gone("core thread"))
    }

    /// Put the same request to every shard worker, then collect the
    /// answers (in arrival order) — the workers serve it in parallel,
    /// each after everything queued to it before.
    fn ask_shards<R>(&self, request: impl Fn(SyncSender<R>) -> ShardMsg) -> Result<Vec<R>, Gone> {
        let (reply_tx, reply_rx) = sync_channel(self.shards.len());
        for tx in &self.shards {
            // A dead worker drops the request and its reply sender.
            let _ = tx.send(request(reply_tx.clone()));
        }
        drop(reply_tx);
        let replies: Vec<R> = reply_rx.iter().collect();
        if replies.len() == self.shards.len() {
            Ok(replies)
        } else {
            Err(Gone("shard worker"))
        }
    }

    /// All shards' canonical snapshots of `window`, merged in switch-id
    /// order (each switch lives in exactly one shard, so this is a
    /// disjoint union).
    fn gather_snapshots(&self, window: Window) -> Result<Vec<TelemetrySnapshot>, Gone> {
        let mut all: Vec<TelemetrySnapshot> = self
            .ask_shards(|reply| ShardMsg::Snapshots(window, reply))?
            .into_iter()
            .flatten()
            .collect();
        all.sort_unstable_by_key(|s| s.switch);
        Ok(all)
    }

    /// Where was this flow seen, across every shard and both retention
    /// tiers, in the store's canonical row order. Workers first, core
    /// second: the core answers after every fold those workers staged.
    fn flow_history(&self, key: FlowKey) -> Result<Response, Gone> {
        let mut rows: Vec<FlowObservation> = self
            .ask_shards(|reply| ShardMsg::FlowHistory(key, reply))?
            .into_iter()
            .flatten()
            .collect();
        rows.extend(self.ask_core(|reply| CoreMsg::FlowHistory(key, reply))?);
        rows.sort_unstable_by_key(|o| (o.from, o.to, o.switch, o.fidelity, o.out_port));
        Ok(Response::History(rows))
    }

    /// `Stats` is the full barrier: the workers answer after every ingest
    /// queued before it, the core after every `Applied` they forwarded
    /// (and a WAL sync), and only then are the counters read.
    fn stats(&self, plane: &Plane) -> Result<Response, Gone> {
        let mut snapshots = 0u64;
        let mut epochs = 0usize;
        let mut switches = 0usize;
        for t in self.ask_shards(ShardMsg::Stats)? {
            snapshots += t.snapshots_appended;
            epochs += t.epochs_held;
            switches += t.switches;
        }
        let core_fields = self.ask_core(CoreMsg::Stats)?;
        let m = plane.metrics.lock().expect("metrics lock");
        // Every registered counter, not a hand-maintained list: a counter
        // added anywhere in the daemon shows up here without this function
        // knowing about it (the well-known ones are pre-seeded at spawn so
        // they appear even at zero).
        let mut fields: Vec<(String, serde::Value)> = m
            .counter_names()
            .into_iter()
            .map(|name| uint(name, m.counter_total(name)))
            .collect();
        drop(m);
        fields.push(uint("store_snapshots_appended", snapshots));
        fields.push(uint("store_epochs_held", epochs as u64));
        fields.push(uint("store_switches", switches as u64));
        fields.extend(core_fields);
        Ok(Response::Stats(serde::Value::Object(fields)))
    }

    fn diagnose(&self, plane: &Plane, p: &DiagnoseParams) -> Result<Response, Gone> {
        if let Err(refusal) = p.check_victim(&plane.topo) {
            return Ok(Response::Error(refusal));
        }
        let snapshots = self.gather_snapshots(p.window)?;
        if snapshots.is_empty() {
            return Ok(Response::Error("no telemetry ingested".into()));
        }
        // Stage timing rides the analyzer's own recorder hooks; capacity 0
        // keeps the tracer empty (we only want the wall-clock profile).
        let mut rec = Recorder::new(ObsConfig {
            enabled: plane.cfg.obs,
            capacity: 0,
            mask: 0,
        });
        let (mut report, _graph, _agg) = analyze_victim_window_obs(
            &p.victim,
            p.window,
            &snapshots,
            &plane.topo,
            &plane.cfg.analyzer,
            &mut rec,
        );
        report.note_missing(&p.missing);
        if plane.cfg.obs {
            // Sent after the workers answered, so the core journals it
            // behind every `Applied` this verdict's evidence produced.
            let record = explain_record(p, &snapshots, &report, &rec);
            let _ = self.core.send(CoreMsg::Verdict(Box::new(record)));
        }
        Ok(Response::Diagnosis(report))
    }
}

/// The session's half of a verdict's audit record: which evidence was
/// consulted, which signature row matched and where the wall-clock went.
/// The core adds its engine's pending state and the seq.
fn explain_record(
    p: &DiagnoseParams,
    snapshots: &[TelemetrySnapshot],
    report: &DiagnosisReport,
    rec: &Recorder,
) -> ExplainRecord {
    // The gather was windowed, so every epoch here contributed.
    let contributing_switches = snapshots
        .iter()
        .filter(|s| !s.epochs.is_empty())
        .map(|s| s.switch.0)
        .collect();
    let contributing_epochs = snapshots.iter().map(|s| s.epochs.len() as u64).sum();
    let mut root_causes: Vec<u32> = report
        .root_causes
        .iter()
        .map(|rc| match rc {
            RootCause::FlowContention { port, .. } => port.node.0,
            RootCause::HostPfcInjection { port, .. } => port.node.0,
        })
        .collect();
    root_causes.sort_unstable();
    root_causes.dedup();
    ExplainRecord {
        seq: 0,
        victim: render_flow(&p.victim),
        window_from_ns: p.window.from.0,
        window_to_ns: p.window.to.0,
        anomaly: format!("{:?}", report.anomaly),
        signature_row: signature_row(report.anomaly).to_string(),
        confidence: confidence_label(&report.confidence).to_string(),
        root_causes,
        contributing_switches,
        contributing_epochs,
        dirty_switches: Vec::new(),
        frags_reused: 0,
        frags_recomputed: 0,
        stage_collect_ns: rec.profile.wall_total_ns(Stage::TelemetryCollection),
        stage_graph_ns: rec.profile.wall_total_ns(Stage::GraphBuild),
        stage_match_ns: rec.profile.wall_total_ns(Stage::SignatureMatch),
    }
}

/// `src:sport->dst`, the audit trail's victim rendering.
fn render_flow(key: &FlowKey) -> String {
    format!("{}:{}->{}", key.src.0, key.src_port, key.dst.0)
}

/// Stable slug for the Table-2 signature row a verdict matched.
fn signature_row(a: AnomalyType) -> &'static str {
    match a {
        AnomalyType::MicroBurstIncast => "microburst_incast",
        AnomalyType::PfcStorm => "pfc_storm",
        AnomalyType::InLoopDeadlock => "in_loop_deadlock",
        AnomalyType::OutOfLoopDeadlockContention => "out_of_loop_deadlock_contention",
        AnomalyType::OutOfLoopDeadlockInjection => "out_of_loop_deadlock_injection",
        AnomalyType::NormalContention => "normal_contention",
        AnomalyType::NoAnomaly => "none",
    }
}

fn confidence_label(c: &Confidence) -> &'static str {
    match c {
        Confidence::Complete => "complete",
        Confidence::Degraded { .. } => "degraded",
        Confidence::Inconclusive { .. } => "inconclusive",
    }
}

/// Route one request frame: gate it, split it by shard (frame order kept
/// within a shard) and queue one slice per shard it touches. A full queue
/// *blocks* until the shard drains — the session slows down, the client's
/// credit window empties, and the slow shard's pace propagates all the
/// way back to the producer with zero loss. A *disconnected* shard
/// (worker thread gone) is a request error.
///
/// `journal` is the frame's evidence-log record on a durable daemon: the
/// received frame body, never a re-encode. It rides the last slice sent,
/// so it is appended once, and only if every slice was queued. Returns
/// the refusal; `None` = the whole frame is queued.
fn route_frame(
    plane: &Plane,
    routes: &Routes,
    snaps: Vec<TelemetrySnapshot>,
    mut journal: Option<JournalRecord>,
) -> Option<Response> {
    // Shard-ownership gate, ahead of everything and over the whole frame:
    // an out-of-range switch is a routing fault (stale or mis-cut shard
    // map at the sender), answered with the typed `wrong_shard:` error
    // before anything is queued — a sharded durable daemon neither stores
    // nor journals any part of a frame it refused.
    if let Some(range) = plane.cfg.shard_range {
        if let Some(stray) = snaps.iter().find(|s| !range.contains(s.switch)) {
            plane
                .metrics
                .lock()
                .expect("metrics lock")
                .inc(MetricKey::global(INGEST_WRONG_SHARD));
            if plane.cfg.obs {
                plane.flight.lock().expect("flight lock").warn(
                    "ingest_wrong_shard",
                    format!("switch {} outside owned range {range}", stray.switch.0),
                );
            }
            return Some(Response::Error(format!(
                "{WRONG_SHARD_PREFIX} switch {} outside owned range {range}",
                stray.switch.0
            )));
        }
    }
    // Fabric gate, also before anything is queued or journaled: a snapshot
    // about no switch of this fabric, or a port its switch lacks, would
    // index past the topology in the engine and in every Diagnose over
    // its window.
    if let Err(refusal) = check_evidence(&snaps, &plane.topo) {
        return Some(Response::Error(refusal));
    }
    let mut slices: Vec<Vec<TelemetrySnapshot>> = vec![Vec::new(); routes.shards.len()];
    for snap in snaps {
        slices[routes.shard_of(snap.switch)].push(snap);
    }
    let last = slices.iter().rposition(|s| !s.is_empty());
    for (shard, slice) in slices.into_iter().enumerate() {
        if slice.is_empty() {
            continue;
        }
        let n = slice.len() as u64;
        let record = journal.take_if(|_| Some(shard) == last);
        plane.queue_depths[shard].fetch_add(n, Ordering::Relaxed);
        if routes.shards[shard]
            .send(ShardMsg::Ingest(slice, record))
            .is_err()
        {
            plane.queue_depths[shard].fetch_sub(n, Ordering::Relaxed);
            return Some(Gone("shard worker").into());
        }
    }
    None
}

/// Route an `IngestBatch` frame; one `BatchAck` settles the whole frame,
/// returning its credits, and the whole frame journals as one record. The
/// codec is deterministic, so the frame bytes ARE the canonical form a
/// durable daemon journals (checked in debug builds). A dead shard or an
/// out-of-range switch fails the frame with an error.
fn route_batch(
    plane: &Plane,
    routes: &Routes,
    snaps: Vec<TelemetrySnapshot>,
    wire: Option<Vec<u8>>,
) -> Response {
    let n = snaps.len() as u32;
    debug_assert!(
        wire.as_ref().is_none_or(|w| *w == encode_batch(&snaps)),
        "journaled wire bytes diverge from the canonical batch encoding"
    );
    if let Some(refusal) = route_frame(plane, routes, snaps, wire) {
        return refusal;
    }
    if plane.cfg.obs {
        let mut m = plane.metrics.lock().expect("metrics lock");
        m.inc(MetricKey::global(INGEST_BATCHES));
        m.set(MetricKey::global(CREDITS_OUTSTANDING), f64::from(n));
    }
    Response::BatchAck {
        accepted: n,
        shed: 0,
        granted: n,
    }
}

fn session(plane: Arc<Plane>, routes: Routes, stream: AnyStream) {
    serve_session(
        stream,
        &plane.stop,
        &plane.metrics,
        plane.cfg.obs.then_some(&plane.flight),
        plane.cfg.session_credits,
        plane.cfg.shard_range.map(|r| r.epoch),
        |req, body| {
            let (op, resp) = match req {
                Request::IngestBatch(snaps) => {
                    // A durable daemon journals the frame body verbatim;
                    // decoding is done with it.
                    let wire = plane.durable.then(|| std::mem::take(body));
                    (
                        OP_INGEST_BATCH_NS,
                        Ok(route_batch(&plane, &routes, snaps, wire)),
                    )
                }
                // The cross-shard gather primitive: the canonical per-switch
                // snapshots of the window — the same store state a local
                // Diagnose of it would analyze — covering everything
                // acknowledged before this.
                Request::Fragments(window) => (
                    OP_FRAGMENTS_NS,
                    routes.gather_snapshots(window).map(Response::Fragments),
                ),
                Request::Diagnose(p) => (OP_DIAGNOSE_NS, routes.diagnose(&plane, &p)),
                Request::FlowHistory(key) => (OP_FLOW_HISTORY_NS, routes.flow_history(key)),
                Request::Stats => (OP_STATS_NS, routes.stats(&plane)),
                Request::Metrics => (OP_METRICS_NS, Ok(plane.metrics_response())),
                Request::Explain(seq) => (
                    OP_EXPLAIN_NS,
                    routes.ask_core(|reply| CoreMsg::Explain(seq, reply)),
                ),
                Request::Hello { .. } | Request::Shutdown => {
                    unreachable!("answered by serve_session")
                }
            };
            (Some(op), resp.unwrap_or_else(Response::from))
        },
    );
}

/// A running daemon; dropping the handle does NOT stop it — call
/// [`DaemonHandle::shutdown`].
pub struct DaemonHandle {
    plane: Arc<Plane>,
    accept_thread: Option<JoinHandle<()>>,
    /// Bound TCP address when listening on TCP (for port-0 binds).
    pub local_addr: Option<std::net::SocketAddr>,
    /// What startup recovery found in the durable directory; `None` on a
    /// durability-off daemon.
    pub recovery: Option<RecoveryReport>,
}

impl DaemonHandle {
    /// Signal stop and join every daemon thread.
    pub fn shutdown(self) {
        self.plane.stop.store(true, Ordering::SeqCst);
        self.wait();
    }

    /// Block until a `Shutdown` request stops the daemon, then join every
    /// thread — the foreground `hawkeye serve` mode.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// True once a `Shutdown` request (or `shutdown()`) stopped the daemon.
    pub fn is_stopped(&self) -> bool {
        self.plane.stop.load(Ordering::SeqCst)
    }
}

/// Start the daemon on `endpoint`. Returns once the listener is bound and
/// accepting; serving continues on background threads until a `Shutdown`
/// request arrives or [`DaemonHandle::shutdown`] is called.
pub fn spawn(topo: Topology, cfg: ServeConfig, endpoint: Endpoint) -> io::Result<DaemonHandle> {
    spawn_durable(topo, cfg, endpoint, None)
}

/// [`spawn`], with an optional durable evidence log. With `Some(wal_cfg)`
/// the daemon first recovers whatever a previous incarnation journaled
/// into that directory — scan, CRC-verify, truncate the torn suffix,
/// restore the last complete checkpoint, replay the tail — and only then
/// binds the listener, so a client that can connect always sees the
/// recovered state. Every accepted epoch and emitted verdict is journaled
/// by the core thread; the shard workers never touch the log.
pub fn spawn_durable(
    topo: Topology,
    cfg: ServeConfig,
    endpoint: Endpoint,
    wal_cfg: Option<WalConfig>,
) -> io::Result<DaemonHandle> {
    let mut cfg = cfg;
    cfg.shards = cfg.shards.max(1);
    // The daemon always folds off-thread: shard stores stage ring-evicted
    // epochs and the core owns the folded tier. Inline mode remains the
    // standalone-store default only.
    cfg.store.deferred_fold = true;

    // Recover before binding: replay the evidence log into the shard
    // stores, the folded tier and the audit trail.
    let mut stores: Vec<TelemetryStore> = (0..cfg.shards)
        .map(|_| TelemetryStore::new(cfg.store))
        .collect();
    let mut comp = Compactor::new(cfg.store);
    let mut audit = AuditTrail::new(AUDIT_CAPACITY);
    let (wal, recovery) = match &wal_cfg {
        Some(wcfg) => {
            let (wal, report) = recover_and_open(wcfg, &mut stores, &mut comp, &mut audit)?;
            (Some(wal), Some(report))
        }
        None => (None, None),
    };

    // The engine's own ring budget is a per-switch safety backstop at
    // 2x the store's; primary retention is the store-driven horizon
    // (`retire_before` after each ingest), so give it the headroom to
    // actually be the thing that fires.
    let mut engine =
        IncrementalProvenance::new(cfg.replay, cfg.store.epoch_budget.saturating_mul(2));
    let horizons: Vec<Option<Nanos>> = stores.iter().map(|s| s.retention_horizon()).collect();
    let mut last_fleet = Nanos::ZERO;
    if recovery.is_some() {
        // Rebuild the wait-for graph from the recovered canonical rings —
        // the engine is derived state, so it is never checkpointed — and
        // retire it behind the recovered fleet horizon, exactly as the
        // ingest path would have.
        for store in &stores {
            for snap in store.snapshots() {
                engine.apply_owned(snap);
            }
        }
        if let Some(fleet) = horizons.iter().flatten().min() {
            engine.retire_before(*fleet);
            last_fleet = *fleet;
        }
    }
    let plane = Arc::new(Plane::new(topo, cfg, wal.is_some()));
    if let Some(rep) = &recovery {
        plane
            .metrics
            .lock()
            .expect("metrics lock")
            .add(MetricKey::global(RECOVERY_TRUNCATED), rep.truncated_records);
    }

    let listener = endpoint.bind()?;
    let local_addr = listener.local_addr();

    let (core_tx, core_rx) = sync_channel(CORE_QUEUE_DEPTH);
    let core = Core {
        plane: Arc::clone(&plane),
        engine,
        comp,
        wal,
        audit,
        watermarks: stores.iter().map(|s| s.min_watermark()).collect(),
        horizons,
        last_fleet,
        wal_published: WalStats::default(),
        round: None,
    };
    let core_join = thread::Builder::new()
        .name("hawkeye-core".into())
        .spawn(move || core.run(core_rx))
        .expect("spawn core thread");

    let mut shard_txs = Vec::with_capacity(cfg.shards);
    let mut workers = Vec::with_capacity(cfg.shards);
    for (shard, store) in stores.into_iter().enumerate() {
        let (tx, rx) = sync_channel(cfg.queue_depth.max(1));
        shard_txs.push(tx);
        let plane = Arc::clone(&plane);
        let core_tx = core_tx.clone();
        workers.push(
            thread::Builder::new()
                .name(format!("hawkeye-shard-{shard}"))
                .spawn(move || shard_worker(plane, shard, store, rx, core_tx))
                .expect("spawn shard worker"),
        );
    }
    let routes = Routes {
        shards: shard_txs,
        core: core_tx,
    };

    let handle_plane = Arc::clone(&plane);
    let accept_thread = thread::Builder::new()
        .name("hawkeye-accept".into())
        .spawn(move || {
            let mut sessions: Vec<JoinHandle<()>> = Vec::new();
            while !plane.stop.load(Ordering::SeqCst) {
                // SIGINT/SIGTERM request the same orderly teardown as a
                // Shutdown frame (when install_signal_handlers is on).
                if stop_signalled() {
                    plane.stop.store(true, Ordering::SeqCst);
                    break;
                }
                // A checkpoint round, started from here because this
                // thread is upstream of every worker: each forwards its
                // ring images to the core, which writes the checkpoint
                // when the last one lands.
                if plane.ckpt_wanted.swap(false, Ordering::SeqCst) {
                    for tx in &routes.shards {
                        let _ = tx.send(ShardMsg::Export);
                    }
                }
                match listener.accept() {
                    Ok(stream) => {
                        let plane = Arc::clone(&plane);
                        let routes = routes.clone();
                        sessions.push(
                            thread::Builder::new()
                                .name("hawkeye-session".into())
                                .spawn(move || session(plane, routes, stream))
                                .expect("spawn session"),
                        );
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for s in sessions {
                let _ = s.join();
            }
            // Dropping the last senders ends the workers' loops, and —
            // once they are joined and their core senders with them — the
            // core's: FIFO order means each drains everything sent to it
            // first, and the core syncs the WAL on the way out.
            drop(routes);
            for w in workers {
                let _ = w.join();
            }
            let _ = core_join.join();
            // Dropped last: a unix socket file outlives every thread.
            drop(listener);
        })
        .expect("spawn accept loop");

    Ok(DaemonHandle {
        plane: handle_plane,
        accept_thread: Some(accept_thread),
        local_addr,
        recovery,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_client::proto::FOREIGN_EVIDENCE_PREFIX;
    use hawkeye_client::ServeClient;
    use hawkeye_sim::{chain, EVAL_BANDWIDTH, EVAL_DELAY};

    /// A thread-less plane plus routes into hand-held receivers: what a
    /// session sees, with the tests standing in for the owner threads.
    struct Rig {
        plane: Arc<Plane>,
        routes: Routes,
        shard_rxs: Vec<Receiver<ShardMsg>>,
        core_rx: Receiver<CoreMsg>,
    }

    fn rig(shards: usize, depth: usize, shard_range: Option<ShardRange>) -> Rig {
        let cfg = ServeConfig {
            shards,
            shard_range,
            ..ServeConfig::default()
        };
        let (txs, shard_rxs) = (0..shards).map(|_| sync_channel(depth)).unzip();
        let (core, core_rx) = sync_channel(depth);
        Rig {
            // Eight switches, ids 0..8 — every id these tests route — and
            // no hosts.
            plane: Arc::new(Plane::new(
                chain(8, 0, EVAL_BANDWIDTH, EVAL_DELAY),
                cfg,
                false,
            )),
            routes: Routes { shards: txs, core },
            shard_rxs,
            core_rx,
        }
    }

    fn queued_snapshots(plane: &Plane) -> u64 {
        plane
            .queue_depths
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .sum()
    }

    fn snap(switch: u32) -> TelemetrySnapshot {
        TelemetrySnapshot {
            switch: NodeId(switch),
            taken_at: Nanos(1),
            nports: 2,
            max_flows: 8,
            epochs: Vec::new(),
            evicted: Vec::new(),
        }
    }

    fn epoch(step: u64) -> hawkeye_telemetry::EpochSnapshot {
        hawkeye_telemetry::EpochSnapshot {
            slot: step as usize % 4,
            id: step as u8,
            start: Nanos(step * 100),
            len: Nanos(100),
            flows: vec![],
            ports: vec![],
            meter: vec![],
        }
    }

    fn wrong_shard_count(plane: &Plane) -> u64 {
        plane
            .metrics
            .lock()
            .unwrap()
            .counter_total(INGEST_WRONG_SHARD)
    }

    /// Every ack returns exactly the credits its frame consumed — the
    /// frame's size, a frame of one included — so the client's window
    /// never leaks.
    #[test]
    fn acks_return_the_frames_credits() {
        let r = rig(1, 4, None);
        for n in [1, 3] {
            let resp = route_batch(&r.plane, &r.routes, vec![snap(0); n as usize], None);
            assert_eq!(
                resp,
                Response::BatchAck {
                    accepted: n,
                    shed: 0,
                    granted: n
                }
            );
        }
    }

    /// A disconnected shard (worker gone) reports an error, not a panic
    /// and not an ack — and a query fails too, rather than answering from
    /// the partitions that are left.
    #[test]
    fn disconnected_shard_reports_error() {
        let mut r = rig(1, 1, None);
        r.shard_rxs.clear();
        assert!(matches!(
            route_batch(&r.plane, &r.routes, vec![snap(0)], None),
            Response::Error(_)
        ));
        assert!(matches!(
            r.routes.gather_snapshots(Window::default()),
            Err(Gone("shard worker"))
        ));
        assert!(matches!(
            r.routes.stats(&r.plane),
            Err(Gone("shard worker"))
        ));
    }

    /// A dead shard fails a whole batch with an error (never a BatchAck
    /// that silently lost snapshots).
    #[test]
    fn disconnected_shard_fails_batch() {
        let mut r = rig(1, 4, None);
        r.shard_rxs.clear();
        let resp = route_batch(&r.plane, &r.routes, vec![snap(0), snap(0)], None);
        assert!(matches!(resp, Response::Error(_)));
    }

    /// An out-of-range switch is refused with the typed `wrong_shard:`
    /// error before anything is queued (or journaled), while in-range
    /// ingest is untouched.
    #[test]
    fn out_of_range_ingest_is_typed_rejection() {
        let range = ShardRange {
            lo: 0,
            hi: 2,
            epoch: 1,
        };
        let r = rig(1, 4, Some(range));
        assert!(matches!(
            route_batch(&r.plane, &r.routes, vec![snap(1)], None),
            Response::BatchAck { accepted: 1, .. }
        ));
        let resp = route_batch(&r.plane, &r.routes, vec![snap(2)], None);
        let Response::Error(msg) = resp else {
            panic!("out-of-range ingest answered {resp:?}");
        };
        assert!(
            msg.starts_with(WRONG_SHARD_PREFIX),
            "rejection '{msg}' not typed wrong_shard"
        );
        assert_eq!(wrong_shard_count(&r.plane), 1);
        assert_eq!(r.shard_rxs[0].try_iter().count(), 1, "refused but queued");
    }

    /// A batch containing one out-of-range snapshot fails with the typed
    /// error and the frame is atomic against the gate: the snapshots ahead
    /// of the fault are not queued either (no silent partial store, whose
    /// epochs a durable daemon would serve without ever journaling them).
    #[test]
    fn out_of_range_snapshot_fails_batch_typed() {
        let range = ShardRange {
            lo: 0,
            hi: 2,
            epoch: 0,
        };
        let r = rig(2, 8, Some(range));
        let frame = vec![snap(0), snap(1), snap(5)];
        let resp = route_batch(&r.plane, &r.routes, frame, None);
        let Response::Error(msg) = resp else {
            panic!("batch with out-of-range snapshot answered {resp:?}");
        };
        assert!(msg.starts_with(WRONG_SHARD_PREFIX));
        assert_eq!(wrong_shard_count(&r.plane), 1);
        for (i, rx) in r.shard_rxs.iter().enumerate() {
            assert_eq!(rx.try_iter().count(), 0, "refused frame queued to {i}");
        }
        assert_eq!(queued_snapshots(&r.plane), 0);
    }

    /// A snapshot about no switch of the fabric, or naming a port its
    /// switch lacks, fails the whole frame with the typed
    /// `foreign_evidence:` error before any of it is queued.
    #[test]
    fn foreign_evidence_fails_batch_typed() {
        let r = rig(2, 8, None);
        let past_radix = TelemetrySnapshot {
            epochs: vec![hawkeye_telemetry::EpochSnapshot {
                ports: vec![(9, hawkeye_telemetry::PortRecord::default())],
                ..epoch(1)
            }],
            ..snap(1)
        };
        for foreign in [snap(8), past_radix] {
            let resp = route_batch(&r.plane, &r.routes, vec![snap(0), foreign], None);
            let Response::Error(msg) = resp else {
                panic!("foreign evidence answered {resp:?}");
            };
            assert!(msg.starts_with(FOREIGN_EVIDENCE_PREFIX), "untyped: {msg}");
        }
        for (i, rx) in r.shard_rxs.iter().enumerate() {
            assert_eq!(rx.try_iter().count(), 0, "refused frame queued to {i}");
        }
        assert_eq!(queued_snapshots(&r.plane), 0);
    }

    /// The occupancy gauge counts a slice before it is sent and takes it
    /// back when the send fails. Counted after the send, a worker that
    /// dequeues at once subtracts first, wraps the counter below zero and
    /// publishes ~1.8e19 as `shard_queue_depth`: the rendezvous queue here
    /// hands the slice over at exactly that instant.
    #[test]
    fn queue_depth_counts_before_the_send() {
        let r = rig(2, 8, None);
        let frame: Vec<_> = (0..5).map(snap).collect();
        route_batch(&r.plane, &r.routes, frame, None);
        assert_eq!(queued_snapshots(&r.plane), 5);
        assert_eq!(r.plane.queue_depths[0].load(Ordering::Relaxed), 3);

        let mut dead = rig(2, 8, None);
        dead.shard_rxs.clear();
        let resp = route_batch(&dead.plane, &dead.routes, vec![snap(0), snap(1)], None);
        assert!(matches!(resp, Response::Error(_)));
        assert_eq!(
            queued_snapshots(&dead.plane),
            0,
            "failed send kept its count"
        );

        let mut eager = rig(1, 0, None);
        let rx = eager.shard_rxs.remove(0);
        let plane = Arc::clone(&eager.plane);
        let worker = thread::spawn(move || {
            let _slice = rx.recv().expect("a slice arrives");
            plane.queue_depths[0].load(Ordering::Relaxed)
        });
        route_batch(&eager.plane, &eager.routes, vec![snap(0); 3], None);
        assert_eq!(
            worker.join().expect("worker"),
            3,
            "dequeued ahead of the count"
        );
    }

    /// A frame crosses the plane as one slice per shard it touches: frame
    /// order within the slice, the journal record on exactly one slice,
    /// one `Applied` per slice out of the worker, and the core's counters
    /// still in snapshots and epochs.
    #[test]
    fn frame_travels_as_one_slice_per_shard() {
        let r = rig(3, 8, None);
        let frame: Vec<TelemetrySnapshot> = [4, 0, 1, 3, 6, 0]
            .iter()
            .zip(1u64..)
            .map(|(&sw, taken)| TelemetrySnapshot {
                taken_at: Nanos(taken),
                epochs: vec![epoch(taken)],
                ..snap(sw)
            })
            .collect();
        let wire = encode_batch(&frame);
        let resp = route_batch(&r.plane, &r.routes, frame.clone(), Some(wire.clone()));
        assert!(matches!(resp, Response::BatchAck { accepted: 6, .. }));

        // Through the workers — run to completion on this thread, their
        // queues being closed — and into a core.
        let Rig {
            plane,
            routes: Routes { shards, core: tx },
            shard_rxs,
            core_rx,
        } = r;
        let nshards = shards.len();
        drop(shards);
        let shard_of = |s: &TelemetrySnapshot| s.switch.0 as usize % nshards;
        for (shard, rx) in shard_rxs.into_iter().enumerate() {
            let store = TelemetryStore::new(StoreConfig {
                deferred_fold: true,
                ..plane.cfg.store
            });
            shard_worker(Arc::clone(&plane), shard, store, rx, tx.clone());
        }
        assert_eq!(queued_snapshots(&plane), 0);

        // Switches 0, 3, 6 -> shard 0; 1, 4 -> shard 1; nothing -> shard 2.
        let mut core = thread_less_core();
        core.plane = Arc::clone(&plane);
        core.horizons = vec![None; 3];
        core.watermarks = vec![None; 3];
        let mut records = Vec::new();
        let mut shards_heard = Vec::new();
        for msg in core_rx.try_iter() {
            let CoreMsg::Applied(a) = &msg else {
                panic!("workers forwarded only Applied");
            };
            let share: Vec<_> = frame
                .iter()
                .filter(|s| shard_of(s) == a.shard)
                .cloned()
                .collect();
            assert_eq!(a.snaps, share, "shard {} slice out of frame order", a.shard);
            shards_heard.push(a.shard);
            records.extend(a.journal.clone());
            core.handle(msg);
        }
        assert_eq!(shards_heard, vec![0, 1], "one Applied per slice");
        assert_eq!(records, vec![wire], "one record per frame");
        let m = plane.metrics.lock().unwrap();
        assert_eq!(m.counter_total(EPOCHS_INGESTED), 6);
        assert_eq!(m.counter_total(INCREMENTAL_UPDATES), 6);
        assert_eq!(core.engine.stats().snapshots_applied, 6);
        assert_eq!(core.engine.epochs_held(), 6);
    }

    /// Sharding is stable per switch and spreads across the store set.
    #[test]
    fn shard_of_is_switch_stable() {
        let r = rig(4, 1, None);
        for sw in 0..16u32 {
            let a = r.routes.shard_of(NodeId(sw));
            assert_eq!(a, r.routes.shard_of(NodeId(sw)));
            assert!(a < 4);
        }
        assert_ne!(r.routes.shard_of(NodeId(0)), r.routes.shard_of(NodeId(1)));
    }

    fn thread_less_core() -> Core {
        let cfg = ServeConfig::default();
        Core {
            plane: Arc::new(Plane::new(
                chain(2, 1, EVAL_BANDWIDTH, EVAL_DELAY),
                cfg,
                false,
            )),
            engine: IncrementalProvenance::new(cfg.replay, 2 * cfg.store.epoch_budget),
            comp: Compactor::new(cfg.store),
            wal: None,
            audit: AuditTrail::new(AUDIT_CAPACITY),
            horizons: vec![None],
            watermarks: vec![None],
            last_fleet: Nanos::ZERO,
            wal_published: WalStats::default(),
            round: None,
        }
    }

    /// Explain on an empty audit trail is an error, not a panic; a verdict
    /// message is journaled under the next seq with the engine's view
    /// filled in, and served both as latest and by seq.
    #[test]
    fn explain_empty_then_by_seq() {
        let mut core = thread_less_core();
        let explain = |core: &mut Core, seq| {
            let (tx, rx) = sync_channel(1);
            core.handle(CoreMsg::Explain(seq, tx));
            rx.recv().expect("core answers explain")
        };
        assert!(matches!(explain(&mut core, None), Response::Error(_)));
        assert!(matches!(explain(&mut core, Some(0)), Response::Error(_)));
        let mut rec = ExplainRecord {
            seq: 99, // the trail assigns the real one
            victim: "0:7->5".into(),
            window_from_ns: 0,
            window_to_ns: 100,
            anomaly: "NoAnomaly".into(),
            signature_row: "none".into(),
            confidence: "complete".into(),
            root_causes: vec![],
            contributing_switches: vec![],
            contributing_epochs: 0,
            dirty_switches: vec![],
            frags_reused: 0,
            frags_recomputed: 0,
            stage_collect_ns: 0,
            stage_graph_ns: 0,
            stage_match_ns: 0,
        };
        let mut evidence = snap(3);
        evidence.epochs.push(epoch(0));
        assert!(core.engine.apply(&evidence), "an epoch is new evidence");
        core.handle(CoreMsg::Verdict(Box::new(rec.clone())));
        rec.seq = 0;
        rec.dirty_switches = vec![3];
        assert_eq!(explain(&mut core, None), Response::Explain(rec.clone()));
        assert_eq!(explain(&mut core, Some(0)), Response::Explain(rec));
        assert!(matches!(explain(&mut core, Some(1)), Response::Error(_)));
    }

    /// Regression for the hardcoded counter list `Stats` used to carry:
    /// every counter registered in the metrics registry — well-known or
    /// not — must appear in the Stats response.
    #[test]
    fn stats_reports_every_registered_counter() {
        let topo = chain(2, 1, EVAL_BANDWIDTH, EVAL_DELAY);
        let handle = spawn(
            topo,
            ServeConfig::default(),
            Endpoint::Tcp("127.0.0.1:0".into()),
        )
        .expect("bind daemon");
        handle
            .plane
            .metrics
            .lock()
            .unwrap()
            .add(MetricKey::global("custom_counter"), 7);
        let addr = handle.local_addr.expect("tcp address").to_string();
        let mut client = ServeClient::connect_tcp(&addr).expect("connect");
        let v = client.stats().expect("stats");
        for name in handle.plane.metrics.lock().unwrap().counter_names() {
            assert!(
                v.get(name).is_some(),
                "registered counter {name} missing from Stats"
            );
        }
        // The seeded well-known set is present even though nothing fired.
        assert_eq!(v.get(EPOCHS_INGESTED).unwrap().as_u64(), Some(0));
        assert_eq!(v.get(SLOW_OPS).unwrap().as_u64(), Some(0));
        assert_eq!(v.get("custom_counter").unwrap().as_u64(), Some(7));
        drop(client);
        handle.shutdown();
    }
}
