//! The `hawkeye serve` daemon: a multi-threaded diagnosis service whose
//! state is coordinated by **ownership and messages**, nothing else.
//!
//! ```text
//!  accept loop ─Export──────────────┐
//!                                   ▼
//!  session ─Ingest / Snapshots(w)/▶ store thread ─Applied / Export─▶ core
//!     │     FlowHistory / Stats    owns TelemetryStore              owns engine,
//!     │                                                             folded tier,
//!     └────Verdict / Explain / FlowHistory / Stats────────────────▶ WAL, audit
//! ```
//!
//! `Ingest` and `Applied` each carry one `IngestBatch` frame's snapshots
//! in frame order: one message into the store thread and one out of it
//! per frame, whatever the frame size (a single snapshot is a frame of
//! one).
//!
//! - One **accept loop** (the daemon thread) polls the listener, spawns
//!   one **session thread** per connection, and — when the core raises
//!   its flag — asks the store thread to export for a checkpoint round.
//! - **Sessions** decode request frames and queue each `IngestBatch` on
//!   the store thread's bounded queue once the whole frame passed the
//!   shard-ownership and fabric gates. A full queue **backpressures**: the
//!   session blocks, its acks stop, the client's constant credit window
//!   (`CREDIT_WINDOW` un-acknowledged snapshots) fills, and the producer
//!   slows to the store's pace with zero loss.
//! - The **store thread** owns the daemon's one [`TelemetryStore`]
//!   outright. It appends a frame in order and forwards one `Applied`
//!   (the frame, the ring evictions the appends staged, the journal
//!   record that rode in with it, the store's horizon and watermark) to
//!   the core. Reads of the raw ring — `Diagnose`, `Fragments`,
//!   `FlowHistory`, `Stats` — are request messages on the same queue,
//!   answered from the owned store; `Diagnose` and `Fragments` carry
//!   their window, so the store clones only the epochs the window
//!   overlaps, never its whole ring.
//! - The single **core thread** owns the [`IncrementalProvenance`] engine,
//!   the folded tier ([`Compactor`]), the evidence log ([`Wal`]) and the
//!   [`AuditTrail`]. Per frame it applies every snapshot to the engine,
//!   absorbs the folds, retires the engine behind the store's retention
//!   horizon (so store and engine age out telemetry in lockstep, see
//!   `tests/retention.rs`) and appends the journal record — each once.
//!
//! A daemon never splits its switches: splitting them across processes
//! is the fleet's job (`hawkeye serve --shard LO..HI` behind a front).
//!
//! **Messages travel one way only: session → store thread → core.**
//! Replies come back on a per-request rendezvous channel. No owner ever
//! waits on a thread upstream of it — the core never sends to the store
//! thread, the store thread never sends to a session except as a reply —
//! so the wait-for relation between threads is acyclic and the plane
//! cannot deadlock (`tests/lock_order.rs` hammers it anyway). Because
//! every queue is FIFO the request *is* the barrier: the store thread
//! answers a query only after every frame queued before it, and the core
//! answers only after every `Applied` those appends forwarded. `Diagnose`
//! therefore waits for the store's appends but not for the engine applies
//! behind them — which is why the store thread is not the core — it reads
//! its window of the raw ring only, and the store's canonical form makes
//! the verdict identical to the one-shot path on the same telemetry (see
//! `tests/serve_e2e.rs`).
//!
//! The daemon is one [`FrameService`] — the skeleton it shares with the
//! cluster front — plus the request handler below. The service's metrics
//! registry and flight ring are the only shared state: one leaf mutex
//! each, written by sessions and the core, and nothing is ever acquired
//! while one is held. Counters (`epochs_ingested`, `incremental_updates`,
//! `serve_sessions`, …) are reported over `Stats`; per-op latency
//! histograms, stage timings, health gauges and the flight ring ride the
//! `Metrics` request, and every `Diagnose` journals an [`ExplainRecord`]
//! queryable over `Explain`. This instrumentation has no off switch: it is
//! part of every measured number (`tests/obs_e2e.rs` pins what it reports).

use crate::audit::AuditTrail;
use crate::compactor::{Compactor, PendingFold};
use crate::listen::{Answer, Endpoint, FrameService, ServiceHandle};
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
use hawkeye_client::{ExplainRecord, FlowObservation, ShardRange};
use hawkeye_core::{
    analyze_victim_window_obs, AnalyzerConfig, AnomalyType, DiagnosisReport, IncrementalProvenance,
    ReplayConfig, RootCause, Window,
};
use hawkeye_obs::flight as flight_kind;
use hawkeye_obs::names::{
    COMPACTOR_QUEUE_DEPTH, INGEST_BATCHES, INGEST_WRONG_SHARD, OP_DIAGNOSE_NS, OP_EXPLAIN_NS,
    OP_FLOW_HISTORY_NS, OP_FRAGMENTS_NS, OP_INGEST_BATCH_NS, OP_METRICS_NS, OP_STATS_NS,
    RECOVERY_TRUNCATED, RETENTION_LAG_NS, SHARD_QUEUE_DEPTH, SLOW_OPS, STAGE_APPEND_NS,
    STAGE_ENGINE_APPLY_NS, STAGE_FOLD_NS, STAGE_RETIRE_NS, WAL_BYTES, WAL_RECORDS_APPENDED,
    WAL_SEGMENTS_RETIRED,
};
use hawkeye_obs::{MetricKey, MetricsRegistry, ObsConfig, Recorder, Stage};
use hawkeye_sim::{FlowKey, Nanos, Topology};
use hawkeye_telemetry::{encode_batch, TelemetrySnapshot};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread;
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
    /// Bounded depth of the store thread's ingest queue, in frames (at
    /// most the batch size in snapshots each); a full queue blocks the
    /// session (backpressure).
    pub queue_depth: usize,
    /// Artificial per-snapshot delay (wall ns) in the store thread — the
    /// "deliberately slow store" knob for backpressure tests (and the
    /// CLI's `--slow-shard-us`); 0 in production.
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
            queue_depth: 256,
            ingest_delay_ns: 0,
            shard_range: None,
        }
    }
}

/// Audit-trail ring capacity (explain records).
const AUDIT_CAPACITY: usize = 64;

/// A frame's evidence-log record (`REC_BATCH`) riding the ingest path:
/// the received frame body — never a re-encode.
type JournalRecord = Vec<u8>;

/// Messages to the store thread, the owner of the daemon's store.
enum StoreMsg {
    /// One frame's snapshots, in frame order, plus (on a `--durable`
    /// daemon) the journal record the frame settles. The record rides the
    /// store queue and the `Applied` instead of a message of its own, so
    /// durable ingest wakes exactly the threads durability-off ingest does.
    Ingest(Vec<TelemetrySnapshot>, Option<JournalRecord>),
    /// The canonical per-switch snapshots, restricted to the epochs
    /// overlapping the window (`Diagnose`, `Fragments`).
    Snapshots(Window, SyncSender<Vec<TelemetrySnapshot>>),
    /// Raw-ring rows for one flow (unsorted; the session merges).
    FlowHistory(FlowKey, SyncSender<Vec<FlowObservation>>),
    /// The store's `Stats` fields, in response order.
    Stats(SyncSender<Vec<(String, serde::Value)>>),
    /// Checkpoint round: forward every switch's ring image to the core.
    Export,
}

/// What the store thread hands the core for one appended frame.
struct Applied {
    snaps: Vec<TelemetrySnapshot>,
    /// Ring evictions the appends staged for the folded tier.
    staged: Vec<PendingFold>,
    journal: Option<JournalRecord>,
    /// The store's retention horizon and freshest-data watermark after
    /// the frame's last append; `None` = no reporting switch yet. Read
    /// once per frame, which can delay an engine retirement by a frame and
    /// never cause an early one.
    horizon: Option<Nanos>,
    watermark: Option<Nanos>,
    /// The store's own wall-clock over the frame: ring admission and the
    /// eviction loop.
    append_ns: u64,
    evict_ns: u64,
    /// Ingest-queue occupancy (snapshots) behind this frame at dequeue.
    queue_depth: u64,
}

/// Messages to the core thread. The store thread sends `Applied` and
/// `Export`; sessions send the rest.
enum CoreMsg {
    Applied(Applied),
    /// The store's half of a checkpoint round. It follows, on the same
    /// FIFO, every `Applied` the store thread sent before exporting, so
    /// the buckets the core pairs with each image hold exactly the epochs
    /// that image has evicted — no more, no fewer.
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

/// Depth of the core thread's channel, in messages (an `Applied` is one
/// frame). Bounded on purpose: if the core falls this far behind, the
/// store thread blocks on the send and the slowdown propagates up the
/// ingest path (and, under the credit window, back to the client) instead
/// of growing an unbounded queue. 128 frames park at most 4096 snapshots
/// at 32-snapshot frames; left at 1024 messages, a core stall showed as
/// +14 % peak RSS on `serve-ingest`.
const CORE_QUEUE_DEPTH: usize = 128;

/// What every thread of one daemon can see: the configuration, the frame
/// service (stop flag, registry, flight ring), the checkpoint flag and two
/// queue-occupancy statistics. No telemetry, graph or log state lives
/// here — that is owned by the store thread and the core.
struct Plane {
    topo: Topology,
    cfg: ServeConfig,
    /// True when the daemon journals to a durable evidence log. Gates
    /// the journaling call sites so a durability-off daemon's behaviour
    /// (and byte output) is identical to pre-WAL builds.
    durable: bool,
    service: Arc<FrameService>,
    /// Raised by the core when enough segments have completed to warrant
    /// a checkpoint; the accept loop polls it and starts the round.
    ckpt_wanted: AtomicBool,
    /// Ingest-queue occupancy in snapshots: added *before* the frame is
    /// sent, so the store thread's subtraction on dequeue can never run
    /// ahead of it and wrap; taken back if the send fails.
    queue_depth: AtomicU64,
    /// `Applied` messages sent but not yet processed by the core (the
    /// `compactor_queue_depth` gauge).
    core_depth: AtomicU64,
}

impl Plane {
    fn new(topo: Topology, cfg: ServeConfig, durable: bool) -> Plane {
        let service = FrameService::new(
            cfg.shard_range.map(|r| r.epoch),
            &[
                EPOCHS_INGESTED,
                INCREMENTAL_UPDATES,
                SERVE_SESSIONS,
                ENGINE_EPOCHS_RETIRED,
                SLOW_OPS,
                INGEST_BATCHES,
            ],
        );
        // WAL counters exist only on a durable daemon, so a durability-off
        // Stats response stays byte-identical to pre-WAL builds.
        if durable {
            for name in [
                WAL_RECORDS_APPENDED,
                WAL_BYTES,
                WAL_SEGMENTS_RETIRED,
                RECOVERY_TRUNCATED,
            ] {
                service.add(name, 0);
            }
        }
        Plane {
            topo,
            cfg,
            durable,
            service: Arc::new(service),
            ckpt_wanted: AtomicBool::new(false),
            queue_depth: AtomicU64::new(0),
            core_depth: AtomicU64::new(0),
        }
    }

    /// A WAL write failed (disk full, dir deleted, …). The daemon keeps
    /// serving — durability is degraded, not availability — and the fault
    /// lands in the flight ring where operators look first.
    fn wal_fault(&self, what: &'static str, e: &io::Error) {
        self.service.note(flight_kind::ERROR, what, e.to_string());
    }
}

fn uint(name: &str, v: u64) -> (String, serde::Value) {
    (name.into(), serde::Value::UInt(v))
}

/// The core thread's state: single owner of the engine, the folded tier,
/// the evidence log and the audit trail.
struct Core {
    plane: Arc<Plane>,
    engine: IncrementalProvenance,
    comp: Compactor,
    wal: Option<Wal>,
    audit: AuditTrail,
    /// The store's retention horizon as last reported in an `Applied`;
    /// [`Nanos::ZERO`] (retire nothing) until a switch has reported.
    horizon: Nanos,
    /// Horizon last pushed into the engine — most frames don't move it,
    /// and comparing here skips the engine call entirely.
    last_retired: Nanos,
    /// `Wal::stats` as of the last publish to the registry.
    wal_published: WalStats,
    /// The open checkpoint round's boundary: the WAL seq when it opened.
    /// Every record below it had already been applied by the store, so
    /// every image covers it; records at or above may or may not be inside
    /// the images, and recovery re-applies them all, which the store's
    /// dedup rules make idempotent.
    round: Option<u64>,
}

impl Core {
    fn run(mut self, rx: Receiver<CoreMsg>) {
        // Ends when every sender is gone: the accept loop drops the last
        // one after joining the sessions and the store thread, so
        // everything they sent is processed first.
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

    fn applied(&mut self, a: Applied) {
        let queued = self
            .plane
            .core_depth
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        let mut epochs = 0;
        let mut changed = 0;
        let t = Instant::now();
        for snap in a.snaps {
            epochs += snap.epochs.len() as u64;
            changed += u64::from(self.engine.apply_owned(snap));
        }
        let apply_ns = t.elapsed().as_nanos() as u64;
        let fold_ns = a.evict_ns + self.comp.absorb(a.staged);
        let horizon = a.horizon.unwrap_or(Nanos::ZERO);
        self.horizon = horizon;
        let t = Instant::now();
        // Retire engine state the store no longer backs with raw epochs —
        // what keeps a long-running daemon's wait-for graph bounded.
        let retired = if horizon > self.last_retired {
            self.last_retired = horizon;
            self.engine.retire_before(horizon)
        } else {
            0
        };
        let retire_ns = t.elapsed().as_nanos() as u64;
        if let Some(frame) = a.journal {
            self.journal(REC_BATCH, &frame);
        }

        let mut m = self.plane.service.metrics.lock().expect("metrics lock");
        m.add(MetricKey::global(EPOCHS_INGESTED), epochs);
        if changed > 0 {
            m.add(MetricKey::global(INCREMENTAL_UPDATES), changed);
        }
        if retired > 0 {
            m.add(MetricKey::global(ENGINE_EPOCHS_RETIRED), retired);
        }
        // Stage split: where does the ingest path spend its wall-clock —
        // ring admission, eviction + fold, engine apply, or retirement
        // (sums over the frame).
        m.add(MetricKey::global(STAGE_APPEND_NS), a.append_ns);
        m.add(MetricKey::global(STAGE_FOLD_NS), fold_ns);
        m.add(MetricKey::global(STAGE_ENGINE_APPLY_NS), apply_ns);
        m.add(MetricKey::global(STAGE_RETIRE_NS), retire_ns);
        // The raw-history span the daemon holds (sim-time ns).
        let retention = a.watermark.map_or(0, |w| w.0.saturating_sub(horizon.0));
        m.set(MetricKey::global(SHARD_QUEUE_DEPTH), a.queue_depth as f64);
        m.set(MetricKey::global(RETENTION_LAG_NS), retention as f64);
        m.set(MetricKey::global(COMPACTOR_QUEUE_DEPTH), queued as f64);
        add_wal_counters(&self.wal, &mut self.wal_published, &mut m);
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
            self.round = Some(w.next_seq());
            self.plane.ckpt_wanted.store(true, Ordering::SeqCst);
        }
    }

    /// The store's ring images for the open round, paired right here with
    /// the buckets of the same switches — see [`CoreMsg::Export`] for why
    /// this instant is the consistent one — and written out as one
    /// checkpoint.
    fn export(&mut self, images: Vec<SwitchRestore>) {
        let Some(boundary) = self.round.take() else {
            return;
        };
        if let Err(e) = self.write_checkpoint(boundary, images) {
            self.plane.wal_fault("wal_checkpoint", &e);
        }
        self.maybe_open_round();
    }

    /// Write one complete checkpoint (per-switch ring images + compacted
    /// buckets + the audit trail) and retire the raw segments it covers —
    /// disk stays bounded in lockstep with the compaction tiers.
    fn write_checkpoint(&mut self, boundary: u64, images: Vec<SwitchRestore>) -> io::Result<()> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        wal.append(REC_CKPT_BEGIN, &boundary.to_le_bytes())?;
        for restore in images {
            let buckets = self
                .comp
                .buckets_of(restore.switch)
                .into_iter()
                .cloned()
                .collect();
            let image = SwitchCheckpoint { restore, buckets };
            wal.append(REC_CKPT_SWITCH, &encode_switch_checkpoint(&image))?;
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
        wal.retire_below(boundary)?;
        Ok(())
    }

    /// Sync the log and bring the `wal_*` counters up to date (`Stats`,
    /// shutdown).
    fn sync_wal(&mut self) {
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.sync() {
            self.plane.wal_fault("wal_sync", &e);
        }
        let mut m = self.plane.service.metrics.lock().expect("metrics lock");
        add_wal_counters(&self.wal, &mut self.wal_published, &mut m);
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
            uint("store_retention_horizon", self.horizon.0),
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

fn store_thread(
    plane: Arc<Plane>,
    mut store: TelemetryStore,
    rx: Receiver<StoreMsg>,
    core: SyncSender<CoreMsg>,
) {
    // A send to the core fails only when the core thread is gone; with
    // nothing downstream left to feed, the store thread exits and sessions
    // see "store thread gone".
    while let Ok(msg) = rx.recv() {
        match msg {
            StoreMsg::Ingest(snaps, journal) => {
                let n = snaps.len() as u64;
                let queue_depth = plane
                    .queue_depth
                    .fetch_sub(n, Ordering::Relaxed)
                    .saturating_sub(n);
                let before = *store.stats();
                for snap in &snaps {
                    if plane.cfg.ingest_delay_ns > 0 {
                        // The deliberately-slow-store knob: backpressure
                        // tests throttle the consumer here.
                        thread::sleep(Duration::from_nanos(plane.cfg.ingest_delay_ns));
                    }
                    store.append(snap);
                }
                let after = store.stats();
                let applied = Applied {
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
            StoreMsg::Snapshots(window, reply) => {
                let _ = reply.send(store.snapshots_in(window));
            }
            StoreMsg::FlowHistory(key, reply) => {
                let _ = reply.send(store.flow_history(&key));
            }
            StoreMsg::Stats(reply) => {
                let _ = reply.send(vec![
                    uint("store_snapshots_appended", store.stats().snapshots_appended),
                    uint("store_epochs_held", store.epochs_held() as u64),
                    uint("store_switches", store.switches().len() as u64),
                ]);
            }
            StoreMsg::Export => {
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
    store: SyncSender<StoreMsg>,
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

/// Send `to` one request built around a fresh reply channel and wait for
/// the answer; `who` names the owner thread if it is gone.
fn ask<M, R>(
    to: &SyncSender<M>,
    who: &'static str,
    request: impl FnOnce(SyncSender<R>) -> M,
) -> Result<R, Gone> {
    let (reply_tx, reply_rx) = sync_channel(1);
    to.send(request(reply_tx)).map_err(|_| Gone(who))?;
    reply_rx.recv().map_err(|_| Gone(who))
}

impl Routes {
    fn ask_store<R>(&self, request: impl FnOnce(SyncSender<R>) -> StoreMsg) -> Result<R, Gone> {
        ask(&self.store, "store thread", request)
    }

    fn ask_core<R>(&self, request: impl FnOnce(SyncSender<R>) -> CoreMsg) -> Result<R, Gone> {
        ask(&self.core, "core thread", request)
    }

    /// The store's canonical snapshots of `window`, in switch-id order.
    fn gather_snapshots(&self, window: Window) -> Result<Vec<TelemetrySnapshot>, Gone> {
        self.ask_store(|reply| StoreMsg::Snapshots(window, reply))
    }

    /// Where was this flow seen, across both retention tiers, in the
    /// store's canonical row order. Store first, core second: the core
    /// answers after every fold the store staged.
    fn flow_history(&self, key: FlowKey) -> Result<Response, Gone> {
        let mut rows = self.ask_store(|reply| StoreMsg::FlowHistory(key, reply))?;
        rows.extend(self.ask_core(|reply| CoreMsg::FlowHistory(key, reply))?);
        rows.sort_unstable_by_key(|o| (o.from, o.to, o.switch, o.fidelity, o.out_port));
        Ok(Response::History(rows))
    }

    /// `Stats` is the full barrier: the store thread answers after every
    /// ingest queued before it, the core after every `Applied` it
    /// forwarded (and a WAL sync), and only then are the counters read.
    fn stats(&self, plane: &Plane) -> Result<Response, Gone> {
        let store_fields = self.ask_store(StoreMsg::Stats)?;
        let core_fields = self.ask_core(CoreMsg::Stats)?;
        let mut fields = plane.service.counter_fields();
        fields.extend(store_fields);
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
            enabled: true,
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
        // Sent after the store answered, so the core journals it behind
        // every `Applied` this verdict's evidence produced.
        let record = explain_record(p, &snapshots, &report, &rec);
        let _ = self.core.send(CoreMsg::Verdict(Box::new(record)));
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
        confidence: report.confidence.label().to_string(),
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

/// Route an `IngestBatch` frame: gate it and queue it whole on the store
/// thread; one `BatchAck` settles the whole frame (the client's window
/// gets the frame's snapshots back). A full queue *blocks* until the store
/// drains — the session slows down, the client's credit window empties,
/// and the store's pace propagates all the way back to the producer with
/// zero loss. A dead store thread or an out-of-range switch fails the
/// frame with an error.
///
/// `wire` is the frame's evidence-log record on a durable daemon: the
/// received frame body, never a re-encode — the codec is deterministic, so
/// the frame bytes ARE the canonical form (checked in debug builds). It
/// rides the frame, so it is appended once, and only if the frame was
/// queued.
fn route_batch(
    plane: &Plane,
    routes: &Routes,
    snaps: Vec<TelemetrySnapshot>,
    wire: Option<JournalRecord>,
) -> Response {
    debug_assert!(
        wire.as_ref().is_none_or(|w| *w == encode_batch(&snaps)),
        "journaled wire bytes diverge from the canonical batch encoding"
    );
    // Shard-ownership gate, ahead of everything and over the whole frame:
    // an out-of-range switch is a routing fault (stale or mis-cut shard
    // map at the sender), answered with the typed `wrong_shard:` error
    // before anything is queued — a sharded durable daemon neither stores
    // nor journals any part of a frame it refused.
    if let Some(range) = plane.cfg.shard_range {
        if let Some(stray) = snaps.iter().find(|s| !range.contains(s.switch)) {
            let detail = format!("switch {} outside owned range {range}", stray.switch.0);
            plane.service.add(INGEST_WRONG_SHARD, 1);
            plane
                .service
                .flight
                .lock()
                .expect("flight lock")
                .warn("ingest_wrong_shard", detail.clone());
            return Response::Error(format!("{WRONG_SHARD_PREFIX} {detail}"));
        }
    }
    // Fabric gate, also before anything is queued or journaled: a snapshot
    // about no switch of this fabric, or a port its switch lacks, would
    // index past the topology in the engine and in every Diagnose over
    // its window.
    if let Err(refusal) = check_evidence(&snaps, &plane.topo) {
        return Response::Error(refusal);
    }
    let n = snaps.len() as u64;
    plane.queue_depth.fetch_add(n, Ordering::Relaxed);
    if routes.store.send(StoreMsg::Ingest(snaps, wire)).is_err() {
        plane.queue_depth.fetch_sub(n, Ordering::Relaxed);
        return Gone("store thread").into();
    }
    plane.service.add(INGEST_BATCHES, 1);
    Response::BatchAck {
        accepted: n as u32,
        shed: 0,
    }
}

/// The daemon's request handler: everything but `Hello` and `Shutdown`,
/// which the service's session loop answers itself.
fn handle(plane: &Plane, routes: &Routes, req: Request, body: &mut Vec<u8>) -> Answer {
    let (op, resp) = match req {
        Request::IngestBatch(snaps) => {
            // A durable daemon journals the frame body verbatim; decoding
            // is done with it.
            let wire = plane.durable.then(|| std::mem::take(body));
            (
                OP_INGEST_BATCH_NS,
                Ok(route_batch(plane, routes, snaps, wire)),
            )
        }
        // The cross-shard gather primitive: the canonical per-switch
        // snapshots of the window — the same store state a local Diagnose
        // of it would analyze — covering everything acknowledged before
        // this.
        Request::Fragments(window) => (
            OP_FRAGMENTS_NS,
            routes.gather_snapshots(window).map(Response::Fragments),
        ),
        Request::Diagnose(p) => (OP_DIAGNOSE_NS, routes.diagnose(plane, &p)),
        Request::FlowHistory(key) => (OP_FLOW_HISTORY_NS, routes.flow_history(key)),
        Request::Stats => (OP_STATS_NS, routes.stats(plane)),
        Request::Metrics => (OP_METRICS_NS, Ok(plane.service.metrics_response())),
        Request::Explain(seq) => (
            OP_EXPLAIN_NS,
            routes.ask_core(|reply| CoreMsg::Explain(seq, reply)),
        ),
        Request::Hello { .. } | Request::Shutdown => {
            unreachable!("answered by the session loop")
        }
    };
    (Some(op), resp.unwrap_or_else(Response::from))
}

/// A running daemon: the frame service's handle, carrying what start-up
/// recovery found (`None` on a durability-off daemon).
pub type DaemonHandle = ServiceHandle<Option<RecoveryReport>>;

/// Start the daemon on `endpoint`. Returns once the listener is bound and
/// accepting; serving continues on background threads until a `Shutdown`
/// request arrives or [`ServiceHandle::shutdown`] is called.
pub fn spawn(topo: Topology, cfg: ServeConfig, endpoint: Endpoint) -> io::Result<DaemonHandle> {
    spawn_durable(topo, cfg, endpoint, None)
}

/// [`spawn`], with an optional durable evidence log. With `Some(wal_cfg)`
/// the daemon first recovers whatever a previous incarnation journaled
/// into that directory — scan, CRC-verify, truncate the torn suffix,
/// restore the last complete checkpoint, replay the tail — and only then
/// binds the listener, so a client that can connect always sees the
/// recovered state. Every accepted epoch and emitted verdict is journaled
/// by the core thread; the store thread never touches the log.
pub fn spawn_durable(
    topo: Topology,
    cfg: ServeConfig,
    endpoint: Endpoint,
    wal_cfg: Option<WalConfig>,
) -> io::Result<DaemonHandle> {
    let mut cfg = cfg;
    // The daemon always folds off-thread: the store stages ring-evicted
    // epochs and the core owns the folded tier. Inline mode remains the
    // standalone-store default only.
    cfg.store.deferred_fold = true;

    // Recover before binding: replay the evidence log into the store, the
    // folded tier and the audit trail.
    let mut store = TelemetryStore::new(cfg.store);
    let mut comp = Compactor::new(cfg.store);
    let mut audit = AuditTrail::new(AUDIT_CAPACITY);
    let (wal, recovery) = match &wal_cfg {
        Some(wcfg) => {
            let (wal, report) = recover_and_open(wcfg, &mut store, &mut comp, &mut audit)?;
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
    let horizon = store.retention_horizon().unwrap_or(Nanos::ZERO);
    let mut last_retired = Nanos::ZERO;
    if recovery.is_some() {
        // Rebuild the wait-for graph from the recovered canonical rings —
        // the engine is derived state, so it is never checkpointed — and
        // retire it behind the recovered horizon, exactly as the ingest
        // path would have.
        for snap in store.snapshots() {
            engine.apply_owned(snap);
        }
        engine.retire_before(horizon);
        last_retired = horizon;
    }
    let plane = Arc::new(Plane::new(topo, cfg, wal.is_some()));
    if let Some(rep) = &recovery {
        plane.service.add(RECOVERY_TRUNCATED, rep.truncated_records);
    }

    let listener = endpoint.bind()?;

    let (core_tx, core_rx) = sync_channel(CORE_QUEUE_DEPTH);
    let core = Core {
        plane: Arc::clone(&plane),
        engine,
        comp,
        wal,
        audit,
        horizon,
        last_retired,
        wal_published: WalStats::default(),
        round: None,
    };
    let core_join = thread::Builder::new()
        .name("hawkeye-core".into())
        .spawn(move || core.run(core_rx))
        .expect("spawn core thread");

    let (store_tx, store_rx) = sync_channel(cfg.queue_depth.max(1));
    let store_join = {
        let plane = Arc::clone(&plane);
        let core_tx = core_tx.clone();
        thread::Builder::new()
            .name("hawkeye-store".into())
            .spawn(move || store_thread(plane, store, store_rx, core_tx))
            .expect("spawn store thread")
    };
    let routes = Routes {
        store: store_tx,
        core: core_tx,
    };

    // A checkpoint round starts from the accept thread because it is
    // upstream of the store thread: the store forwards its ring images to
    // the core, which writes the checkpoint.
    let tick = {
        let plane = Arc::clone(&plane);
        let store = routes.store.clone();
        move || {
            if plane.ckpt_wanted.swap(false, Ordering::SeqCst) {
                let _ = store.send(StoreMsg::Export);
            }
        }
    };
    let service = Arc::clone(&plane.service);
    Ok(service.serve(
        listener,
        ["hawkeye-accept", "hawkeye-session"],
        tick,
        move || {
            let plane = Arc::clone(&plane);
            let routes = routes.clone();
            move |req, body: &mut Vec<u8>| handle(&plane, &routes, req, body)
        },
        // By now the service has dropped every sender the sessions and the
        // tick held, which ends the store thread's loop and — once it is
        // joined and its core sender with it — the core's: FIFO order means
        // each drains everything sent to it first, and the core syncs the
        // WAL on the way out.
        move || {
            let _ = store_join.join();
            let _ = core_join.join();
        },
        recovery,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_client::proto::FOREIGN_EVIDENCE_PREFIX;
    use hawkeye_client::ServeClient;
    use hawkeye_sim::{chain, NodeId, EVAL_BANDWIDTH, EVAL_DELAY};

    /// A thread-less plane plus routes into hand-held receivers: what a
    /// session sees, with the tests standing in for the owner threads.
    struct Rig {
        plane: Arc<Plane>,
        routes: Routes,
        /// `None` once a test dropped it: the store thread is gone.
        store_rx: Option<Receiver<StoreMsg>>,
        core_rx: Receiver<CoreMsg>,
    }

    fn rig(depth: usize, shard_range: Option<ShardRange>) -> Rig {
        let cfg = ServeConfig {
            shard_range,
            ..ServeConfig::default()
        };
        let (store, store_rx) = sync_channel(depth);
        let (core, core_rx) = sync_channel(depth);
        Rig {
            // Eight switches, ids 0..8 — every id these tests route — and
            // no hosts.
            plane: Arc::new(Plane::new(
                chain(8, 0, EVAL_BANDWIDTH, EVAL_DELAY),
                cfg,
                false,
            )),
            routes: Routes { store, core },
            store_rx: Some(store_rx),
            core_rx,
        }
    }

    impl Rig {
        /// Ingest messages queued on the store thread so far.
        fn queued_frames(&self) -> usize {
            self.store_rx
                .as_ref()
                .expect("store alive")
                .try_iter()
                .count()
        }
    }

    fn queued_snapshots(plane: &Plane) -> u64 {
        plane.queue_depth.load(Ordering::Relaxed)
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
            .service
            .metrics
            .lock()
            .unwrap()
            .counter_total(INGEST_WRONG_SHARD)
    }

    /// Every ack accounts for exactly its frame — the frame's size, a frame
    /// of one included — which is what the client's window gets back.
    #[test]
    fn acks_return_the_frames_credits() {
        let r = rig(4, None);
        for n in [1, 3] {
            let resp = route_batch(&r.plane, &r.routes, vec![snap(0); n as usize], None);
            assert_eq!(
                resp,
                Response::BatchAck {
                    accepted: n,
                    shed: 0
                }
            );
        }
    }

    /// A disconnected store (its thread gone) reports an error, not a
    /// panic and not an ack — and a query fails too.
    #[test]
    fn disconnected_store_reports_error() {
        let mut r = rig(1, None);
        r.store_rx = None;
        assert!(matches!(
            route_batch(&r.plane, &r.routes, vec![snap(0)], None),
            Response::Error(_)
        ));
        assert!(matches!(
            r.routes.gather_snapshots(Window::default()),
            Err(Gone("store thread"))
        ));
        assert!(matches!(
            r.routes.stats(&r.plane),
            Err(Gone("store thread"))
        ));
    }

    /// A dead store thread fails a whole batch with an error (never a
    /// BatchAck that silently lost snapshots).
    #[test]
    fn disconnected_store_fails_batch() {
        let mut r = rig(4, None);
        r.store_rx = None;
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
        let r = rig(4, Some(range));
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
        assert_eq!(r.queued_frames(), 1, "refused but queued");
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
        let r = rig(8, Some(range));
        let frame = vec![snap(0), snap(1), snap(5)];
        let resp = route_batch(&r.plane, &r.routes, frame, None);
        let Response::Error(msg) = resp else {
            panic!("batch with out-of-range snapshot answered {resp:?}");
        };
        assert!(msg.starts_with(WRONG_SHARD_PREFIX));
        assert_eq!(wrong_shard_count(&r.plane), 1);
        assert_eq!(r.queued_frames(), 0, "refused frame queued");
        assert_eq!(queued_snapshots(&r.plane), 0);
    }

    /// A snapshot about no switch of the fabric, or naming a port its
    /// switch lacks, fails the whole frame with the typed
    /// `foreign_evidence:` error before any of it is queued.
    #[test]
    fn foreign_evidence_fails_batch_typed() {
        let r = rig(8, None);
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
        assert_eq!(r.queued_frames(), 0, "refused frame queued");
        assert_eq!(queued_snapshots(&r.plane), 0);
    }

    /// The occupancy gauge counts a frame before it is sent and takes it
    /// back when the send fails. Counted after the send, a store thread
    /// that dequeues at once subtracts first, wraps the counter below zero
    /// and publishes ~1.8e19 as `shard_queue_depth`: the rendezvous queue
    /// here hands the frame over at exactly that instant.
    #[test]
    fn queue_depth_counts_before_the_send() {
        let r = rig(8, None);
        let frame: Vec<_> = (0..5).map(snap).collect();
        route_batch(&r.plane, &r.routes, frame, None);
        assert_eq!(queued_snapshots(&r.plane), 5);

        let mut dead = rig(8, None);
        dead.store_rx = None;
        let resp = route_batch(&dead.plane, &dead.routes, vec![snap(0), snap(1)], None);
        assert!(matches!(resp, Response::Error(_)));
        assert_eq!(
            queued_snapshots(&dead.plane),
            0,
            "failed send kept its count"
        );

        let mut eager = rig(0, None);
        let rx = eager.store_rx.take().expect("store alive");
        let plane = Arc::clone(&eager.plane);
        let store = thread::spawn(move || {
            let _frame = rx.recv().expect("a frame arrives");
            queued_snapshots(&plane)
        });
        route_batch(&eager.plane, &eager.routes, vec![snap(0); 3], None);
        assert_eq!(
            store.join().expect("store thread"),
            3,
            "dequeued ahead of the count"
        );
    }

    /// A frame crosses the plane as one `Ingest` and one `Applied`: frame
    /// order kept, the journal record riding both, and the core's counters
    /// still in snapshots and epochs.
    #[test]
    fn frame_travels_as_one_ingest_and_one_applied() {
        let r = rig(8, None);
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

        // Through the store thread — run to completion on this thread, its
        // queue being closed — and into a core.
        let Rig {
            plane,
            routes: Routes {
                store: sender,
                core: tx,
            },
            store_rx,
            core_rx,
        } = r;
        drop(sender);
        let store = TelemetryStore::new(StoreConfig {
            deferred_fold: true,
            ..plane.cfg.store
        });
        store_thread(Arc::clone(&plane), store, store_rx.unwrap(), tx);
        assert_eq!(queued_snapshots(&plane), 0);

        let mut core = thread_less_core();
        core.plane = Arc::clone(&plane);
        let applied: Vec<CoreMsg> = core_rx.try_iter().collect();
        assert_eq!(applied.len(), 1, "one Applied per frame");
        let CoreMsg::Applied(a) = &applied[0] else {
            panic!("the store thread forwarded only Applied");
        };
        assert_eq!(a.snaps, frame, "frame order lost");
        assert_eq!(a.journal, Some(wire), "one record per frame");
        for msg in applied {
            core.handle(msg);
        }
        let m = plane.service.metrics.lock().unwrap();
        assert_eq!(m.counter_total(EPOCHS_INGESTED), 6);
        assert_eq!(m.counter_total(INCREMENTAL_UPDATES), 6);
        assert_eq!(core.engine.stats().snapshots_applied, 6);
        assert_eq!(core.engine.epochs_held(), 6);
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
            horizon: Nanos::ZERO,
            last_retired: Nanos::ZERO,
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
        handle.service.add("custom_counter", 7);
        let addr = handle.local_addr.expect("tcp address").to_string();
        let mut client = ServeClient::connect_tcp(&addr).expect("connect");
        let v = client.stats().expect("stats");
        for name in handle.service.metrics.lock().unwrap().counter_names() {
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
