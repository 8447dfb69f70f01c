//! Observability layer for the Hawkeye reproduction.
//!
//! Three pieces, deliberately free of simulator dependencies so every crate
//! in the workspace (including `hawkeye-sim` itself) can depend on it:
//!
//! * [`Tracer`] — a typed, bounded ring buffer of [`TraceEvent`]s stamped
//!   with nanosecond *simulation* time. Overflow drops the oldest record and
//!   counts the loss; nothing in the hot path allocates once the ring is at
//!   capacity beyond the event payload itself.
//! * [`MetricsRegistry`] — counters, gauges and log2-bucket histograms keyed
//!   by [`MetricKey`] (metric name plus optional switch / port / flow
//!   labels), with O(1) amortized hot-path updates and a deterministic,
//!   serializable [`MetricsSnapshot`].
//! * [`StageProfile`] — span timing around the diagnosis pipeline stages
//!   (telemetry collection, Algorithm 1 graph build, Algorithm 2 signature
//!   match), measuring wall-clock per stage while the corresponding
//!   [`TraceEvent::StageSpan`] carries only sim-time, keeping trace bytes
//!   reproducible across runs.
//!
//! Emission lives in [`emit`]: JSONL (one record per line) and the Chrome
//! trace-event format that Perfetto / `chrome://tracing` load directly.
//!
//! Identifiers cross the crate boundary as raw integers (`NodeId.0`,
//! `FlowId.0`, port numbers) — the simulator-side decorator
//! (`hawkeye_sim::ObservedHook`) performs the translation.

pub mod emit;
pub mod event;
pub mod flight;
pub mod metrics;
pub mod span;
pub mod tracer;

pub use event::{kind, TraceEvent, TraceRecord};
pub use flight::{FlightEvent, FlightRecorder};
pub use metrics::{Histogram, HistogramEntry, MetricKey, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanRecord, Stage, StageProfile};
pub use tracer::Tracer;

/// Well-known counter names shared between producers and dashboards.
/// Registered here (rather than at each call site) so a name change is a
/// one-place edit and consumers can enumerate what a daemon may report.
pub mod names {
    /// Telemetry epochs accepted into the serve daemon's store.
    pub const EPOCHS_INGESTED: &str = "epochs_ingested";
    /// Snapshots a front-end acknowledged as not taken (`BatchAck.shed`).
    /// Daemons backpressure and never shed.
    pub const INGEST_SHED: &str = "ingest_shed";
    /// Snapshots that actually changed the incremental provenance state.
    pub const INCREMENTAL_UPDATES: &str = "incremental_updates";
    /// Client sessions accepted by the serve daemon.
    pub const SERVE_SESSIONS: &str = "serve_sessions";
    /// Epochs the incremental engine retired behind the retention horizon.
    pub const ENGINE_EPOCHS_RETIRED: &str = "engine_epochs_retired";

    // --- serve-plane request latency histograms (wall-clock ns) ---------

    /// Diagnose request handling latency (includes the flush barrier).
    pub const OP_DIAGNOSE_NS: &str = "op_diagnose_ns";
    /// FlowHistory request handling latency.
    pub const OP_FLOW_HISTORY_NS: &str = "op_flow_history_ns";
    /// Stats request handling latency.
    pub const OP_STATS_NS: &str = "op_stats_ns";
    /// Metrics request handling latency.
    pub const OP_METRICS_NS: &str = "op_metrics_ns";
    /// Explain (audit-trail) request handling latency.
    pub const OP_EXPLAIN_NS: &str = "op_explain_ns";
    /// IngestBatch request handling latency (the whole frame).
    pub const OP_INGEST_BATCH_NS: &str = "op_ingest_batch_ns";
    /// Fragments (cross-shard gather) request handling latency.
    pub const OP_FRAGMENTS_NS: &str = "op_fragments_ns";

    // --- batched ingest ---------------------------------------------------

    /// Ingest frames accepted by the serve daemon.
    pub const INGEST_BATCHES: &str = "ingest_batches";
    /// Ingest requests refused on shard-ownership grounds (switch id
    /// outside the daemon's `--shard` range, or a stale shard-map epoch
    /// announced on Hello) — typed `wrong_shard` errors, never stored.
    pub const INGEST_WRONG_SHARD: &str = "ingest_wrong_shard";

    // --- front-end (the `hawkeye front` shard router) ---------------------

    /// Shard daemons the front-end currently considers unreachable
    /// (gauge). Non-zero means diagnoses are degraded.
    pub const FRONT_BACKENDS_DOWN: &str = "front_backends_down";
    /// Snapshots the front-end dropped because the owning shard daemon
    /// was unreachable; the front also counts them in `ingest_shed`.
    pub const FRONT_SHED_DOWN: &str = "front_shed_down";

    // --- serve-plane pipeline stage timings (wall-clock ns, counters) ---

    /// Wall time in `TelemetryStore::append` admitting into the raw ring
    /// (everything except the eviction/fold loop).
    pub const STAGE_APPEND_NS: &str = "stage_append_ns";
    /// Wall time folding evicted raw epochs into compacted buckets.
    pub const STAGE_FOLD_NS: &str = "stage_fold_ns";
    /// Wall time applying snapshots to the incremental engine.
    pub const STAGE_ENGINE_APPLY_NS: &str = "stage_engine_apply_ns";
    /// Wall time retiring engine state behind the retention horizon.
    pub const STAGE_RETIRE_NS: &str = "stage_retire_ns";

    // --- scenario-corpus fuzzer (Collie-style disagreement search) ------

    /// Mutated scenario runs the fuzzer completed (including agreeing
    /// ones; excludes rejected degenerate topologies).
    pub const FUZZ_RUNS: &str = "fuzz_runs";
    /// Mutated topologies rejected with a typed build error before any
    /// simulation ran (degenerate dimensions, unpinnable paths).
    pub const FUZZ_TOPOLOGIES_REJECTED: &str = "fuzz_topologies_rejected";
    /// Runs whose Hawkeye verdict disagreed with scenario ground truth.
    pub const FUZZ_DISAGREEMENTS: &str = "fuzz_disagreements";
    /// Extra runs spent shrinking disagreeing repros by parameter
    /// bisection.
    pub const FUZZ_SHRINK_RUNS: &str = "fuzz_shrink_runs";
    /// Minimized disagreements banked into the regression corpus.
    pub const FUZZ_BANKED: &str = "fuzz_banked";

    // --- serve-plane health gauges and warning counters ------------------

    /// Snapshots queued to the serve daemon's store thread but not yet
    /// appended (gauge).
    pub const SHARD_QUEUE_DEPTH: &str = "shard_queue_depth";
    /// The store's watermark minus its retention horizon (gauge, ns).
    pub const RETENTION_LAG_NS: &str = "retention_lag_ns";
    /// Requests slower than the configured slow-op threshold.
    pub const SLOW_OPS: &str = "slow_ops";
    /// Applied snapshots queued to the serve daemon's core thread but not
    /// yet processed (gauge).
    pub const COMPACTOR_QUEUE_DEPTH: &str = "compactor_queue_depth";

    // --- durable evidence log (the `--durable` serve daemon) -------------

    /// Records appended to the write-ahead evidence log.
    pub const WAL_RECORDS_APPENDED: &str = "wal_records_appended";
    /// Bytes appended to the write-ahead evidence log (framing included).
    pub const WAL_BYTES: &str = "wal_bytes";
    /// Completed WAL segments deleted after a durable checkpoint.
    pub const WAL_SEGMENTS_RETIRED: &str = "wal_segments_retired";
    /// Torn or corrupt suffixes truncated away during startup recovery
    /// (one per corruption event, plus one per condemned later segment).
    pub const RECOVERY_TRUNCATED: &str = "recovery_truncated";
}

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when false the recorder's hot-path methods return
    /// immediately (a single branch on a bool).
    pub enabled: bool,
    /// Ring-buffer capacity in records.
    pub capacity: usize,
    /// Bitmask of [`kind`] constants selecting which events are kept.
    pub mask: u32,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            capacity: 1 << 16,
            mask: kind::ALL,
        }
    }
}

impl ObsConfig {
    /// A configuration whose recorder keeps nothing (the overhead baseline).
    pub fn off() -> ObsConfig {
        ObsConfig {
            enabled: false,
            capacity: 0,
            mask: 0,
        }
    }
}

/// The bundle a run carries around: tracer + metrics + stage profile behind
/// one `enabled` flag, so call sites guard with a single branch.
#[derive(Debug, Default)]
pub struct Recorder {
    pub enabled: bool,
    pub tracer: Tracer,
    pub metrics: MetricsRegistry,
    pub profile: StageProfile,
}

impl Recorder {
    pub fn new(cfg: ObsConfig) -> Recorder {
        Recorder {
            enabled: cfg.enabled,
            tracer: Tracer::with_mask(cfg.capacity, cfg.mask),
            metrics: MetricsRegistry::default(),
            profile: StageProfile::default(),
        }
    }

    /// A recorder whose hot paths are compiled-out branches: nothing is
    /// traced or counted.
    pub fn disabled() -> Recorder {
        Recorder {
            enabled: false,
            tracer: Tracer::with_mask(0, 0),
            metrics: MetricsRegistry::default(),
            profile: StageProfile::default(),
        }
    }

    /// Record a trace event at sim-time `at_ns` (no-op when disabled).
    #[inline]
    pub fn trace(&mut self, at_ns: u64, event: TraceEvent) {
        if self.enabled {
            self.tracer.record(at_ns, event);
        }
    }

    /// Run `f` as diagnosis stage `stage` over the sim-time window
    /// `[window_from_ns, window_to_ns]`: wall-clock goes to the profile,
    /// a sim-time-only [`TraceEvent::StageSpan`] goes to the tracer.
    pub fn stage<R>(
        &mut self,
        stage: Stage,
        window_from_ns: u64,
        window_to_ns: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let r = self.profile.time(stage, window_from_ns, window_to_ns, f);
        self.tracer.record(
            window_to_ns,
            TraceEvent::StageSpan {
                stage: stage.name().to_string(),
                from_ns: window_from_ns,
                to_ns: window_to_ns,
            },
        );
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_traces_nothing() {
        let mut r = Recorder::disabled();
        r.trace(
            5,
            TraceEvent::PfcResume {
                switch: 1,
                port: 0,
                class: 0,
            },
        );
        let out = r.stage(Stage::GraphBuild, 0, 10, || 42);
        assert_eq!(out, 42);
        assert_eq!(r.tracer.len(), 0);
        assert!(r.profile.spans().is_empty());
    }

    #[test]
    fn stage_records_span_and_trace_event() {
        let mut r = Recorder::new(ObsConfig::default());
        let out = r.stage(Stage::SignatureMatch, 100, 200, || "ok");
        assert_eq!(out, "ok");
        assert_eq!(r.profile.spans().len(), 1);
        assert_eq!(r.profile.spans()[0].stage, Stage::SignatureMatch);
        let rec: Vec<_> = r.tracer.records().collect();
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].at_ns, 200);
        match &rec[0].event {
            TraceEvent::StageSpan {
                stage,
                from_ns,
                to_ns,
            } => {
                assert_eq!(stage, "signature_match");
                assert_eq!((*from_ns, *to_ns), (100, 200));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
