//! `hawkeye front` — the stateless routing front-end of a sharded fleet.
//!
//! A front-end speaks the exact same frame protocol as a shard daemon, so
//! every existing client (the CLI's replay modes, `serve-stats`, the
//! streaming sink) points at it unchanged. It holds no telemetry itself:
//!
//! * **Ingest** (`IngestBatch`) is split by switch id through the
//!   [`ShardMap`] into one sub-frame per owning daemon, over one long-lived
//!   pipelined [`ServeClient`] per backend — each backend's credit window
//!   applies independently, so one slow shard backpressures only its own
//!   traffic.
//! * **Diagnose** fans a `Fragments` gather of its window out to every
//!   shard, merges the per-switch snapshot sets with
//!   [`merge_fragment_sets`] (positionally identical to a monolithic
//!   daemon's gather of the same window), and runs the same
//!   analyzer the daemon runs — the merged graph, and therefore the
//!   verdict, is byte-for-byte what one big daemon would have produced.
//! * **A dead shard degrades, never fails**: its owned switches are
//!   reported as missing telemetry, so the verdict comes back with
//!   `Confidence::Degraded` naming exactly what wasn't consulted.
//!
//! A front-end routing under a stale map generation is refused by the
//! daemons themselves (typed `wrong_shard` on `Hello` — see the client
//! crate), and the front passes that typed error through to its own
//! caller rather than laundering it into a generic failure.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

use hawkeye_client::proto::{check_evidence, FOREIGN_EVIDENCE_PREFIX, WRONG_SHARD_PREFIX};
use hawkeye_client::{AnyStream, DiagnoseParams, ProtoError, Request, Response, ServeClient};
use hawkeye_core::{analyze_victim_window, merge_fragment_sets, AnalyzerConfig, Window};
use hawkeye_obs::flight as flight_kind;
use hawkeye_obs::names::{
    EPOCHS_INGESTED, FRONT_BACKENDS_DOWN, FRONT_SHED_DOWN, INGEST_BATCHES, INGEST_SHED,
    INGEST_WRONG_SHARD, OP_DIAGNOSE_NS, OP_FLOW_HISTORY_NS, OP_FRAGMENTS_NS, OP_INGEST_BATCH_NS,
    OP_METRICS_NS, OP_STATS_NS, SERVE_SESSIONS, SLOW_OPS,
};
use hawkeye_obs::{FlightRecorder, MetricKey, MetricsRegistry, MetricsSnapshot};
use hawkeye_serve::listen::{accept_loop, serve_session, FLIGHT_CAPACITY};
use hawkeye_serve::Endpoint;
use hawkeye_sim::{FlowKey, Nanos, NodeId, Topology};
use hawkeye_telemetry::TelemetrySnapshot;

use crate::shard_map::{BackendEndpoint, ShardMap};

/// Front-end tuning. The analyzer config must match what a monolithic
/// daemon would use for the same traffic — verdict parity depends on it.
#[derive(Debug, Clone, Copy)]
pub struct FrontConfig {
    pub analyzer: AnalyzerConfig,
    /// Credit window granted to each of the front's own sessions.
    pub session_credits: u32,
}

impl Default for FrontConfig {
    fn default() -> Self {
        FrontConfig {
            analyzer: AnalyzerConfig::for_epoch_len(Nanos::from_micros(100)),
            session_credits: 64,
        }
    }
}

/// One backend slot: the map entry plus the (lazily connected) client.
struct Backend {
    range: hawkeye_client::ShardRange,
    endpoint: BackendEndpoint,
    client: Option<ServeClient>,
    /// Set when the last contact failed (the `front_backends_down` gauge);
    /// every operation probes a down backend with one connect attempt, so
    /// a dead shard costs microseconds per routed op.
    down: bool,
}

impl Backend {
    fn connect(&mut self, epoch: u64) -> io::Result<&mut ServeClient> {
        if self.client.is_none() {
            let c = match &self.endpoint {
                BackendEndpoint::Unix(p) => ServeClient::connect_unix(p),
                BackendEndpoint::Tcp(a) => ServeClient::connect_tcp(a),
            }?;
            self.client = Some(c.with_map_epoch(epoch));
        }
        self.down = false;
        Ok(self.client.as_mut().expect("just connected"))
    }
}

struct FrontShared {
    topo: Topology,
    map: ShardMap,
    cfg: FrontConfig,
    backends: Vec<Mutex<Backend>>,
    metrics: Mutex<MetricsRegistry>,
    flight: Mutex<FlightRecorder>,
    stop: AtomicBool,
}

/// A registry pre-seeded with the front-end's well-known counters so
/// `Stats` reports them all even at zero (same convention as the daemon).
fn seeded_front_registry() -> MetricsRegistry {
    let mut m = MetricsRegistry::default();
    for name in [
        EPOCHS_INGESTED,
        INGEST_SHED,
        SERVE_SESSIONS,
        INGEST_BATCHES,
        SLOW_OPS,
        INGEST_WRONG_SHARD,
        FRONT_SHED_DOWN,
    ] {
        m.add(MetricKey::global(name), 0);
    }
    m.set(MetricKey::global(FRONT_BACKENDS_DOWN), 0.0);
    m
}

/// Re-emit a backend failure to the front's own caller without losing the
/// type: a `wrong_shard` stays a `wrong_shard` across the hop, and a
/// `foreign_evidence` a `foreign_evidence`.
fn error_response(e: &ProtoError) -> Response {
    match e {
        ProtoError::WrongShard(m) => Response::Error(format!("{WRONG_SHARD_PREFIX} {m}")),
        ProtoError::ForeignEvidence(m) => Response::Error(format!("{FOREIGN_EVIDENCE_PREFIX} {m}")),
        other => Response::Error(other.to_string()),
    }
}

impl FrontShared {
    fn inc(&self, name: &'static str) {
        self.metrics
            .lock()
            .expect("metrics lock")
            .inc(MetricKey::global(name));
    }

    fn add(&self, name: &'static str, by: u64) {
        self.metrics
            .lock()
            .expect("metrics lock")
            .add(MetricKey::global(name), by);
    }

    /// Run one operation against backend `i`, connecting lazily. An I/O
    /// failure marks the slot down, drops the connection and lands in the
    /// flight ring; the next call probes for a recovered daemon with a
    /// single connect attempt. This is the one reconnect rule: the client
    /// never retries on its own.
    fn with_backend<R>(
        &self,
        i: usize,
        op: impl FnOnce(&mut ServeClient) -> Result<R, ProtoError>,
    ) -> Result<R, ProtoError> {
        let mut slot = self.backends[i].lock().expect("backend lock");
        let result = match slot.connect(self.map.epoch) {
            Ok(client) => op(client),
            Err(e) => Err(ProtoError::Io(e)),
        };
        if let Err(ProtoError::Io(_)) = &result {
            slot.client = None;
            slot.down = true;
        }
        let down = slot.down;
        let range = slot.range;
        drop(slot);
        if down {
            if let Err(e) = &result {
                self.flight.lock().expect("flight lock").note(
                    flight_kind::ERROR,
                    "backend_down",
                    format!("shard {i} ({range}): {e}"),
                );
            }
        }
        result
    }

    /// Publish how many backends are currently marked down (gauge).
    fn publish_down_gauge(&self) {
        let down = self
            .backends
            .iter()
            .filter(|b| b.lock().expect("backend lock").down)
            .count();
        self.metrics
            .lock()
            .expect("metrics lock")
            .set(MetricKey::global(FRONT_BACKENDS_DOWN), down as f64);
    }

    /// Split one ingest frame into per-backend sub-frames (routing every
    /// snapshot by owner) and forward each, pipelined under that backend's
    /// own credit window. The ack is optimistic for forwarded snapshots —
    /// acceptance settles inside each backend client as its acks arrive,
    /// and the keep-latest store dedup makes any replay idempotent. An
    /// unreachable owner degrades, never fails: its snapshots are counted
    /// as `shed` and will surface as Degraded confidence.
    fn route_batch(&self, snaps: Vec<TelemetrySnapshot>) -> Response {
        // Refused whole here, before any backend holds part of it.
        if let Err(refusal) = check_evidence(&snaps, &self.topo) {
            return Response::Error(refusal);
        }
        let total = snaps.len() as u32;
        let mut groups: Vec<Vec<TelemetrySnapshot>> = Vec::new();
        groups.resize_with(self.backends.len(), Vec::new);
        for snap in snaps {
            let Some(owner) = self.map.owner_of(snap.switch) else {
                self.inc(INGEST_WRONG_SHARD);
                return Response::Error(format!(
                    "{WRONG_SHARD_PREFIX} switch {} in batch is not in the shard map (epoch {})",
                    snap.switch.0, self.map.epoch
                ));
            };
            groups[owner].push(snap);
        }
        let mut accepted = 0u32;
        let mut shed = 0u32;
        for (i, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let n = group.len() as u32;
            match self.with_backend(i, |c| c.ingest_batch(&group)) {
                Ok(_settled) => accepted += n,
                Err(ProtoError::Io(_)) => {
                    shed += n;
                    self.add(FRONT_SHED_DOWN, u64::from(n));
                }
                Err(e) => return error_response(&e),
            }
        }
        self.add(EPOCHS_INGESTED, u64::from(accepted));
        if shed > 0 {
            self.add(INGEST_SHED, u64::from(shed));
        }
        self.inc(INGEST_BATCHES);
        Response::BatchAck {
            accepted,
            shed,
            granted: total,
        }
    }

    /// Fan the cross-shard gather out to every backend in parallel:
    /// settle each backend's in-flight window (the flush barrier), then
    /// fetch its fragment set for `window`. Returns the live shards'
    /// fragments and the indices of shards that could not be reached. A
    /// *typed* backend
    /// refusal (e.g. stale shard map) is a routing fault, not an outage,
    /// and propagates as the error it is.
    #[allow(clippy::type_complexity)]
    fn gather_fragments(
        &self,
        window: Window,
    ) -> Result<(Vec<Vec<TelemetrySnapshot>>, Vec<usize>), ProtoError> {
        let results: Vec<Result<Vec<TelemetrySnapshot>, ProtoError>> = thread::scope(|s| {
            let handles: Vec<_> = (0..self.backends.len())
                .map(|i| {
                    s.spawn(move || {
                        self.with_backend(i, |c| {
                            c.finish_ingest()?;
                            c.fragments_in(window.from, window.to)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("gather thread"))
                .collect()
        });
        let mut shards = Vec::new();
        let mut dead = Vec::new();
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(frags) => shards.push(frags),
                Err(ProtoError::Io(_)) => dead.push(i),
                Err(e) => return Err(e),
            }
        }
        self.publish_down_gauge();
        Ok((shards, dead))
    }

    /// The scatter/gather diagnosis: merge every live shard's fragments
    /// and analyze centrally — the same `assemble_graph` path a monolithic
    /// daemon runs, so with every shard alive the verdict is positionally
    /// identical to the single-daemon one. Dead shards' owned switches are
    /// appended to the missing set, downgrading confidence instead of
    /// failing the query.
    fn diagnose(&self, p: &DiagnoseParams) -> Response {
        if let Err(refusal) = p.check_victim(&self.topo) {
            return Response::Error(refusal);
        }
        let (shards, dead) = match self.gather_fragments(p.window) {
            Ok(v) => v,
            Err(e) => return error_response(&e),
        };
        let merged = merge_fragment_sets(shards);
        if merged.is_empty() {
            return Response::Error("no telemetry ingested".into());
        }
        let (mut report, _graph, _agg) =
            analyze_victim_window(&p.victim, p.window, &merged, &self.topo, &self.cfg.analyzer);
        report.note_missing(&p.missing);
        if !dead.is_empty() {
            let mut lost: Vec<NodeId> = Vec::new();
            for &i in &dead {
                let range = self.backends[i].lock().expect("backend lock").range;
                lost.extend(self.topo.switches().filter(|sw| range.contains(*sw)));
            }
            lost.sort_unstable();
            lost.dedup();
            report.note_missing(&lost);
        }
        Response::Diagnosis(report)
    }

    /// The merged cross-shard gather itself, as a wire op: a front-end
    /// can sit behind another front-end (or any `Fragments` caller) and
    /// look like one big daemon.
    fn fragments(&self, window: Window) -> Response {
        match self.gather_fragments(window) {
            Ok((shards, _dead)) => Response::Fragments(merge_fragment_sets(shards)),
            Err(e) => error_response(&e),
        }
    }

    fn flow_history(&self, key: FlowKey) -> Response {
        let results: Vec<_> = thread::scope(|s| {
            let handles: Vec<_> = (0..self.backends.len())
                .map(|i| {
                    s.spawn(move || {
                        self.with_backend(i, |c| {
                            c.finish_ingest()?;
                            c.flow_history(key)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("history thread"))
                .collect()
        });
        let mut rows: Vec<hawkeye_client::FlowObservation> = Vec::new();
        for r in results {
            match r {
                Ok(part) => rows.extend(part),
                Err(ProtoError::Io(_)) => {} // dead shard: degraded history
                Err(e) => return error_response(&e),
            }
        }
        // The daemon's canonical row order, restored across the merge.
        rows.sort_unstable_by_key(|o| (o.from, o.to, o.switch, o.fidelity, o.out_port));
        self.publish_down_gauge();
        Response::History(rows)
    }

    /// Front `Stats`: the front's own counters plus each live backend's
    /// full stats object (null for unreachable shards). Fetching a
    /// backend's stats settles that backend's in-flight window first, so
    /// this doubles as the fleet-wide flush barrier exactly as it does on
    /// a single daemon.
    fn stats(&self) -> Response {
        let per_backend: Vec<serde::Value> = (0..self.backends.len())
            .map(|i| {
                self.with_backend(i, |c| {
                    c.finish_ingest()?;
                    c.stats()
                })
                .unwrap_or(serde::Value::Null)
            })
            .collect();
        self.publish_down_gauge();
        let m = self.metrics.lock().expect("metrics lock");
        let mut fields: Vec<(String, serde::Value)> = m
            .counter_names()
            .into_iter()
            .map(|name| (name.to_string(), serde::Value::UInt(m.counter_total(name))))
            .collect();
        drop(m);
        fields.push(("front_map_epoch".into(), serde::Value::UInt(self.map.epoch)));
        fields.push((
            "front_shards".into(),
            serde::Value::UInt(self.backends.len() as u64),
        ));
        fields.push(("backends".into(), serde::Value::Array(per_backend)));
        Response::Stats(serde::Value::Object(fields))
    }

    fn metrics_response(&self) -> Response {
        let snap = self.metrics.lock().expect("metrics lock").snapshot();
        let flight = self.flight.lock().expect("flight lock").to_value();
        Response::Metrics(serde::Value::Object(vec![
            ("metrics".into(), hawkeye_obs::emit::metrics_value(&snap)),
            ("flight".into(), flight),
        ]))
    }
}

/// One client connection. `Shutdown` raises the *front's* stop flag only:
/// the shard daemons are owned by whoever spawned them and keep serving.
fn session(shared: Arc<FrontShared>, stream: AnyStream) {
    serve_session(
        stream,
        &shared.stop,
        &shared.metrics,
        Some(&shared.flight),
        shared.cfg.session_credits,
        Some(shared.map.epoch),
        |req, _body| match req {
            Request::IngestBatch(snaps) => (Some(OP_INGEST_BATCH_NS), shared.route_batch(snaps)),
            Request::Diagnose(p) => (Some(OP_DIAGNOSE_NS), shared.diagnose(&p)),
            Request::Fragments(window) => (Some(OP_FRAGMENTS_NS), shared.fragments(window)),
            Request::FlowHistory(key) => (Some(OP_FLOW_HISTORY_NS), shared.flow_history(key)),
            Request::Stats => (Some(OP_STATS_NS), shared.stats()),
            Request::Metrics => (Some(OP_METRICS_NS), shared.metrics_response()),
            // The audit trail lives where verdicts are journaled — on the
            // shard daemons. A front-end verdict is assembled from
            // fragments and journaled nowhere (the front is stateless),
            // so Explain is honestly a miss, not a proxy call: which
            // shard's trail would it even mean?
            Request::Explain(_) => (
                None,
                Response::Error(
                    "no verdicts journaled: the front-end is stateless; ask a shard daemon".into(),
                ),
            ),
            Request::Hello { .. } | Request::Shutdown => {
                unreachable!("answered by serve_session")
            }
        },
    );
}

/// A running front-end; dropping the handle does NOT stop it — call
/// [`FrontHandle::shutdown`].
pub struct FrontHandle {
    shared: Arc<FrontShared>,
    accept_thread: Option<JoinHandle<()>>,
    /// Bound TCP address when listening on TCP (for port-0 binds).
    pub local_addr: Option<std::net::SocketAddr>,
}

impl FrontHandle {
    /// Signal stop and join every front thread. Backend daemons keep
    /// running.
    pub fn shutdown(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    /// Block until a `Shutdown` request stops the front — the foreground
    /// `hawkeye front` mode.
    pub fn wait(mut self) {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }

    pub fn is_stopped(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Point-in-time copy of the front's metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.lock().expect("metrics lock").snapshot()
    }
}

/// Start the front-end on `endpoint`, routing by `map` over `topo`.
/// Returns once the listener is bound; serving continues on background
/// threads until a `Shutdown` request arrives or
/// [`FrontHandle::shutdown`] is called. Backend daemons are dialed
/// lazily, on the first operation that needs each one — a fleet can be
/// brought up in any order.
pub fn spawn_front(
    topo: Topology,
    map: ShardMap,
    cfg: FrontConfig,
    endpoint: Endpoint,
) -> io::Result<FrontHandle> {
    let listener = endpoint.bind()?;
    let local_addr = listener.local_addr();
    let backends = map
        .shards
        .iter()
        .map(|e| {
            Mutex::new(Backend {
                range: e.range,
                endpoint: e.endpoint.clone(),
                client: None,
                down: false,
            })
        })
        .collect();
    let shared = Arc::new(FrontShared {
        topo,
        map,
        cfg,
        backends,
        metrics: Mutex::new(seeded_front_registry()),
        flight: Mutex::new(FlightRecorder::new(FLIGHT_CAPACITY)),
        stop: AtomicBool::new(false),
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = thread::Builder::new()
        .name("hawkeye-front-accept".into())
        .spawn(move || {
            accept_loop(
                &listener,
                &accept_shared.stop,
                "hawkeye-front-session",
                || {},
                |stream| {
                    let sh = Arc::clone(&accept_shared);
                    move || session(sh, stream)
                },
            );
            // Dropping the listener removes a unix socket file.
            drop(listener);
        })
        .expect("spawn front accept loop");
    Ok(FrontHandle {
        shared,
        accept_thread: Some(accept_thread),
        local_addr,
    })
}
