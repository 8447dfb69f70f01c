//! Synchronous client for the serve protocol, plus the [`EpochSink`]
//! adapter that lets a streaming collection hook feed a running daemon.
//!
//! Ingest is [`ServeClient::ingest_batch`]: frames of N ≥ 1 snapshots,
//! pipelined under a credit window. `Hello` negotiates a budget of `W`
//! snapshots that may be in flight un-acknowledged; each `BatchAck`
//! piggybacks the credits it returns. The client blocks only when the
//! window is empty, which is exactly when the daemon's slowest shard is
//! the bottleneck — RDMA-style credit flow control over a byte stream.
//!
//! Every synchronous request ([`ServeClient::diagnose`], `stats`, …)
//! first settles all in-flight batch acks, so frames never interleave.
//!
//! The `Hello` this client sends announces [`PROTO_VERSION`] and, when a
//! front-end routes through a shard map, the map epoch it routes under
//! ([`ServeClient::with_map_epoch`]); a sharded daemon cut from a
//! different map generation refuses the session with the typed
//! [`ProtoError::WrongShard`] instead of mis-accepting routed ingest.

use crate::conn::AnyStream;
use crate::proto::{
    decode_response, read_frame, write_request, DiagnoseParams, PeerInfo, ProtoError, Request,
    Response, PROTO_VERSION,
};
use crate::sink::{EpochSink, SinkAck};
use crate::types::{ExplainRecord, FlowObservation};
use hawkeye_core::{DiagnosisReport, Window};
use hawkeye_obs::MetricsSnapshot;
use hawkeye_sim::{FlowKey, Nanos, NodeId};
use hawkeye_telemetry::TelemetrySnapshot;
use serde::Deserialize;
use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Reconnect-and-resume schedule after a transient client failure,
/// mirroring the simulator's probe re-poll ladder (`ProbeRetryConfig`):
/// attempt `k` (1-based) waits `timeout * backoff^(k-1)`, up to
/// `max_attempts` reconnect attempts per failure and never past `deadline`
/// of accumulated waiting. Applies to the initial `connect_*` call and to
/// mid-stream I/O errors, where a successful reconnect re-Hellos and
/// resends every un-acked batch before the failed operation is retried —
/// the daemon's keep-latest store dedup makes the overlap idempotent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// Reconnect attempts per failure (0 disables recovery).
    pub max_attempts: u32,
    /// Wait before the first reconnect attempt.
    pub timeout: Duration,
    /// Backoff multiplier between consecutive attempts.
    pub backoff: u32,
    /// Hard bound on the accumulated waiting per failure.
    pub deadline: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 3,
            timeout: Duration::from_millis(50),
            backoff: 2,
            deadline: Duration::from_secs(5),
        }
    }
}

impl RetryConfig {
    /// Wait before reconnect attempt `attempt` (1-based).
    fn delay(&self, attempt: u32) -> Duration {
        self.timeout * self.backoff.saturating_pow(attempt.saturating_sub(1))
    }
}

/// Where a retrying client reconnects to.
#[derive(Debug, Clone)]
enum ClientEndpoint {
    Unix(PathBuf),
    Tcp(String),
}

fn connect_endpoint(ep: &ClientEndpoint) -> io::Result<AnyStream> {
    match ep {
        ClientEndpoint::Unix(path) => {
            let s = UnixStream::connect(path)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            Ok(AnyStream::Unix(s))
        }
        ClientEndpoint::Tcp(addr) => {
            let s = TcpStream::connect(addr.as_str())?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            s.set_nodelay(true)?;
            Ok(AnyStream::Tcp(s))
        }
    }
}

/// One connection to a daemon; requests are synchronous (send, await
/// response) except for the pipelined [`ServeClient::ingest_batch`] path.
pub struct ServeClient {
    stream: AnyStream,
    /// Credit window size granted by `Hello`; 0 until negotiated.
    window: u32,
    /// Credits currently available to spend on un-acked snapshots.
    credits: u32,
    /// Batch frames sent but not yet acknowledged, FIFO: the frame's
    /// snapshot count plus — only when a [`RetryConfig`] is set — its
    /// snapshots, retained so a reconnect can resend the window. Without
    /// retry nothing is retained and the ingest path is unchanged.
    outstanding: VecDeque<(u32, Option<Vec<TelemetrySnapshot>>)>,
    /// Delivery counts settled since the last `finish_ingest`.
    settled: SinkAck,
    /// Reconnect schedule; `None` = fail fast (the default).
    retry: Option<RetryConfig>,
    /// Reconnect target, kept only when `retry` is set.
    endpoint: Option<ClientEndpoint>,
    /// Reconnect attempts made (connect-time and mid-stream).
    retries: u64,
    /// Shard-map epoch announced in `Hello` (routing front-ends only).
    map_epoch: Option<u64>,
    /// What the daemon disclosed on the Hello ack; `None` until then.
    peer: Option<PeerInfo>,
}

impl ServeClient {
    fn from_stream(stream: AnyStream) -> ServeClient {
        ServeClient {
            stream,
            window: 0,
            credits: 0,
            outstanding: VecDeque::new(),
            settled: SinkAck::default(),
            retry: None,
            endpoint: None,
            retries: 0,
            map_epoch: None,
            peer: None,
        }
    }

    pub fn connect_unix(path: &Path) -> io::Result<ServeClient> {
        ServeClient::connect_with(ClientEndpoint::Unix(path.to_path_buf()), None)
    }

    pub fn connect_tcp(addr: &str) -> io::Result<ServeClient> {
        ServeClient::connect_with(ClientEndpoint::Tcp(addr.to_string()), None)
    }

    /// [`ServeClient::connect_unix`] with a reconnect schedule: transient
    /// connect failures (daemon not up yet, restarting) are retried on the
    /// backoff ladder, and the session later survives mid-stream I/O
    /// errors by reconnecting and resending its un-acked window.
    pub fn connect_unix_with(path: &Path, retry: Option<RetryConfig>) -> io::Result<ServeClient> {
        ServeClient::connect_with(ClientEndpoint::Unix(path.to_path_buf()), retry)
    }

    /// [`ServeClient::connect_tcp`] with a reconnect schedule.
    pub fn connect_tcp_with(addr: &str, retry: Option<RetryConfig>) -> io::Result<ServeClient> {
        ServeClient::connect_with(ClientEndpoint::Tcp(addr.to_string()), retry)
    }

    fn connect_with(ep: ClientEndpoint, retry: Option<RetryConfig>) -> io::Result<ServeClient> {
        let mut retries = 0u64;
        let mut waited = Duration::ZERO;
        let stream = loop {
            match connect_endpoint(&ep) {
                Ok(s) => break s,
                Err(e) => {
                    let Some(r) = &retry else { return Err(e) };
                    let attempt = retries as u32 + 1;
                    if attempt > r.max_attempts {
                        return Err(e);
                    }
                    let delay = r.delay(attempt);
                    if waited + delay > r.deadline {
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                    waited += delay;
                    retries += 1;
                }
            }
        };
        let mut c = ServeClient::from_stream(stream);
        c.endpoint = retry.is_some().then_some(ep);
        c.retry = retry;
        c.retries = retries;
        Ok(c)
    }

    /// Announce this shard-map epoch on the session's `Hello` (fluent
    /// form). A sharded daemon cut from a different map generation refuses
    /// the session with [`ProtoError::WrongShard`] — the stale side learns
    /// immediately instead of mis-routing ingest. Must be set before the
    /// first request (the window negotiates once per connection).
    pub fn with_map_epoch(mut self, epoch: u64) -> ServeClient {
        self.set_map_epoch(epoch);
        self
    }

    /// See [`ServeClient::with_map_epoch`].
    pub fn set_map_epoch(&mut self, epoch: u64) {
        self.map_epoch = Some(epoch);
    }

    /// What the daemon disclosed about itself on the Hello ack (protocol
    /// version, enforced shard-map epoch); `None` before negotiation.
    pub fn peer_info(&self) -> Option<PeerInfo> {
        self.peer
    }

    /// Reconnect attempts this client has made recovering transient
    /// failures (connect-time and mid-stream) — the `client_retries`
    /// counter.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// After a transient I/O failure: reconnect on the backoff ladder,
    /// re-`Hello`, and resend every un-acked batch in order. Returns the
    /// original error when retry is off, the error is not I/O, or the
    /// ladder is exhausted.
    fn try_recover(&mut self, e: ProtoError) -> Result<(), ProtoError> {
        if !matches!(e, ProtoError::Io(_)) {
            return Err(e);
        }
        let (Some(r), Some(ep)) = (self.retry, self.endpoint.clone()) else {
            return Err(e);
        };
        let mut waited = Duration::ZERO;
        let mut stream = None;
        for attempt in 1..=r.max_attempts {
            let delay = r.delay(attempt);
            if waited + delay > r.deadline {
                break;
            }
            std::thread::sleep(delay);
            waited += delay;
            self.retries += 1;
            if let Ok(s) = connect_endpoint(&ep) {
                stream = Some(s);
                break;
            }
        }
        let Some(stream) = stream else { return Err(e) };
        self.stream = stream;
        self.window = 0;
        self.credits = 0;
        self.negotiate()?;
        // Resend the whole un-acked window in order. The daemon may have
        // applied some of these before the connection died; its store's
        // keep-latest dedup makes the overlap idempotent, so resending is
        // always safe and never loses data.
        for (_, payload) in &self.outstanding {
            if let Some(snaps) = payload {
                write_request(&mut self.stream, &Request::IngestBatch(snaps.clone()))?;
            }
        }
        let spent: u32 = self.outstanding.iter().map(|(n, _)| *n).sum();
        self.credits = self.window.saturating_sub(spent);
        Ok(())
    }

    /// Run `op`, recovering from transient I/O errors up to the retry
    /// budget: each failure reconnects, re-negotiates and resends the
    /// in-flight window before `op` runs again. With retry off this is
    /// exactly one attempt.
    fn with_retry<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, ProtoError>,
    ) -> Result<T, ProtoError> {
        let budget = self.retry.map_or(0, |r| r.max_attempts);
        let mut recoveries = 0;
        loop {
            match op(self) {
                Ok(v) => return Ok(v),
                Err(e) if recoveries < budget => {
                    self.try_recover(e)?;
                    recoveries += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Read one response frame and settle the oldest in-flight batch with
    /// it: replenish the window from `granted` and accumulate delivery
    /// counts.
    fn settle_one(&mut self) -> Result<(), ProtoError> {
        let (op, body) = read_frame(&mut self.stream)?.ok_or_else(|| {
            ProtoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed with batches in flight",
            ))
        })?;
        let sent = self.outstanding.pop_front().map_or(0, |(n, _)| n);
        match decode_response(op, &body)? {
            Response::BatchAck {
                accepted,
                shed,
                granted,
            } => {
                self.settled.accepted += u64::from(accepted);
                self.settled.shed += u64::from(shed);
                self.credits = (self.credits + granted).min(self.window);
                Ok(())
            }
            Response::Error(msg) => {
                // A refused frame holds nothing at the daemon: its credits
                // come back with the refusal.
                self.credits = (self.credits + sent).min(self.window);
                Err(ProtoError::remote(msg))
            }
            other => Err(ProtoError::BadBody(format!(
                "unexpected in-flight response {other:?}"
            ))),
        }
    }

    /// Open the credit window if this session hasn't yet.
    fn negotiate(&mut self) -> Result<(), ProtoError> {
        if self.window > 0 {
            return Ok(());
        }
        write_request(
            &mut self.stream,
            &Request::Hello {
                version: PROTO_VERSION,
                map_epoch: self.map_epoch,
            },
        )?;
        let (op, body) = read_frame(&mut self.stream)?.ok_or_else(|| {
            ProtoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed during hello",
            ))
        })?;
        match decode_response(op, &body)? {
            Response::Ack { granted, info } => {
                // A peer configured to grant 0 still gets a window of 1,
                // which makes every batch effectively synchronous.
                self.window = granted.max(1);
                self.credits = self.window;
                self.peer = Some(info);
                Ok(())
            }
            Response::Error(msg) => Err(ProtoError::remote(msg)),
            other => Err(ProtoError::BadBody(format!(
                "unexpected hello response {other:?}"
            ))),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, ProtoError> {
        // Every session Hellos before its first request — the epoch
        // handshake must fire even for sessions that never ingest, or a
        // stale routing front-end would learn of a newer shard map only
        // from its first write.
        self.with_retry(|c| c.negotiate())?;
        self.with_retry(|c| c.call_once(req))
    }

    fn call_once(&mut self, req: &Request) -> Result<Response, ProtoError> {
        // Settle every in-flight batch first so the next frame read is
        // this request's response, not a stale BatchAck.
        while !self.outstanding.is_empty() {
            self.settle_one()?;
        }
        write_request(&mut self.stream, req)?;
        let (op, body) = read_frame(&mut self.stream)?.ok_or_else(|| {
            ProtoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed mid-request",
            ))
        })?;
        match decode_response(op, &body)? {
            Response::Error(msg) => Err(ProtoError::remote(msg)),
            resp => Ok(resp),
        }
    }

    /// Send one ingest frame, pipelined under the credit window: blocks
    /// only while the window lacks room for the frame. Returns the delivery
    /// counts *settled during this call* (possibly for earlier frames,
    /// possibly empty — see [`SinkAck`]);
    /// [`ServeClient::finish_ingest`] settles the rest.
    pub fn ingest_batch(&mut self, snaps: &[TelemetrySnapshot]) -> Result<SinkAck, ProtoError> {
        if snaps.is_empty() {
            return Ok(SinkAck::default());
        }
        self.with_retry(|c| c.negotiate())?;
        let n = u32::try_from(snaps.len()).map_err(|_| {
            ProtoError::BadBody(format!("batch of {} snapshots too large", snaps.len()))
        })?;
        // Wait for window room. A batch larger than the whole window can
        // never fit: settle everything and send it alone, effectively
        // synchronous.
        self.with_retry(|c| {
            while c.credits < n.min(c.window) && !c.outstanding.is_empty() {
                c.settle_one()?;
            }
            Ok(())
        })?;
        let req = Request::IngestBatch(snaps.to_vec());
        self.with_retry(|c| write_request(&mut c.stream, &req).map_err(ProtoError::Io))?;
        self.credits = self.credits.saturating_sub(n);
        // Retain the payload only under a retry config; without one the
        // pipelined path keeps its zero-copy accounting.
        let payload = self.retry.is_some().then(|| snaps.to_vec());
        self.outstanding.push_back((n, payload));
        if n > self.window {
            self.with_retry(|c| {
                while !c.outstanding.is_empty() {
                    c.settle_one()?;
                }
                Ok(())
            })?;
        }
        Ok(std::mem::take(&mut self.settled))
    }

    /// Settle every batch still in flight and return the accumulated
    /// delivery counts since the last call.
    pub fn finish_ingest(&mut self) -> Result<SinkAck, ProtoError> {
        self.with_retry(|c| {
            while !c.outstanding.is_empty() {
                c.settle_one()?;
            }
            Ok(())
        })?;
        Ok(std::mem::take(&mut self.settled))
    }

    /// Snapshots sent but not yet acknowledged (the spent part of the
    /// credit window).
    pub fn in_flight(&self) -> u32 {
        self.window.saturating_sub(self.credits)
    }

    /// Run a diagnosis over `[from, to)` for `victim`; `missing` is the
    /// client-side list of switches known to have failed collection in the
    /// window (graded into the confidence).
    pub fn diagnose(
        &mut self,
        victim: FlowKey,
        from: Nanos,
        to: Nanos,
        missing: Vec<NodeId>,
    ) -> Result<DiagnosisReport, ProtoError> {
        let req = Request::Diagnose(DiagnoseParams {
            victim,
            window: Window { from, to },
            missing,
        });
        match self.call(&req)? {
            Response::Diagnosis(report) => Ok(report),
            other => Err(ProtoError::BadBody(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetch the daemon's per-switch evidence fragment set for `[from, to)`:
    /// the canonical snapshot of every switch it owns, holding the epochs
    /// that overlap the window, flushed and in switch-id order. The cluster
    /// front-end merges these across shards and assembles the fleet-wide
    /// provenance graph centrally.
    pub fn fragments_in(
        &mut self,
        from: Nanos,
        to: Nanos,
    ) -> Result<Vec<TelemetrySnapshot>, ProtoError> {
        match self.call(&Request::Fragments(Window { from, to }))? {
            Response::Fragments(snaps) => Ok(snaps),
            other => Err(ProtoError::BadBody(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// [`ServeClient::fragments_in`] over the all-covering window: every
    /// epoch still in the daemon's raw rings.
    pub fn fragments(&mut self) -> Result<Vec<TelemetrySnapshot>, ProtoError> {
        let all = Window::default();
        self.fragments_in(all.from, all.to)
    }

    /// Where has this flow been seen — one row per raw epoch still in the
    /// ring plus one per compacted-bucket entry, ordered by time.
    pub fn flow_history(&mut self, flow: FlowKey) -> Result<Vec<FlowObservation>, ProtoError> {
        match self.call(&Request::FlowHistory(flow))? {
            Response::History(rows) => Ok(rows),
            other => Err(ProtoError::BadBody(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetch the daemon's counter object.
    pub fn stats(&mut self) -> Result<serde::Value, ProtoError> {
        match self.call(&Request::Stats)? {
            Response::Stats(v) => Ok(v),
            other => Err(ProtoError::BadBody(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetch the full observability surface: the daemon's metrics
    /// snapshot (counters, gauges, per-op latency histograms) plus a dump
    /// of the flight-recorder ring.
    pub fn metrics(&mut self) -> Result<(MetricsSnapshot, serde::Value), ProtoError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(v) => {
                let snap = v
                    .get("metrics")
                    .ok_or_else(|| ProtoError::BadBody("metrics field missing".into()))
                    .and_then(|m| {
                        MetricsSnapshot::from_value(m).map_err(|e| ProtoError::BadBody(e.0))
                    })?;
                let flight = v.get("flight").cloned().unwrap_or(serde::Value::Null);
                Ok((snap, flight))
            }
            other => Err(ProtoError::BadBody(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Fetch a verdict's audit-trail record: `None` = the latest verdict.
    pub fn explain(&mut self, seq: Option<u64>) -> Result<ExplainRecord, ProtoError> {
        match self.call(&Request::Explain(seq))? {
            Response::Explain(rec) => Ok(rec),
            other => Err(ProtoError::BadBody(format!(
                "unexpected response {other:?}"
            ))),
        }
    }

    /// Ask the daemon to stop; returns once it acknowledges.
    pub fn shutdown(&mut self) -> Result<(), ProtoError> {
        match self.call(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(ProtoError::BadBody(format!(
                "unexpected response {other:?}"
            ))),
        }
    }
}

impl EpochSink for ServeClient {
    /// Batches become pipelined `IngestBatch` frames under the credit
    /// window; acks may settle lazily (see [`SinkAck`]), and a shed
    /// snapshot is counted but never fails the stream.
    fn push_batch(&mut self, snaps: &[TelemetrySnapshot]) -> io::Result<SinkAck> {
        self.ingest_batch(snaps)
            .map_err(|e| io::Error::other(e.to_string()))
    }

    fn finish(&mut self) -> io::Result<SinkAck> {
        self.finish_ingest()
            .map_err(|e| io::Error::other(e.to_string()))
    }
}
