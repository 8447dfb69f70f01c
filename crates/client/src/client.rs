//! Synchronous client for the serve protocol, plus the [`EpochSink`]
//! adapter that lets a streaming collection hook feed a running daemon.
//!
//! Ingest is [`ServeClient::ingest_batch`]: frames of N ≥ 1 snapshots,
//! pipelined under the constant [`CREDIT_WINDOW`]: at most that many
//! snapshots may be in flight un-acknowledged, and each `BatchAck` (or
//! refusal) returns its own frame's count. The client blocks only when the
//! window is full, which is exactly when the daemon's store is the
//! bottleneck — RDMA-style credit flow control over a byte stream.
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
    decode_response, read_frame, write_request, DiagnoseParams, ProtoError, Request, Response,
    CREDIT_WINDOW, PROTO_VERSION,
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
use std::path::Path;
use std::time::Duration;

/// How long a reply may take before the read fails.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// One connection to a daemon; requests are synchronous (send, await
/// response) except for the pipelined [`ServeClient::ingest_batch`] path.
/// Every operation is one attempt: an I/O failure is returned as is, and
/// reconnecting is the caller's decision (the cluster front's down-and-probe
/// rule is the one reconnect policy in the system).
pub struct ServeClient {
    stream: AnyStream,
    /// Whether this session's `Hello` has been answered.
    greeted: bool,
    /// Snapshot count of each batch frame sent but not yet acknowledged,
    /// FIFO.
    outstanding: VecDeque<u32>,
    /// Delivery counts settled since the last `finish_ingest`.
    settled: SinkAck,
    /// Shard-map epoch announced in `Hello` (routing front-ends only).
    map_epoch: Option<u64>,
}

impl ServeClient {
    fn from_stream(stream: AnyStream) -> ServeClient {
        ServeClient {
            stream,
            greeted: false,
            outstanding: VecDeque::new(),
            settled: SinkAck::default(),
            map_epoch: None,
        }
    }

    pub fn connect_unix(path: &Path) -> io::Result<ServeClient> {
        let s = UnixStream::connect(path)?;
        s.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(ServeClient::from_stream(AnyStream::Unix(s)))
    }

    pub fn connect_tcp(addr: &str) -> io::Result<ServeClient> {
        let s = TcpStream::connect(addr)?;
        s.set_read_timeout(Some(READ_TIMEOUT))?;
        s.set_nodelay(true)?;
        Ok(ServeClient::from_stream(AnyStream::Tcp(s)))
    }

    /// Announce this shard-map epoch on the session's `Hello` (fluent
    /// form). A sharded daemon cut from a different map generation refuses
    /// the session with [`ProtoError::WrongShard`] — the stale side learns
    /// immediately instead of mis-routing ingest. Must be set before the
    /// first request (the `Hello` goes out once per connection).
    pub fn with_map_epoch(mut self, epoch: u64) -> ServeClient {
        self.map_epoch = Some(epoch);
        self
    }

    /// Read one response frame and settle the oldest in-flight batch with
    /// it: the frame's snapshots leave the window, and an ack's delivery
    /// counts accumulate.
    fn settle_one(&mut self) -> Result<(), ProtoError> {
        let (op, body) = read_frame(&mut self.stream)?.ok_or_else(|| {
            ProtoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed with batches in flight",
            ))
        })?;
        // A refused frame holds nothing at the daemon: its credits come
        // back with the refusal, as an accepted frame's come back with its
        // ack.
        self.outstanding.pop_front();
        match decode_response(op, &body)? {
            Response::BatchAck { accepted, shed } => {
                self.settled.accepted += u64::from(accepted);
                self.settled.shed += u64::from(shed);
                Ok(())
            }
            Response::Error(msg) => Err(ProtoError::remote(msg)),
            other => Err(ProtoError::BadBody(format!(
                "unexpected in-flight response {other:?}"
            ))),
        }
    }

    /// Send this session's `Hello` if it hasn't been answered yet.
    fn negotiate(&mut self) -> Result<(), ProtoError> {
        if self.greeted {
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
            Response::Ack => {
                self.greeted = true;
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
        self.negotiate()?;
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
        self.negotiate()?;
        let n = u32::try_from(snaps.len()).map_err(|_| {
            ProtoError::BadBody(format!("batch of {} snapshots too large", snaps.len()))
        })?;
        // Wait for window room. A batch larger than the whole window can
        // never fit: settle everything and send it alone, effectively
        // synchronous.
        while !self.outstanding.is_empty()
            && self.in_flight() + n.min(CREDIT_WINDOW) > CREDIT_WINDOW
        {
            self.settle_one()?;
        }
        write_request(&mut self.stream, &Request::IngestBatch(snaps.to_vec()))?;
        self.outstanding.push_back(n);
        if n > CREDIT_WINDOW {
            return self.finish_ingest();
        }
        Ok(std::mem::take(&mut self.settled))
    }

    /// Settle every batch still in flight and return the accumulated
    /// delivery counts since the last call.
    pub fn finish_ingest(&mut self) -> Result<SinkAck, ProtoError> {
        while !self.outstanding.is_empty() {
            self.settle_one()?;
        }
        Ok(std::mem::take(&mut self.settled))
    }

    /// Snapshots sent but not yet acknowledged (the spent part of the
    /// credit window).
    pub fn in_flight(&self) -> u32 {
        self.outstanding.iter().sum()
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
