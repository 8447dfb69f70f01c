//! The serve wire protocol: length-prefixed frames over a byte stream.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! +--------------+----------------------------------+
//! | len: u32     | payload: len bytes               |
//! +--------------+----------------------------------+
//! payload = opcode: u8, body: len-1 bytes
//! ```
//!
//! Request opcodes (client → daemon; `1` is unassigned since version 4):
//! - `2` Diagnose — body is JSON `{victim, from, to, missing}`.
//! - `3` Stats — empty body.
//! - `4` Shutdown — empty body.
//! - `5` FlowHistory — body is JSON `{flow}`; answered from the raw ring
//!   *and* the compacted tier (the one coarse-fidelity query).
//! - `6` Metrics — empty body; the full observability surface (metrics
//!   snapshot + flight-recorder dump), heavier than Stats.
//! - `7` Explain — body is JSON `{}` (latest verdict) or `{"seq": N}`;
//!   queries the verdict audit trail.
//! - `8` IngestBatch — the one ingest op. Body is a version-tagged batch
//!   frame ([`hawkeye_telemetry::wire::encode_batch`], binary codec, no
//!   JSON on the hot path) of N ≥ 1 snapshots; a single snapshot is a
//!   frame of one.
//! - `9` Hello — opens the session. The body is exactly 12 bytes: the
//!   speaker's protocol version (`u32`) and its shard-map epoch (`u64`,
//!   `u64::MAX` = none). A version other than [`PROTO_VERSION`] is refused
//!   with an error naming both versions. A sharded daemon or a front
//!   refuses an announced epoch that differs from its own with the typed
//!   `wrong_shard:` error instead of mis-routing accepts. Either way the
//!   session stays open; otherwise the answer is an empty `Ack`.
//! - `10` Fragments — body is exactly 16 bytes, the window `from: u64`,
//!   `to: u64`; a cross-shard gather primitive. The daemon flushes its
//!   ingest queues and returns its per-switch evidence fragment set (the
//!   canonical snapshot of every switch it owns, holding the epochs that
//!   overlap `[from, to)`) so a front-end can merge fleet-wide provenance
//!   through the same `assemble_graph` path the monolithic daemon uses.
//!
//! A body documented as empty must be empty, and a fixed-length body must
//! have exactly that length; anything else is [`ProtoError::BadBody`].
//!
//! Response opcodes (daemon → client):
//! - `129` Ack — the Hello answer; empty body.
//! - `130` Diagnosis — body is a JSON [`DiagnosisReport`].
//! - `131` Stats — body is a JSON counter object.
//! - `132` Bye — empty body; shutdown acknowledged.
//! - `133` History — body is a JSON array of [`FlowObservation`] rows.
//! - `134` Metrics — body is JSON `{metrics, flight}`.
//! - `135` Explain — body is a JSON [`ExplainRecord`].
//! - `136` BatchAck — body is `accepted: u32, shed: u32`: the per-frame
//!   delivery outcome (`shed` = a front-end's count for switches whose
//!   backend is down). Acks arrive in frame order.
//! - `137` Fragments — body is a multi-epoch batch frame
//!   ([`hawkeye_telemetry::wire::encode_batch`]) holding the shard's
//!   per-switch canonical snapshots of the requested window.
//! - `255` Error — body is a UTF-8 message. Messages starting with
//!   `wrong_shard:` decode to the typed [`ProtoError::WrongShard`]:
//!   a shard-ownership violation (out-of-range switch id or a stale shard
//!   map), which routing must treat differently from a transient fault.
//!   Messages starting with `foreign_evidence:` decode to the typed
//!   [`ProtoError::ForeignEvidence`]: an ingest frame refused whole because
//!   a snapshot in it names a switch or port the fabric lacks, or an epoch
//!   whose end overflows the clock ([`check_evidence`]).
//!
//! Ingest is paced by one credit rule that only the client keeps: at most
//! [`CREDIT_WINDOW`] snapshots un-acknowledged, and a `BatchAck` or an
//! error answering a frame returns that frame's own snapshot count to the
//! window. The receiver needs no state for it: a full store queue stalls
//! its acks, which stalls the sender (RDMA-style credit flow control).
//!
//! Frames above [`MAX_FRAME`] are rejected before allocation on read and
//! refused before the first byte on write; a malformed frame poisons only
//! its own connection, never the daemon.

use crate::types::{ExplainRecord, Fidelity, FlowObservation};
use hawkeye_core::{DiagnosisReport, Window};
use hawkeye_sim::{FlowKey, Nanos, NodeId, PortId, Topology};
use hawkeye_telemetry::wire::{CodecError, Reader, Writer};
use hawkeye_telemetry::{decode_batch, encode_batch, TelemetrySnapshot};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload: comfortably above the largest
/// full-fleet snapshot, far below anything that could wedge the daemon.
pub const MAX_FRAME: u32 = 16 << 20;

/// The protocol revision this implementation speaks, announced in `Hello`.
/// Version 1 predates shard maps and the `Fragments` op; version 2 adds
/// both; version 3 puts the window in the `Fragments` request; version 4
/// drops the per-snapshot ingest op (opcode 1) and fixes the `Ack` body;
/// version 5 empties the `Ack` and drops the credits from the `BatchAck`,
/// the window being [`CREDIT_WINDOW`] at every client.
pub const PROTO_VERSION: u32 = 5;

/// Snapshots a client may have sent and not yet seen acknowledged. A frame
/// larger than the window is sent alone and settled before the next one.
pub const CREDIT_WINDOW: u32 = 64;

/// Message prefix that marks an opcode-255 error as a typed shard-
/// ownership violation (see [`ProtoError::WrongShard`]).
pub const WRONG_SHARD_PREFIX: &str = "wrong_shard:";

/// Message prefix that marks an opcode-255 error as a typed refusal of
/// evidence about no switch or port of the fabric (see
/// [`ProtoError::ForeignEvidence`]).
pub const FOREIGN_EVIDENCE_PREFIX: &str = "foreign_evidence:";

/// Body sentinel for "no shard-map epoch announced".
const NO_EPOCH: u64 = u64::MAX;

/// A contiguous switch-id range `lo..hi` one daemon owns, stamped with the
/// shard-map epoch it was cut from. The epoch is the coherence handle:
/// ingest routed under a different map generation is refused with a typed
/// `wrong_shard:` error rather than silently stored against stale
/// ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRange {
    /// First owned switch id (inclusive).
    pub lo: u32,
    /// One past the last owned switch id (exclusive).
    pub hi: u32,
    /// Shard-map generation this range was assigned under.
    pub epoch: u64,
}

impl ShardRange {
    pub fn contains(&self, switch: NodeId) -> bool {
        (self.lo..self.hi).contains(&switch.0)
    }

    /// Parse `"LO..HI"` (exclusive upper bound) with epoch 0.
    pub fn parse(s: &str) -> Result<ShardRange, String> {
        let (lo, hi) = s
            .split_once("..")
            .ok_or_else(|| format!("shard range '{s}' is not LO..HI"))?;
        let lo: u32 = lo
            .trim()
            .parse()
            .map_err(|_| format!("shard range low bound '{lo}' is not a u32"))?;
        let hi: u32 = hi
            .trim()
            .parse()
            .map_err(|_| format!("shard range high bound '{hi}' is not a u32"))?;
        if lo >= hi {
            return Err(format!("shard range {lo}..{hi} is empty"));
        }
        Ok(ShardRange { lo, hi, epoch: 0 })
    }
}

impl fmt::Display for ShardRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.lo, self.hi)
    }
}

/// A protocol-level failure on one connection.
#[derive(Debug)]
pub enum ProtoError {
    Io(io::Error),
    /// Frame length over [`MAX_FRAME`] or shorter than the opcode byte.
    BadFrame(u32),
    /// Unknown opcode for the expected direction.
    BadOpcode(u8),
    /// Body failed to parse (binary codec or JSON).
    BadBody(String),
    /// The daemon answered with opcode 255.
    Remote(String),
    /// The daemon refused on shard-ownership grounds: the switch id is
    /// outside its owned range, or the announced shard-map epoch does not
    /// match the daemon's. The caller holds a stale or mis-cut shard map
    /// and must refresh it — retrying the same route cannot succeed.
    WrongShard(String),
    /// The daemon refused an ingest frame whole, storing and journaling
    /// none of it: a snapshot in it names a node that is no switch of the
    /// daemon's fabric or a port that switch lacks, or holds an epoch whose
    /// end overflows the clock. Resending the same
    /// frame cannot succeed; the session stays usable.
    ForeignEvidence(String),
}

impl ProtoError {
    /// Classify an opcode-255 message: `wrong_shard:`- and
    /// `foreign_evidence:`-prefixed bodies are the typed refusals,
    /// everything else a generic remote error.
    pub fn remote(msg: String) -> ProtoError {
        if let Some(detail) = msg.strip_prefix(WRONG_SHARD_PREFIX) {
            ProtoError::WrongShard(detail.trim_start().to_string())
        } else if let Some(detail) = msg.strip_prefix(FOREIGN_EVIDENCE_PREFIX) {
            ProtoError::ForeignEvidence(detail.trim_start().to_string())
        } else {
            ProtoError::Remote(msg)
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "io: {e}"),
            ProtoError::BadFrame(n) => write!(f, "bad frame length {n}"),
            ProtoError::BadOpcode(op) => write!(f, "unknown opcode {op}"),
            ProtoError::BadBody(m) => write!(f, "malformed body: {m}"),
            ProtoError::Remote(m) => write!(f, "daemon error: {m}"),
            ProtoError::WrongShard(m) => write!(f, "wrong shard: {m}"),
            ProtoError::ForeignEvidence(m) => write!(f, "foreign evidence: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::BadBody(e.to_string())
    }
}

impl From<serde::Error> for ProtoError {
    fn from(e: serde::Error) -> Self {
        ProtoError::BadBody(e.0)
    }
}

/// Client → daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Diagnose(DiagnoseParams),
    Stats,
    Shutdown,
    /// Where was this flow seen — served across both retention tiers.
    FlowHistory(FlowKey),
    /// The full observability surface: metrics snapshot + flight dump.
    Metrics,
    /// An audit-trail record: `None` = the latest verdict, `Some(seq)` =
    /// that specific verdict.
    Explain(Option<u64>),
    /// One ingest frame of N ≥ 1 snapshots (one round trip, one message
    /// per shard it touches). Answered with [`Response::BatchAck`].
    IngestBatch(Vec<TelemetrySnapshot>),
    /// Open the session; answered with an empty `Ack`. `version`
    /// is the speaker's [`PROTO_VERSION`]; `map_epoch` the shard-map
    /// generation the speaker routes under, if it routes at all.
    Hello {
        version: u32,
        map_epoch: Option<u64>,
    },
    /// Return this shard's per-switch evidence fragment set: the canonical
    /// snapshot of every owned switch, holding the epochs that overlap the
    /// window. Answered with [`Response::Fragments`].
    Fragments(Window),
}

/// Parameters of a `Diagnose` request: the victim flow, the window, and
/// the switches the *collector* knows failed to report inside it (folded
/// into the verdict's confidence, mirroring the one-shot path).
#[derive(Debug, Clone, PartialEq)]
pub struct DiagnoseParams {
    pub victim: FlowKey,
    pub window: Window,
    pub missing: Vec<NodeId>,
}

impl DiagnoseParams {
    /// The victim arrives off the wire: whoever serves the request checks
    /// it against its fabric before any analysis walks the flow's path.
    /// `Err` is the text of the `Response::Error` to answer with.
    pub fn check_victim(&self, topo: &Topology) -> Result<(), String> {
        let v = &self.victim;
        if topo.is_host(v.src) && topo.is_host(v.dst) {
            Ok(())
        } else {
            Err(format!(
                "victim {v} is not a flow of this fabric: both ends must be hosts of it"
            ))
        }
    }
}

/// Ingest frames arrive off the wire too: whoever accepts one checks that
/// every snapshot describes a switch of `topo` through ports that switch
/// has — the switch itself, each flow record's `out_port`, each port
/// record, each meter's in and out port, each evicted record's `out_port`.
/// Analysis indexes the fabric by all of them. Each epoch's end,
/// `start + len`, must also fit the clock: the store's watermark, its
/// windowed read and every overlap test compute it. `Err` is the text of the
/// `Response::Error` refusing the whole frame, [`FOREIGN_EVIDENCE_PREFIX`]
/// first.
pub fn check_evidence(snaps: &[TelemetrySnapshot], topo: &Topology) -> Result<(), String> {
    for snap in snaps {
        let sw = snap.switch;
        if !topo.is_switch(sw) {
            return Err(format!(
                "{FOREIGN_EVIDENCE_PREFIX} node {} is not a switch of this fabric",
                sw.0
            ));
        }
        let lacks = |port: u8| topo.try_port(PortId::new(sw, port)).is_none();
        let refuse = |what: &str, port: u8| {
            Err(format!(
                "{FOREIGN_EVIDENCE_PREFIX} a {what} of switch {} names port {port}, \
                 which it lacks ({} ports)",
                sw.0,
                topo.ports(sw).len()
            ))
        };
        for ep in &snap.epochs {
            if ep.start.0.checked_add(ep.len.0).is_none() {
                return Err(format!(
                    "{FOREIGN_EVIDENCE_PREFIX} an epoch of switch {} starting at {} ns \
                     with length {} ns overflows the clock",
                    sw.0, ep.start.0, ep.len.0
                ));
            }
            if let Some((_, r)) = ep.flows.iter().find(|(_, r)| lacks(r.out_port)) {
                return refuse("flow record", r.out_port);
            }
            if let Some(&(port, _)) = ep.ports.iter().find(|&&(p, _)| lacks(p)) {
                return refuse("port record", port);
            }
            for &(i, o, _) in &ep.meter {
                if let Some(port) = [i, o].into_iter().find(|&p| lacks(p)) {
                    return refuse("meter", port);
                }
            }
        }
        if let Some(ev) = snap.evicted.iter().find(|ev| lacks(ev.record.out_port)) {
            return refuse("evicted record", ev.record.out_port);
        }
    }
    Ok(())
}

/// Daemon → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The Hello answer.
    Ack,
    Diagnosis(DiagnosisReport),
    Stats(serde::Value),
    Bye,
    History(Vec<FlowObservation>),
    /// `{metrics: <MetricsSnapshot>, flight: [events]}`.
    Metrics(serde::Value),
    Explain(ExplainRecord),
    /// Per-frame delivery outcome: `accepted + shed` equals the frame
    /// size.
    BatchAck {
        accepted: u32,
        shed: u32,
    },
    /// The shard's per-switch canonical snapshots of the requested window,
    /// one per owned switch that has reported, in switch-id order.
    Fragments(Vec<TelemetrySnapshot>),
    Error(String),
}

const OP_DIAGNOSE: u8 = 2;
const OP_STATS: u8 = 3;
const OP_SHUTDOWN: u8 = 4;
const OP_FLOW_HISTORY: u8 = 5;
const OP_METRICS: u8 = 6;
const OP_EXPLAIN: u8 = 7;
const OP_INGEST_BATCH: u8 = 8;
const OP_HELLO: u8 = 9;
const OP_FRAGMENTS: u8 = 10;
const OP_ACK: u8 = 129;
const OP_DIAGNOSIS: u8 = 130;
const OP_STATS_RESP: u8 = 131;
const OP_BYE: u8 = 132;
const OP_HISTORY: u8 = 133;
const OP_METRICS_RESP: u8 = 134;
const OP_EXPLAIN_RESP: u8 = 135;
const OP_BATCH_ACK: u8 = 136;
const OP_FRAGMENTS_RESP: u8 = 137;
const OP_ERROR: u8 = 255;

/// Write one frame: length prefix, opcode, body. A payload over
/// [`MAX_FRAME`] — which every peer's [`read_frame`] would reject — is
/// refused with `InvalidInput` before the first byte goes out, so the
/// stream stays at a frame boundary.
pub fn write_frame(w: &mut impl Write, opcode: u8, body: &[u8]) -> io::Result<()> {
    if body.len() >= MAX_FRAME as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "outbound frame of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
                body.len() + 1
            ),
        ));
    }
    let len = (body.len() + 1) as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[opcode])?;
    w.write_all(body)?;
    w.flush()
}

/// Read one frame's (opcode, body). `Ok(None)` on clean EOF at a frame
/// boundary — the peer hung up between requests, which is not an error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, ProtoError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME {
        return Err(ProtoError::BadFrame(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let body = payload.split_off(1);
    Ok(Some((payload[0], body)))
}

pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    match req {
        Request::Diagnose(p) => write_json(
            w,
            OP_DIAGNOSE,
            &serde::Value::Object(vec![
                ("victim".into(), p.victim.to_value()),
                ("from".into(), serde::Value::UInt(p.window.from.0)),
                ("to".into(), serde::Value::UInt(p.window.to.0)),
                (
                    "missing".into(),
                    serde::Value::Array(
                        p.missing
                            .iter()
                            .map(|n| serde::Value::UInt(n.0 as u64))
                            .collect(),
                    ),
                ),
            ]),
        ),
        Request::Stats => write_frame(w, OP_STATS, &[]),
        Request::Shutdown => write_frame(w, OP_SHUTDOWN, &[]),
        Request::FlowHistory(flow) => write_json(
            w,
            OP_FLOW_HISTORY,
            &serde::Value::Object(vec![("flow".into(), flow.to_value())]),
        ),
        Request::Metrics => write_frame(w, OP_METRICS, &[]),
        Request::IngestBatch(snaps) => write_frame(w, OP_INGEST_BATCH, &encode_batch(snaps)),
        Request::Hello { version, map_epoch } => write_fixed(w, OP_HELLO, |b| {
            b.u32(*version);
            b.u64(map_epoch.unwrap_or(NO_EPOCH));
        }),
        Request::Fragments(window) => write_fixed(w, OP_FRAGMENTS, |b| {
            b.u64(window.from.0);
            b.u64(window.to.0);
        }),
        Request::Explain(seq) => {
            let fields = match seq {
                Some(n) => vec![("seq".to_string(), serde::Value::UInt(*n))],
                None => vec![],
            };
            write_json(w, OP_EXPLAIN, &serde::Value::Object(fields))
        }
    }
}

/// One [`FlowObservation`] as its JSON wire value (also what the CLI's
/// `--history` report embeds).
pub fn observation_to_value(o: &FlowObservation) -> serde::Value {
    serde::Value::Object(vec![
        ("switch".into(), serde::Value::UInt(u64::from(o.switch.0))),
        ("from".into(), serde::Value::UInt(o.from.0)),
        ("to".into(), serde::Value::UInt(o.to.0)),
        (
            "fidelity".into(),
            serde::Value::Str(
                match o.fidelity {
                    Fidelity::Raw => "raw",
                    Fidelity::Compacted => "compacted",
                }
                .into(),
            ),
        ),
        ("out_port".into(), serde::Value::UInt(u64::from(o.out_port))),
        ("pkt_count".into(), serde::Value::UInt(o.pkt_count)),
        ("paused_count".into(), serde::Value::UInt(o.paused_count)),
        ("qdepth_sum".into(), serde::Value::UInt(o.qdepth_sum)),
        ("epochs".into(), serde::Value::UInt(u64::from(o.epochs))),
    ])
}

fn observation_from_value(v: &serde::Value) -> Result<FlowObservation, ProtoError> {
    let num = |name: &str| {
        v.get(name)
            .and_then(|f| f.as_u64())
            .ok_or_else(|| ProtoError::BadBody(format!("observation field {name} not u64")))
    };
    let fidelity = match v.get("fidelity").and_then(|f| f.as_str()) {
        Some("raw") => Fidelity::Raw,
        Some("compacted") => Fidelity::Compacted,
        other => {
            return Err(ProtoError::BadBody(format!(
                "observation fidelity {other:?} unknown"
            )))
        }
    };
    Ok(FlowObservation {
        switch: NodeId(num("switch")? as u32),
        from: Nanos(num("from")?),
        to: Nanos(num("to")?),
        fidelity,
        out_port: num("out_port")? as u8,
        pkt_count: num("pkt_count")?,
        paused_count: num("paused_count")?,
        qdepth_sum: num("qdepth_sum")?,
        epochs: num("epochs")? as u32,
    })
}

/// A JSON body: UTF-8 text holding one JSON value, nested at most
/// [`serde_json::MAX_DEPTH`] deep.
fn json(body: &[u8]) -> Result<serde::Value, ProtoError> {
    let text = std::str::from_utf8(body).map_err(|e| ProtoError::BadBody(e.to_string()))?;
    Ok(serde_json::parse(text)?)
}

/// A frame whose body is `v` as JSON.
fn write_json(w: &mut impl Write, opcode: u8, v: &impl Serialize) -> io::Result<()> {
    let body = serde_json::to_string(v).expect("value serialization is infallible");
    write_frame(w, opcode, body.as_bytes())
}

/// A frame with a fixed-length binary body, written through the codec's
/// [`Writer`].
fn write_fixed(w: &mut impl Write, opcode: u8, body: impl FnOnce(&mut Writer)) -> io::Result<()> {
    write_frame(w, opcode, &Writer::encode(16, body))
}

/// A fixed-length binary body read through the codec's [`Reader`]: `read`
/// must consume all `want` bytes, and a body of any other length — a body
/// at all, on the ops documented as empty — is malformed.
fn read_fixed<T>(
    what: &str,
    want: usize,
    body: &[u8],
    read: impl FnOnce(&mut Reader<'_>) -> Result<T, CodecError>,
) -> Result<T, ProtoError> {
    Reader::read_all(body, read)
        .map_err(|_| ProtoError::BadBody(format!("{what} body {} bytes, want {want}", body.len())))
}

fn parse_flow_history(body: &[u8]) -> Result<FlowKey, ProtoError> {
    let v = json(body)?;
    let flow = v
        .get("flow")
        .ok_or_else(|| ProtoError::BadBody("missing field flow".into()))?;
    Ok(FlowKey::from_value(flow)?)
}

fn parse_diagnose(body: &[u8]) -> Result<DiagnoseParams, ProtoError> {
    let v = json(body)?;
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| ProtoError::BadBody(format!("missing field {name}")))
    };
    let num = |name: &str| {
        field(name)?
            .as_u64()
            .ok_or_else(|| ProtoError::BadBody(format!("{name} not u64")))
    };
    let victim = FlowKey::from_value(field("victim")?)?;
    let missing = field("missing")?
        .as_array()
        .ok_or_else(|| ProtoError::BadBody("missing not array".into()))?
        .iter()
        .map(|n| {
            n.as_u64()
                .and_then(|id| u32::try_from(id).ok())
                .map(NodeId)
                .ok_or_else(|| ProtoError::BadBody("missing entry not a u32 switch id".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DiagnoseParams {
        victim,
        window: Window {
            from: Nanos(num("from")?),
            to: Nanos(num("to")?),
        },
        missing,
    })
}

/// Decode a request frame (daemon side).
pub fn decode_request(opcode: u8, body: &[u8]) -> Result<Request, ProtoError> {
    match opcode {
        OP_DIAGNOSE => Ok(Request::Diagnose(parse_diagnose(body)?)),
        OP_STATS => read_fixed("stats", 0, body, |_| Ok(Request::Stats)),
        OP_SHUTDOWN => read_fixed("shutdown", 0, body, |_| Ok(Request::Shutdown)),
        OP_FLOW_HISTORY => Ok(Request::FlowHistory(parse_flow_history(body)?)),
        OP_METRICS => read_fixed("metrics", 0, body, |_| Ok(Request::Metrics)),
        OP_INGEST_BATCH => Ok(Request::IngestBatch(decode_batch(body)?)),
        OP_HELLO => read_fixed("hello", 12, body, |r| {
            Ok(Request::Hello {
                version: r.u32()?,
                map_epoch: Some(r.u64()?).filter(|&e| e != NO_EPOCH),
            })
        }),
        OP_FRAGMENTS => read_fixed("fragments", 16, body, |r| {
            Ok(Request::Fragments(Window {
                from: Nanos(r.u64()?),
                to: Nanos(r.u64()?),
            }))
        }),
        OP_EXPLAIN => match json(body)?.get("seq") {
            None => Ok(Request::Explain(None)),
            Some(n) => n
                .as_u64()
                .map(|n| Request::Explain(Some(n)))
                .ok_or_else(|| ProtoError::BadBody("seq not u64".into())),
        },
        op => Err(ProtoError::BadOpcode(op)),
    }
}

pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    match resp {
        Response::Ack => write_frame(w, OP_ACK, &[]),
        Response::Diagnosis(report) => write_json(w, OP_DIAGNOSIS, report),
        Response::Stats(v) => write_json(w, OP_STATS_RESP, v),
        Response::Bye => write_frame(w, OP_BYE, &[]),
        Response::History(rows) => write_json(
            w,
            OP_HISTORY,
            &serde::Value::Array(rows.iter().map(observation_to_value).collect()),
        ),
        Response::Metrics(v) => write_json(w, OP_METRICS_RESP, v),
        Response::Explain(rec) => write_json(w, OP_EXPLAIN_RESP, rec),
        Response::BatchAck { accepted, shed } => write_fixed(w, OP_BATCH_ACK, |b| {
            b.u32(*accepted);
            b.u32(*shed);
        }),
        Response::Fragments(snaps) => write_frame(w, OP_FRAGMENTS_RESP, &encode_batch(snaps)),
        Response::Error(msg) => write_frame(w, OP_ERROR, msg.as_bytes()),
    }
}

/// Decode a response frame (client side).
pub fn decode_response(opcode: u8, body: &[u8]) -> Result<Response, ProtoError> {
    match opcode {
        OP_ACK => read_fixed("ack", 0, body, |_| Ok(Response::Ack)),
        OP_DIAGNOSIS => Ok(Response::Diagnosis(DiagnosisReport::from_value(&json(
            body,
        )?)?)),
        OP_STATS_RESP => Ok(Response::Stats(json(body)?)),
        OP_BYE => read_fixed("bye", 0, body, |_| Ok(Response::Bye)),
        OP_HISTORY => {
            let rows = json(body)?
                .as_array()
                .ok_or_else(|| ProtoError::BadBody("history not array".into()))?
                .iter()
                .map(observation_from_value)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Response::History(rows))
        }
        OP_METRICS_RESP => Ok(Response::Metrics(json(body)?)),
        OP_EXPLAIN_RESP => Ok(Response::Explain(ExplainRecord::from_value(&json(body)?)?)),
        OP_BATCH_ACK => read_fixed("batch ack", 8, body, |r| {
            Ok(Response::BatchAck {
                accepted: r.u32()?,
                shed: r.u32()?,
            })
        }),
        OP_FRAGMENTS_RESP => Ok(Response::Fragments(decode_batch(body)?)),
        OP_ERROR => Ok(Response::Error(String::from_utf8_lossy(body).into_owned())),
        op => Err(ProtoError::BadOpcode(op)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_telemetry::EpochSnapshot;

    fn sample_snap() -> TelemetrySnapshot {
        TelemetrySnapshot {
            switch: NodeId(5),
            taken_at: Nanos(42),
            nports: 4,
            max_flows: 16,
            epochs: vec![EpochSnapshot {
                slot: 0,
                id: 1,
                start: Nanos(0),
                len: Nanos(1 << 20),
                flows: vec![],
                ports: vec![],
                meter: vec![],
            }],
            evicted: vec![],
        }
    }

    fn roundtrip_request(req: Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).expect("write to Vec");
        let (op, body) = read_frame(&mut buf.as_slice())
            .expect("frame parses")
            .expect("frame present");
        decode_request(op, &body).expect("request decodes")
    }

    #[test]
    fn requests_roundtrip() {
        let diag = Request::Diagnose(DiagnoseParams {
            victim: FlowKey::roce(NodeId(1), NodeId(2), 33),
            window: Window {
                from: Nanos(100),
                to: Nanos(900),
            },
            missing: vec![NodeId(4), NodeId(9)],
        });
        assert_eq!(roundtrip_request(diag.clone()), diag);
        assert_eq!(roundtrip_request(Request::Stats), Request::Stats);
        assert_eq!(roundtrip_request(Request::Shutdown), Request::Shutdown);
        let hist = Request::FlowHistory(FlowKey::roce(NodeId(7), NodeId(8), 11));
        assert_eq!(roundtrip_request(hist.clone()), hist);
        assert_eq!(roundtrip_request(Request::Metrics), Request::Metrics);
        for window in [
            Window::default(),
            Window {
                from: Nanos(100),
                to: Nanos(900),
            },
        ] {
            let frags = Request::Fragments(window);
            assert_eq!(roundtrip_request(frags.clone()), frags);
        }
        assert_eq!(
            roundtrip_request(Request::Explain(None)),
            Request::Explain(None)
        );
        assert_eq!(
            roundtrip_request(Request::Explain(Some(42))),
            Request::Explain(Some(42))
        );
        for batch in [
            Request::IngestBatch(vec![]),
            Request::IngestBatch(vec![sample_snap()]),
            Request::IngestBatch(vec![sample_snap(), sample_snap()]),
        ] {
            assert_eq!(roundtrip_request(batch.clone()), batch);
        }
        for hello in [
            Request::Hello {
                version: 1,
                map_epoch: None,
            },
            Request::Hello {
                version: PROTO_VERSION,
                map_epoch: None,
            },
            Request::Hello {
                version: PROTO_VERSION,
                map_epoch: Some(7),
            },
        ] {
            assert_eq!(roundtrip_request(hello.clone()), hello);
        }
    }

    /// Opcode 1 — the per-snapshot ingest of versions 1–3 — is unknown,
    /// whatever body follows it.
    #[test]
    fn retired_ingest_opcode_is_unknown() {
        for body in [
            Vec::new(),
            hawkeye_telemetry::encode_snapshot(&sample_snap()),
        ] {
            let got = decode_request(1, &body);
            assert!(matches!(got, Err(ProtoError::BadOpcode(1))), "{got:?}");
        }
    }

    /// Fixed-length bodies are exact: a `Fragments` body is the 16-byte
    /// window (above all not the empty body version 2 sent), the ops
    /// documented as empty take no body, and an `Ack` is empty — not the
    /// 5- and 17-byte bodies version 3 sent, nor version 4's 16 bytes.
    #[test]
    fn fixed_length_bodies_are_exact() {
        let requests = [(OP_FRAGMENTS, 0), (OP_FRAGMENTS, 15), (OP_FRAGMENTS, 17)]
            .into_iter()
            .chain([OP_STATS, OP_SHUTDOWN, OP_METRICS].map(|op| (op, 1)));
        for (op, len) in requests {
            let got = decode_request(op, &vec![0; len]);
            assert!(matches!(got, Err(ProtoError::BadBody(_))), "{op}: {got:?}");
        }
        let responses = [1, 5, 16, 17]
            .map(|len| (OP_ACK, len))
            .into_iter()
            .chain([(OP_BYE, 1)]);
        for (op, len) in responses {
            let got = decode_response(op, &vec![1; len]);
            assert!(
                matches!(got, Err(ProtoError::BadBody(_))),
                "{op}/{len}: {got:?}"
            );
        }
    }

    /// A `missing` id that does not fit a switch id is malformed, never
    /// truncated onto some other switch.
    #[test]
    fn oversized_missing_id_rejected() {
        let body = |id: u64| {
            format!(
                r#"{{"victim":{},"from":0,"to":9,"missing":[{id}]}}"#,
                serde_json::to_string(&FlowKey::roce(NodeId(1), NodeId(2), 33).to_value())
                    .expect("value serialization is infallible")
            )
        };
        let ok = decode_request(OP_DIAGNOSE, body(u64::from(u32::MAX)).as_bytes());
        assert!(
            matches!(ok, Ok(Request::Diagnose(p)) if p.missing == [NodeId(u32::MAX)]),
            "largest switch id must decode"
        );
        assert!(matches!(
            decode_request(OP_DIAGNOSE, body(4_294_967_301).as_bytes()),
            Err(ProtoError::BadBody(_))
        ));
    }

    /// A hello body of any length but 12 — empty included — is malformed.
    #[test]
    fn truncated_hello_disclosure_rejected() {
        assert!(decode_request(OP_HELLO, &[]).is_err());
        assert!(decode_request(OP_HELLO, &[2, 0, 0]).is_err());
        assert!(decode_request(OP_HELLO, &[2, 0, 0, 0, 1, 2]).is_err());
        assert!(decode_request(OP_HELLO, &[0; 13]).is_err());
    }

    #[test]
    fn history_response_roundtrips_both_fidelities() {
        let rows = vec![
            FlowObservation {
                switch: NodeId(3),
                from: Nanos(0),
                to: Nanos(4 << 20),
                fidelity: Fidelity::Compacted,
                out_port: 2,
                pkt_count: 1234,
                paused_count: 56,
                qdepth_sum: 789,
                epochs: 4,
            },
            FlowObservation {
                switch: NodeId(3),
                from: Nanos(4 << 20),
                to: Nanos(5 << 20),
                fidelity: Fidelity::Raw,
                out_port: 2,
                pkt_count: 99,
                paused_count: 1,
                qdepth_sum: 42,
                epochs: 1,
            },
        ];
        for resp in [Response::History(rows), Response::History(Vec::new())] {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).expect("write to Vec");
            let (op, body) = read_frame(&mut buf.as_slice())
                .expect("frame parses")
                .expect("frame present");
            assert_eq!(decode_response(op, &body).expect("decodes"), resp);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Ack,
            Response::BatchAck {
                accepted: 7,
                shed: 1,
            },
            Response::Fragments(vec![sample_snap()]),
            Response::Fragments(Vec::new()),
            Response::Bye,
            Response::Error("boom".into()),
        ] {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).expect("write to Vec");
            let (op, body) = read_frame(&mut buf.as_slice())
                .expect("frame parses")
                .expect("frame present");
            assert_eq!(decode_response(op, &body).expect("decodes"), resp);
        }
    }

    #[test]
    fn wrong_shard_errors_classify() {
        assert!(matches!(
            ProtoError::remote("wrong_shard: switch 9 outside 0..4".into()),
            ProtoError::WrongShard(m) if m == "switch 9 outside 0..4"
        ));
        assert!(matches!(
            ProtoError::remote("no telemetry ingested".into()),
            ProtoError::Remote(_)
        ));
    }

    #[test]
    fn shard_range_parses_and_contains() {
        let r = ShardRange::parse("4..12").expect("parses");
        assert_eq!((r.lo, r.hi, r.epoch), (4, 12, 0));
        assert!(r.contains(NodeId(4)) && r.contains(NodeId(11)));
        assert!(!r.contains(NodeId(3)) && !r.contains(NodeId(12)));
        assert!(ShardRange::parse("5..5").is_err(), "empty range rejected");
        assert!(ShardRange::parse("7").is_err());
        assert!(ShardRange::parse("a..b").is_err());
    }

    #[test]
    fn malformed_batch_ack_rejected() {
        // 12 bytes is version 4's ack, credits and all.
        for len in [7, 9, 12] {
            assert!(decode_response(OP_BATCH_ACK, &vec![0u8; len]).is_err());
        }
    }

    #[test]
    fn metrics_and_explain_responses_roundtrip() {
        let metrics = Response::Metrics(serde::Value::Object(vec![
            (
                "metrics".into(),
                serde::Value::Object(vec![("counters".into(), serde::Value::Array(vec![]))]),
            ),
            ("flight".into(), serde::Value::Array(vec![])),
        ]));
        let explain = Response::Explain(ExplainRecord {
            seq: 3,
            victim: "0:7->5".into(),
            window_from_ns: 100,
            window_to_ns: 900,
            anomaly: "MicroBurstIncast".into(),
            signature_row: "microburst_incast".into(),
            confidence: "complete".into(),
            root_causes: vec![2],
            contributing_switches: vec![1, 2],
            contributing_epochs: 8,
            dirty_switches: vec![],
            frags_reused: 10,
            frags_recomputed: 2,
            stage_collect_ns: 500,
            stage_graph_ns: 9000,
            stage_match_ns: 100,
        });
        for resp in [metrics, explain] {
            let mut buf = Vec::new();
            write_response(&mut buf, &resp).expect("write to Vec");
            let (op, body) = read_frame(&mut buf.as_slice())
                .expect("frame parses")
                .expect("frame present");
            assert_eq!(decode_response(op, &body).expect("decodes"), resp);
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(read_frame(&mut &*empty).expect("eof ok").is_none());
    }

    #[test]
    fn oversized_frame_rejected() {
        let bytes = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(
            read_frame(&mut bytes.as_slice()),
            Err(ProtoError::BadFrame(_))
        ));
    }

    #[test]
    fn oversized_outbound_frame_is_refused_unwritten() {
        let body = vec![0u8; MAX_FRAME as usize];
        let mut out = Vec::new();
        let err = write_frame(&mut out, OP_FRAGMENTS_RESP, &body).expect_err("over the cap");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(&MAX_FRAME.to_string()));
        assert!(out.is_empty(), "a refused frame must not reach the stream");
        // The largest legal payload (opcode + body == MAX_FRAME) goes out.
        write_frame(&mut out, OP_FRAGMENTS_RESP, &body[1..]).expect("at the cap");
        assert_eq!(out.len(), 4 + MAX_FRAME as usize);
    }

    #[test]
    fn truncated_payload_is_error_not_eof() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.push(OP_STATS); // 1 of 10 promised bytes
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }
}
