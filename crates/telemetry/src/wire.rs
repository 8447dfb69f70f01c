//! Compact binary codec for [`TelemetrySnapshot`]s, and the bounded
//! little-endian [`Reader`] / [`Writer`] every binary format in the
//! workspace is read and written through (serve protocol bodies, evidence
//! log records and checkpoints too).
//!
//! The online store and the serve protocol move snapshots constantly; the
//! JSON edge formats are an order of magnitude larger and allocate per
//! field. This codec is a fixed-layout little-endian encoding: a one-byte
//! version tag, fixed-width scalars, `u32` element counts before each
//! repeated section. No external dependencies, no varints — the snapshot
//! volume is dominated by flow records whose counters use their full width
//! anyway, and a fixed layout keeps decode branch-free.
//!
//! The encoding is canonical: encoding a decoded snapshot reproduces the
//! input bytes exactly (there is one representation per value), which the
//! store's byte-for-byte reconciliation tests rely on.
//!
//! The reader is bounded: a claimed count or length is capped before it is
//! trusted, reservation follows the bytes present, and [`Reader::finish`]
//! refuses leftovers. Hostile input is a typed [`CodecError`].

use crate::compact::{CompactedEpoch, FlowTotals, PortTotals};
use crate::snapshot::{EpochSnapshot, TelemetrySnapshot};
use crate::tables::{EvictedFlow, FlowRecord, PortRecord};
use hawkeye_sim::{FlowKey, Nanos, NodeId};
use std::fmt;

/// Version tag leading every encoded snapshot; bump on layout change.
pub const WIRE_VERSION: u8 = 1;

/// Decode failure: structurally invalid bytes (truncation, bad version,
/// absurd counts, leftovers). Carries enough context to log usefully at the
/// frame boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the layout said it should.
    Truncated { need: usize, have: usize },
    /// Leading version byte is not [`WIRE_VERSION`] (or the kind byte after
    /// it is not the layout's).
    Version(u8),
    /// An element count (or a blob's byte length) exceeds the sanity bound
    /// for its section.
    Oversized { section: &'static str, count: u32 },
    /// Bytes left over after the layout ended at byte `used`.
    Trailing { used: usize, have: usize },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated input: need {need} bytes, have {have}")
            }
            CodecError::Version(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            CodecError::Oversized { section, count } => {
                write!(f, "implausible {section} count {count}")
            }
            CodecError::Trailing { used, have } => {
                write!(f, "trailing bytes: layout ends at byte {used} of {have}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// The evidence log's decoders report their causes as text; this lets `?`
/// carry a codec error into them.
impl From<CodecError> for String {
    fn from(e: CodecError) -> String {
        e.to_string()
    }
}

/// Per-section element ceiling: a real switch exports at most a few
/// thousand flows per epoch; anything near this bound is a corrupt or
/// hostile frame, rejected before allocation.
pub const MAX_COUNT: u32 = 1 << 20;

/// Encoded bytes per element of each repeated section (for the nested
/// ones — epochs, snapshot bodies — the fixed part, i.e. the least one
/// element can occupy). [`Reader::section`] reserves from these.
const FLOW_RECORD_LEN: usize = 4 + 4 + 8 + 1;
const FLOW_LEN: usize = FlowKey::WIRE_SIZE + FLOW_RECORD_LEN;
const PORT_LEN: usize = 1 + 4 + 4 + 8;
const METER_LEN: usize = 1 + 1 + 8;
const EVICTED_LEN: usize = FLOW_LEN + 1 + 4;
const EPOCH_MIN_LEN: usize = 4 + 1 + 8 + 8 + 3 * 4;
const SNAPSHOT_MIN_LEN: usize = 4 + 8 + 4 + 4 + 2 * 4;
const COMPACTED_FLOW_LEN: usize = FlowKey::WIRE_SIZE + 1 + 8 + 8 + 8 + 4;
const COMPACTED_PORT_LEN: usize = 1 + 8 + 8 + 8;

/// Little-endian writer appending to a borrowed buffer: the encoding half
/// of [`Reader`], method for method.
pub struct Writer<'a>(&'a mut Vec<u8>);

impl<'a> Writer<'a> {
    pub fn new(buf: &'a mut Vec<u8>) -> Writer<'a> {
        Writer(buf)
    }
    /// A fresh buffer of `capacity` filled by `write` ([`Reader::read_all`]'s
    /// counterpart).
    #[inline]
    pub fn encode(capacity: usize, write: impl FnOnce(&mut Writer<'_>)) -> Vec<u8> {
        let mut buf = Vec::with_capacity(capacity);
        write(&mut Writer(&mut buf));
        buf
    }
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    /// A `u32` byte length, then the bytes ([`Reader::blob`]).
    pub fn blob(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }
    /// One repeated section: a `u32` element count, then each element
    /// ([`Reader::section`]).
    #[inline]
    pub fn section<T>(&mut self, items: &[T], mut element: impl FnMut(&mut Self, &T)) {
        debug_assert!(items.len() <= MAX_COUNT as usize);
        self.u32(items.len() as u32);
        for item in items {
            element(self, item);
        }
    }
    /// The version tag, then the layout's kind byte if it has one
    /// ([`Reader::header`]).
    pub fn header(&mut self, kind: Option<u8>) {
        self.u8(WIRE_VERSION);
        if let Some(k) = kind {
            self.u8(k);
        }
    }
    fn flow_key(&mut self, k: &FlowKey) {
        self.u32(k.src.0);
        self.u32(k.dst.0);
        self.u16(k.src_port);
        self.u16(k.dst_port);
        self.u8(k.proto);
    }
    fn flow_record(&mut self, r: &FlowRecord) {
        self.u32(r.pkt_count);
        self.u32(r.paused_count);
        self.u64(r.qdepth_sum);
        self.u8(r.out_port);
    }
}

/// Bounded little-endian reader over a byte slice. Every read that would
/// run past the end is [`CodecError::Truncated`]; nothing it does can
/// panic or allocate more than the input could hold.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }
    /// Read all of `bytes` with `read`, then [`Reader::finish`]. Every
    /// fixed layout decodes through this.
    #[inline]
    pub fn read_all<T, E: From<CodecError>>(
        bytes: &'a [u8],
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut r = Reader::new(bytes);
        let out = read(&mut r)?;
        r.finish()?;
        Ok(out)
    }
    /// The layout ended: any byte left is [`CodecError::Trailing`].
    pub fn finish(&self) -> Result<(), CodecError> {
        match (self.pos, self.buf.len()) {
            (used, have) if used < have => Err(CodecError::Trailing { used, have }),
            _ => Ok(()),
        }
    }
    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (need, have) = (self.pos.saturating_add(n), self.buf.len());
        let s = self
            .buf
            .get(self.pos..need)
            .ok_or(CodecError::Truncated { need, have })?;
        self.pos = need;
        Ok(s)
    }
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    /// A `u32` byte length of at most `cap`, then that many bytes.
    pub fn blob(&mut self, section: &'static str, cap: u32) -> Result<&'a [u8], CodecError> {
        let count = self.u32()?;
        if count > cap {
            return Err(CodecError::Oversized { section, count });
        }
        self.take(count as usize)
    }
    /// One repeated section: a `u32` element count of at most
    /// [`MAX_COUNT`], then that many elements. The Vec is reserved from
    /// the bytes remaining (each element occupies at least `min_len` of
    /// them), not from the claimed count, so a hostile count cannot force
    /// an allocation larger than the frame that carries it before the
    /// truncation check trips.
    #[inline]
    pub fn section<T>(
        &mut self,
        section: &'static str,
        min_len: usize,
        mut element: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let count = self.u32()?;
        if count > MAX_COUNT {
            return Err(CodecError::Oversized { section, count });
        }
        let room = (self.buf.len() - self.pos) / min_len.max(1);
        let mut out = Vec::with_capacity(room.min(count as usize));
        for _ in 0..count {
            out.push(element(self)?);
        }
        Ok(out)
    }
    /// The version tag, then — if the layout has one — its kind byte.
    pub fn header(&mut self, kind: Option<u8>) -> Result<(), CodecError> {
        for want in std::iter::once(WIRE_VERSION).chain(kind) {
            let got = self.u8()?;
            if got != want {
                return Err(CodecError::Version(got));
            }
        }
        Ok(())
    }
    fn flow_key(&mut self) -> Result<FlowKey, CodecError> {
        Ok(FlowKey {
            src: NodeId(self.u32()?),
            dst: NodeId(self.u32()?),
            src_port: self.u16()?,
            dst_port: self.u16()?,
            proto: self.u8()?,
        })
    }
    fn flow_record(&mut self) -> Result<FlowRecord, CodecError> {
        Ok(FlowRecord {
            pkt_count: self.u32()?,
            paused_count: self.u32()?,
            qdepth_sum: self.u64()?,
            out_port: self.u8()?,
        })
    }
}

/// The shape every telemetry layout shares: the header, a body, nothing
/// after it.
fn decode<'a, T>(
    bytes: &'a [u8],
    kind: Option<u8>,
    body: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
) -> Result<T, CodecError> {
    Reader::read_all(bytes, |r| {
        r.header(kind)?;
        body(r)
    })
}

/// Encode a snapshot into the versioned binary layout.
pub fn encode_snapshot(s: &TelemetrySnapshot) -> Vec<u8> {
    Writer::encode(64 + s.epochs.len() * 64, |w| {
        w.header(None);
        write_snapshot_body(w, s)
    })
}

/// The snapshot layout minus the version tag — shared between the
/// single-snapshot frame and the batch frame, which prefixes the version
/// (and kind/count header) once for the whole batch.
fn write_snapshot_body(w: &mut Writer, s: &TelemetrySnapshot) {
    w.u32(s.switch.0);
    w.u64(s.taken_at.0);
    w.u32(s.nports as u32);
    w.u32(s.max_flows as u32);
    w.section(&s.epochs, |w, ep| {
        w.u32(ep.slot as u32);
        w.u8(ep.id);
        w.u64(ep.start.0);
        w.u64(ep.len.0);
        w.section(&ep.flows, |w, (k, r)| {
            w.flow_key(k);
            w.flow_record(r);
        });
        w.section(&ep.ports, |w, (p, r)| {
            w.u8(*p);
            w.u32(r.pkt_count);
            w.u32(r.paused_count);
            w.u64(r.qdepth_sum);
        });
        w.section(&ep.meter, |w, &(ip, op, bytes)| {
            w.u8(ip);
            w.u8(op);
            w.u64(bytes);
        });
    });
    w.section(&s.evicted, |w, ev| {
        w.flow_key(&ev.key);
        w.flow_record(&ev.record);
        w.u8(ev.epoch_id);
        w.u32(ev.slot as u32);
    });
}

/// Decode a snapshot; rejects trailing garbage.
pub fn decode_snapshot(bytes: &[u8]) -> Result<TelemetrySnapshot, CodecError> {
    decode(bytes, None, read_snapshot_body)
}

/// Counterpart of [`write_snapshot_body`]: one snapshot's fields, leaving
/// the cursor at the first byte after it (batch decoding reads several in
/// sequence; the caller owns the trailing-garbage check).
fn read_snapshot_body(r: &mut Reader) -> Result<TelemetrySnapshot, CodecError> {
    let switch = NodeId(r.u32()?);
    let taken_at = Nanos(r.u64()?);
    let nports = r.u32()? as usize;
    let max_flows = r.u32()? as usize;
    let epochs = r.section("epochs", EPOCH_MIN_LEN, |r| {
        Ok(EpochSnapshot {
            slot: r.u32()? as usize,
            id: r.u8()?,
            start: Nanos(r.u64()?),
            len: Nanos(r.u64()?),
            flows: r.section("flows", FLOW_LEN, |r| Ok((r.flow_key()?, r.flow_record()?)))?,
            ports: r.section("ports", PORT_LEN, |r| {
                let p = r.u8()?;
                let rec = PortRecord {
                    pkt_count: r.u32()?,
                    paused_count: r.u32()?,
                    qdepth_sum: r.u64()?,
                };
                Ok((p, rec))
            })?,
            meter: r.section("meter", METER_LEN, |r| Ok((r.u8()?, r.u8()?, r.u64()?)))?,
        })
    })?;
    let evicted = r.section("evicted", EVICTED_LEN, |r| {
        Ok(EvictedFlow {
            key: r.flow_key()?,
            record: r.flow_record()?,
            epoch_id: r.u8()?,
            slot: r.u32()? as usize,
        })
    })?;
    Ok(TelemetrySnapshot {
        switch,
        taken_at,
        nports,
        max_flows,
        epochs,
        evicted,
    })
}

/// Kind byte after the version tag marking a multi-snapshot batch frame —
/// distinct from [`KIND_COMPACTED`] and chosen, like it, so decoding a
/// batch as a single snapshot (or vice versa) fails loudly. Public so the
/// durable evidence log can stamp journal records with the canonical kind
/// of the payload they carry.
pub const KIND_BATCH: u8 = 0xB1;

/// Encode several snapshots as one batch frame: version, kind, count,
/// then the snapshot bodies back to back. One length-prefixed frame (one
/// syscall each way) carries a whole collection interval's worth of
/// epochs — the ingest hot path's framing amortization.
pub fn encode_batch(snaps: &[TelemetrySnapshot]) -> Vec<u8> {
    Writer::encode(8 + snaps.len() * 128, |w| {
        w.header(Some(KIND_BATCH));
        w.section(snaps, write_snapshot_body)
    })
}

/// Decode a batch frame; rejects trailing garbage like
/// [`decode_snapshot`]. An empty batch is valid (and canonical).
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<TelemetrySnapshot>, CodecError> {
    decode(bytes, Some(KIND_BATCH), |r| {
        r.section("batch", SNAPSHOT_MIN_LEN, read_snapshot_body)
    })
}

/// Encode a compacted bucket into the versioned binary layout. The layout
/// shares [`WIRE_VERSION`] with snapshots but leads with a distinct kind
/// byte, so a compacted frame can never be misparsed as a raw snapshot.
pub fn encode_compacted(c: &CompactedEpoch) -> Vec<u8> {
    Writer::encode(32 + c.flows.len() * 48, |w| {
        w.header(Some(KIND_COMPACTED));
        w.u64(c.from.0);
        w.u64(c.to.0);
        w.u32(c.epochs);
        w.section(&c.flows, |w, (key, out_port, t)| {
            w.flow_key(key);
            w.u8(*out_port);
            w.u64(t.pkt_count);
            w.u64(t.paused_count);
            w.u64(t.qdepth_sum);
            w.u32(t.epochs_active);
        });
        w.section(&c.ports, |w, (p, t)| {
            w.u8(*p);
            w.u64(t.pkt_count);
            w.u64(t.paused_count);
            w.u64(t.qdepth_sum);
        });
        w.section(&c.meter, |w, &(ip, op, bytes)| {
            w.u8(ip);
            w.u8(op);
            w.u64(bytes);
        });
    })
}

/// Kind byte after the version tag distinguishing a compacted bucket from
/// a raw snapshot stream (snapshots predate the kind byte; their second
/// byte is the low byte of a switch id, so compacted frames use a value a
/// decode of the wrong type rejects loudly in tests). Public for the same
/// reason as [`KIND_BATCH`].
pub const KIND_COMPACTED: u8 = 0xC0;

/// Decode a compacted bucket; rejects trailing garbage, like
/// [`decode_snapshot`].
pub fn decode_compacted(bytes: &[u8]) -> Result<CompactedEpoch, CodecError> {
    decode(bytes, Some(KIND_COMPACTED), |r| {
        let from = Nanos(r.u64()?);
        let to = Nanos(r.u64()?);
        let epochs = r.u32()?;
        let flows = r.section("compacted flows", COMPACTED_FLOW_LEN, |r| {
            let key = r.flow_key()?;
            let out_port = r.u8()?;
            let totals = FlowTotals {
                pkt_count: r.u64()?,
                paused_count: r.u64()?,
                qdepth_sum: r.u64()?,
                epochs_active: r.u32()?,
            };
            Ok((key, out_port, totals))
        })?;
        let ports = r.section("compacted ports", COMPACTED_PORT_LEN, |r| {
            let p = r.u8()?;
            let totals = PortTotals {
                pkt_count: r.u64()?,
                paused_count: r.u64()?,
                qdepth_sum: r.u64()?,
            };
            Ok((p, totals))
        })?;
        let meter = r.section("compacted meter", METER_LEN, |r| {
            Ok((r.u8()?, r.u8()?, r.u64()?))
        })?;
        Ok(CompactedEpoch {
            from,
            to,
            epochs,
            flows,
            ports,
            meter,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            switch: NodeId(7),
            taken_at: Nanos(123_456_789),
            nports: 8,
            max_flows: 64,
            epochs: vec![EpochSnapshot {
                slot: 3,
                id: 2,
                start: Nanos(1 << 20),
                len: Nanos(1 << 20),
                flows: vec![(
                    FlowKey::roce(NodeId(1), NodeId(2), 777),
                    FlowRecord {
                        pkt_count: 40,
                        paused_count: 5,
                        qdepth_sum: 321,
                        out_port: 4,
                    },
                )],
                ports: vec![(
                    4,
                    PortRecord {
                        pkt_count: 40,
                        paused_count: 5,
                        qdepth_sum: 321,
                    },
                )],
                meter: vec![(0, 4, 41_920)],
            }],
            evicted: vec![EvictedFlow {
                key: FlowKey::roce(NodeId(3), NodeId(4), 888),
                record: FlowRecord {
                    pkt_count: 2,
                    paused_count: 0,
                    qdepth_sum: 3,
                    out_port: 1,
                },
                epoch_id: 1,
                slot: 9,
            }],
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let s = sample();
        let bytes = encode_snapshot(&s);
        let back = decode_snapshot(&bytes).expect("valid bytes decode");
        assert_eq!(back, s);
        assert_eq!(encode_snapshot(&back), bytes, "encoding is canonical");
    }

    #[test]
    fn empty_snapshot_roundtrips() {
        let s = TelemetrySnapshot {
            switch: NodeId(0),
            taken_at: Nanos::ZERO,
            nports: 0,
            max_flows: 0,
            epochs: vec![],
            evicted: vec![],
        };
        assert_eq!(decode_snapshot(&encode_snapshot(&s)).unwrap(), s);
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = encode_snapshot(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode_snapshot(&sample());
        bytes.push(0);
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = encode_snapshot(&sample());
        bytes[0] = 99;
        assert_eq!(decode_snapshot(&bytes), Err(CodecError::Version(99)));
    }

    fn sample_compacted() -> CompactedEpoch {
        let mut c = CompactedEpoch::default();
        for ep in &sample().epochs {
            c.fold(ep);
        }
        c.fold(&sample().epochs[0]);
        c
    }

    #[test]
    fn compacted_roundtrip_is_identity() {
        let c = sample_compacted();
        let bytes = encode_compacted(&c);
        let back = decode_compacted(&bytes).expect("valid bytes decode");
        assert_eq!(back, c);
        assert_eq!(encode_compacted(&back), bytes, "encoding is canonical");
    }

    #[test]
    fn compacted_truncation_detected_at_every_length() {
        let bytes = encode_compacted(&sample_compacted());
        for cut in 0..bytes.len() {
            assert!(
                decode_compacted(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn compacted_trailing_garbage_rejected() {
        let mut bytes = encode_compacted(&sample_compacted());
        bytes.push(0);
        assert!(decode_compacted(&bytes).is_err());
    }

    #[test]
    fn compacted_and_snapshot_frames_do_not_cross_decode() {
        let snap_bytes = encode_snapshot(&sample());
        assert!(decode_compacted(&snap_bytes).is_err());
        let comp_bytes = encode_compacted(&sample_compacted());
        assert!(decode_snapshot(&comp_bytes).is_err());
    }

    #[test]
    fn batch_roundtrip_is_identity() {
        let mut second = sample();
        second.switch = NodeId(9);
        second.taken_at = Nanos(987);
        let batch = vec![sample(), second];
        let bytes = encode_batch(&batch);
        let back = decode_batch(&bytes).expect("valid bytes decode");
        assert_eq!(back, batch);
        assert_eq!(encode_batch(&back), bytes, "encoding is canonical");
    }

    #[test]
    fn empty_batch_roundtrips() {
        let bytes = encode_batch(&[]);
        assert_eq!(decode_batch(&bytes).expect("empty batch decodes"), vec![]);
    }

    #[test]
    fn batch_truncation_detected_at_every_length() {
        let bytes = encode_batch(&[sample(), sample()]);
        for cut in 0..bytes.len() {
            assert!(
                decode_batch(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn batch_trailing_garbage_rejected() {
        let mut bytes = encode_batch(&[sample()]);
        bytes.push(0);
        assert!(decode_batch(&bytes).is_err());
    }

    #[test]
    fn batch_frames_do_not_cross_decode() {
        let batch_bytes = encode_batch(&[sample()]);
        assert!(decode_snapshot(&batch_bytes).is_err());
        assert!(decode_compacted(&batch_bytes).is_err());
        assert!(decode_batch(&encode_snapshot(&sample())).is_err());
        assert!(decode_batch(&encode_compacted(&sample_compacted())).is_err());
    }

    #[test]
    fn batch_absurd_count_rejected_before_allocation() {
        let mut bytes = vec![WIRE_VERSION, 0xB1];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_batch(&bytes),
            Err(CodecError::Oversized { .. })
        ));
    }

    #[test]
    fn batch_count_beyond_buffer_rejected_cheaply() {
        // A plausible count with no bodies behind it must fail truncated,
        // not allocate count-many snapshots.
        let mut bytes = vec![WIRE_VERSION, 0xB1];
        bytes.extend_from_slice(&1000u32.to_le_bytes());
        assert!(matches!(
            decode_batch(&bytes),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn absurd_count_rejected_before_allocation() {
        // version + switch + taken_at + nports + max_flows, then a huge
        // epoch count.
        let mut bytes = vec![WIRE_VERSION];
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(CodecError::Oversized { .. })
        ));
    }
}
