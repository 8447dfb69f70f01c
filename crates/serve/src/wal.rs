//! Segmented write-ahead evidence log: the disk half of the daemon's
//! tiered evidence store.
//!
//! Every accepted ingest frame and every emitted verdict is journaled as
//! a length-prefixed record whose payload *is* the canonical byte form
//! the wire codec already defines (`encode_batch` — kind [`KIND_BATCH`] —
//! for ingest frames, and `encode_compacted` — kind `0xC0` — inside
//! checkpoints), framed with a CRC32 and a monotone sequence number. Records accumulate in segment
//! files that rotate on size; a *checkpoint* — the durable image of the
//! in-memory tiered state (raw rings + compacted buckets + audit trail) —
//! retires every segment wholly below its barrier sequence, so disk usage
//! is bounded the same way memory is: raw segments covering a folded
//! epoch range are replaced by the compacted image of that range.
//!
//! Layout on disk (all integers little-endian):
//!
//! ```text
//! segment file seg-<%016 start_seq>.wal:
//!   [8B magic "HWKWAL02"] [u64 start_seq]
//!   record*:
//!     [u32 payload_len] [u8 kind] [u64 seq] [u32 crc32] [payload]
//! ```
//!
//! The CRC covers `payload_len ‖ kind ‖ seq ‖ payload`, so a single
//! flipped byte anywhere in a record is detected (CRC32 catches all
//! burst errors up to 32 bits). Sequence numbers are global across
//! segments and strictly increasing; a segment's name and header both
//! carry the seq of its first record, so recovery can check continuity.
//! The magic's trailing digits are the format version: `HWKWAL01` logs
//! also journaled single snapshots under a record kind (`0x01`) this
//! format does not have, so recovery refuses them ([`OLD_SEG_MAGIC`])
//! instead of reading their records as corruption.
//!
//! The `Wal` itself is single-owner: the daemon hands it to the compactor
//! thread, which serializes journal appends behind the same channel that
//! serializes folds — the ingest hot path never touches the file. See
//! [`crate::recovery`] for the read side.

use crate::store::SwitchRestore;
use hawkeye_client::ExplainRecord;
use hawkeye_sim::{Nanos, NodeId};
use hawkeye_telemetry::{
    decode_compacted, decode_snapshot, encode_compacted, encode_snapshot, CompactedEpoch, Reader,
    Writer, KIND_BATCH,
};
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Leading bytes of every segment file.
pub const SEG_MAGIC: &[u8; 8] = b"HWKWAL02";
/// The previous format's magic: a log this build refuses, untouched.
pub const OLD_SEG_MAGIC: &[u8; 8] = b"HWKWAL01";
/// Segment header: magic plus the u64 seq of the first record.
pub const SEG_HEADER_LEN: usize = 16;
/// Record header: u32 payload len, u8 kind, u64 seq, u32 crc.
pub const REC_HEADER_LEN: usize = 17;
/// Hard cap on a record payload — same bound as the wire protocol's
/// frames, since telemetry records are journaled frame bodies verbatim.
pub const MAX_RECORD: u32 = 16 << 20;

/// Record kind: one accepted ingest frame — its `encode_batch` body,
/// verbatim, under the same `0xB1` kind byte the wire codec stamps inside
/// the payload.
pub const REC_BATCH: u8 = KIND_BATCH;
/// Record kind: one emitted verdict, as the JSON form of
/// [`ExplainRecord`] (already the `OP_EXPLAIN` wire rendering).
pub const REC_VERDICT: u8 = 0x0E;
/// Checkpoint open marker; payload is the u64 barrier seq — every
/// telemetry/verdict record below it is covered by this checkpoint.
pub const REC_CKPT_BEGIN: u8 = 0xF0;
/// One switch's durable image: raw ring + retention bookkeeping +
/// compacted buckets (see [`SwitchCheckpoint`]).
pub const REC_CKPT_SWITCH: u8 = 0xF1;
/// The audit trail's durable image (see [`AuditCheckpoint`]).
pub const REC_CKPT_AUDIT: u8 = 0xF2;
/// Checkpoint commit marker: a checkpoint without it is torn and ignored
/// by recovery (segment retirement only happens after this record is
/// written *and* synced, so the previous checkpoint still exists).
pub const REC_CKPT_END: u8 = 0xF3;

/// Whether a kind byte is one the current format knows how to replay.
pub fn known_kind(kind: u8) -> bool {
    matches!(
        kind,
        REC_BATCH | REC_VERDICT | REC_CKPT_BEGIN | REC_CKPT_SWITCH | REC_CKPT_AUDIT | REC_CKPT_END
    )
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, reflected) — hand-rolled, table-driven;
// the build environment vendors no checksum crate. Slicing-by-8: the
// bytewise load-xor-shift chain is a serial dependency (~3 ns/byte), which
// at evidence-record sizes would make the checksum — not the write — the
// dominant journaling cost.

const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Incremental CRC32 over multiple slices.
#[derive(Debug, Clone)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        let mut chunks = bytes.chunks_exact(8);
        for ch in &mut chunks {
            let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
            let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
            c = CRC_TABLES[7][(lo & 0xFF) as usize]
                ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[4][((lo >> 24) & 0xFF) as usize]
                ^ CRC_TABLES[3][(hi & 0xFF) as usize]
                ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ CRC_TABLES[0][((hi >> 24) & 0xFF) as usize];
        }
        for &b in chunks.remainder() {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    pub fn finish(self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// The CRC stored in a record header: covers the length field, the kind,
/// the seq, and the payload, so a flip in any of them is detected.
pub fn record_crc(payload_len: u32, kind: u8, seq: u64, payload: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(&payload_len.to_le_bytes());
    c.update(&[kind]);
    c.update(&seq.to_le_bytes());
    c.update(payload);
    c.finish()
}

// ---------------------------------------------------------------------------
// Configuration

/// When appended records reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync on append; the OS page cache decides. Barriers
    /// ([`Wal::sync`], reached through the daemon's `Stats`) still sync.
    Never,
    /// fsync at most once per interval of appends (the durable default:
    /// bounded data loss at near-`Never` throughput).
    Interval(Duration),
    /// fsync after every record.
    Always,
}

impl FsyncPolicy {
    /// Parse the CLI rendering: `never`, `interval`, or `always`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::Interval(Duration::from_millis(50))),
            "always" => Ok(FsyncPolicy::Always),
            other => Err(format!(
                "unknown fsync policy '{other}' (expected never|interval|always)"
            )),
        }
    }
}

/// Durability knobs for the evidence log.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding the segment files; created if missing.
    pub dir: PathBuf,
    pub fsync: FsyncPolicy,
    /// Rotate the open segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// Request a checkpoint (which retires covered segments) once this
    /// many completed segments have accumulated. `0` disables
    /// checkpoint-driven retirement (the log grows unboundedly).
    pub retire_segments: usize,
}

impl WalConfig {
    /// Defaults everywhere but the directory: interval fsync, 1 MiB
    /// segments, checkpoint after 2 completed segments.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Interval(Duration::from_millis(50)),
            segment_bytes: 1 << 20,
            retire_segments: 2,
        }
    }
}

/// Append-side counters, reported through the daemon's metrics registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    pub records_appended: u64,
    /// Framing included.
    pub bytes_appended: u64,
    pub segments_created: u64,
    pub segments_retired: u64,
    pub syncs: u64,
}

// ---------------------------------------------------------------------------
// The writer

/// How [`Wal::resume`] reopens an existing log: the fully-valid segments,
/// the tail segment with the byte length of its valid record prefix, and
/// the files condemned by scan-time corruption. Produced by
/// [`crate::recovery::scan`].
#[derive(Debug, Clone, Default)]
pub struct ResumePlan {
    /// Fully-valid segments preceding the tail, oldest first.
    pub completed: Vec<(u64, PathBuf)>,
    /// `(start_seq, path, valid_len)` — the segment appends resume into,
    /// truncated to `valid_len` first.
    pub tail: Option<(u64, PathBuf, u64)>,
    /// Files to delete before resuming: segments at or past the first
    /// corruption (and the tail's own torn suffix is handled by
    /// truncation, not listed here).
    pub doomed: Vec<PathBuf>,
    /// Seq the next appended record receives.
    pub next_seq: u64,
}

/// See module docs. Single-owner append handle over the segment files.
#[derive(Debug)]
pub struct Wal {
    cfg: WalConfig,
    file: File,
    current_start: u64,
    current_bytes: u64,
    next_seq: u64,
    /// Closed segments, oldest first, with their start seqs.
    completed: Vec<(u64, PathBuf)>,
    last_sync: Instant,
    dirty: bool,
    /// Appended records not yet handed to the OS: one `write(2)` per
    /// record would dominate the journaling cost, so records accumulate
    /// here until [`FLUSH_BUF_BYTES`], a rotation, or a [`Wal::sync`]
    /// (the daemon's `Stats` barrier) pushes them out. A crash loses at
    /// most this buffer — exactly the torn tail recovery truncates.
    buf: Vec<u8>,
    stats: WalStats,
}

/// Buffered-append flush threshold. Large enough to amortize the write
/// syscall across many records, small enough that an `Interval`/`Always`
/// sync never has much to drain.
const FLUSH_BUF_BYTES: usize = 128 * 1024;

fn segment_path(dir: &Path, start_seq: u64) -> PathBuf {
    dir.join(format!("seg-{start_seq:016}.wal"))
}

/// The start seq encoded in a segment file name, if it is one.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    if digits.len() != 16 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

fn open_segment(dir: &Path, start_seq: u64) -> io::Result<File> {
    let mut f = File::create(segment_path(dir, start_seq))?;
    f.write_all(SEG_MAGIC)?;
    f.write_all(&start_seq.to_le_bytes())?;
    Ok(f)
}

impl Wal {
    /// Open a fresh log (first record gets seq 0). The directory is
    /// created if missing; pre-existing segment files are *not* touched —
    /// use [`crate::recovery::scan`] + [`Wal::resume`] for those.
    pub fn create(cfg: WalConfig) -> io::Result<Wal> {
        std::fs::create_dir_all(&cfg.dir)?;
        let file = open_segment(&cfg.dir, 0)?;
        Ok(Wal {
            cfg,
            file,
            current_start: 0,
            current_bytes: SEG_HEADER_LEN as u64,
            next_seq: 0,
            completed: Vec::new(),
            last_sync: Instant::now(),
            dirty: false,
            buf: Vec::new(),
            stats: WalStats {
                segments_created: 1,
                ..WalStats::default()
            },
        })
    }

    /// Reopen after recovery: delete condemned files, truncate the tail
    /// to its valid prefix, and resume appending where the valid log
    /// ends. With no tail (empty or fully-corrupt log) a fresh segment is
    /// opened at `plan.next_seq`.
    pub fn resume(cfg: WalConfig, plan: ResumePlan) -> io::Result<Wal> {
        std::fs::create_dir_all(&cfg.dir)?;
        for path in &plan.doomed {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let (file, current_start, current_bytes) = match &plan.tail {
            Some((start, path, valid_len)) => {
                let mut f = OpenOptions::new().read(true).write(true).open(path)?;
                f.set_len(*valid_len)?;
                f.seek(SeekFrom::End(0))?;
                (f, *start, *valid_len)
            }
            None => (
                open_segment(&cfg.dir, plan.next_seq)?,
                plan.next_seq,
                SEG_HEADER_LEN as u64,
            ),
        };
        Ok(Wal {
            cfg,
            file,
            current_start,
            current_bytes,
            next_seq: plan.next_seq,
            completed: plan.completed,
            last_sync: Instant::now(),
            dirty: false,
            buf: Vec::new(),
            stats: WalStats::default(),
        })
    }

    /// Append one record, returning its seq. Rotates the segment first if
    /// the open one is at size, and applies the fsync policy after the
    /// write.
    pub fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<u64> {
        debug_assert!(known_kind(kind), "journaling unknown record kind {kind}");
        if self.current_bytes >= self.cfg.segment_bytes
            && self.current_bytes > SEG_HEADER_LEN as u64
        {
            self.rotate()?;
        }
        let seq = self.next_seq;
        let len = payload.len() as u32;
        let crc = record_crc(len, kind, seq, payload);
        let framed = REC_HEADER_LEN + payload.len();
        self.buf.reserve(framed);
        let mut w = Writer::new(&mut self.buf);
        w.u32(len);
        w.u8(kind);
        w.u64(seq);
        w.u32(crc);
        w.bytes(payload);
        if self.buf.len() >= FLUSH_BUF_BYTES {
            self.flush_buf()?;
        }
        self.next_seq += 1;
        self.current_bytes += framed as u64;
        self.dirty = true;
        self.stats.records_appended += 1;
        self.stats.bytes_appended += framed as u64;
        match self.cfg.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Interval(every) if self.last_sync.elapsed() >= every => self.sync()?,
            _ => {}
        }
        Ok(seq)
    }

    /// Hand buffered records to the OS (no durability guarantee yet).
    fn flush_buf(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Force everything appended so far onto disk. The daemon's `Stats`
    /// barrier lands here: once it answers, everything acknowledged is
    /// journaled *and* synced.
    pub fn sync(&mut self) -> io::Result<()> {
        self.flush_buf()?;
        if self.dirty {
            self.file.sync_data()?;
            self.dirty = false;
            self.stats.syncs += 1;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    fn rotate(&mut self) -> io::Result<()> {
        // The old segment must hold every record the accounting says it
        // does before the new one opens; completed segments must further
        // be durable before retirement decisions reference them — under
        // `Never` the caller accepted the fsync half of that risk.
        if self.cfg.fsync == FsyncPolicy::Never {
            self.flush_buf()?;
        } else {
            self.sync()?;
        }
        self.completed.push((
            self.current_start,
            segment_path(&self.cfg.dir, self.current_start),
        ));
        self.file = open_segment(&self.cfg.dir, self.next_seq)?;
        self.current_start = self.next_seq;
        self.current_bytes = SEG_HEADER_LEN as u64;
        self.dirty = false;
        self.stats.segments_created += 1;
        Ok(())
    }

    /// Delete completed segments whose records all have seq < `boundary`
    /// — called after a checkpoint covering everything below `boundary`
    /// has been committed (END record synced). The open segment is never
    /// retired. Returns how many files were deleted.
    pub fn retire_below(&mut self, boundary: u64) -> io::Result<usize> {
        let mut retired = 0;
        while !self.completed.is_empty() {
            // A completed segment's seq range ends where the next segment
            // (or the open one) starts.
            let end = self
                .completed
                .get(1)
                .map_or(self.current_start, |&(start, _)| start);
            if end > boundary {
                break;
            }
            let (_, path) = self.completed.remove(0);
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
            retired += 1;
            self.stats.segments_retired += 1;
        }
        Ok(retired)
    }

    /// Seq the next appended record will receive — the checkpoint barrier
    /// the daemon's core marks when it opens a checkpoint round.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Closed (rotated-away) segments currently on disk.
    pub fn completed_segments(&self) -> usize {
        self.completed.len()
    }

    /// Whether enough completed segments have accumulated that a
    /// checkpoint should run and retire them.
    pub fn wants_checkpoint(&self) -> bool {
        self.cfg.retire_segments > 0 && self.completed.len() >= self.cfg.retire_segments
    }

    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    pub fn stats(&self) -> &WalStats {
        &self.stats
    }
}

impl Drop for Wal {
    /// A gracefully dropped log keeps every appended record (the OS holds
    /// them even without an fsync); only a real crash loses the buffer.
    fn drop(&mut self) {
        let _ = self.flush_buf();
    }
}

// ---------------------------------------------------------------------------
// Checkpoint payloads

/// The durable image of one switch's tiered state: the canonical snapshot
/// (raw ring), the per-epoch acceptance stamps and retention bookkeeping
/// the canonical form does not carry, and the compacted buckets the
/// daemon's core thread holds for the switch. Buckets reuse the canonical
/// `encode_compacted` byte form (wire kind `0xC0`).
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCheckpoint {
    pub restore: SwitchRestore,
    pub buckets: Vec<CompactedEpoch>,
}

/// The audit trail's durable image: retained records plus the seq counter
/// (so verdict numbering continues, not restarts, across a crash).
#[derive(Debug, Clone, PartialEq)]
pub struct AuditCheckpoint {
    pub next_seq: u64,
    pub records: Vec<ExplainRecord>,
}

pub fn encode_switch_checkpoint(c: &SwitchCheckpoint) -> Vec<u8> {
    let r = &c.restore;
    debug_assert_eq!(r.taken_at.len(), r.snapshot.epochs.len());
    Writer::encode(256, |w| {
        w.u32(r.switch.0);
        w.blob(&encode_snapshot(&r.snapshot));
        w.section(&r.taken_at, |w, t| w.u64(t.0));
        w.u64(r.watermark.0);
        w.u64(r.fold_horizon.0);
        w.section(&r.folded, |w, &(slot, id, taken, start)| {
            w.u64(slot as u64);
            w.u8(id);
            w.u64(taken.0);
            w.u64(start.0);
        });
        w.section(&c.buckets, |w, b| w.blob(&encode_compacted(b)));
    })
}

pub fn decode_switch_checkpoint(bytes: &[u8]) -> Result<SwitchCheckpoint, String> {
    Reader::read_all(bytes, |r| {
        let switch = NodeId(r.u32()?);
        let snapshot = decode_snapshot(r.blob("checkpoint snapshot byte", MAX_RECORD)?)?;
        let taken_at = r.section("checkpoint taken_at", 8, |r| Ok(Nanos(r.u64()?)))?;
        if snapshot.switch != switch || taken_at.len() != snapshot.epochs.len() {
            return Err(format!(
                "checkpoint of switch {} disagrees with its snapshot",
                switch.0
            ));
        }
        let watermark = Nanos(r.u64()?);
        let fold_horizon = Nanos(r.u64()?);
        let folded = r.section("checkpoint folded", 25, |r| {
            Ok((r.u64()? as usize, r.u8()?, Nanos(r.u64()?), Nanos(r.u64()?)))
        })?;
        let buckets = r.section("checkpoint buckets", 4, |r| {
            decode_compacted(r.blob("checkpoint bucket byte", MAX_RECORD)?)
        })?;
        Ok(SwitchCheckpoint {
            restore: SwitchRestore {
                switch,
                snapshot,
                taken_at,
                watermark,
                fold_horizon,
                folded,
            },
            buckets,
        })
    })
}

pub fn encode_audit_checkpoint(c: &AuditCheckpoint) -> Vec<u8> {
    Writer::encode(64, |w| {
        w.u64(c.next_seq);
        w.section(&c.records, |w, rec| {
            let js = serde_json::to_string(rec).expect("ExplainRecord serializes");
            w.blob(js.as_bytes());
        });
    })
}

pub fn decode_audit_checkpoint(bytes: &[u8]) -> Result<AuditCheckpoint, String> {
    Reader::read_all(bytes, |r| {
        let next_seq = r.u64()?;
        let blobs = r.section("audit records", 4, |r| {
            r.blob("audit record byte", MAX_RECORD)
        })?;
        let records = blobs
            .into_iter()
            .map(decode_explain)
            .collect::<Result<_, _>>()?;
        Ok(AuditCheckpoint { next_seq, records })
    })
}

/// An [`ExplainRecord`] from its JSON bytes: a verdict record's payload,
/// or one record of an audit checkpoint.
pub(crate) fn decode_explain(bytes: &[u8]) -> Result<ExplainRecord, String> {
    let js = std::str::from_utf8(bytes).map_err(|e| format!("verdict utf8: {e}"))?;
    serde_json::from_str(js).map_err(|e| format!("verdict json: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_sim::FlowKey;
    use hawkeye_telemetry::{EpochSnapshot, FlowRecord, TelemetrySnapshot};

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hawkeye-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_covers_every_header_field() {
        let base = record_crc(3, REC_BATCH, 7, b"abc");
        assert_ne!(base, record_crc(4, REC_BATCH, 7, b"abc"));
        assert_ne!(base, record_crc(3, REC_VERDICT, 7, b"abc"));
        assert_ne!(base, record_crc(3, REC_BATCH, 8, b"abc"));
        assert_ne!(base, record_crc(3, REC_BATCH, 7, b"abd"));
    }

    #[test]
    fn append_assigns_monotone_seqs_and_frames_records() {
        let dir = tmp_dir("frame");
        let mut wal = Wal::create(WalConfig::new(&dir)).unwrap();
        assert_eq!(wal.append(REC_BATCH, b"hello").unwrap(), 0);
        assert_eq!(wal.append(REC_VERDICT, b"world!").unwrap(), 1);
        wal.sync().unwrap();
        let bytes = std::fs::read(segment_path(&dir, 0)).unwrap();
        assert_eq!(&bytes[..8], SEG_MAGIC);
        assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 0);
        // First record: len 5, kind batch, seq 0, then "hello".
        assert_eq!(u32::from_le_bytes(bytes[16..20].try_into().unwrap()), 5);
        assert_eq!(bytes[20], REC_BATCH);
        assert_eq!(u64::from_le_bytes(bytes[21..29].try_into().unwrap()), 0);
        let crc = u32::from_le_bytes(bytes[29..33].try_into().unwrap());
        assert_eq!(crc, record_crc(5, REC_BATCH, 0, b"hello"));
        assert_eq!(&bytes[33..38], b"hello");
        assert_eq!(bytes[38 + 4], REC_VERDICT);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_retirement_bound_the_log() {
        let dir = tmp_dir("rotate");
        let cfg = WalConfig {
            segment_bytes: 64, // every record rotates
            ..WalConfig::new(&dir)
        };
        let mut wal = Wal::create(cfg).unwrap();
        for _ in 0..5 {
            wal.append(REC_BATCH, &[0u8; 48]).unwrap();
        }
        assert_eq!(wal.completed_segments(), 4);
        assert!(wal.wants_checkpoint());
        // Records 0..=2 covered: segments [0,1) [1,2) [2,3) go, [3,4) and
        // the open segment stay.
        assert_eq!(wal.retire_below(3).unwrap(), 3);
        assert_eq!(wal.completed_segments(), 1);
        assert!(!segment_path(&dir, 0).exists());
        assert!(segment_path(&dir, 3).exists());
        assert!(segment_path(&dir, 4).exists());
        // Seqs keep climbing across rotation and retirement.
        assert_eq!(wal.append(REC_BATCH, b"x").unwrap(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(parse_segment_name("seg-0000000000000042.wal"), Some(42));
        assert_eq!(parse_segment_name("seg-42.wal"), None);
        assert_eq!(parse_segment_name("seg-00000000000000xx.wal"), None);
        assert_eq!(parse_segment_name("other.wal"), None);
    }

    #[test]
    fn switch_checkpoint_round_trips() {
        let snapshot = TelemetrySnapshot {
            switch: NodeId(7),
            taken_at: Nanos(900),
            nports: 4,
            max_flows: 64,
            epochs: vec![EpochSnapshot {
                slot: 1,
                id: 2,
                start: Nanos(1 << 20),
                len: Nanos(1 << 20),
                flows: vec![(
                    FlowKey::roce(NodeId(90), NodeId(91), 5),
                    FlowRecord {
                        pkt_count: 10,
                        paused_count: 2,
                        qdepth_sum: 30,
                        out_port: 1,
                    },
                )],
                ports: vec![],
                meter: vec![],
            }],
            evicted: vec![],
        };
        let mut bucket = CompactedEpoch::default();
        bucket.fold(&snapshot.epochs[0]);
        let ckpt = SwitchCheckpoint {
            restore: SwitchRestore {
                switch: NodeId(7),
                snapshot,
                taken_at: vec![Nanos(890)],
                watermark: Nanos(2 << 20),
                fold_horizon: Nanos(1 << 20),
                folded: vec![(0, 1, Nanos(500), Nanos(0))],
            },
            buckets: vec![bucket],
        };
        let bytes = encode_switch_checkpoint(&ckpt);
        assert_eq!(decode_switch_checkpoint(&bytes).unwrap(), ckpt);
        // Truncation at any point is an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_switch_checkpoint(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn audit_checkpoint_round_trips() {
        let ckpt = AuditCheckpoint {
            next_seq: 5,
            records: vec![ExplainRecord {
                seq: 4,
                victim: "0:7->5".into(),
                window_from_ns: 100,
                window_to_ns: 900,
                anomaly: "PfcStorm".into(),
                signature_row: "pfc_storm".into(),
                confidence: "complete".into(),
                root_causes: vec![3],
                contributing_switches: vec![1, 3],
                contributing_epochs: 12,
                dirty_switches: vec![],
                frags_reused: 30,
                frags_recomputed: 4,
                stage_collect_ns: 1000,
                stage_graph_ns: 5000,
                stage_match_ns: 200,
            }],
        };
        let bytes = encode_audit_checkpoint(&ckpt);
        assert_eq!(decode_audit_checkpoint(&bytes).unwrap(), ckpt);
        assert!(decode_audit_checkpoint(&bytes[..bytes.len() - 1]).is_err());
    }
}
