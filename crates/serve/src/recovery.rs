//! Crash recovery: the read side of the durable evidence log.
//!
//! [`scan`] walks the segment files in seq order, verifies the framing
//! (magic, seq continuity, CRC32, decodable payload) record by record,
//! and stops at the *first* torn or corrupt record — everything before it
//! is the valid prefix, everything at or after it (including later
//! segments) is condemned. Corruption is counted, never a panic: a
//! half-written record from a `kill -9` mid-append is the expected case,
//! not an error path. The one content problem that *is* an error is a
//! segment in the previous log format ([`OLD_SEG_MAGIC`]): its records are
//! intact evidence this build cannot replay, so the scan fails with
//! `InvalidData` and nothing is truncated or deleted.
//!
//! [`replay`] then rebuilds the daemon's tiered state from the valid
//! prefix:
//!
//! 1. Find the last *complete* checkpoint (`CKPT_BEGIN … CKPT_END`; a
//!    torn checkpoint without its END is ignored — segments are only
//!    retired after END is synced, so the previous checkpoint still
//!    exists in that case).
//! 2. Restore it wholesale: per-switch ring images into the store,
//!    compacted buckets into the compactor, the audit trail with
//!    its seq counter.
//! 3. Re-apply every telemetry/verdict record with seq ≥ the
//!    checkpoint's barrier, in WAL order, through the normal
//!    [`TelemetryStore::append`] path. Records the checkpoint already
//!    covers are deduplicated by the store's own idempotence rules (the
//!    keep-latest ring and the `folded` map), so the overlap between
//!    "journaled after the barrier" and "included in the checkpoint" is
//!    harmless by construction.
//!
//! The daemon runs this *before* binding its listener, then resumes the
//! WAL ([`Wal::resume`]) so new appends continue the seq chain.

use crate::audit::AuditTrail;
use crate::compactor::Compactor;
use crate::store::TelemetryStore;
use crate::wal::{
    decode_audit_checkpoint, decode_explain, decode_switch_checkpoint, parse_segment_name,
    record_crc, AuditCheckpoint, ResumePlan, SwitchCheckpoint, Wal, WalConfig, MAX_RECORD,
    OLD_SEG_MAGIC, REC_BATCH, REC_CKPT_AUDIT, REC_CKPT_BEGIN, REC_CKPT_END, REC_CKPT_SWITCH,
    REC_VERDICT, SEG_HEADER_LEN, SEG_MAGIC,
};
use hawkeye_client::ExplainRecord;
use hawkeye_telemetry::{decode_batch, CodecError, Reader, TelemetrySnapshot};
use std::io;
use std::path::{Path, PathBuf};

/// One decoded, CRC-verified WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEntry {
    /// One accepted ingest frame, in frame order.
    Batch(Vec<TelemetrySnapshot>),
    Verdict(Box<ExplainRecord>),
    /// Barrier seq: records below it are covered by this checkpoint.
    CkptBegin(u64),
    CkptSwitch(Box<SwitchCheckpoint>),
    CkptAudit(AuditCheckpoint),
    CkptEnd,
}

#[derive(Debug, Clone, PartialEq)]
pub struct ScannedRecord {
    pub seq: u64,
    pub entry: WalEntry,
}

/// A scanned log: the valid record prefix plus the resume plan that
/// truncates away everything else.
#[derive(Debug, Default)]
pub struct Scan {
    pub records: Vec<ScannedRecord>,
    pub plan: ResumePlan,
    /// Corruption events: at most one torn/corrupt record boundary, plus
    /// one per later segment condemned with it.
    pub truncated_records: u64,
    pub truncated_bytes: u64,
}

fn decode_entry(kind: u8, payload: &[u8]) -> Result<WalEntry, String> {
    Ok(match kind {
        REC_BATCH => WalEntry::Batch(decode_batch(payload)?),
        REC_VERDICT => WalEntry::Verdict(Box::new(decode_explain(payload)?)),
        REC_CKPT_BEGIN => WalEntry::CkptBegin(Reader::read_all(payload, |r| r.u64())?),
        REC_CKPT_SWITCH => WalEntry::CkptSwitch(Box::new(decode_switch_checkpoint(payload)?)),
        REC_CKPT_AUDIT => WalEntry::CkptAudit(decode_audit_checkpoint(payload)?),
        REC_CKPT_END => Reader::read_all::<_, CodecError>(payload, |_| Ok(WalEntry::CkptEnd))?,
        other => return Err(format!("unknown record kind 0x{other:02X}")),
    })
}

/// The record at the reader's position — `[u32 len] [u8 kind] [u64 seq]
/// [u32 crc] [payload]` — which must carry `seq`, pass its CRC and decode.
/// A short header or payload is the reader's truncation error.
fn read_record(r: &mut Reader<'_>, seq: u64) -> Result<ScannedRecord, String> {
    let len = r.u32()?;
    let kind = r.u8()?;
    let rseq = r.u64()?;
    let crc = r.u32()?;
    if len > MAX_RECORD {
        return Err(format!("oversized record ({len} bytes)"));
    }
    let payload = r.take(len as usize)?;
    if rseq != seq {
        return Err(format!("seq discontinuity: {rseq} where {seq} expected"));
    }
    if crc != record_crc(len, kind, rseq, payload) {
        return Err("crc mismatch".into());
    }
    let entry = decode_entry(kind, payload)?;
    Ok(ScannedRecord { seq: rseq, entry })
}

/// Scan a durable directory read-only. A missing or empty directory is a
/// valid empty log. I/O errors reading present files are returned;
/// *content* problems are truncation, never errors — except a segment in
/// the previous format, which is `InvalidData` (see the module docs).
pub fn scan(dir: &Path) -> io::Result<Scan> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                if let Some(start) = entry.file_name().to_str().and_then(parse_segment_name) {
                    segments.push((start, entry.path()));
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    segments.sort_unstable();

    let mut out = Scan::default();
    let mut expected_seq: Option<u64> = None;
    // (start, path, valid_len) per retained segment, oldest first.
    let mut kept: Vec<(u64, PathBuf, u64)> = Vec::new();
    let mut corrupt = false;

    for (idx, (name_start, path)) in segments.iter().enumerate() {
        if corrupt {
            out.truncated_records += 1;
            out.truncated_bytes += std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            out.plan.doomed.push(path.clone());
            continue;
        }
        let bytes = std::fs::read(path)?;
        if bytes.starts_with(OLD_SEG_MAGIC) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "{} is a {} evidence log; this build reads and writes {} only \
                     (recover it with the build that wrote it, or point --durable elsewhere)",
                    path.display(),
                    String::from_utf8_lossy(OLD_SEG_MAGIC),
                    String::from_utf8_lossy(SEG_MAGIC),
                ),
            ));
        }
        let mut r = Reader::new(&bytes);
        let header_ok = r.take(SEG_MAGIC.len()).is_ok_and(|m| m == SEG_MAGIC)
            && r.u64().is_ok_and(|start| start == *name_start)
            && expected_seq.is_none_or(|e| e == *name_start);
        if !header_ok {
            // The whole file is untrustworthy; it and everything after
            // it are condemned. (A bad *first* segment empties the log.)
            corrupt = true;
            out.truncated_records += 1;
            out.truncated_bytes += bytes.len() as u64;
            out.plan.doomed.push(path.clone());
            continue;
        }
        let mut seq = *name_start;
        let mut valid_len = r.pos();
        while r.pos() < bytes.len() {
            match read_record(&mut r, seq) {
                Ok(rec) => {
                    out.records.push(rec);
                    seq += 1;
                    valid_len = r.pos();
                }
                Err(_) => {
                    corrupt = true;
                    out.truncated_records += 1;
                    out.truncated_bytes += (bytes.len() - valid_len) as u64;
                    break;
                }
            }
        }
        expected_seq = Some(seq);
        kept.push((*name_start, path.clone(), valid_len as u64));
        if corrupt && valid_len <= SEG_HEADER_LEN {
            // Nothing valid survived in this segment; condemn the file
            // instead of keeping an empty husk as the tail. Its bytes
            // were already counted above.
            let (_, path, _) = kept.pop().expect("just pushed");
            out.plan.doomed.push(path);
        }
        if corrupt && idx + 1 == segments.len() {
            break;
        }
    }

    out.plan.next_seq = expected_seq.unwrap_or(0);
    if let Some((start, path, valid_len)) = kept.pop() {
        out.plan.tail = Some((start, path, valid_len));
        out.plan.completed = kept.into_iter().map(|(s, p, _)| (s, p)).collect();
    }
    Ok(out)
}

/// What [`replay`] rebuilt.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Telemetry snapshots fed through `TelemetryStore::append` (batch
    /// members counted individually).
    pub snapshots_applied: u64,
    pub verdicts_applied: u64,
    pub checkpoint_restored: bool,
}

/// Rebuild store/compactor/audit state from a scanned record prefix,
/// through the same append path live ingest takes.
pub fn replay(
    records: &[ScannedRecord],
    store: &mut TelemetryStore,
    compactor: &mut Compactor,
    audit: &mut AuditTrail,
) -> ReplayCounts {
    let mut counts = ReplayCounts::default();

    // Pass 1: locate the last complete checkpoint.
    let mut staging: Option<(u64, usize)> = None;
    let mut last: Option<(u64, usize, usize)> = None;
    for (i, rec) in records.iter().enumerate() {
        match &rec.entry {
            WalEntry::CkptBegin(b) => staging = Some((*b, i)),
            WalEntry::CkptEnd => {
                if let Some((b, begin)) = staging.take() {
                    last = Some((b, begin, i));
                }
            }
            _ => {}
        }
    }

    // Pass 2: restore it wholesale.
    let barrier = match last {
        Some((barrier, begin, end)) => {
            counts.checkpoint_restored = true;
            for rec in &records[begin..end] {
                match &rec.entry {
                    WalEntry::CkptSwitch(c) => {
                        store.restore_switch(&c.restore);
                        compactor.restore_switch(c.restore.switch, c.buckets.clone());
                    }
                    WalEntry::CkptAudit(a) => audit.restore(a.records.clone(), a.next_seq),
                    _ => {}
                }
            }
            barrier
        }
        None => 0,
    };

    // Pass 3: re-apply everything at or past the barrier, in WAL order.
    for rec in records {
        if rec.seq < barrier {
            continue;
        }
        match &rec.entry {
            WalEntry::Batch(frame) => {
                for snap in frame {
                    store.append(snap);
                    let staged = store.take_pending_folds();
                    if !staged.is_empty() {
                        compactor.absorb(staged);
                    }
                    counts.snapshots_applied += 1;
                }
            }
            WalEntry::Verdict(v) => {
                audit.replay(ExplainRecord::clone(v));
                counts.verdicts_applied += 1;
            }
            _ => {}
        }
    }
    counts
}

/// What startup recovery found and rebuilt, surfaced on the daemon
/// handle and through the `recovery_truncated` metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    pub records_scanned: u64,
    pub snapshots_replayed: u64,
    pub verdicts_replayed: u64,
    pub checkpoint_restored: bool,
    pub truncated_records: u64,
    pub truncated_bytes: u64,
    /// Seq the resumed WAL continues at.
    pub next_seq: u64,
}

/// Startup path: scan the durable directory, replay the valid prefix
/// into the given state, truncate away the invalid suffix, and reopen
/// the log for appending. A previous-format log fails the scan, so it is
/// refused before anything is replayed or any file touched.
pub fn recover_and_open(
    cfg: &WalConfig,
    store: &mut TelemetryStore,
    compactor: &mut Compactor,
    audit: &mut AuditTrail,
) -> io::Result<(Wal, RecoveryReport)> {
    let Scan {
        records,
        plan,
        truncated_records,
        truncated_bytes,
    } = scan(&cfg.dir)?;
    let counts = replay(&records, store, compactor, audit);
    let report = RecoveryReport {
        records_scanned: records.len() as u64,
        snapshots_replayed: counts.snapshots_applied,
        verdicts_replayed: counts.verdicts_applied,
        checkpoint_restored: counts.checkpoint_restored,
        truncated_records,
        truncated_bytes,
        next_seq: plan.next_seq,
    };
    drop(records);
    let wal = Wal::resume(cfg.clone(), plan)?;
    Ok((wal, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use crate::wal::{
        encode_audit_checkpoint, encode_switch_checkpoint, FsyncPolicy, REC_CKPT_BEGIN,
        REC_HEADER_LEN,
    };
    use hawkeye_sim::{FlowKey, Nanos, NodeId};
    use hawkeye_telemetry::{encode_batch, EpochSnapshot, FlowRecord};
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hawkeye-recovery-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn snap(sw: u32, step: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            switch: NodeId(sw),
            taken_at: Nanos((step + 1) << 20),
            nports: 4,
            max_flows: 64,
            epochs: vec![EpochSnapshot {
                slot: (step % 4) as usize,
                id: step as u8,
                start: Nanos(step << 20),
                len: Nanos(1 << 20),
                flows: vec![(
                    FlowKey::roce(NodeId(90), NodeId(91), step as u16),
                    FlowRecord {
                        pkt_count: 10 + step as u32,
                        paused_count: 2,
                        qdepth_sum: 30,
                        out_port: 1,
                    },
                )],
                ports: vec![],
                meter: vec![],
            }],
            evicted: vec![],
        }
    }

    /// Journal `s` the way the daemon does: as an ingest frame of one.
    fn journal(wal: &mut Wal, s: &TelemetrySnapshot) -> u64 {
        wal.append(REC_BATCH, &encode_batch(std::slice::from_ref(s)))
            .unwrap()
    }

    fn tiered() -> StoreConfig {
        StoreConfig {
            epoch_budget: 2,
            compact_budget: 4,
            compact_chunk: 2,
            deferred_fold: true,
        }
    }

    /// Feed `snaps` through a fresh store + external compactor —
    /// the reference for what replay must reconstruct.
    fn reference(snaps: &[TelemetrySnapshot]) -> (TelemetryStore, Compactor) {
        let mut store = TelemetryStore::new(tiered());
        let mut comp = Compactor::new(tiered());
        for s in snaps {
            store.append(s);
            let staged = store.take_pending_folds();
            if !staged.is_empty() {
                comp.absorb(staged);
            }
        }
        (store, comp)
    }

    fn fingerprint(store: &TelemetryStore, comp: &Compactor) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            store.snapshots(),
            store.min_watermark(),
            store.retention_horizon(),
            store
                .switches()
                .iter()
                .map(|&sw| (
                    sw,
                    comp.buckets_of(sw).into_iter().cloned().collect::<Vec<_>>()
                ))
                .collect::<Vec<_>>()
        )
    }

    #[test]
    fn empty_or_missing_dir_is_a_valid_empty_log() {
        let dir = tmp_dir("empty");
        let s = scan(&dir).unwrap();
        assert!(s.records.is_empty());
        assert_eq!(s.plan.next_seq, 0);
        assert_eq!(s.truncated_records, 0);
        std::fs::create_dir_all(&dir).unwrap();
        let s = scan(&dir).unwrap();
        assert!(s.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_replays_across_segment_rotation() {
        let dir = tmp_dir("rotate");
        let cfg = WalConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let snaps: Vec<_> = (0..8).map(|i| snap(3 + (i % 2) as u32, i)).collect();
        let mut wal = Wal::create(cfg.clone()).unwrap();
        for s in &snaps {
            journal(&mut wal, s);
        }
        wal.sync().unwrap();
        assert!(wal.completed_segments() > 0, "rotation never happened");
        drop(wal);

        let scanned = scan(&dir).unwrap();
        assert_eq!(scanned.records.len(), 8);
        assert_eq!(scanned.truncated_records, 0);
        let mut store = TelemetryStore::new(tiered());
        let mut comp = Compactor::new(tiered());
        let mut audit = AuditTrail::new(8);
        let counts = replay(&scanned.records, &mut store, &mut comp, &mut audit);
        assert_eq!(counts.snapshots_applied, 8);
        let (ref_store, ref_comp) = reference(&snaps);
        assert_eq!(
            fingerprint(&store, &comp),
            fingerprint(&ref_store, &ref_comp)
        );

        // Resuming continues the seq chain.
        let wal = Wal::resume(cfg, scanned.plan).unwrap();
        assert_eq!(wal.next_seq(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_resume_overwrites_it() {
        let dir = tmp_dir("torn");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut wal = Wal::create(cfg.clone()).unwrap();
        for i in 0..3 {
            journal(&mut wal, &snap(3, i));
        }
        wal.sync().unwrap();
        drop(wal);
        // Simulate a crash mid-append: half a record header at the end.
        let seg = dir.join("seg-0000000000000000.wal");
        let mut bytes = std::fs::read(&seg).unwrap();
        let clean_len = bytes.len();
        bytes.extend_from_slice(&[7, 0, 0, 0, REC_BATCH, 3]);
        std::fs::write(&seg, &bytes).unwrap();

        let scanned = scan(&dir).unwrap();
        assert_eq!(scanned.records.len(), 3);
        assert_eq!(scanned.truncated_records, 1);
        assert_eq!(scanned.truncated_bytes, 6);
        assert_eq!(scanned.plan.next_seq, 3);
        let (_, _, valid_len) = scanned.plan.tail.clone().unwrap();
        assert_eq!(valid_len as usize, clean_len);

        let mut wal = Wal::resume(cfg, scanned.plan).unwrap();
        assert_eq!(std::fs::metadata(&seg).unwrap().len() as usize, clean_len);
        assert_eq!(journal(&mut wal, &snap(3, 9)), 3);
        wal.sync().unwrap();
        let rescanned = scan(&dir).unwrap();
        assert_eq!(rescanned.records.len(), 4);
        assert_eq!(rescanned.truncated_records, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_condemns_everything_after_it() {
        let dir = tmp_dir("condemn");
        let cfg = WalConfig {
            segment_bytes: 192,
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let mut wal = Wal::create(cfg.clone()).unwrap();
        for i in 0..8 {
            journal(&mut wal, &snap(3, i));
        }
        wal.sync().unwrap();
        let segs = wal.completed_segments();
        assert!(segs >= 2, "need several segments, got {segs}");
        drop(wal);
        // Flip one payload byte in the *first* segment.
        let seg0 = dir.join("seg-0000000000000000.wal");
        let mut bytes = std::fs::read(&seg0).unwrap();
        let flip = SEG_HEADER_LEN + REC_HEADER_LEN + 3;
        bytes[flip] ^= 0x40;
        std::fs::write(&seg0, &bytes).unwrap();

        let scanned = scan(&dir).unwrap();
        assert_eq!(scanned.records.len(), 0, "first record was corrupt");
        assert!(scanned.truncated_records > segs as u64);
        assert_eq!(scanned.plan.next_seq, 0);
        // Resume starts a fresh log; the condemned files are gone.
        let wal = Wal::resume(cfg, scanned.plan).unwrap();
        assert_eq!(wal.next_seq(), 0);
        let leftover: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(leftover, vec!["seg-0000000000000000.wal".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log in the previous format is refused with a typed error naming
    /// both versions, and not one byte of it changes — its intact records
    /// must not be condemned as corruption. Any other magic is garbage and
    /// stays truncation.
    #[test]
    fn old_format_log_is_refused_untouched() {
        let dir = tmp_dir("old-format");
        let cfg = WalConfig::new(&dir);
        let mut wal = Wal::create(cfg.clone()).unwrap();
        for i in 0..3 {
            journal(&mut wal, &snap(3, i));
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = dir.join("seg-0000000000000000.wal");
        let with_magic = |magic: &[u8; 8]| {
            let mut bytes = std::fs::read(&seg).unwrap();
            bytes[..8].copy_from_slice(magic);
            std::fs::write(&seg, &bytes).unwrap();
            bytes
        };

        let old = with_magic(OLD_SEG_MAGIC);
        let mut store = TelemetryStore::new(tiered());
        let mut comp = Compactor::new(tiered());
        let mut audit = AuditTrail::new(8);
        let scan_err = scan(&dir).expect_err("old format must not scan");
        let open_err = recover_and_open(&cfg, &mut store, &mut comp, &mut audit)
            .expect_err("old format must not open");
        for err in [scan_err, open_err] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("HWKWAL01") && msg.contains("HWKWAL02"),
                "{msg}"
            );
        }
        assert!(store.snapshots().is_empty(), "nothing was replayed");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, [seg.file_name().unwrap()]);
        assert_eq!(
            std::fs::read(&seg).unwrap(),
            old,
            "refused log was modified"
        );

        with_magic(b"HWKWAL99");
        let scanned = scan(&dir).unwrap();
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.truncated_records, 1);
        assert_eq!(scanned.plan.doomed, vec![seg]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_restores_then_tail_replays_idempotently() {
        let dir = tmp_dir("ckpt");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        // Live run: 6 snapshots, then a checkpoint (as the compactor
        // thread writes one), then 2 more snapshots.
        let snaps: Vec<_> = (0..8).map(|i| snap(3, i)).collect();
        let (mid_store, mid_comp) = reference(&snaps[..6]);
        let mut wal = Wal::create(cfg.clone()).unwrap();
        for s in &snaps[..6] {
            journal(&mut wal, s);
        }
        let barrier = wal.next_seq();
        wal.append(REC_CKPT_BEGIN, &barrier.to_le_bytes()).unwrap();
        for restore in mid_store.export() {
            let ckpt = SwitchCheckpoint {
                buckets: mid_comp
                    .buckets_of(restore.switch)
                    .into_iter()
                    .cloned()
                    .collect(),
                restore,
            };
            wal.append(REC_CKPT_SWITCH, &encode_switch_checkpoint(&ckpt))
                .unwrap();
        }
        wal.append(
            REC_CKPT_AUDIT,
            &encode_audit_checkpoint(&AuditCheckpoint {
                next_seq: 0,
                records: vec![],
            }),
        )
        .unwrap();
        wal.append(REC_CKPT_END, &[]).unwrap();
        for s in &snaps[6..] {
            journal(&mut wal, s);
        }
        wal.sync().unwrap();
        drop(wal);

        let scanned = scan(&dir).unwrap();
        let mut store = TelemetryStore::new(tiered());
        let mut comp = Compactor::new(tiered());
        let mut audit = AuditTrail::new(8);
        let counts = replay(&scanned.records, &mut store, &mut comp, &mut audit);
        assert!(counts.checkpoint_restored);
        assert_eq!(counts.snapshots_applied, 2, "only the tail re-applied");
        let (ref_store, ref_comp) = reference(&snaps);
        assert_eq!(
            fingerprint(&store, &comp),
            fingerprint(&ref_store, &ref_comp)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_checkpoint_is_ignored() {
        let dir = tmp_dir("torn-ckpt");
        let cfg = WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::new(&dir)
        };
        let snaps: Vec<_> = (0..4).map(|i| snap(3, i)).collect();
        let mut wal = Wal::create(cfg).unwrap();
        for s in &snaps {
            journal(&mut wal, s);
        }
        // A checkpoint that never reached its END: BEGIN only.
        wal.append(REC_CKPT_BEGIN, &wal.next_seq().to_le_bytes())
            .unwrap();
        wal.sync().unwrap();
        drop(wal);

        let scanned = scan(&dir).unwrap();
        let mut store = TelemetryStore::new(tiered());
        let mut comp = Compactor::new(tiered());
        let mut audit = AuditTrail::new(8);
        let counts = replay(&scanned.records, &mut store, &mut comp, &mut audit);
        assert!(!counts.checkpoint_restored);
        assert_eq!(counts.snapshots_applied, 4, "full prefix replayed");
        let (ref_store, ref_comp) = reference(&snaps);
        assert_eq!(
            fingerprint(&store, &comp),
            fingerprint(&ref_store, &ref_comp)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
