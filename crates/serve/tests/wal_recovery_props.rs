//! Property tests for crash recovery of the durable evidence log: however
//! a log is torn (truncated at *any* byte offset) or corrupted (any byte
//! flipped), [`scan`] must never panic, must recover **exactly** the
//! longest valid record prefix, and replaying that prefix must rebuild
//! the same store/compactor/audit state as feeding the prefix directly.

use hawkeye_serve::wal::{FsyncPolicy, Wal, WalConfig, REC_BATCH, REC_HEADER_LEN, SEG_HEADER_LEN};
use hawkeye_serve::{scan, AuditTrail, Compactor, StoreConfig, TelemetryStore, WalEntry};
use hawkeye_sim::{FlowKey, Nanos, NodeId};
use hawkeye_telemetry::{encode_batch, EpochSnapshot, FlowRecord, PortRecord, TelemetrySnapshot};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const EPOCH_LEN: u64 = 1 << 20;
const SEG_HDR: u64 = SEG_HEADER_LEN as u64;
const REC_HDR: u64 = REC_HEADER_LEN as u64;

/// Fresh directory per proptest case (cases run sequentially, but the
/// counter keeps reruns and the two tests apart).
fn tmp_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hawkeye-walprop-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Small but shape-varied snapshot: payload size changes with the flow
/// count, so record boundaries land at irregular offsets.
fn snap(o: (u32, u64, u16, u32), idx: usize) -> TelemetrySnapshot {
    let (sw, step, nflows, pkt) = o;
    TelemetrySnapshot {
        switch: NodeId(sw),
        taken_at: Nanos((step + 1) * EPOCH_LEN + idx as u64),
        nports: 2,
        max_flows: 16,
        epochs: vec![EpochSnapshot {
            slot: (step % 8) as usize,
            id: step as u8,
            start: Nanos(step * EPOCH_LEN),
            len: Nanos(EPOCH_LEN),
            flows: (0..nflows)
                .map(|i| {
                    (
                        FlowKey::roce(NodeId(70), NodeId(71), i),
                        FlowRecord {
                            pkt_count: pkt + u32::from(i),
                            paused_count: pkt / 4,
                            qdepth_sum: u64::from(pkt) * 5,
                            out_port: (i % 2) as u8,
                        },
                    )
                })
                .collect(),
            ports: vec![(
                0,
                PortRecord {
                    pkt_count: pkt,
                    paused_count: pkt / 3,
                    qdepth_sum: u64::from(pkt) * 7,
                },
            )],
            meter: vec![],
        }],
        evicted: vec![],
    }
}

fn obs_strategy() -> impl Strategy<Value = (u32, u64, u16, u32)> {
    (0..3u32, 0..8u64, 0..5u16, 1..500u32)
}

/// Segment sizes spanning "every record rotates" to "one segment fits all".
fn seg_bytes_strategy() -> impl Strategy<Value = u64> {
    (0..3usize).prop_map(|i| [256u64, 700, 4096][i])
}

/// Write `snaps` as one frame-of-one record each and return the segment files
/// (sorted by start seq) plus, per file, the count of records it holds.
fn build_log(dir: &Path, segment_bytes: u64, snaps: &[TelemetrySnapshot]) -> Vec<(PathBuf, u64)> {
    let cfg = WalConfig {
        fsync: FsyncPolicy::Never,
        segment_bytes,
        retire_segments: 0,
        ..WalConfig::new(dir)
    };
    let mut wal = Wal::create(cfg).expect("create wal");
    for s in snaps {
        wal.append(REC_BATCH, &encode_batch(std::slice::from_ref(s)))
            .expect("append");
    }
    drop(wal);
    let mut files: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dirent").path())
        .filter_map(|p| {
            hawkeye_serve::wal::parse_segment_name(p.file_name()?.to_str()?).map(|s| (s, p))
        })
        .collect();
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for (i, (start, p)) in files.iter().enumerate() {
        let end = files
            .get(i + 1)
            .map_or(snaps.len() as u64, |(next, _)| *next);
        out.push((p.clone(), end - start));
    }
    out
}

/// The record boundaries inside one segment file: `ends[i]` is the byte
/// offset one past record `i`, derived from the framing (not the scanner).
fn record_ends(bytes: &[u8], nrecords: u64) -> Vec<u64> {
    let mut pos = SEG_HDR;
    let mut ends = Vec::new();
    for _ in 0..nrecords {
        let len = u32::from_le_bytes(bytes[pos as usize..pos as usize + 4].try_into().unwrap());
        pos += REC_HDR + u64::from(len);
        ends.push(pos);
    }
    assert_eq!(pos, bytes.len() as u64, "framing disagrees with file size");
    ends
}

/// The scanned records must be exactly snapshots `0..n` in order.
fn assert_prefix(scan: &hawkeye_serve::Scan, snaps: &[TelemetrySnapshot], n: u64) {
    assert_eq!(scan.records.len() as u64, n, "prefix length");
    assert_eq!(scan.plan.next_seq, n, "resume seq");
    for (i, rec) in scan.records.iter().enumerate() {
        assert_eq!(rec.seq, i as u64);
        match &rec.entry {
            WalEntry::Batch(frame) => assert_eq!(frame[..], snaps[i..=i], "record {i} mutated"),
            other => panic!("record {i}: unexpected entry {other:?}"),
        }
    }
}

/// Rebuild state from a scan and fingerprint it against a store fed the
/// same snapshot prefix directly.
fn assert_replay_matches_direct(dir: &Path, snaps: &[TelemetrySnapshot], n: u64) {
    let cfg = StoreConfig {
        epoch_budget: 2,
        compact_budget: 8,
        compact_chunk: 2,
        deferred_fold: true,
    };
    let s = scan(dir).expect("scan");
    let mut store = TelemetryStore::new(cfg);
    let mut comp = Compactor::new(cfg);
    let mut audit = AuditTrail::new(8);
    hawkeye_serve::recovery::replay(&s.records, &mut store, &mut comp, &mut audit);

    let mut direct = TelemetryStore::new(cfg);
    let mut direct_comp = Compactor::new(cfg);
    for s in &snaps[..n as usize] {
        direct.append(s);
        direct_comp.absorb(direct.take_pending_folds());
    }
    let fp = |st: &TelemetryStore, c: &Compactor| {
        format!(
            "{:?}|{:?}|{:?}|{:?}",
            st.snapshots(),
            st.min_watermark(),
            st.retention_horizon(),
            st.switches()
                .iter()
                .map(|&sw| c.buckets_of(sw).into_iter().cloned().collect::<Vec<_>>())
                .collect::<Vec<_>>()
        )
    };
    assert_eq!(
        fp(&store, &comp),
        fp(&direct, &direct_comp),
        "replayed state diverges from direct ingestion of the same prefix"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Truncate the log at EVERY byte offset of every segment: the scan
    /// never panics and recovers exactly the records whose bytes fully
    /// survive — nothing from the torn file's suffix, nothing from the
    /// (now seq-discontinuous) later segments.
    #[test]
    fn truncation_at_every_offset_recovers_exact_prefix(
        stream in proptest::collection::vec(obs_strategy(), 1..10),
        seg_bytes in seg_bytes_strategy(),
    ) {
        let snaps: Vec<TelemetrySnapshot> = stream
            .iter()
            .enumerate()
            .map(|(i, o)| snap(*o, i))
            .collect();
        let dir = tmp_dir("trunc");
        let files = build_log(&dir, seg_bytes, &snaps);

        let mut before = 0u64; // records living in earlier files
        for (fi, (path, nrecords)) in files.iter().enumerate() {
            let original = std::fs::read(path).expect("read segment");
            let ends = record_ends(&original, *nrecords);
            // Exclusive bound: cutting at the full length is a no-op.
            for cut in 0..original.len() as u64 {
                std::fs::write(path, &original[..cut as usize]).expect("truncate");
                let s = scan(&dir).expect("scan");
                let expect = if cut < SEG_HDR {
                    before // torn header dooms the whole file
                } else {
                    before + ends.iter().filter(|&&e| e <= cut).count() as u64
                };
                assert_prefix(&s, &snaps, expect);
                // A cut landing exactly on a record boundary of the LAST
                // segment leaves a shorter-but-clean log — undetectable by
                // construction. Every other cut must be counted: either
                // bytes died mid-record/mid-header, or a later segment's
                // start seq no longer lines up.
                let clean_tail_cut = fi + 1 == files.len()
                    && cut >= SEG_HDR
                    && (cut == SEG_HDR || ends.contains(&cut));
                if !clean_tail_cut {
                    prop_assert!(
                        s.truncated_records > 0,
                        "damage at cut {cut} went uncounted"
                    );
                }
            }
            std::fs::write(path, &original).expect("restore");
            before += nrecords;
        }
        // Untouched log restored: full prefix, nothing truncated.
        let s = scan(&dir).expect("scan");
        assert_prefix(&s, &snaps, snaps.len() as u64);
        prop_assert_eq!(s.truncated_records, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Flip any single byte anywhere in the log: the CRC (or the header
    /// check) rejects the record it lands in, the scan recovers exactly
    /// the records before it, and replaying that prefix rebuilds the same
    /// state as direct ingestion.
    #[test]
    fn byte_flip_truncates_at_the_corrupt_record_and_replays_clean(
        stream in proptest::collection::vec(obs_strategy(), 1..10),
        seg_bytes in seg_bytes_strategy(),
        flip_pick in 0..1_000_000u64,
    ) {
        let snaps: Vec<TelemetrySnapshot> = stream
            .iter()
            .enumerate()
            .map(|(i, o)| snap(*o, i))
            .collect();
        let dir = tmp_dir("flip");
        let files = build_log(&dir, seg_bytes, &snaps);

        let total: u64 = files
            .iter()
            .map(|(p, _)| std::fs::metadata(p).expect("meta").len())
            .sum();
        let mut flip_at = flip_pick % total;
        let mut before = 0u64;
        for (path, nrecords) in &files {
            let original = std::fs::read(path).expect("read segment");
            if flip_at >= original.len() as u64 {
                flip_at -= original.len() as u64;
                before += nrecords;
                continue;
            }
            let mut bytes = original.clone();
            bytes[flip_at as usize] ^= 0xFF;
            std::fs::write(path, &bytes).expect("corrupt");

            let ends = record_ends(&original, *nrecords);
            let expect = if flip_at < SEG_HDR {
                before // corrupt header dooms the whole file
            } else {
                before + ends.iter().filter(|&&e| e <= flip_at).count() as u64
            };
            let s = scan(&dir).expect("scan");
            assert_prefix(&s, &snaps, expect);
            prop_assert!(s.truncated_records > 0, "flip at {flip_at} went uncounted");
            assert_replay_matches_direct(&dir, &snaps, expect);
            break;
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A zero-length tail segment (crash between `create` of the next segment
/// and its header write) is condemned without losing the earlier records.
#[test]
fn empty_tail_segment_is_doomed_not_fatal() {
    let stream: Vec<(u32, u64, u16, u32)> = (0..5).map(|i| (i % 2, u64::from(i), 3, 40)).collect();
    let snaps: Vec<TelemetrySnapshot> = stream
        .iter()
        .enumerate()
        .map(|(i, o)| snap(*o, i))
        .collect();
    let dir = tmp_dir("emptytail");
    build_log(&dir, 1 << 20, &snaps);
    std::fs::write(dir.join(format!("seg-{:016}.wal", snaps.len())), []).expect("empty tail");

    let s = scan(&dir).expect("scan");
    assert_prefix(&s, &snaps, snaps.len() as u64);
    assert_eq!(s.truncated_records, 1, "empty tail must be counted");
    assert_replay_matches_direct(&dir, &snaps, snaps.len() as u64);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
