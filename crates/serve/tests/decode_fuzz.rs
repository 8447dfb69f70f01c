//! The one mutation target for every decoder that reads bytes the daemon
//! did not write: telemetry snapshots, batches and compacted buckets, every
//! request and response frame, switch and audit checkpoints, and a whole
//! evidence-log segment through `recovery::scan`.
//!
//! Each case takes a valid encoding and mutates it — flips a byte,
//! truncates, appends a random tail, overwrites an aligned `u32` with 0,
//! 2^20 or `u32::MAX`, or splices a run of `[` into the JSON body — then
//! decodes it. Nothing may panic or abort; every failure must be the
//! decoder's typed error; an `Ok` from a binary decoder must re-encode to
//! exactly the bytes it read (the codec's canonical claim); and a scan of
//! a mutated segment must return a prefix of the original records.

use hawkeye_client::proto::{
    decode_request, decode_response, read_frame, write_request, write_response,
};
use hawkeye_client::{
    DiagnoseParams, ExplainRecord, Fidelity, FlowObservation, ProtoError, Request, Response,
    PROTO_VERSION,
};
use hawkeye_core::{AnomalyType, Confidence, DiagnosisReport, RootCause, Window};
use hawkeye_serve::wal::{
    decode_audit_checkpoint, decode_switch_checkpoint, encode_audit_checkpoint,
    encode_switch_checkpoint, AuditCheckpoint, SwitchCheckpoint, OLD_SEG_MAGIC, REC_BATCH,
    REC_CKPT_AUDIT, REC_CKPT_BEGIN, REC_CKPT_END, REC_CKPT_SWITCH, REC_VERDICT,
};
use hawkeye_serve::{scan, spawn, Endpoint, ScannedRecord, ServeConfig, SwitchRestore};
use hawkeye_serve::{FsyncPolicy, Wal, WalConfig};
use hawkeye_sim::{chain, FlowKey, Nanos, NodeId, PortId, EVAL_BANDWIDTH, EVAL_DELAY};
use hawkeye_telemetry::{
    decode_batch, decode_compacted, decode_snapshot, encode_batch, encode_compacted,
    encode_snapshot, CompactedEpoch, EpochSnapshot, EvictedFlow, FlowRecord, PortRecord,
    TelemetrySnapshot,
};
use proptest::prelude::*;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The decoder a seed belongs to.
enum Target {
    Snapshot,
    Batch,
    Compacted,
    RequestFrame,
    ResponseFrame,
    SwitchCheckpoint,
    AuditCheckpoint,
    /// One segment file, with the records a scan of it finds unmutated.
    Segment(Vec<ScannedRecord>),
}

struct Seed {
    target: Target,
    bytes: Vec<u8>,
    /// Where the JSON body starts, for seeds that carry one.
    json_at: Option<usize>,
}

fn snap(switch: u32) -> TelemetrySnapshot {
    let key = FlowKey::roce(NodeId(90), NodeId(91), 7);
    TelemetrySnapshot {
        switch: NodeId(switch),
        taken_at: Nanos(3 << 20),
        nports: 4,
        max_flows: 64,
        epochs: vec![EpochSnapshot {
            slot: 1,
            id: 2,
            start: Nanos(1 << 20),
            len: Nanos(1 << 20),
            flows: vec![(
                key,
                FlowRecord {
                    pkt_count: 40,
                    paused_count: 5,
                    qdepth_sum: 321,
                    out_port: 1,
                },
            )],
            ports: vec![(
                1,
                PortRecord {
                    pkt_count: 40,
                    paused_count: 5,
                    qdepth_sum: 321,
                },
            )],
            meter: vec![(0, 1, 41_920)],
        }],
        evicted: vec![EvictedFlow {
            key,
            record: FlowRecord {
                pkt_count: 2,
                paused_count: 0,
                qdepth_sum: 3,
                out_port: 1,
            },
            epoch_id: 1,
            slot: 0,
        }],
    }
}

fn bucket() -> CompactedEpoch {
    let mut c = CompactedEpoch::default();
    c.fold(&snap(3).epochs[0]);
    c
}

fn explain_record() -> ExplainRecord {
    ExplainRecord {
        seq: 4,
        victim: "90:7->91".into(),
        window_from_ns: 100,
        window_to_ns: 900,
        anomaly: "PfcStorm".into(),
        signature_row: "pfc_storm".into(),
        confidence: "degraded".into(),
        root_causes: vec![3],
        contributing_switches: vec![1, 3],
        contributing_epochs: 12,
        dirty_switches: vec![2],
        frags_reused: 30,
        frags_recomputed: 4,
        stage_collect_ns: 1000,
        stage_graph_ns: 5000,
        stage_match_ns: 200,
    }
}

/// A report with every field populated, its deepest nesting included.
fn report() -> DiagnosisReport {
    let victim = FlowKey::roce(NodeId(90), NodeId(91), 7);
    let port = |n, p| PortId::new(NodeId(n), p);
    DiagnosisReport {
        victim,
        anomaly: AnomalyType::OutOfLoopDeadlockContention,
        root_causes: vec![
            RootCause::FlowContention {
                port: port(3, 1),
                flows: vec![(victim, 0.75)],
            },
            RootCause::HostPfcInjection {
                port: port(4, 2),
                peer: NodeId(92),
            },
        ],
        pfc_paths: vec![vec![port(1, 0), port(3, 1)]],
        deadlock_loop: Some(vec![port(1, 0), port(2, 1), port(1, 0)]),
        victim_extents: vec![(port(1, 0), 0.5)],
        spreading_flows: vec![victim],
        burst_flows: vec![victim],
        confidence: Confidence::Degraded {
            missing: vec![NodeId(5)],
        },
    }
}

fn switch_checkpoint() -> SwitchCheckpoint {
    SwitchCheckpoint {
        restore: SwitchRestore {
            switch: NodeId(3),
            snapshot: snap(3),
            taken_at: vec![Nanos(3 << 20)],
            watermark: Nanos(2 << 20),
            fold_horizon: Nanos(1 << 20),
            folded: vec![(0, 1, Nanos(500), Nanos(0))],
        },
        buckets: vec![bucket()],
    }
}

fn audit_checkpoint() -> AuditCheckpoint {
    AuditCheckpoint {
        next_seq: 5,
        records: vec![explain_record()],
    }
}

fn requests() -> Vec<Request> {
    vec![
        Request::Diagnose(DiagnoseParams {
            victim: FlowKey::roce(NodeId(90), NodeId(91), 7),
            window: Window {
                from: Nanos(100),
                to: Nanos(900),
            },
            missing: vec![NodeId(4)],
        }),
        Request::Stats,
        Request::Shutdown,
        Request::FlowHistory(FlowKey::roce(NodeId(90), NodeId(91), 7)),
        Request::Metrics,
        Request::Explain(None),
        Request::Explain(Some(42)),
        Request::IngestBatch(vec![snap(3), snap(4)]),
        Request::Hello {
            version: PROTO_VERSION,
            map_epoch: Some(7),
        },
        Request::Fragments(Window {
            from: Nanos(100),
            to: Nanos(900),
        }),
    ]
}

/// Every response, the daemon's own `Stats` and `Metrics` frames among
/// them (taken from a live daemon), as frame bytes.
fn response_frames() -> Vec<Vec<u8>> {
    let mut frames: Vec<Vec<u8>> = [
        Response::Ack,
        Response::Diagnosis(report()),
        Response::Bye,
        Response::History(vec![FlowObservation {
            switch: NodeId(3),
            from: Nanos(0),
            to: Nanos(4 << 20),
            fidelity: Fidelity::Compacted,
            out_port: 2,
            pkt_count: 1234,
            paused_count: 56,
            qdepth_sum: 789,
            epochs: 4,
        }]),
        Response::Explain(explain_record()),
        Response::BatchAck {
            accepted: 7,
            shed: 1,
        },
        Response::Fragments(vec![snap(3)]),
        Response::Error("boom".into()),
    ]
    .iter()
    .map(|resp| {
        let mut buf = Vec::new();
        write_response(&mut buf, resp).expect("write to Vec");
        buf
    })
    .collect();

    let path = tmp("live.sock");
    let handle = spawn(
        chain(2, 1, EVAL_BANDWIDTH, EVAL_DELAY),
        ServeConfig::default(),
        Endpoint::Unix(path.clone()),
    )
    .expect("bind daemon");
    let mut peer = UnixStream::connect(&path).expect("connect");
    for req in [Request::Stats, Request::Metrics] {
        write_request(&mut peer, &req).expect("write");
        let (op, body) = read_frame(&mut peer).expect("read").expect("frame");
        let mut frame = Vec::new();
        hawkeye_client::write_frame(&mut frame, op, &body).expect("reframe");
        frames.push(frame);
    }
    handle.shutdown();
    frames
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hawkeye-decode-fuzz-{}-{name}", std::process::id()))
}

/// A segment holding one record of each of the six kinds.
fn segment() -> (Vec<u8>, Vec<ScannedRecord>) {
    let dir = tmp("seed-wal");
    let _ = std::fs::remove_dir_all(&dir);
    let mut wal = Wal::create(WalConfig {
        fsync: FsyncPolicy::Never,
        ..WalConfig::new(&dir)
    })
    .expect("create wal");
    let verdict = serde_json::to_string(&explain_record()).expect("serializes");
    wal.append(REC_BATCH, &encode_batch(&[snap(3)])).unwrap();
    wal.append(REC_VERDICT, verdict.as_bytes()).unwrap();
    wal.append(REC_CKPT_BEGIN, &2u64.to_le_bytes()).unwrap();
    wal.append(
        REC_CKPT_SWITCH,
        &encode_switch_checkpoint(&switch_checkpoint()),
    )
    .unwrap();
    wal.append(
        REC_CKPT_AUDIT,
        &encode_audit_checkpoint(&audit_checkpoint()),
    )
    .unwrap();
    wal.append(REC_CKPT_END, &[]).unwrap();
    wal.sync().unwrap();
    drop(wal);
    let records = scan(&dir).expect("scan").records;
    assert_eq!(records.len(), 6, "one record of each kind");
    let bytes = std::fs::read(dir.join("seg-0000000000000000.wal")).expect("segment");
    std::fs::remove_dir_all(&dir).unwrap();
    (bytes, records)
}

/// Frame header: `u32` length, opcode.
const FRAME_HEADER: usize = 5;

fn json_body(frame: &[u8]) -> Option<usize> {
    matches!(frame.get(FRAME_HEADER), Some(b'{' | b'[')).then_some(FRAME_HEADER)
}

fn seeds() -> &'static [Seed] {
    static SEEDS: OnceLock<Vec<Seed>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        let seed = |target, bytes: Vec<u8>| Seed {
            target,
            bytes,
            json_at: None,
        };
        let mut out = vec![
            seed(Target::Snapshot, encode_snapshot(&snap(3))),
            seed(Target::Batch, encode_batch(&[snap(3), snap(4)])),
            seed(Target::Compacted, encode_compacted(&bucket())),
            seed(
                Target::SwitchCheckpoint,
                encode_switch_checkpoint(&switch_checkpoint()),
            ),
            seed(
                Target::AuditCheckpoint,
                encode_audit_checkpoint(&audit_checkpoint()),
            ),
        ];
        for req in requests() {
            let mut bytes = Vec::new();
            write_request(&mut bytes, &req).expect("write to Vec");
            out.push(Seed {
                json_at: json_body(&bytes),
                target: Target::RequestFrame,
                bytes,
            });
        }
        for bytes in response_frames() {
            out.push(Seed {
                json_at: json_body(&bytes),
                target: Target::ResponseFrame,
                bytes,
            });
        }
        let (bytes, records) = segment();
        out.push(seed(Target::Segment(records), bytes));
        out
    })
}

#[derive(Debug)]
enum Mutation {
    Flip { at: usize, mask: u8 },
    Truncate { at: usize },
    Append(Vec<u8>),
    Overwrite { at: usize, value: u32 },
    Splice { at: usize, run: usize },
}

fn mutation() -> impl Strategy<Value = (usize, Mutation)> {
    (
        0usize..1 << 16,
        0u8..5,
        0usize..1 << 20,
        0u16..256,
        proptest::collection::vec(0u16..256, 1..24),
    )
        .prop_map(|(seed, op, at, byte, tail)| {
            let m = match op {
                0 => Mutation::Flip {
                    at,
                    mask: (byte as u8).max(1),
                },
                1 => Mutation::Truncate { at },
                2 => Mutation::Append(tail.into_iter().map(|b| b as u8).collect()),
                3 => Mutation::Overwrite {
                    at,
                    value: [0, 1 << 20, u32::MAX][byte as usize % 3],
                },
                _ => Mutation::Splice {
                    at,
                    run: [serde_json::MAX_DEPTH + 1, 20_000][byte as usize % 2],
                },
            };
            (seed, m)
        })
}

fn mutate(seed: &Seed, m: &Mutation) -> Vec<u8> {
    let mut b = seed.bytes.clone();
    let len = b.len();
    match *m {
        Mutation::Flip { at, mask } => b[at % len] ^= mask,
        Mutation::Truncate { at } => b.truncate(at % len),
        Mutation::Append(ref tail) => b.extend_from_slice(tail),
        Mutation::Overwrite { at, value } => {
            let i = at % (len / 4) * 4;
            b[i..i + 4].copy_from_slice(&value.to_le_bytes());
        }
        Mutation::Splice { at, run } => {
            let i = seed.json_at.unwrap_or(at % (len + 1));
            b.splice(i..i, std::iter::repeat_n(b'[', run));
        }
    }
    let grew = matches!(m, Mutation::Append(_) | Mutation::Splice { .. });
    if grew && matches!(seed.target, Target::RequestFrame | Target::ResponseFrame) {
        // Grow the frame with its body, so the added bytes reach the body
        // decoder rather than trail the frame.
        let framed = (b.len() - 4) as u32;
        b[..4].copy_from_slice(&framed.to_le_bytes());
    }
    b
}

/// Whether a request's body is binary, so the canonical claim holds.
fn binary_request(req: &Request) -> bool {
    !matches!(
        req,
        Request::Diagnose(_) | Request::FlowHistory(_) | Request::Explain(_)
    )
}

fn binary_response(resp: &Response) -> bool {
    matches!(
        resp,
        Response::Ack | Response::Bye | Response::BatchAck { .. } | Response::Fragments(_)
    )
}

/// Read one frame off `bytes` and decode it: a typed outcome, and for a
/// binary body, the bytes that frame took up re-encoded exactly.
fn check_frame(bytes: &[u8], request: bool) -> Result<(), TestCaseError> {
    let mut rest = bytes;
    let (op, body) = match read_frame(&mut rest) {
        Ok(Some(frame)) => frame,
        Ok(None) | Err(ProtoError::BadFrame(_)) | Err(ProtoError::Io(_)) => return Ok(()),
        Err(e) => return Err(TestCaseError::fail(format!("read_frame: {e:?}"))),
    };
    let framed = &bytes[..bytes.len() - rest.len()];
    let mut again = Vec::new();
    let canonical = if request {
        match decode_request(op, &body) {
            Ok(req) => {
                write_request(&mut again, &req).expect("write to Vec");
                binary_request(&req)
            }
            Err(ProtoError::BadBody(_) | ProtoError::BadOpcode(_)) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("request: {e:?}"))),
        }
    } else {
        match decode_response(op, &body) {
            Ok(resp) => {
                write_response(&mut again, &resp).expect("write to Vec");
                binary_response(&resp)
            }
            Err(ProtoError::BadBody(_) | ProtoError::BadOpcode(_)) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("response: {e:?}"))),
        }
    };
    if canonical {
        prop_assert_eq!(again.as_slice(), framed);
    }
    Ok(())
}

/// A scan of the mutated segment is a prefix of the original records; the
/// only refusal is a log in the previous format.
fn check_segment(bytes: &[u8], original: &[ScannedRecord]) -> Result<(), TestCaseError> {
    let dir = tmp("mutated-wal");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    std::fs::write(dir.join("seg-0000000000000000.wal"), bytes).expect("write segment");
    let scanned = scan(&dir);
    std::fs::remove_dir_all(&dir).expect("remove tmp dir");
    match scanned {
        Ok(s) => {
            prop_assert!(s.records.len() <= original.len());
            prop_assert!(s.records[..] == original[..s.records.len()]);
        }
        Err(e) => prop_assert!(bytes.starts_with(OLD_SEG_MAGIC), "scan failed: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn mutated_inputs_fail_typed_or_decode_canonically(case in mutation()) {
        let (pick, m) = case;
        let seeds = seeds();
        let seed = &seeds[pick % seeds.len()];
        let bytes = mutate(seed, &m);
        match &seed.target {
            Target::Snapshot => {
                if let Ok(s) = decode_snapshot(&bytes) {
                    prop_assert_eq!(encode_snapshot(&s), bytes);
                }
            }
            Target::Batch => {
                if let Ok(b) = decode_batch(&bytes) {
                    prop_assert_eq!(encode_batch(&b), bytes);
                }
            }
            Target::Compacted => {
                if let Ok(c) = decode_compacted(&bytes) {
                    prop_assert_eq!(encode_compacted(&c), bytes);
                }
            }
            Target::SwitchCheckpoint => {
                if let Ok(c) = decode_switch_checkpoint(&bytes) {
                    prop_assert_eq!(encode_switch_checkpoint(&c), bytes);
                }
            }
            Target::AuditCheckpoint => {
                let _ = decode_audit_checkpoint(&bytes);
            }
            Target::RequestFrame => check_frame(&bytes, true)?,
            Target::ResponseFrame => check_frame(&bytes, false)?,
            Target::Segment(original) => check_segment(&bytes, original)?,
        }
    }
}

/// Nesting depth of a JSON value: a scalar is 0, `[]` is 1.
fn depth(v: &serde::Value) -> usize {
    match v {
        serde::Value::Array(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        serde::Value::Object(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

/// The JSON parser's depth bound refuses only hostile bodies: every JSON
/// message this workspace writes — each request and response body, the
/// daemon's own `Stats` and `Metrics`, the verdict record the evidence log
/// journals — nests at most an eighth of it.
#[test]
fn own_json_nests_far_below_the_bound() {
    let mut deepest = 0;
    for s in seeds().iter().filter(|s| s.json_at.is_some()) {
        let text = std::str::from_utf8(&s.bytes[FRAME_HEADER..]).expect("utf8");
        deepest = deepest.max(depth(&serde_json::parse(text).expect("own JSON parses")));
    }
    let verdict = serde_json::to_value(&explain_record()).expect("serializes");
    deepest = deepest.max(depth(&verdict));
    assert!(
        deepest >= 3,
        "the seeds hold nested JSON (deepest {deepest})"
    );
    assert!(
        deepest * 8 <= serde_json::MAX_DEPTH,
        "own JSON nests {deepest} deep against a bound of {}",
        serde_json::MAX_DEPTH
    );
}
