//! The three daemon workloads: in-process serving planes, the generator
//! threads that load them through `hawkeye_client::ServeClient`, the
//! warm-up to steady state, and the per-run verdict checks.
//!
//! Everything runs in this one process: the daemons are
//! `hawkeye_serve::spawn` / `hawkeye_cluster::spawn_front` handles on TCP
//! loopback, and the load comes from one generator thread on one
//! connection, which also takes the host readings (`host::HostGauge`)
//! between its own operations, with nothing in flight.

use crate::host::HostGauge;
use crate::span::SpanLog;
use crate::stats::Sample;
use crate::tracegen::{same_verdict, shift_window, Trace};
use hawkeye_client::{ProtoError, ServeClient};
use hawkeye_cluster::{
    spawn_front, BackendEndpoint, FrontConfig, FrontHandle, ShardEntry, ShardMap,
};
use hawkeye_serve::{spawn, DaemonHandle, Endpoint, ServeConfig};
use hawkeye_telemetry::TelemetrySnapshot;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Snapshots per ingest frame, on every workload.
pub const BATCH: usize = 32;
/// Batches ingested ahead of every Diagnose of the Diagnose workloads.
pub const ROUND_BATCHES: usize = 3;
/// The Diagnose generator reads the host once this long has passed since
/// the last reading: ~100 readings in a slice, a tenth of the window.
const ROUND_READING_EVERY_NS: u64 = 20_000_000;
/// The ingest generator drains its pipeline this often and takes
/// [`INGEST_READINGS`] readings in a row: the same ~100 readings in a
/// slice, with a pipeline bubble only eight times in it.
const INGEST_READING_EVERY_NS: u64 = 250_000_000;
const INGEST_READINGS: usize = 12;
/// An operation later than this counts as failed.
pub const LATE_NS: u64 = 1_000_000_000;
/// The Diagnose generator rotates over this many of the newest complete
/// segments.
const TARGET_ROTATION: u64 = 3;
/// Warm-up gives up (loudly) after this many cycles.
const MAX_WARMUP_CYCLES: u64 = 600;
/// Steady state = the store and engine gauges unchanged over this many
/// cycles.
const FLAT_CYCLES: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plane {
    /// One `ServeConfig::default()` daemon.
    Monolith,
    /// `spawn_front` over an even two-way split of shard daemons.
    Fleet,
}

/// A running serving plane.
pub struct Rig {
    daemons: Vec<DaemonHandle>,
    front: Option<FrontHandle>,
    pub addr: String,
}

fn io_err(e: ProtoError) -> String {
    e.to_string()
}

impl Rig {
    pub fn spawn(trace: &Trace, plane: Plane) -> Result<Rig, String> {
        let base = ServeConfig {
            // Verdict parity needs the analyzer the one-shot reference used.
            analyzer: trace.analyzer,
            ..ServeConfig::default()
        };
        let tcp = || Endpoint::Tcp("127.0.0.1:0".into());
        let addr_of = |h: &DaemonHandle| {
            h.local_addr
                .map(|a| a.to_string())
                .ok_or_else(|| "tcp daemon without an address".to_string())
        };
        match plane {
            Plane::Monolith => {
                let h = spawn(trace.topo.clone(), base, tcp()).map_err(|e| e.to_string())?;
                let addr = addr_of(&h)?;
                Ok(Rig {
                    daemons: vec![h],
                    front: None,
                    addr,
                })
            }
            Plane::Fleet => {
                let n = trace.topo.switches().map(|s| s.0).max().unwrap_or(0) + 1;
                let placeholder = vec![BackendEndpoint::Tcp("unbound:0".into()); 2];
                let ranges: Vec<_> = ShardMap::even_split(n, placeholder, 1)
                    .shards
                    .into_iter()
                    .map(|e| e.range)
                    .collect();
                let mut daemons = Vec::new();
                let mut shards = Vec::new();
                for range in ranges {
                    let cfg = ServeConfig {
                        shard_range: Some(range),
                        ..base
                    };
                    let h = spawn(trace.topo.clone(), cfg, tcp()).map_err(|e| e.to_string())?;
                    shards.push(ShardEntry {
                        range,
                        endpoint: BackendEndpoint::Tcp(addr_of(&h)?),
                    });
                    daemons.push(h);
                }
                let front = spawn_front(
                    trace.topo.clone(),
                    ShardMap { epoch: 1, shards },
                    FrontConfig {
                        analyzer: trace.analyzer,
                        ..FrontConfig::default()
                    },
                    tcp(),
                )
                .map_err(|e| e.to_string())?;
                let addr = front
                    .local_addr
                    .map(|a| a.to_string())
                    .ok_or("front without an address")?;
                Ok(Rig {
                    daemons,
                    front: Some(front),
                    addr,
                })
            }
        }
    }

    pub fn connect(&self) -> Result<ServeClient, String> {
        ServeClient::connect_tcp(&self.addr).map_err(|e| e.to_string())
    }

    /// Stop every thread of the plane and wait for it.
    pub fn shutdown(self) {
        if let Some(f) = self.front {
            f.shutdown();
        }
        for d in self.daemons {
            d.shutdown();
        }
    }
}

/// The gauges and counters a plane reports over `Stats`, summed over the
/// fleet's backends where there are several.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlaneStats {
    pub snapshots_appended: u64,
    pub epochs_held: u64,
    pub compacted_epochs: u64,
    pub compacted_buckets: u64,
    pub engine_epochs_held: u64,
    pub engine_retired: u64,
    pub shed: u64,
    pub wrong_shard: u64,
}

fn field(v: &serde::Value, name: &str) -> u64 {
    v.get(name).and_then(serde::Value::as_u64).unwrap_or(0)
}

/// Barrier, then `Stats`. `FlowHistory` is the one op that flushes the
/// shard queues *and* the compactor on a daemon, and settles every
/// backend window on a front — after it, everything acknowledged before
/// is applied.
pub fn barrier_stats(client: &mut ServeClient, trace: &Trace) -> Result<PlaneStats, String> {
    client
        .flow_history(trace.segments[0].victim)
        .map_err(io_err)?;
    let v = client.stats().map_err(io_err)?;
    let mut out = PlaneStats {
        shed: field(&v, "ingest_shed") + field(&v, "front_shed_down"),
        wrong_shard: field(&v, "ingest_wrong_shard"),
        ..Default::default()
    };
    let backends: Vec<&serde::Value> = match v.get("backends") {
        Some(serde::Value::Array(b)) => b.iter().collect(),
        _ => vec![&v],
    };
    for b in backends {
        if matches!(b, serde::Value::Null) {
            return Err("a fleet backend is unreachable".into());
        }
        out.snapshots_appended += field(b, "store_snapshots_appended");
        out.epochs_held += field(b, "store_epochs_held");
        out.compacted_epochs += field(b, "store_epochs_compacted_held");
        out.compacted_buckets += field(b, "store_compacted_buckets");
        out.engine_epochs_held += field(b, "engine_epochs_held");
        out.engine_retired += field(b, "engine_epochs_retired_total");
        out.shed += field(b, "ingest_shed");
        out.wrong_shard += field(b, "ingest_wrong_shard");
    }
    Ok(out)
}

/// Where the replayed stream stands: `pos` snapshots of the infinite
/// stream (cycle after cycle) have been handed out.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cursor {
    pub pos: u64,
}

impl Cursor {
    /// The next `n` snapshots of the stream, re-stamped for their cycle.
    pub fn take(&mut self, trace: &Trace, n: usize) -> Vec<TelemetrySnapshot> {
        let len = trace.snaps.len() as u64;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let (cycle, i) = (self.pos / len, (self.pos % len) as usize);
            let take = (n - out.len()).min(trace.snaps.len() - i);
            out.extend(trace.batch(cycle, i..i + take));
            self.pos += take as u64;
        }
        out
    }
}

/// Segments of the infinite stream fully contained in its first `pos`
/// snapshots.
pub fn segments_complete(trace: &Trace, pos: u64) -> u64 {
    let len = trace.snaps.len() as u64;
    let (cycle, rem) = (pos / len, (pos % len) as usize);
    let within = trace.segments.partition_point(|s| s.range.end <= rem);
    cycle * trace.segments.len() as u64 + within as u64
}

pub struct Warm {
    pub cursor: Cursor,
    pub cycles: u64,
    pub stats: PlaneStats,
}

/// Replay whole cycles, closed loop, until the plane is in steady state:
/// raw epochs held and engine epochs held unchanged from one checkpoint
/// to the next, [`FLAT_CYCLES`] cycles later, while those cycles still
/// folded (= evicted: the daemons fold every ring eviction) and retired.
/// Checkpoints are that far apart because `Stats` refreshes the engine's
/// whole graph (~0.2 s here); every cycle is the same input shifted in
/// time, so what holds over five holds for each. The compacted tier must
/// be live, but is not waited on to fill: at sixteen 256-epoch buckets
/// per switch that takes minutes for a sparsely reporting switch.
/// Anything shed, mis-routed or missing from the stores fails the run.
pub fn warm_up(client: &mut ServeClient, trace: &Trace) -> Result<Warm, String> {
    let mut cursor = Cursor::default();
    let mut last: Option<PlaneStats> = None;
    let len = trace.snaps.len();
    for cycle in 1..=MAX_WARMUP_CYCLES {
        let mut sent = 0;
        while sent < len {
            let n = BATCH.min(len - sent);
            client
                .ingest_batch(&cursor.take(trace, n))
                .map_err(io_err)?;
            sent += n;
        }
        let ack = client.finish_ingest().map_err(io_err)?;
        if ack.shed > 0 {
            return Err(format!(
                "warm-up cycle {cycle}: {} snapshots shed",
                ack.shed
            ));
        }
        if cycle % FLAT_CYCLES as u64 != 0 {
            continue;
        }
        let st = barrier_stats(client, trace)?;
        if st.shed + st.wrong_shard > 0 {
            return Err(format!(
                "warm-up cycle {cycle}: {} shed, {} mis-routed",
                st.shed, st.wrong_shard
            ));
        }
        if st.snapshots_appended != cursor.pos {
            return Err(format!(
                "warm-up cycle {cycle}: {} snapshots sent, {} in the stores",
                cursor.pos, st.snapshots_appended
            ));
        }
        let steady = last.is_some_and(|a| {
            a.epochs_held == st.epochs_held
                && a.engine_epochs_held == st.engine_epochs_held
                && st.compacted_epochs != a.compacted_epochs
                && st.engine_retired > a.engine_retired
        });
        if steady {
            return Ok(Warm {
                cursor,
                cycles: cycle,
                stats: st,
            });
        }
        last = Some(st);
    }
    Err(format!(
        "no steady state after {MAX_WARMUP_CYCLES} cycles: last {last:?}"
    ))
}

#[derive(Default)]
pub struct IngestOutcome {
    /// One sample per acknowledged batch.
    pub samples: Vec<Sample>,
    pub batches: u64,
    pub sent: u64,
    pub accepted: u64,
    pub shed: u64,
    /// Wall of each `ingest_batch` call, ns.
    pub call_ns: Vec<u64>,
    pub errors: Vec<String>,
    /// When this thread's last operation completed, ns since window start.
    pub end_ns: u64,
}

/// The `serve-ingest` generator: batches back to back under the credit
/// window, saturating, closed loop. Four times a second it lets the
/// pipeline drain and reads the host.
pub fn ingest_loop(
    client: &mut ServeClient,
    trace: &Trace,
    cursor: &mut Cursor,
    t0: Instant,
    window: Duration,
    gauge: &mut HostGauge,
    log: &mut SpanLog,
) -> IngestOutcome {
    let mut out = IngestOutcome::default();
    let window_ns = window.as_nanos() as u64;
    let now_ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
    // Batches in flight: (when sent, snapshots).
    let mut in_flight: VecDeque<(u64, u64)> = VecDeque::new();
    let mut settled_pending = 0u64;
    let mut settle = |out: &mut IngestOutcome,
                      in_flight: &mut VecDeque<(u64, u64)>,
                      ack: hawkeye_client::SinkAck,
                      now: u64| {
        out.accepted += ack.accepted;
        out.shed += ack.shed;
        settled_pending += ack.accepted + ack.shed;
        while let Some(&(origin, n)) = in_flight.front() {
            if settled_pending < n {
                break;
            }
            settled_pending -= n;
            in_flight.pop_front();
            out.samples.push(Sample {
                end_ns: now,
                latency_ns: now.saturating_sub(origin),
                work: n,
            });
        }
    };
    loop {
        let origin = now_ns(t0);
        if origin >= window_ns {
            break;
        }
        if origin >= gauge.last_ns() + INGEST_READING_EVERY_NS {
            let read = client
                .finish_ingest()
                .map(|ack| settle(&mut out, &mut in_flight, ack, now_ns(t0)))
                .map_err(|e| format!("finish_ingest: {e}"))
                .and_then(|()| {
                    gauge
                        .read(t0, INGEST_READINGS)
                        .map_err(|e| format!("host reading: {e}"))
                });
            if let Err(e) = read {
                out.errors.push(e);
                break;
            }
            continue;
        }
        let request = out.batches;
        let batch = log.leaf("bench.restamp", request, BATCH as u64, || {
            cursor.take(trace, BATCH)
        });
        let t = Instant::now();
        let res = log.leaf("client.ingest_batch", request, BATCH as u64, || {
            client.ingest_batch(&batch)
        });
        out.call_ns.push(t.elapsed().as_nanos() as u64);
        out.batches += 1;
        out.sent += BATCH as u64;
        in_flight.push_back((origin, BATCH as u64));
        match res {
            Ok(ack) => settle(&mut out, &mut in_flight, ack, now_ns(t0)),
            Err(e) => {
                out.errors.push(format!("ingest_batch: {e}"));
                break;
            }
        }
    }
    match client.finish_ingest() {
        Ok(ack) => settle(&mut out, &mut in_flight, ack, now_ns(t0)),
        Err(e) => out.errors.push(format!("finish_ingest: {e}")),
    }
    out.end_ns = now_ns(t0);
    out
}

#[derive(Default)]
pub struct DiagnoseOutcome {
    /// One sample per verdict returned.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    /// Verdicts compared with their one-shot reference…
    pub checked: u64,
    /// …and equal to it in label, culprits and confidence.
    pub matched: u64,
    pub mismatches: Vec<String>,
    pub errors: Vec<String>,
    pub end_ns: u64,
}

/// One Diagnose for global segment `g`, checked against its reference.
fn diagnose_segment(
    client: &mut ServeClient,
    trace: &Trace,
    g: u64,
) -> Result<(bool, String), ProtoError> {
    let nseg = trace.segments.len() as u64;
    let seg = &trace.segments[(g % nseg) as usize];
    let w = shift_window(seg.window, trace.cycle_shift(g / nseg));
    let report = client.diagnose(seg.victim, w.from, w.to, Vec::new())?;
    let ok = same_verdict(&report, &seg.reference);
    let what = format!(
        "segment {g} ({}/s{}): served {:?}/{:?}/{} causes, one-shot {:?}/{:?}/{} causes",
        seg.kind.name(),
        seg.sim_seed,
        report.anomaly,
        report.confidence,
        report.root_causes.len(),
        seg.reference.anomaly,
        seg.reference.confidence,
        seg.reference.root_causes.len()
    );
    Ok((ok, what))
}

#[derive(Default)]
pub struct RoundOutcome {
    pub diagnose: DiagnoseOutcome,
    pub batches: u64,
    pub accepted: u64,
    pub shed: u64,
    /// Wall of each round's ingest part (first batch sent to last
    /// acknowledged), ns.
    pub ingest_ns: Vec<u64>,
}

/// The generator of the Diagnose workloads: rounds back to back. A round
/// ingests [`ROUND_BATCHES`] batches, waits for their acknowledgements,
/// then asks for one verdict on one of the newest complete segments — the
/// read path right behind the write path, on the store, engine and locks
/// the batches just went through. Nothing is in flight while the verdict
/// is computed (or while the host is read), so every verdict is checked
/// against its one-shot reference.
pub fn round_loop(
    client: &mut ServeClient,
    trace: &Trace,
    cursor: &mut Cursor,
    t0: Instant,
    window: Duration,
    gauge: &mut HostGauge,
    log: &mut SpanLog,
) -> RoundOutcome {
    let mut out = RoundOutcome::default();
    let window_ns = window.as_nanos() as u64;
    let now_ns = || t0.elapsed().as_nanos() as u64;
    'rounds: loop {
        let start = now_ns();
        if start >= window_ns {
            break;
        }
        if start >= gauge.last_ns() + ROUND_READING_EVERY_NS {
            if let Err(e) = gauge.read(t0, 1) {
                out.diagnose.errors.push(format!("host reading: {e}"));
                break;
            }
            continue;
        }
        let request = out.diagnose.attempted;
        for _ in 0..ROUND_BATCHES {
            let batch = log.leaf("bench.restamp", request, BATCH as u64, || {
                cursor.take(trace, BATCH)
            });
            out.batches += 1;
            let res = log.leaf("client.ingest_batch", request, BATCH as u64, || {
                client.ingest_batch(&batch)
            });
            match res {
                Ok(ack) => {
                    out.accepted += ack.accepted;
                    out.shed += ack.shed;
                }
                Err(e) => {
                    out.diagnose.errors.push(format!("ingest_batch: {e}"));
                    break 'rounds;
                }
            }
        }
        match client.finish_ingest() {
            Ok(ack) => {
                out.accepted += ack.accepted;
                out.shed += ack.shed;
            }
            Err(e) => {
                out.diagnose.errors.push(format!("finish_ingest: {e}"));
                break;
            }
        }
        let asked = now_ns();
        out.ingest_ns.push(asked - start);
        let complete = segments_complete(trace, cursor.pos);
        let g = complete.saturating_sub(1 + request % TARGET_ROTATION);
        out.diagnose.attempted += 1;
        let res = log.leaf("client.diagnose", request, 1, || {
            diagnose_segment(client, trace, g)
        });
        let end = now_ns();
        match res {
            Ok((ok, what)) => {
                out.diagnose.samples.push(Sample {
                    end_ns: end,
                    latency_ns: end - asked,
                    work: 1,
                });
                out.diagnose.checked += 1;
                if ok {
                    out.diagnose.matched += 1;
                } else {
                    out.diagnose.mismatches.push(what);
                }
            }
            Err(e) => {
                out.diagnose
                    .errors
                    .push(format!("diagnose segment {g}: {e}"));
                break;
            }
        }
    }
    out.diagnose.end_ns = now_ns();
    out
}

/// After a window, with ingest quiesced: one Diagnose per scenario kind,
/// on the newest complete segment of each. Returns the mismatches.
pub fn post_window_check(
    client: &mut ServeClient,
    trace: &Trace,
    pos: u64,
) -> Result<Vec<String>, String> {
    let complete = segments_complete(trace, pos);
    let mut seen = Vec::new();
    let mut bad = Vec::new();
    // Kinds interleave, so the newest few segments cover all of them;
    // all lie well inside the rings with ingest stopped.
    for g in (0..complete).rev().take(crate::tracegen::KINDS.len()) {
        let kind = trace.segments[(g % trace.segments.len() as u64) as usize].kind;
        if seen.contains(&kind) {
            continue;
        }
        seen.push(kind);
        let (ok, what) = diagnose_segment(client, trace, g).map_err(io_err)?;
        if !ok {
            bad.push(what);
        }
    }
    if seen.len() < crate::tracegen::KINDS.len() {
        return Err("fewer than three scenario kinds ingested".into());
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracegen::Segment;
    use hawkeye_core::{AnalyzerConfig, Window};
    use hawkeye_sim::{FlowKey, Nanos, NodeId};
    use hawkeye_telemetry::EpochConfig;
    use hawkeye_workloads::ScenarioKind;

    /// A trace skeleton: three segments of 4, 2 and 3 snapshots.
    fn skeleton() -> Trace {
        let epochs = EpochConfig::for_epoch_len(Nanos::from_micros(100), 2);
        let analyzer = AnalyzerConfig::for_epoch_len(epochs.epoch_len());
        let (topo, _) = crate::tracegen::TOPO.build().unwrap();
        let victim = FlowKey::roce(NodeId(0), NodeId(1), 9);
        let empty =
            hawkeye_core::analyze_victim_window(&victim, Window::default(), &[], &topo, &analyzer)
                .0;
        let snap = |i: u64| TelemetrySnapshot {
            switch: NodeId(200),
            taken_at: Nanos(i),
            nports: 1,
            max_flows: 1,
            epochs: vec![],
            evicted: vec![],
        };
        let seg = |range: std::ops::Range<usize>| Segment {
            kind: ScenarioKind::PfcStorm,
            sim_seed: 1,
            victim,
            window: Window::default(),
            range,
            reference: empty.clone(),
        };
        Trace {
            topo,
            epochs,
            analyzer,
            snaps: (0..9).map(snap).collect(),
            segments: vec![seg(0..4), seg(4..6), seg(6..9)],
            period: Nanos(epochs.epoch_len().as_nanos() * 96),
        }
    }

    #[test]
    fn stream_positions_map_to_segments_across_cycles() {
        let t = skeleton();
        assert_eq!(segments_complete(&t, 0), 0);
        assert_eq!(segments_complete(&t, 3), 0);
        assert_eq!(segments_complete(&t, 4), 1);
        assert_eq!(segments_complete(&t, 8), 2);
        assert_eq!(segments_complete(&t, 9), 3);
        assert_eq!(segments_complete(&t, 9 + 5), 4);
    }

    #[test]
    fn cursor_batches_wrap_cycles_with_monotone_time() {
        let t = skeleton();
        let mut c = Cursor::default();
        let a = c.take(&t, 7);
        let b = c.take(&t, 7);
        assert_eq!(c.pos, 14);
        assert_eq!(a.len(), 7);
        assert_eq!(b.len(), 7);
        // b = snapshots 7, 8 of cycle 0, then 0..5 of cycle 1.
        assert_eq!(b[0].taken_at, Nanos(7));
        assert_eq!(b[2].taken_at, Nanos(0) + t.period);
        assert_eq!(b[6].taken_at, Nanos(4) + t.period);
    }
}
