//! Property tests for the epoch telemetry store: delivery order must not
//! matter. Feeding the same observation set out of order and with
//! duplicated redeliveries must reconcile to canonical per-switch
//! snapshots that are **byte-for-byte identical** (via the wire codec) to
//! in-order ingestion, and every query endpoint must agree. And the
//! windowed read every `Diagnose` and `Fragments` goes through must be the
//! whole-ring read minus the epochs the window does not overlap — to the
//! analyzer, the same evidence.
//!
//! The one delivery shape excluded by construction is two *different*
//! collections of one switch carrying the same `taken_at` — a switch CPU
//! timestamps each upload from a monotone clock, so re-collections always
//! differ in `taken_at`; here every observation gets a unique one.

use hawkeye_client::VecSink;
use hawkeye_core::{analyze_victim_window, AnalyzerConfig, Window};
use hawkeye_eval::optimal_run_config;
use hawkeye_serve::{replay_streaming, StoreConfig, TelemetryStore};
use hawkeye_sim::{FlowKey, Nanos, NodeId};
use hawkeye_telemetry::{
    encode_snapshot, EpochSnapshot, EvictedFlow, FlowRecord, PortRecord, TelemetrySnapshot,
};
use hawkeye_workloads::{build_scenario, Scenario, ScenarioKind, ScenarioParams};
use proptest::prelude::*;
use std::sync::OnceLock;

const EPOCH_LEN: u64 = 1 << 20;

/// One observation: (switch, epoch step, flow count, packet count, evicted
/// count). Ring slot/id derive from the step like the real ring buffer's,
/// and `taken_at` is made unique per observation by its stream index.
type Obs = ((u32, u64), (u16, u32, u8));

fn obs_strategy() -> impl Strategy<Value = (Obs, u32)> {
    (
        ((0..4u32, 0..8u64), (0..4u16, 4..90u32, 0..2u8)),
        0..1_000_000u32, // shuffle key for the out-of-order delivery
    )
}

fn flow(i: u16) -> FlowKey {
    FlowKey::roce(NodeId(200), NodeId(201), i)
}

fn materialize(o: &Obs, idx: usize) -> TelemetrySnapshot {
    let ((sw, step), (nflows, pkt, nevicted)) = *o;
    let epoch = EpochSnapshot {
        slot: (step % 2) as usize,
        id: (step % 4) as u8,
        start: Nanos(step * EPOCH_LEN),
        len: Nanos(EPOCH_LEN),
        flows: (0..nflows)
            .map(|i| {
                (
                    flow(i),
                    FlowRecord {
                        pkt_count: pkt + u32::from(i),
                        paused_count: pkt / 6,
                        qdepth_sum: u64::from(pkt) * 3,
                        out_port: (i % 2) as u8,
                    },
                )
            })
            .collect(),
        ports: vec![(
            0,
            PortRecord {
                pkt_count: pkt,
                paused_count: pkt / 5,
                qdepth_sum: u64::from(pkt) * 9,
            },
        )],
        meter: vec![(1, 0, u64::from(pkt) * 1048)],
    };
    TelemetrySnapshot {
        switch: NodeId(sw),
        // Monotone in `step` (ring-key reuse is always collected later)
        // and unique per observation (stream index breaks re-collection
        // ties the same way regardless of delivery order).
        taken_at: Nanos((step + 1) * EPOCH_LEN + idx as u64),
        nports: 3,
        max_flows: 32,
        epochs: vec![epoch],
        evicted: (0..nevicted)
            .map(|i| EvictedFlow {
                key: flow(50 + u16::from(i)),
                record: FlowRecord {
                    pkt_count: 5,
                    paused_count: 0,
                    qdepth_sum: 11,
                    out_port: 0,
                },
                epoch_id: (step % 4) as u8,
                slot: (step % 2) as usize,
            })
            .collect(),
    }
}

fn ingest_all(snaps: &[&TelemetrySnapshot]) -> TelemetryStore {
    let mut store = TelemetryStore::new(StoreConfig::default());
    for s in snaps {
        store.append(s);
    }
    store
}

fn canonical_bytes(store: &TelemetryStore) -> Vec<Vec<u8>> {
    store.snapshots().iter().map(encode_snapshot).collect()
}

/// The reference windowed read: clone the whole ring, then drop what the
/// window does not overlap.
fn full_read_retained(store: &TelemetryStore, w: Window) -> Vec<TelemetrySnapshot> {
    let mut all = store.snapshots();
    for s in &mut all {
        s.epochs.retain(|e| w.overlaps(e.start, e.end()));
    }
    all
}

/// Real collected streams, replayed once and shared by every case: the
/// analyzer half of the windowed-read property needs a topology and a
/// victim that the synthetic observations above do not have.
const KINDS: [ScenarioKind; 2] = [ScenarioKind::MicroBurstIncast, ScenarioKind::PfcStorm];

fn replays() -> &'static Vec<(Scenario, Vec<TelemetrySnapshot>)> {
    static REPLAYS: OnceLock<Vec<(Scenario, Vec<TelemetrySnapshot>)>> = OnceLock::new();
    REPLAYS.get_or_init(|| {
        KINDS
            .iter()
            .map(|&kind| {
                let sc = build_scenario(kind, ScenarioParams::default());
                let (_, sink) = replay_streaming(&sc, &optimal_run_config(1), VecSink::default());
                assert!(!sink.snaps.is_empty(), "{kind:?} streamed no telemetry");
                (sc, sink.snaps)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Out-of-order + duplicated delivery reconciles byte-for-byte with
    /// in-order ingestion.
    #[test]
    fn reordered_and_duplicated_ingestion_is_canonical(
        stream in proptest::collection::vec(obs_strategy(), 1..32),
        dups in proptest::collection::vec(0..64usize, 0..10),
    ) {
        let snaps: Vec<TelemetrySnapshot> = stream
            .iter()
            .enumerate()
            .map(|(i, (o, _))| materialize(o, i))
            .collect();

        // In-order reference.
        let inorder = ingest_all(&snaps.iter().collect::<Vec<_>>());

        // Shuffled by the generated sort keys, with duplicates spliced in.
        let mut order: Vec<usize> = (0..snaps.len()).collect();
        order.sort_by_key(|&i| (stream[i].1, i));
        let mut delivery: Vec<&TelemetrySnapshot> =
            order.iter().map(|&i| &snaps[i]).collect();
        for (pos, d) in dups.iter().enumerate() {
            let dup = &snaps[d % snaps.len()];
            delivery.insert((pos * 7) % (delivery.len() + 1), dup);
        }
        let shuffled = ingest_all(&delivery);

        prop_assert_eq!(canonical_bytes(&inorder), canonical_bytes(&shuffled));
        prop_assert_eq!(inorder.switches(), shuffled.switches());
        prop_assert_eq!(inorder.epochs_held(), shuffled.epochs_held());
        prop_assert_eq!(inorder.min_watermark(), shuffled.min_watermark());
        for sw in inorder.switches() {
            prop_assert_eq!(inorder.watermark(sw), shuffled.watermark(sw));
        }
        // Query endpoints see the same reconciled telemetry.
        prop_assert_eq!(inorder.flow_history(&flow(0)), shuffled.flow_history(&flow(0)));
        let w = Window { from: Nanos(EPOCH_LEN), to: Nanos(4 * EPOCH_LEN) };
        let a = inorder.snapshots_in(w);
        let b = shuffled.snapshots_in(w);
        prop_assert_eq!(
            a.iter().map(encode_snapshot).collect::<Vec<_>>(),
            b.iter().map(encode_snapshot).collect::<Vec<_>>()
        );
        prop_assert_eq!(a, full_read_retained(&inorder, w));
    }

    /// The ring budget retains the newest epochs regardless of delivery
    /// order: both stores age out the same oldest epochs.
    #[test]
    fn ring_budget_eviction_is_order_independent(
        stream in proptest::collection::vec(obs_strategy(), 4..32),
        budget in 1..4usize,
    ) {
        let snaps: Vec<TelemetrySnapshot> = stream
            .iter()
            .enumerate()
            .map(|(i, (o, _))| materialize(o, i))
            .collect();
        // Compaction off: this property is about the legacy drop path.
        let cfg = StoreConfig {
            epoch_budget: budget,
            compact_budget: 0,
            compact_chunk: 0,
            ..StoreConfig::default()
        };

        let mut inorder = TelemetryStore::new(cfg);
        for s in &snaps {
            inorder.append(s);
        }
        let mut order: Vec<usize> = (0..snaps.len()).collect();
        order.sort_by_key(|&i| (stream[i].1, i));
        let mut shuffled = TelemetryStore::new(cfg);
        for &i in &order {
            shuffled.append(&snaps[i]);
        }

        prop_assert_eq!(canonical_bytes(&inorder), canonical_bytes(&shuffled));
        prop_assert!(inorder.snapshots().iter().all(|s| s.epochs.len() <= budget));
    }

    /// A store that compacts aged epochs answers `flow_history` *totals*
    /// and watermarks identically to an unbounded store that never ages
    /// anything out, across out-of-order and duplicated delivery — the
    /// compacted tier loses alignment, never counts.
    ///
    /// Each (switch, step) appears as exactly one collected version (the
    /// distinct-key generator below): a *superseding re-collection* of an
    /// already-folded epoch is the one delivery shape where the tiers
    /// diverge by design — the bucket froze the stale version and drops
    /// the newer one (counted in `epochs_superseded_after_fold`).
    #[test]
    fn compaction_preserves_totals_and_watermarks(
        stream in proptest::collection::vec(obs_strategy(), 4..32),
        dups in proptest::collection::vec(0..64usize, 0..10),
        budget in 1..4usize,
    ) {
        // One version per (switch, step): keep first occurrence.
        let mut seen = std::collections::HashSet::new();
        let deduped: Vec<(Obs, u32)> = stream
            .into_iter()
            .filter(|((k, _), _)| seen.insert(*k))
            .collect();
        let snaps: Vec<TelemetrySnapshot> = deduped
            .iter()
            .enumerate()
            .map(|(i, (o, _))| materialize_distinct_keys(o, i))
            .collect();

        let unbounded_cfg = StoreConfig {
            epoch_budget: 1 << 12,
            compact_budget: 0,
            compact_chunk: 0,
            ..StoreConfig::default()
        };
        let tiered_cfg = StoreConfig {
            epoch_budget: budget,
            compact_budget: 64, // roomy: bucket drops would lose counts
            compact_chunk: 2,
            ..StoreConfig::default()
        };

        let mut unbounded = TelemetryStore::new(unbounded_cfg);
        let mut tiered = TelemetryStore::new(tiered_cfg);
        for s in &snaps {
            unbounded.append(s);
            tiered.append(s);
        }
        // Same observations shuffled with duplicates spliced in.
        let mut order: Vec<usize> = (0..snaps.len()).collect();
        order.sort_by_key(|&i| (deduped[i].1, i));
        let mut delivery: Vec<&TelemetrySnapshot> =
            order.iter().map(|&i| &snaps[i]).collect();
        for (pos, d) in dups.iter().enumerate() {
            let dup = &snaps[d % snaps.len()];
            delivery.insert((pos * 7) % (delivery.len() + 1), dup);
        }
        let mut tiered_shuffled = TelemetryStore::new(tiered_cfg);
        for s in &delivery {
            tiered_shuffled.append(s);
        }

        for t in [&tiered, &tiered_shuffled] {
            prop_assert_eq!(t.stats().compact_epochs_dropped, 0);
            prop_assert!(t.epochs_held() <= budget * t.switches().len());
            prop_assert_eq!(unbounded.min_watermark(), t.min_watermark());
            for sw in unbounded.switches() {
                prop_assert_eq!(unbounded.watermark(sw), t.watermark(sw));
            }
            for f in 0..4u16 {
                prop_assert_eq!(flow_totals(&unbounded, f), flow_totals(t, f));
            }
        }
        // Nothing was folded twice: accepted epochs agree with the
        // unbounded store whichever tier they now live in.
        prop_assert_eq!(
            tiered.stats().epochs_appended,
            unbounded.stats().epochs_appended
        );
    }

    /// Deferred folding (the daemon's compactor-thread mode) is
    /// observation-equivalent to inline folding: staging evicted epochs
    /// and absorbing them through an external [`Compactor`] reproduces
    /// the inline store's compacted tier, flow totals and watermarks for
    /// every delivery order.
    #[test]
    fn deferred_fold_matches_inline(
        stream in proptest::collection::vec(obs_strategy(), 4..32),
        budget in 1..4usize,
    ) {
        let mut seen = std::collections::HashSet::new();
        let deduped: Vec<(Obs, u32)> = stream
            .into_iter()
            .filter(|((k, _), _)| seen.insert(*k))
            .collect();
        let snaps: Vec<TelemetrySnapshot> = deduped
            .iter()
            .enumerate()
            .map(|(i, (o, _))| materialize_distinct_keys(o, i))
            .collect();
        let mut order: Vec<usize> = (0..snaps.len()).collect();
        order.sort_by_key(|&i| (deduped[i].1, i));

        let inline_cfg = StoreConfig {
            epoch_budget: budget,
            compact_budget: 64,
            compact_chunk: 2,
            ..StoreConfig::default()
        };
        let deferred_cfg = StoreConfig {
            deferred_fold: true,
            ..inline_cfg
        };

        let mut inline = TelemetryStore::new(inline_cfg);
        let mut deferred = TelemetryStore::new(deferred_cfg);
        let mut comp = hawkeye_serve::Compactor::new(deferred_cfg);
        for &i in &order {
            inline.append(&snaps[i]);
            deferred.append(&snaps[i]);
            // Absorb in arbitrary-size batches, like the daemon's channel.
            if i % 3 == 0 {
                comp.absorb(deferred.take_pending_folds());
            }
        }
        comp.absorb(deferred.take_pending_folds());

        // Raw tier identical; compacted tier reproduced by the external
        // compactor bucket-for-bucket.
        prop_assert_eq!(canonical_bytes(&inline), canonical_bytes(&deferred));
        prop_assert_eq!(inline.compacted_epochs_held(), comp.epochs_held());
        prop_assert_eq!(inline.compacted_buckets_held(), comp.buckets_held());
        prop_assert_eq!(inline.min_watermark(), deferred.min_watermark());
        for sw in inline.switches() {
            let a: Vec<_> = inline.compacted_of(sw).into_iter().cloned().collect();
            let b: Vec<_> = comp.buckets_of(sw).into_iter().cloned().collect();
            prop_assert_eq!(a, b);
        }
        // Flow totals agree once raw history is joined with the
        // compactor's folded history.
        for f in 0..4u16 {
            let mut hist = deferred.flow_history(&flow(f));
            hist.extend(comp.flow_history(&flow(f)));
            let totals = hist.iter().fold((0u64, 0u64, 0u64, 0u64), |acc, o| {
                (
                    acc.0 + o.pkt_count,
                    acc.1 + o.paused_count,
                    acc.2 + o.qdepth_sum,
                    acc.3 + u64::from(o.epochs),
                )
            });
            prop_assert_eq!(flow_totals(&inline, f), totals);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The windowed read is the whole-ring read with the non-overlapping
    /// epochs dropped, and the analyzer cannot tell the two apart: over
    /// any append sequence of a real stream (any subset, any order,
    /// duplicates, tight and roomy rings) and any window — bounds exactly
    /// on an epoch's start or end, one off them, empty, inverted,
    /// all-covering — the report over `snapshots_in(w)` is byte-identical
    /// to the report over `snapshots()`. This is what lets `Diagnose` and
    /// `Fragments` gather the window instead of the ring.
    #[test]
    fn windowed_read_is_the_full_read_to_the_analyzer(
        case in 0..KINDS.len(),
        picks in proptest::collection::vec(0..usize::MAX, 1..96),
        budget in 2..12usize, // 8 and up: the default, roomy ring
        shape in 0..4u8,
        edges_at in (0..usize::MAX, 0..usize::MAX),
        nudges in (0..3u64, 0..3u64),
    ) {
        let (sc, snaps) = &replays()[case];
        let ((edge_a, edge_b), (nudge_a, nudge_b)) = (edges_at, nudges);
        let mut store = TelemetryStore::new(StoreConfig {
            epoch_budget: if budget < 8 { budget } else { 256 },
            ..StoreConfig::default()
        });
        for p in &picks {
            store.append(&snaps[p % snaps.len()]);
        }
        let full = store.snapshots();

        // Every instant at which some held epoch starts or ends (and 0,
        // so a store of epoch-less snapshots still has one).
        let mut edges: Vec<u64> = full
            .iter()
            .flat_map(|s| &s.epochs)
            .flat_map(|e| [e.start.0, e.end().0])
            .chain([0])
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let edge = |i: usize, nudge: u64| Nanos((edges[i % edges.len()] + nudge).saturating_sub(1));
        let w = match shape {
            0 => Window::default(),
            // Empty: from == to, on an edge.
            1 => Window { from: edge(edge_a, 1), to: edge(edge_a, 1) },
            // Exactly on two edges, in either order (inverted = empty).
            2 => Window { from: edge(edge_a, 1), to: edge(edge_b, 1) },
            // One before, on, or one past them.
            _ => {
                let (a, b) = (edge(edge_a, nudge_a), edge(edge_b, nudge_b));
                Window { from: a.min(b), to: a.max(b) }
            }
        };

        let windowed = store.snapshots_in(w);
        prop_assert_eq!(&windowed, &full_read_retained(&store, w));

        let cfg = AnalyzerConfig::for_epoch_len(optimal_run_config(1).epoch.epoch_len());
        let report = |evidence: &[TelemetrySnapshot]| {
            let (r, _, _) = analyze_victim_window(&sc.truth.victim, w, evidence, &sc.topo, &cfg);
            serde_json::to_string(&r).expect("report serializes")
        };
        prop_assert_eq!(report(&windowed), report(&full));
    }
}

/// `materialize` with ring keys distinct per step (slot = step % 8,
/// id = step), so keep-latest never merges two different steps — every
/// accepted epoch is a distinct observation both stores must count.
fn materialize_distinct_keys(o: &Obs, idx: usize) -> TelemetrySnapshot {
    let ((_, step), _) = *o;
    let mut snap = materialize(o, idx);
    snap.epochs[0].slot = (step % 8) as usize;
    snap.epochs[0].id = step as u8;
    for ev in &mut snap.evicted {
        ev.slot = (step % 8) as usize;
        ev.epoch_id = step as u8;
    }
    snap
}

/// (pkt, paused, qdepth, epochs) sums over a flow's whole history,
/// whatever mix of fidelities serves it.
fn flow_totals(store: &TelemetryStore, f: u16) -> (u64, u64, u64, u64) {
    store
        .flow_history(&flow(f))
        .iter()
        .fold((0, 0, 0, 0), |acc, o| {
            (
                acc.0 + o.pkt_count,
                acc.1 + o.paused_count,
                acc.2 + o.qdepth_sum,
                acc.3 + u64::from(o.epochs),
            )
        })
}

/// One upload of the index property: (switch, taken_at, epochs as
/// (step, length choice, content variant)).
type Upload = (u32, u64, Vec<(u64, u8, u8)>);

const UNIT: u64 = 1 << 10;

/// Step `s` starts at `s * UNIT` under ring key (slot s % 4, id s % 8), so
/// steps eight apart reuse a key at a new start. Lengths mix a quarter, one
/// and two and a half units; the variant changes the content, so a
/// re-collection of a step supersedes or is stale by its `taken_at` alone.
fn upload_snapshot((sw, taken, eps): &Upload) -> TelemetrySnapshot {
    TelemetrySnapshot {
        switch: NodeId(*sw),
        taken_at: Nanos(*taken),
        nports: 3,
        max_flows: 32,
        epochs: eps
            .iter()
            .map(|&(step, len, variant)| EpochSnapshot {
                slot: (step % 4) as usize,
                id: (step % 8) as u8,
                start: Nanos(step * UNIT),
                len: Nanos([UNIT / 4, UNIT, 5 * UNIT / 2][usize::from(len)]),
                flows: vec![(
                    flow(0),
                    FlowRecord {
                        pkt_count: 1 + u32::from(variant),
                        paused_count: 0,
                        qdepth_sum: 0,
                        out_port: 0,
                    },
                )],
                ports: vec![],
                meter: vec![],
            })
            .collect(),
        evicted: vec![],
    }
}

/// The raw ring as a plain map with the store's admission rules, evicting
/// by a linear scan for the minimum `(start, slot, id)` — no index.
#[derive(Default)]
struct RingModel {
    /// (switch, slot, id) -> (taken_at, epoch).
    live: std::collections::BTreeMap<(u32, usize, u8), (Nanos, EpochSnapshot)>,
    /// (switch, slot, id) -> start of the version last evicted under it.
    folded: std::collections::HashMap<(u32, usize, u8), Nanos>,
}

impl RingModel {
    /// Admit one snapshot, then evict down to `budget`; the evicted epochs
    /// in eviction order.
    fn apply(&mut self, s: &TelemetrySnapshot, budget: usize) -> Vec<EpochSnapshot> {
        let sw = s.switch.0;
        for e in &s.epochs {
            let key = (sw, e.slot, e.id);
            let admit = match self.live.get(&key) {
                Some((taken, _)) => s.taken_at >= *taken,
                None => self.folded.get(&key) != Some(&e.start),
            };
            if admit {
                self.live.insert(key, (s.taken_at, e.clone()));
            }
        }
        let mut evicted = Vec::new();
        while self.live.keys().filter(|k| k.0 == sw).count() > budget {
            let oldest = *self
                .live
                .iter()
                .filter(|(k, _)| k.0 == sw)
                .min_by_key(|(k, (_, e))| (e.start, k.1, k.2))
                .expect("an over-budget ring is not empty")
                .0;
            let (_, e) = self.live.remove(&oldest).expect("just found");
            self.folded.insert(oldest, e.start);
            evicted.push(e);
        }
        evicted
    }

    /// One switch's live epochs in (start, slot, id) order.
    fn ring(&self, sw: NodeId) -> Vec<EpochSnapshot> {
        let mut eps: Vec<EpochSnapshot> = self
            .live
            .iter()
            .filter(|(k, _)| k.0 == sw.0)
            .map(|(_, (_, e))| e.clone())
            .collect();
        eps.sort_by_key(|e| (e.start, e.slot, e.id));
        eps
    }
}

/// The epochs one append evicted, in order (deferred-fold outbox).
fn evictions(store: &mut TelemetryStore) -> Vec<EpochSnapshot> {
    store
        .take_pending_folds()
        .into_iter()
        .map(|p| p.epoch)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The per-switch start index is exact. Under random uploads — mixed
    /// epoch lengths, ring-key reuse at a new start, superseding and stale
    /// re-collections (equal stamps included: the later arrival wins), out
    /// of start order — after every append:
    /// - the ring equals a plain-map model's, and each evicted epoch is the
    ///   model's linear-scan minimum `(start, slot, id)`, in order;
    /// - every `snapshots_in(w)` — random, empty, inverted, all-covering —
    ///   is `snapshots()` with the epochs `w` does not overlap dropped;
    /// - a store restored from an `export` taken at a random point reads
    ///   the same and makes the same evictions from then on.
    #[test]
    fn start_index_matches_a_linear_scan_model(
        uploads in proptest::collection::vec(
            (0..2u32, 0..64u64, proptest::collection::vec((0..40u64, 0..3u8, 0..3u8), 1..4)),
            1..60,
        ),
        budget in 1..7usize,
        windows in proptest::collection::vec((0..4u8, 0..150u64, 0..150u64), 1..4),
        cut in 0..usize::MAX,
    ) {
        let cfg = StoreConfig {
            epoch_budget: budget,
            compact_budget: 64,
            compact_chunk: 2,
            deferred_fold: true,
        };
        let windows: Vec<Window> = windows
            .iter()
            .map(|&(shape, a, b)| {
                let (a, b) = (Nanos(a * UNIT / 3), Nanos(b * UNIT / 3));
                match shape {
                    0 => Window::default(),
                    1 => Window { from: a, to: a },
                    2 => Window { from: a.max(b), to: a.min(b) },
                    _ => Window { from: a.min(b), to: a.max(b) },
                }
            })
            .collect();
        let cut = cut % (uploads.len() + 1);

        let mut model = RingModel::default();
        let mut store = TelemetryStore::new(cfg);
        let mut restored: Option<TelemetryStore> = None;
        for (i, u) in uploads.iter().enumerate() {
            if i == cut {
                let mut fresh = TelemetryStore::new(cfg);
                for r in store.export() {
                    fresh.restore_switch(&r);
                }
                restored = Some(fresh);
            }
            let snap = upload_snapshot(u);
            let want = model.apply(&snap, budget);
            store.append(&snap);
            let got = evictions(&mut store);
            prop_assert_eq!(&got, &want);

            let full = store.snapshots();
            for s in &full {
                prop_assert_eq!(&s.epochs, &model.ring(s.switch));
            }
            for &w in windows.iter().chain([&Window::default()]) {
                let mut filtered = full.clone();
                for s in &mut filtered {
                    s.epochs.retain(|e| w.overlaps(e.start, e.end()));
                }
                prop_assert_eq!(store.snapshots_in(w), filtered);
            }
            if let Some(back) = restored.as_mut() {
                back.append(&snap);
                prop_assert_eq!(evictions(back), got);
                prop_assert_eq!(back.snapshots(), full);
                for &w in &windows {
                    prop_assert_eq!(back.snapshots_in(w), store.snapshots_in(w));
                }
            }
        }
    }
}
