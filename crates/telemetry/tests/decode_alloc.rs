//! Decoders must size their allocations from the bytes they were handed,
//! never from a count the frame merely claims: a ~30-byte frame announcing
//! 2^20 elements is rejected without reserving memory for them. Measured
//! with a counting global allocator, so this file holds exactly one test
//! (a second one running beside it would pollute the count).

use hawkeye_telemetry::wire::{
    decode_batch, decode_compacted, decode_snapshot, CodecError, KIND_BATCH, KIND_COMPACTED,
    WIRE_VERSION,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: defers every call to `System` unchanged; the counters are
// lock-free atomics, so nothing here allocates or blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The codec's per-section element ceiling (`wire::MAX_COUNT`).
const MAX_COUNT: u32 = 1 << 20;

/// Bytes allocated above the level at entry while `f` ran, at the peak.
fn peak_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

/// Version tag plus a snapshot body's fixed fields, up to (not including)
/// the epochs count.
fn snapshot_prefix(lead: &[u8]) -> Vec<u8> {
    let mut b = lead.to_vec();
    b.extend_from_slice(&7u32.to_le_bytes()); // switch
    b.extend_from_slice(&99u64.to_le_bytes()); // taken_at
    b.extend_from_slice(&8u32.to_le_bytes()); // nports
    b.extend_from_slice(&64u32.to_le_bytes()); // max_flows
    b
}

/// One epoch's fixed fields, up to (not including) the flows count.
fn epoch_prefix(b: &mut Vec<u8>) {
    b.extend_from_slice(&0u32.to_le_bytes()); // slot
    b.push(1); // id
    b.extend_from_slice(&0u64.to_le_bytes()); // start
    b.extend_from_slice(&(1u64 << 20).to_le_bytes()); // len
}

fn count(b: &mut Vec<u8>, n: u32) {
    b.extend_from_slice(&n.to_le_bytes());
}

#[test]
fn hostile_counts_do_not_drive_allocation() {
    let mut frames: Vec<(&str, Vec<u8>, bool)> = Vec::new();

    // Snapshot: every section in turn claims MAX_COUNT with its body absent.
    let mut b = snapshot_prefix(&[WIRE_VERSION]);
    count(&mut b, MAX_COUNT);
    frames.push(("snapshot/epochs", b, false));
    let mut b = snapshot_prefix(&[WIRE_VERSION]);
    count(&mut b, 1);
    epoch_prefix(&mut b);
    count(&mut b, MAX_COUNT);
    frames.push(("snapshot/flows", b, false));
    let mut b = snapshot_prefix(&[WIRE_VERSION]);
    count(&mut b, 1);
    epoch_prefix(&mut b);
    count(&mut b, 0);
    count(&mut b, MAX_COUNT);
    frames.push(("snapshot/ports", b, false));
    let mut b = snapshot_prefix(&[WIRE_VERSION]);
    count(&mut b, 1);
    epoch_prefix(&mut b);
    count(&mut b, 0);
    count(&mut b, 0);
    count(&mut b, MAX_COUNT);
    frames.push(("snapshot/meter", b, false));
    let mut b = snapshot_prefix(&[WIRE_VERSION]);
    count(&mut b, 0);
    count(&mut b, MAX_COUNT);
    frames.push(("snapshot/evicted", b, false));
    let mut b = snapshot_prefix(&[WIRE_VERSION]);
    count(&mut b, MAX_COUNT + 1);
    frames.push(("snapshot/epochs over the ceiling", b, true));

    // Batch: the outer count, and a section of the first body.
    let mut b = vec![WIRE_VERSION, KIND_BATCH];
    count(&mut b, MAX_COUNT);
    frames.push(("batch/count", b, false));
    let mut b = vec![WIRE_VERSION, KIND_BATCH];
    count(&mut b, 1);
    let mut b = snapshot_prefix(&b);
    count(&mut b, MAX_COUNT);
    frames.push(("batch/epochs", b, false));

    // Compacted bucket: from, to, epochs, then the three sections.
    let compacted_prefix = || {
        let mut b = vec![WIRE_VERSION, KIND_COMPACTED];
        b.extend_from_slice(&0u64.to_le_bytes());
        b.extend_from_slice(&(1u64 << 20).to_le_bytes());
        b.extend_from_slice(&4u32.to_le_bytes());
        b
    };
    let mut b = compacted_prefix();
    count(&mut b, MAX_COUNT);
    frames.push(("compacted/flows", b, false));
    let mut b = compacted_prefix();
    count(&mut b, 0);
    count(&mut b, MAX_COUNT);
    frames.push(("compacted/ports", b, false));
    let mut b = compacted_prefix();
    count(&mut b, 0);
    count(&mut b, 0);
    count(&mut b, MAX_COUNT);
    frames.push(("compacted/meter", b, false));

    for (name, bytes, oversized) in &frames {
        let (err, peak) = peak_during(|| match bytes[1] {
            KIND_BATCH => decode_batch(bytes).err(),
            KIND_COMPACTED => decode_compacted(bytes).err(),
            _ => decode_snapshot(bytes).err(),
        });
        let err = err.unwrap_or_else(|| panic!("{name}: hostile frame decoded"));
        match (oversized, &err) {
            (false, CodecError::Truncated { .. }) | (true, CodecError::Oversized { .. }) => {}
            _ => panic!("{name}: unexpected rejection {err:?}"),
        }
        assert!(
            peak <= 8 * bytes.len(),
            "{name}: a {}-byte frame drove {peak} bytes of allocation",
            bytes.len()
        );
    }
}
