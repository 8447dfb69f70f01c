//! The contention replay must size its memory from the number of flows and
//! the lookback cap, never from the packet counts a record merely claims:
//! those are unchecked `u32`s on the wire, so a ~500-byte snapshot can
//! claim billions. Measured with a counting global allocator, so this file
//! holds exactly one test (a second one running beside it would pollute
//! the count).

use hawkeye_core::{contribution, FlowAgg, ReplayConfig};
use hawkeye_sim::{FlowKey, NodeId};
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

#[test]
fn claimed_packet_counts_do_not_drive_allocation() {
    const CLAIMED: u64 = 5_000_000;
    let flows: Vec<(FlowKey, FlowAgg)> = (0..2)
        .map(|i| {
            let fa = FlowAgg {
                pkt_num: CLAIMED,
                paused_num: 0,
                qdepth_sum: 0,
                epochs_active: 1,
            };
            (FlowKey::roce(NodeId(0), NodeId(1), i), fa)
        })
        .collect();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let c = contribution(&flows, (1u64 << 20) as f64, 80.0, ReplayConfig::default());
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    assert_eq!(c.len(), 2, "both flows contend");
    assert!(
        peak < 1 << 20,
        "two flows claiming {CLAIMED} packets each drove {peak} bytes of allocation"
    );
}
