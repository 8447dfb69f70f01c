//! Instrumenting a fabric must cost what the fabric's telemetry *holds*,
//! not what its tables could hold: 320 switches × 4 ring epochs × a
//! 4096-slot flow table is 251 MB if every slot array is allocated (and
//! written) up front, and a corpus cell on that fabric touches a small
//! share of them. Measured with a counting global allocator, so this file
//! holds exactly one test (a second one running beside it would pollute
//! the count).

use hawkeye_core::{HawkeyeConfig, HawkeyeHook};
use hawkeye_sim::{fat_tree, EVAL_BANDWIDTH, EVAL_DELAY};
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
fn instrumenting_ft16_allocates_under_8_mb() {
    let topo = fat_tree(16, EVAL_BANDWIDTH, EVAL_DELAY);
    assert_eq!(topo.switches().count(), 320);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let hook = HawkeyeHook::new(&topo, HawkeyeConfig::default());
    let peak = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    assert_eq!(hook.config().telemetry.max_flows, 4096);
    assert!(
        peak < 8 << 20,
        "HawkeyeHook::new on ft16 allocated {peak} bytes"
    );
}
