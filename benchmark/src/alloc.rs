//! A counting global allocator for the benchmark binary. Counting is off
//! except in traced runs, where untraced timing is not at stake: the
//! end-to-end runs pay one relaxed load per allocation and nothing else.
//! When it is on, each thread counts into a cache line of its own, so the
//! daemons' threads do not serialise on a shared counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

pub struct Counting;

const SLOTS: usize = 64;

#[repr(align(64))]
struct Slot {
    count: AtomicU64,
    bytes: AtomicU64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static COUNTERS: [Slot; SLOTS] = [const {
    Slot {
        count: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SLOTS];

thread_local! {
    // Const-initialised and without a destructor: touching it never
    // allocates and is valid for the thread's whole life.
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn note(bytes: usize) {
    let slot = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    COUNTERS[slot].count.fetch_add(1, Ordering::Relaxed);
    COUNTERS[slot]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// statistics (Relaxed) and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            note(layout.size());
        }
        // SAFETY: same layout, forwarded to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            note(new_size);
        }
        // SAFETY: `ptr` came from `System` with `layout`; forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Run `f` with counting off, whatever it was: for work that is the
/// harness's own (the reference request allocates ten thousand times).
pub fn uncounted<T>(f: impl FnOnce() -> T) -> T {
    let was = ENABLED.swap(false, Ordering::Relaxed);
    let out = f();
    ENABLED.store(was, Ordering::Relaxed);
    out
}

/// (allocations, bytes requested) by every thread of the process while
/// counting was on.
pub fn totals() -> (u64, u64) {
    COUNTERS.iter().fold((0, 0), |(c, b), s| {
        (
            c + s.count.load(Ordering::Relaxed),
            b + s.bytes.load(Ordering::Relaxed),
        )
    })
}
