//! Deterministic discrete-event queue.
//!
//! The queue is a **hierarchical timer wheel** (calendar queue) specialized
//! for the simulator's timestamp distribution (a plain `BinaryHeap` queue
//! is the ordering oracle in this module's tests):
//!
//! - **Near-future events** — serialization and propagation delays, pacing
//!   gaps — land in fixed-width buckets of `2^BUCKET_SHIFT` ns. The wheel
//!   spans `NUM_BUCKETS` buckets (~0.5 ms), which covers every periodic
//!   timer the simulator uses (DCQCN alpha/increase ≈ 55 µs, agent checks
//!   ≈ 100 µs, PFC refresh ≈ 200 µs), so the overflow heap is cold.
//! - **Far-future events** — initial flow starts, long injector schedules —
//!   go to an overflow `BinaryHeap` and migrate into the wheel as the
//!   cursor advances and frees buckets for later times.
//!
//! Total order is `(time, sequence)` exactly as before: events scheduled at
//! the same instant fire in insertion order, making runs bit-for-bit
//! reproducible regardless of the container internals. The earliest pending
//! event is kept popped-out in a `next` slot so `peek_time` stays O(1).
//!
//! A sequence number may be **reserved** ahead of filing
//! ([`EventQueue::reserve_seq`], [`EventQueue::schedule_reserved`]): a port
//! that starts a frame takes its `PortTxDone`'s place in the order at once
//! but files the event only if something turns up for it to do (see
//! [`PortTx`]). An event filed late with its reserved number fires exactly
//! where it would have had it been filed at reservation time, and every
//! other event keeps the key it always had — which is what keeps a run that
//! skips the no-op events bit-identical to one that fires them all.
//!
//! The queue also owns a **packet pool**: `Arrive` events carry a
//! [`PacketRef`] (a `u32` slot index) instead of an inline [`Packet`], so
//! the common `Arrive`/`PortTxDone` events stop copying packet payloads
//! through every container move; freed slots are recycled via a free list.

use crate::ids::NodeId;
use crate::packet::Packet;
use crate::time::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a packet parked in the queue's pool while its `Arrive` event
/// is in flight. Resolve with [`EventQueue::packet`] (peek) or
/// [`EventQueue::take_packet`] (consume and recycle the slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketRef(u32);

/// What happens when an event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A frame finishes propagating and arrives at `node` on local `port`.
    /// The frame itself lives in the queue's packet pool.
    Arrive {
        node: NodeId,
        port: u8,
        packet: PacketRef,
    },
    /// A switch/host output port finished serializing its current frame;
    /// try to start the next one.
    PortTxDone { node: NodeId, port: u8 },
    /// A previously-paused output port's pause timer may have expired, or a
    /// resume arrived: re-evaluate whether it can transmit.
    PortKick { node: NodeId, port: u8 },
    /// A host flow's pacing timer allows its next packet.
    FlowReady { node: NodeId, flow_idx: u32 },
    /// Periodic DCQCN alpha-update timer for a flow.
    DcqcnAlpha { node: NodeId, flow_idx: u32 },
    /// Periodic DCQCN rate-increase timer for a flow.
    DcqcnIncrease { node: NodeId, flow_idx: u32 },
    /// A switch re-evaluates whether its ingress-side PAUSE needs refreshing.
    PfcRefresh { node: NodeId, port: u8 },
    /// A faulty host injects its next gratuitous PFC PAUSE frame.
    HostPfcInject { node: NodeId },
    /// Start a flow (first packet becomes eligible).
    FlowStart { node: NodeId, flow_idx: u32 },
    /// Host detection-agent periodic check of flow RTTs.
    AgentCheck { node: NodeId },
    /// Re-poll timer for a flow whose detection probe may have been lost
    /// (attempt is 1-based; see `host::ProbeRetryConfig`).
    ProbeRetry {
        node: NodeId,
        flow_idx: u32,
        attempt: u32,
    },
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: Nanos,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest (time, seq).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Free-listed storage for packets referenced by in-flight `Arrive` events.
#[derive(Debug, Default)]
struct PacketPool {
    slots: Vec<Packet>,
    free: Vec<u32>,
}

impl PacketPool {
    fn alloc(&mut self, p: Packet) -> PacketRef {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = p;
                PacketRef(i)
            }
            None => {
                self.slots.push(p);
                PacketRef((self.slots.len() - 1) as u32)
            }
        }
    }

    fn get(&self, r: PacketRef) -> &Packet {
        &self.slots[r.0 as usize]
    }

    fn take(&mut self, r: PacketRef) -> Packet {
        self.free.push(r.0);
        self.slots[r.0 as usize]
    }
}

/// log2 of the level-1 bucket width in nanoseconds (256 ns per bucket).
const BUCKET_SHIFT: u32 = 8;
/// log2 of the buckets per wheel level (2048 each).
const LEVEL_SHIFT: u32 = 11;
/// Buckets per wheel level (must be a power of two). Level 1: 2048 ×
/// 256 ns ≈ 524 µs of horizon — wider than every periodic timer in the
/// simulator. Level 2: 2048 × 524 µs ≈ 1.07 s.
const NUM_BUCKETS: u64 = 1 << LEVEL_SHIFT;
const BUCKET_MASK: u64 = NUM_BUCKETS - 1;
/// Occupancy-bitmap words: one bit per bucket.
const OCC_WORDS: usize = (NUM_BUCKETS / 64) as usize;

/// A bucket-occupancy bitmap with a one-word summary level, shared by both
/// wheel levels: finding the next occupied bucket is two `trailing_zeros`,
/// never a word-by-word sweep.
#[derive(Debug)]
struct OccMap {
    /// One bit per bucket: set iff the bucket is non-empty.
    words: [u64; OCC_WORDS],
    /// Bit `w` set iff `words[w] != 0`. `u32` so rotation wraps at exactly
    /// `OCC_WORDS` bits.
    sum: u32,
}

impl OccMap {
    fn new() -> Self {
        OccMap {
            words: [0; OCC_WORDS],
            sum: 0,
        }
    }

    #[inline]
    fn set(&mut self, b: usize) {
        self.words[b >> 6] |= 1 << (b & 63);
        self.sum |= 1 << (b >> 6);
    }

    #[inline]
    fn clear(&mut self, b: usize) {
        self.words[b >> 6] &= !(1 << (b & 63));
        if self.words[b >> 6] == 0 {
            self.sum &= !(1 << (b >> 6));
        }
    }

    /// Buckets from index `start` (inclusive, wrapping) to the next
    /// occupied bucket, or `None` if all are empty. Callers map the wrapped
    /// index delta back to a tick: every stored event is within one
    /// revolution of the cursor, so the delta is unambiguous.
    fn next_occupied_delta(&self, start: usize) -> Option<u64> {
        let (sw, sb) = (start >> 6, start & 63);
        let first = self.words[sw] >> sb;
        if first != 0 {
            return Some(first.trailing_zeros() as u64);
        }
        // Rotate the summary so bit 0 is word `sw + 1`, pick the first
        // non-empty word at or after it (wrapping), then scan just that
        // word. If the scan wraps all the way back to word `sw`, only its
        // bits below `sb` are ahead of the start (the rest were covered by
        // `first`).
        let rot = self.sum.rotate_right((sw as u32 + 1) % OCC_WORDS as u32);
        if rot == 0 {
            return None;
        }
        let k = rot.trailing_zeros() as usize; // words past `sw`, 0-based
        let wi = (sw + 1 + k) % OCC_WORDS;
        let w = if wi == sw {
            self.words[sw] & ((1u64 << sb) - 1)
        } else {
            self.words[wi]
        };
        if w == 0 {
            return None;
        }
        Some((64 - sb) as u64 + (k * 64) as u64 + w.trailing_zeros() as u64)
    }
}

/// The event queue: two-level hierarchical timer wheel + far-future
/// overflow heap + packet pool.
///
/// Level 1 holds the rest of the cursor's current *epoch* (an aligned
/// 2048-tick span); level 2 holds one bucket per epoch for the next ~1.07 s;
/// the overflow heap holds anything beyond. An event scheduled far ahead
/// costs three O(1) bucket moves over its lifetime (level 2 → level 1 →
/// popped) instead of `O(log n)` heap sifts at both ends.
#[derive(Debug)]
pub struct EventQueue {
    /// Level 1: 256 ns buckets, indexed by `(at >> BUCKET_SHIFT) &
    /// BUCKET_MASK`. Holds only ticks of the cursor's epoch. Unsorted;
    /// ordered while draining.
    buckets: Vec<Vec<Scheduled>>,
    occ: OccMap,
    /// Level 2: one bucket per epoch (`at >> (BUCKET_SHIFT + LEVEL_SHIFT)`),
    /// holding epochs `epoch+1 ..= epoch+2048`. A bucket is re-scattered
    /// wholesale into level 1 when the cursor enters its epoch.
    l2_buckets: Vec<Vec<Scheduled>>,
    l2_occ: OccMap,
    /// Small ordering heap for the bucket currently being drained — and for
    /// the rare event scheduled *behind* the scan cursor (possible right
    /// after the cursor jumped ahead to a far-future event): such an event
    /// is earlier than everything still in the wheel, so popping `drain`
    /// first keeps the global (time, seq) order exact.
    drain: BinaryHeap<Scheduled>,
    /// Events beyond the level-2 horizon.
    overflow: BinaryHeap<Scheduled>,
    /// The earliest pending event, kept extracted so `peek_time` is O(1).
    next: Option<Scheduled>,
    /// Bucket tick (`time >> BUCKET_SHIFT`) the cursor sits on.
    cur_tick: u64,
    /// The cursor's epoch: always `cur_tick >> LEVEL_SHIFT`.
    epoch: u64,
    /// Events currently stored in level-1 `buckets` (excludes `drain`,
    /// level 2 and `next`).
    near_len: usize,
    /// Events currently stored in level-2 buckets.
    l2_len: usize,
    len: usize,
    seq: u64,
    now: Nanos,
    /// Sequence number of the last popped event — with `now`, the `(time,
    /// seq)` position the run has reached.
    cur_seq: u64,
    popped: u64,
    pool: PacketPool,
    /// Test-only: how [`PortTx`] files `PortTxDone` (the eager oracle and
    /// the fresh-seq mutant of the differential test).
    #[cfg(test)]
    pub(crate) tx_filing: TxFiling,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occ: OccMap::new(),
            l2_buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            l2_occ: OccMap::new(),
            drain: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            next: None,
            cur_tick: 0,
            epoch: 0,
            near_len: 0,
            l2_len: 0,
            len: 0,
            seq: 0,
            now: Nanos::ZERO,
            cur_seq: 0,
            popped: 0,
            pool: PacketPool::default(),
            #[cfg(test)]
            tx_filing: TxFiling::Lazy,
        }
    }
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulation time: the timestamp of the last popped event, or
    /// where [`advance_to`](Self::advance_to) moved the clock since.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Sequence number of the last popped event: together with
    /// [`now`](Self::now), the `(time, seq)` position of the handler that
    /// is running.
    #[inline]
    pub fn current_seq(&self) -> u64 {
        self.cur_seq
    }

    /// Move the clock forward to `t` without popping anything (a run that
    /// stops at a horizon ends *at* the horizon, whichever event happened
    /// to fire last). `t` must not pass the next pending event.
    pub fn advance_to(&mut self, t: Nanos) {
        debug_assert!(self.peek_time().is_none_or(|next| t <= next));
        self.now = self.now.max(t);
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.popped
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `kind` at absolute time `at`.
    ///
    /// Panics in debug builds if `at` is in the past; the simulator never
    /// rewinds time.
    #[inline]
    pub fn schedule(&mut self, at: Nanos, kind: EventKind) {
        let seq = self.reserve_seq();
        self.schedule_reserved(at, seq, kind);
    }

    /// Take the next sequence number without filing an event: the holder's
    /// place among same-instant events, as if it had scheduled right now.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// File `kind` at `at` under a sequence number taken earlier with
    /// [`reserve_seq`](Self::reserve_seq). `(at, seq)` must still lie ahead
    /// of the event being handled, and each reserved number is filed at
    /// most once.
    #[inline]
    pub fn schedule_reserved(&mut self, at: Nanos, seq: u64, kind: EventKind) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        debug_assert!(seq < self.seq, "sequence number {seq} was never reserved");
        let s = Scheduled { at, seq, kind };
        self.len += 1;
        match &self.next {
            None => self.next = Some(s),
            // `s > n` under the inverted heap order = earlier (time, seq):
            // a reserved number can precede a stashed event of the same
            // instant, so time alone does not decide.
            Some(n) if s > *n => {
                // New earliest event: swap it into the stash and file the
                // old one back into the wheel (same tick as the cursor or
                // later, so the scan never misses it).
                let old = self.next.replace(s).expect("checked");
                self.insert(old);
            }
            Some(_) => self.insert(s),
        }
    }

    /// Schedule `kind` after a delay from now.
    #[inline]
    pub fn schedule_in(&mut self, delay: Nanos, kind: EventKind) {
        self.schedule(self.now + delay, kind);
    }

    /// Park `packet` in the pool and schedule its arrival at `node`/`port`.
    pub fn schedule_arrive(&mut self, at: Nanos, node: NodeId, port: u8, packet: Packet) {
        let r = self.pool.alloc(packet);
        self.schedule(
            at,
            EventKind::Arrive {
                node,
                port,
                packet: r,
            },
        );
    }

    /// Peek at a pooled packet without consuming its slot.
    pub fn packet(&self, r: PacketRef) -> &Packet {
        self.pool.get(r)
    }

    /// Consume a pooled packet, recycling its slot through the free list.
    pub fn take_packet(&mut self, r: PacketRef) -> Packet {
        self.pool.take(r)
    }

    fn insert(&mut self, s: Scheduled) {
        let tick = s.at.0 >> BUCKET_SHIFT;
        if tick <= self.cur_tick {
            // At the cursor's own tick (a hot path: zero/short-delay
            // follow-ups) or behind it (rare: the cursor jumped ahead of
            // `now` to a sparse region). Either way the event is ordered
            // before everything in the wheel, so it goes straight into the
            // drain heap — consulted first — skipping the bucket
            // round-trip a current-tick event would otherwise pay.
            self.drain.push(s);
            return;
        }
        let tick2 = tick >> LEVEL_SHIFT;
        if tick2 == self.epoch {
            let b = (tick & BUCKET_MASK) as usize;
            self.buckets[b].push(s);
            self.occ.set(b);
            self.near_len += 1;
        } else if tick2 <= self.epoch + NUM_BUCKETS {
            // The next 2048 epochs map to distinct level-2 buckets, so the
            // wrapped index uniquely identifies the epoch.
            let b = (tick2 & BUCKET_MASK) as usize;
            self.l2_buckets[b].push(s);
            self.l2_occ.set(b);
            self.l2_len += 1;
        } else {
            self.overflow.push(s);
        }
    }

    /// Move overflow events that now fall inside the level-2 horizon into
    /// their wheel buckets. Called whenever `epoch` advances.
    fn pull_overflow(&mut self) {
        while let Some(peek) = self.overflow.peek() {
            let tick = peek.at.0 >> BUCKET_SHIFT;
            let tick2 = tick >> LEVEL_SHIFT;
            if tick2 > self.epoch + NUM_BUCKETS {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            if tick2 == self.epoch {
                let b = (tick & BUCKET_MASK) as usize;
                self.buckets[b].push(s);
                self.occ.set(b);
                self.near_len += 1;
            } else {
                let b = (tick2 & BUCKET_MASK) as usize;
                self.l2_buckets[b].push(s);
                self.l2_occ.set(b);
                self.l2_len += 1;
            }
        }
    }

    /// Enter epoch `tick2`: move the cursor there and scatter that epoch's
    /// level-2 bucket into the level-1 wheel, then top up level 2 from the
    /// overflow heap. Each far event is touched exactly once here over its
    /// lifetime.
    fn enter_epoch(&mut self, tick2: u64) {
        debug_assert!(tick2 > self.epoch);
        self.epoch = tick2;
        self.cur_tick = tick2 << LEVEL_SHIFT;
        let b2 = (tick2 & BUCKET_MASK) as usize;
        if !self.l2_buckets[b2].is_empty() {
            // Everything in this bucket belongs to the epoch being entered
            // (the wrapped index is unique across the level-2 window).
            self.l2_len -= self.l2_buckets[b2].len();
            self.l2_occ.clear(b2);
            let mut moved = std::mem::take(&mut self.l2_buckets[b2]);
            for s in moved.drain(..) {
                let b = ((s.at.0 >> BUCKET_SHIFT) & BUCKET_MASK) as usize;
                self.buckets[b].push(s);
                self.occ.set(b);
                self.near_len += 1;
            }
            // Hand the spine allocation back so re-entering a hot epoch
            // does not re-grow from zero.
            self.l2_buckets[b2] = moved;
        }
        self.pull_overflow();
    }

    /// Extract the earliest pending event from the wheel/overflow, leaving
    /// the cursor on its tick.
    fn find_next(&mut self) -> Option<Scheduled> {
        loop {
            // Merge events that landed in the current bucket since the last
            // drain (e.g. a handler scheduling a delay-0 follow-up); the
            // drain heap orders them by (at, seq).
            let b = (self.cur_tick & BUCKET_MASK) as usize;
            if !self.buckets[b].is_empty() {
                if self.drain.is_empty() && self.buckets[b].len() == 1 {
                    // Overwhelmingly common on sparse schedules: one event
                    // at this tick, nothing mid-drain — skip the heap.
                    let s = self.buckets[b].pop().expect("len checked");
                    self.occ.clear(b);
                    self.near_len -= 1;
                    return Some(s);
                }
                self.near_len -= self.buckets[b].len();
                self.drain.extend(self.buckets[b].drain(..));
                self.occ.clear(b);
            }
            if let Some(s) = self.drain.pop() {
                return Some(s);
            }
            if self.near_len > 0 {
                // Jump to the next occupied level-1 bucket. Level 1 only
                // ever holds ticks of the current epoch at or ahead of the
                // cursor, so the delta never runs past the epoch's end.
                let d = self
                    .occ
                    .next_occupied_delta(b)
                    .expect("near_len > 0 implies an occupied bucket");
                debug_assert!(d > 0, "current bucket was just drained");
                self.cur_tick += d;
                debug_assert_eq!(self.cur_tick >> LEVEL_SHIFT, self.epoch);
            } else if self.l2_len > 0 {
                // Level 1 exhausted: jump to the next occupied epoch.
                let start2 = ((self.epoch + 1) & BUCKET_MASK) as usize;
                let d2 = self
                    .l2_occ
                    .next_occupied_delta(start2)
                    .expect("l2_len > 0 implies an occupied epoch");
                self.enter_epoch(self.epoch + 1 + d2);
            } else if let Some(peek) = self.overflow.peek() {
                // Both wheel levels empty: jump the cursor straight to the
                // overflow's first epoch and pull the next horizon in.
                self.enter_epoch(peek.at.0 >> (BUCKET_SHIFT + LEVEL_SHIFT));
            } else {
                return None;
            }
        }
    }

    /// Pop the earliest event, advancing the clock to it.
    #[inline]
    pub fn pop(&mut self) -> Option<(Nanos, EventKind)> {
        let s = self.next.take()?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        self.cur_seq = s.seq;
        self.popped += 1;
        self.len -= 1;
        self.next = self.find_next();
        Some((s.at, s.kind))
    }

    /// Whether [`PortTx::start`] files every `PortTxDone` (test oracle only).
    #[inline]
    fn files_every_tx_done(&self) -> bool {
        #[cfg(test)]
        {
            self.tx_filing == TxFiling::Eager
        }
        #[cfg(not(test))]
        {
            false
        }
    }

    /// Peek at the next event time without popping.
    #[inline]
    pub fn peek_time(&self) -> Option<Nanos> {
        self.next.as_ref().map(|s| s.at)
    }
}

/// Transmit state of one output port (a switch egress or a host uplink):
/// when the frame on the wire ends, and the place its `PortTxDone` holds in
/// the `(time, seq)` order.
///
/// `PortTxDone` is **lazy**. A port that starts a frame always reserves the
/// event's sequence number, at the point in the handler where the event
/// used to be scheduled, but files it only if something is queued behind
/// the frame; a later enqueue that finds the port busy files it then, under
/// the reserved number. "Busy" is a comparison against `(end, seq)`, so it
/// flips at exactly the position the event holds whether or not it exists —
/// an event is skipped only when its handler would have found nothing to
/// send. The default value is an idle port.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortTx {
    end: Nanos,
    seq: u64,
    /// Whether the `PortTxDone` at `(end, seq)` has been filed.
    filed: bool,
}

impl PortTx {
    /// Is a frame still being serialized, as seen by the handler running at
    /// `now`? True until the `PortTxDone`'s turn in the order, not merely
    /// until its timestamp: a same-instant event ordered before it must
    /// still see the port busy.
    #[inline]
    pub fn busy(&self, now: Nanos, q: &EventQueue) -> bool {
        (now, q.current_seq()) < (self.end, self.seq)
    }

    /// A frame starts and will end at `end`: take `done`'s place in the
    /// order, and file it if `backlog` says more is waiting to be sent.
    #[inline]
    pub fn start(&mut self, end: Nanos, backlog: bool, done: EventKind, q: &mut EventQueue) {
        *self = PortTx {
            end,
            seq: q.reserve_seq(),
            filed: false,
        };
        if backlog || q.files_every_tx_done() {
            self.wake_at_end(done, q);
        }
    }

    /// Something was queued behind the frame on the wire: make sure `done`
    /// fires when it ends. Call only while [`busy`](Self::busy).
    #[inline]
    pub fn wake_at_end(&mut self, done: EventKind, q: &mut EventQueue) {
        if self.filed {
            return;
        }
        self.filed = true;
        #[cfg(test)]
        if q.tx_filing == TxFiling::LateFreshSeq {
            q.schedule(self.end, done);
            return;
        }
        q.schedule_reserved(self.end, self.seq, done);
    }
}

/// Test-only filing policy of [`PortTx`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxFiling {
    /// The shipped behaviour.
    Lazy,
    /// Every `PortTxDone` is filed when its frame starts — the behaviour
    /// before the event became lazy, kept as the differential oracle.
    Eager,
    /// A deliberately wrong variant: the late event takes a fresh sequence
    /// number. The differential test must tell it from `Eager`.
    LateFreshSeq,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Ordering oracle: a plain `BinaryHeap` over the same `(time, seq)`
    /// key. [`EventQueue`] must pop the exact same sequence.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Scheduled>,
        seq: u64,
        now: Nanos,
        popped: u64,
        cur_seq: u64,
    }

    impl HeapQueue {
        fn new() -> Self {
            Self::default()
        }

        fn now(&self) -> Nanos {
            self.now
        }

        fn processed(&self) -> u64 {
            self.popped
        }

        fn schedule(&mut self, at: Nanos, kind: EventKind) {
            let seq = self.reserve_seq();
            self.schedule_reserved(at, seq, kind);
        }

        fn reserve_seq(&mut self) -> u64 {
            self.seq += 1;
            self.seq - 1
        }

        fn schedule_reserved(&mut self, at: Nanos, seq: u64, kind: EventKind) {
            self.heap.push(Scheduled { at, seq, kind });
        }

        fn pop(&mut self) -> Option<(Nanos, EventKind)> {
            let s = self.heap.pop()?;
            self.now = s.at;
            self.cur_seq = s.seq;
            self.popped += 1;
            Some((s.at, s.kind))
        }
    }

    fn kick(n: u32) -> EventKind {
        EventKind::PortKick {
            node: NodeId(n),
            port: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(30), kick(3));
        q.schedule(Nanos(10), kick(1));
        q.schedule(Nanos(20), kick(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for n in 0..100 {
            q.schedule(Nanos(5), kick(n));
        }
        let mut seen = Vec::new();
        while let Some((_, EventKind::PortKick { node, .. })) = q.pop() {
            seen.push(node.0);
        }
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    /// The satellite bug-guard: equal-timestamp pop order equals insertion
    /// order even when the tied events straddle the drain/bucket/overflow
    /// structures of the wheel (scheduled before and after intervening
    /// pops, and beyond the wheel horizon).
    #[test]
    fn ties_survive_wheel_structures() {
        let mut q = EventQueue::new();
        let far = (NUM_BUCKETS + 7) << BUCKET_SHIFT; // beyond the horizon
        q.schedule(Nanos(far), kick(0)); // overflow
        q.schedule(Nanos(far), kick(1)); // overflow, same instant
        q.schedule(Nanos(100), kick(2)); // near
        q.schedule(Nanos(100), kick(3));
        let (t, e) = q.pop().unwrap();
        assert_eq!((t, e), (Nanos(100), kick(2)));
        // Same-instant event scheduled *after* a pop at that instant still
        // fires after the earlier-scheduled tie.
        q.schedule(Nanos(100), kick(4));
        q.schedule(Nanos(far), kick(5));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                EventKind::PortKick { node, .. } => node.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![3, 4, 0, 1, 5]);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), kick(0));
        q.schedule(Nanos(10), kick(1));
        q.schedule(Nanos(25), kick(2));
        assert_eq!(q.now(), Nanos::ZERO);
        q.pop();
        assert_eq!(q.now(), Nanos(10));
        q.pop();
        assert_eq!(q.now(), Nanos(10));
        q.pop();
        assert_eq!(q.now(), Nanos(25));
        assert!(q.pop().is_none());
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(100), kick(0));
        q.pop();
        q.schedule_in(Nanos(5), kick(1));
        assert_eq!(q.peek_time(), Some(Nanos(105)));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(Nanos(100), kick(0));
        q.pop();
        q.schedule(Nanos(50), kick(1));
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = EventQueue::new();
        let horizon = NUM_BUCKETS << BUCKET_SHIFT;
        // One event per decade across five horizons, scheduled shuffled.
        let times = [horizon * 4 + 3, 17, horizon + 1, horizon * 2, 5000, 42];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos(t), kick(i as u32));
        }
        assert_eq!(q.len(), times.len());
        let mut sorted = times;
        sorted.sort_unstable();
        let popped: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t.0).collect();
        assert_eq!(popped, sorted.to_vec());
        assert!(q.is_empty());
    }

    #[test]
    fn same_bucket_insertion_while_draining_pops_in_order() {
        let mut q = EventQueue::new();
        // Two events in one bucket; after popping the first, schedule a
        // third between the two — it must pop before the second.
        q.schedule(Nanos(10), kick(0));
        q.schedule(Nanos(40), kick(2));
        assert_eq!(q.pop().unwrap().0, Nanos(10));
        q.schedule(Nanos(20), kick(1));
        assert_eq!(q.pop().unwrap().0, Nanos(20));
        assert_eq!(q.pop().unwrap().0, Nanos(40));
    }

    #[test]
    fn packet_pool_recycles_slots() {
        use crate::ids::FlowKey;
        use crate::packet::PfcFrame;
        let mut q = EventQueue::new();
        let key = FlowKey::roce(NodeId(0), NodeId(1), 1);
        let _ = key;
        q.schedule_arrive(Nanos(10), NodeId(1), 0, Packet::Pfc(PfcFrame::pause(0)));
        let (_, ev) = q.pop().unwrap();
        let EventKind::Arrive { packet, .. } = ev else {
            panic!("expected arrive")
        };
        assert!(matches!(q.packet(packet), Packet::Pfc(f) if f.is_pause()));
        let taken = q.take_packet(packet);
        assert!(matches!(taken, Packet::Pfc(_)));
        // The freed slot is reused by the next allocation.
        q.schedule_arrive(Nanos(20), NodeId(1), 0, Packet::Pfc(PfcFrame::resume(0)));
        let (_, ev) = q.pop().unwrap();
        let EventKind::Arrive { packet: p2, .. } = ev else {
            panic!("expected arrive")
        };
        assert_eq!(p2, packet, "free list must recycle the slot");
        assert!(matches!(q.take_packet(p2), Packet::Pfc(f) if !f.is_pause()));
    }

    /// A reserved sequence number filed late fires where it would have had
    /// it been filed at reservation time: ahead of same-instant events
    /// scheduled since, whether those sit in the stash, in the drain heap at
    /// the cursor's tick, or in a bucket.
    #[test]
    fn reserved_seq_fires_in_its_reserved_place() {
        let ids = |q: &mut EventQueue| -> Vec<u32> {
            std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    EventKind::PortKick { node, .. } => node.0,
                    _ => unreachable!(),
                })
                .collect()
        };
        // Against the stash: event 1 is the stashed earliest when the
        // reserved event arrives at its instant with the older number.
        let mut q = EventQueue::new();
        let r = q.reserve_seq();
        q.schedule(Nanos(100), kick(1));
        q.schedule(Nanos(100), kick(2));
        q.schedule_reserved(Nanos(100), r, kick(0));
        assert_eq!(q.len(), 3);
        assert_eq!(ids(&mut q), vec![0, 1, 2]);

        // At the running instant: filed from inside the handler of an
        // earlier same-instant event, it still precedes the later ones.
        let mut q = EventQueue::new();
        q.schedule(Nanos(50), kick(1));
        let r = q.reserve_seq();
        q.schedule(Nanos(50), kick(3));
        q.schedule(Nanos(50), kick(4));
        assert_eq!(q.pop().unwrap().1, kick(1));
        assert_eq!((q.now(), q.current_seq()), (Nanos(50), 0));
        q.schedule(Nanos(50), kick(5));
        q.schedule_reserved(Nanos(50), r, kick(2));
        assert_eq!(ids(&mut q), vec![2, 3, 4, 5]);
        assert_eq!(q.current_seq(), 4, "the last popped event's number");

        // Behind the cursor: the stash holds a far event, so the cursor
        // sits on its tick; a reserved event between now and there wins.
        let mut q = EventQueue::new();
        let far = (NUM_BUCKETS * 3) << BUCKET_SHIFT;
        q.schedule(Nanos(10), kick(1));
        let r = q.reserve_seq();
        q.schedule(Nanos(far), kick(3));
        assert_eq!(q.pop().unwrap().1, kick(1));
        q.schedule_reserved(Nanos(700), r, kick(2));
        assert_eq!(ids(&mut q), vec![2, 3]);
    }

    /// The wheel must be indistinguishable from the heap baseline on a
    /// randomized interleaved schedule/pop workload mixing near and far
    /// timestamps (the exact (time, seq-implied) pop sequence matches) —
    /// including sequence numbers reserved at one point and filed later,
    /// at whatever the cursor, the stash and the drain heap hold by then.
    #[test]
    fn wheel_matches_heap_oracle() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut pending = 0u32;
        let mut id = 0u32;
        // Reserved, not yet filed: (at, seq, event).
        let mut reserved: Vec<(Nanos, u64, EventKind)> = Vec::new();
        let mut filed_late = 0u32;
        for _ in 0..8_000 {
            match rng.gen_range(0..8usize) {
                0..=1 if pending > 0 => {
                    let a = wheel.pop().unwrap();
                    let b = heap.pop().unwrap();
                    assert_eq!(a, b, "pop divergence after {} events", id);
                    assert_eq!(wheel.current_seq(), heap.cur_seq);
                    pending -= 1;
                }
                2 if !reserved.is_empty() => {
                    // File a reservation made a while ago, if its place in
                    // the order has not gone by (else it is dropped, as a
                    // port that went idle drops its PortTxDone).
                    let (at, seq, ev) = reserved.swap_remove(rng.gen_range(0..reserved.len()));
                    if (at, seq) > (wheel.now(), wheel.current_seq()) {
                        wheel.schedule_reserved(at, seq, ev);
                        heap.schedule_reserved(at, seq, ev);
                        pending += 1;
                        filed_late += 1;
                    }
                }
                kind => {
                    let base = wheel.now().0.max(heap.now().0);
                    let delta = match rng.gen_range(0..5usize) {
                        0 => rng.gen_range(0..64u64),        // same/near bucket
                        1 => rng.gen_range(0..5_000u64),     // near wheel
                        2 => rng.gen_range(0..600_000u64),   // around horizon
                        3 => rng.gen_range(0..5_000_000u64), // deep overflow
                        // The stash's own instant: ties with the earliest.
                        _ => wheel.peek_time().map_or(0, |t| t.0 - base),
                    };
                    let ev = kick(id);
                    id += 1;
                    if kind == 3 {
                        let seq = wheel.reserve_seq();
                        assert_eq!(seq, heap.reserve_seq());
                        reserved.push((Nanos(base + delta), seq, ev));
                    } else {
                        wheel.schedule(Nanos(base + delta), ev);
                        heap.schedule(Nanos(base + delta), ev);
                        pending += 1;
                    }
                }
            }
        }
        assert!(
            filed_late > 200,
            "only {filed_late} reservations filed late"
        );
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.processed(), heap.processed());
    }
}
