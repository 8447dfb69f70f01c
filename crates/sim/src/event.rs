//! Deterministic discrete-event queue.
//!
//! The queue is one `BinaryHeap` over the key `(time, sequence)`. Events
//! scheduled at the same instant fire in the order their sequence numbers
//! were drawn, so a run is bit-for-bit reproducible; any container that
//! pops in that exact order yields the same run, and the plain heap is the
//! simplest one (DESIGN §7.1 has the numbers).
//!
//! [`EventQueue::pop`] leaves the event it returns at the heap's root, the
//! **held root**: nearly every handler files an event, and its first filing
//! overwrites the root and sifts it down once, where a pop and a push would
//! each walk the heap. Whatever a handler files lies ahead of the event
//! being handled, so the heap ends up holding the same events either way
//! and, keys being unique, pops them in the same order. A handler that
//! files nothing leaves the root to be removed by the next
//! [`pop`](EventQueue::pop), [`peek_time`](EventQueue::peek_time) or
//! [`advance_to`](EventQueue::advance_to).
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
//! through every heap sift; freed slots are recycled via a free list.

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
    /// (attempt is 1-based; see the re-poll ladder in `host`).
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
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest (time, seq).
        // The pair is compared as one u128 — the same order — because a
        // single wide compare lets the heap's sift pick a child without a
        // branch (~6 % off the event loop on ft8, against two u64 compares).
        let key = |s: &Self| (u128::from(s.at.0) << 64) | u128::from(s.seq);
        key(other).cmp(&key(self))
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

/// The event queue: a binary heap of pending events + the packet pool.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    /// The heap's root is the event last popped, still in place for the
    /// handler's first filing to overwrite.
    held: bool,
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
        let next = self.peek_time();
        debug_assert!(next.is_none_or(|next| t <= next));
        self.now = self.now.max(t);
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.popped
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
        if self.held {
            debug_assert!((at, seq) > (self.now, self.cur_seq));
            self.held = false;
            *self.heap.peek_mut().expect("a held root") = s;
        } else {
            self.heap.push(s);
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

    /// Pop the earliest event, advancing the clock to it. The event stays
    /// at the heap's root until the handler files one or the queue is next
    /// read (see the module doc).
    #[inline]
    pub fn pop(&mut self) -> Option<(Nanos, EventKind)> {
        self.settle();
        let s = *self.heap.peek()?;
        debug_assert!(s.at >= self.now);
        self.held = true;
        self.now = s.at;
        self.cur_seq = s.seq;
        self.popped += 1;
        Some((s.at, s.kind))
    }

    /// Remove a held root that no filing overwrote.
    #[inline]
    fn settle(&mut self) {
        if self.held {
            self.held = false;
            self.heap.pop();
        }
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

    /// Peek at the next event time without popping (removing a held root
    /// first, hence `&mut`).
    #[inline]
    pub fn peek_time(&mut self) -> Option<Nanos> {
        self.settle();
        self.heap.peek().map(|s| s.at)
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
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum TxFiling {
    /// The shipped behaviour.
    #[default]
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
    fn packet_pool_recycles_slots() {
        use crate::packet::PfcFrame;
        let mut q = EventQueue::new();
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
    /// scheduled since, whether they were filed before it or after, and
    /// whether or not their instant is already running.
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
        // Filed after two same-instant events that took later numbers: it
        // still fires first.
        let mut q = EventQueue::new();
        let r = q.reserve_seq();
        q.schedule(Nanos(100), kick(1));
        q.schedule(Nanos(100), kick(2));
        q.schedule_reserved(Nanos(100), r, kick(0));
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

        // Earlier than every pending event: a far event took a later
        // number; the reserved event between now and there fires first.
        let mut q = EventQueue::new();
        q.schedule(Nanos(10), kick(1));
        let r = q.reserve_seq();
        q.schedule(Nanos(1_000_000), kick(3));
        assert_eq!(q.pop().unwrap().1, kick(1));
        q.schedule_reserved(Nanos(700), r, kick(2));
        assert_eq!(ids(&mut q), vec![2, 3]);
    }

    /// A randomized interleaving of schedule / reserve / file-late / pop /
    /// advance against a linear-scan oracle that shares none of the queue's
    /// code: every pop must be the minimum `(at, seq)` among the pending
    /// events, with the oracle numbering events itself. Reservations are
    /// filed a while after they were taken, mixed with same-instant ties and
    /// with near and far timestamps. The queue is peeked on a quarter of the
    /// steps only, and a "handler" step pops and then files 0–3 events
    /// before anything reads the queue, so filings land on a held root as
    /// well as on a settled heap.
    #[test]
    fn pops_match_linear_scan_oracle() {
        /// The oracle: pending `(at, seq, event)` in no particular order,
        /// reservations not yet filed, and the next number to draw.
        #[derive(Default)]
        struct Oracle {
            pending: Vec<(Nanos, u64, EventKind)>,
            reserved: Vec<(Nanos, u64, EventKind)>,
            next_seq: u64,
            filed: u64,
            filed_late: u32,
            /// Filings that overwrote a held root: (fresh, late).
            on_hold: (u32, u32),
        }
        impl Oracle {
            fn earliest(&self) -> Option<Nanos> {
                self.pending.iter().map(|p| p.0).min()
            }

            /// Pop the queue and the oracle; false once both are empty.
            fn pop(&mut self, q: &mut EventQueue) -> bool {
                let p = &self.pending;
                let min = (0..p.len()).min_by_key(|&i| (p[i].0, p[i].1));
                let want = min.map(|i| self.pending.swap_remove(i));
                assert_eq!(q.pop(), want.map(|(at, _, ev)| (at, ev)));
                if let Some((at, seq, _)) = want {
                    assert_eq!((q.now(), q.current_seq()), (at, seq));
                }
                want.is_some()
            }

            /// Schedule a fresh event at a random time ahead of now, or
            /// only reserve its number.
            fn fresh(&mut self, q: &mut EventQueue, rng: &mut StdRng, reserve: bool) {
                let base = q.now().0;
                let delta = match rng.gen_range(0..5usize) {
                    0 => rng.gen_range(0..64u64),
                    1 => rng.gen_range(0..5_000u64),
                    2 => rng.gen_range(0..600_000u64),
                    3 => rng.gen_range(0..5_000_000u64),
                    // Ties with the earliest pending event.
                    _ => self.earliest().map_or(0, |t| t.0 - base),
                };
                let at = Nanos(base + delta);
                let seq = self.next_seq;
                self.next_seq += 1;
                let ev = kick(seq as u32);
                if reserve {
                    assert_eq!(q.reserve_seq(), seq);
                    self.reserved.push((at, seq, ev));
                } else {
                    self.on_hold.0 += u32::from(q.held);
                    q.schedule(at, ev);
                    self.pending.push((at, seq, ev));
                    self.filed += 1;
                }
            }

            /// File a reservation made a while ago, if its place in the
            /// order has not gone by (else it is dropped, as a port that
            /// went idle drops its PortTxDone).
            fn file_late(&mut self, q: &mut EventQueue, rng: &mut StdRng) {
                if self.reserved.is_empty() {
                    return;
                }
                let i = rng.gen_range(0..self.reserved.len());
                let (at, seq, ev) = self.reserved.swap_remove(i);
                if (at, seq) > (q.now(), q.current_seq()) {
                    self.on_hold.1 += u32::from(q.held);
                    q.schedule_reserved(at, seq, ev);
                    self.pending.push((at, seq, ev));
                    self.filed += 1;
                    self.filed_late += 1;
                }
            }
        }

        let mut rng = StdRng::seed_from_u64(42);
        let mut q = EventQueue::new();
        let mut o = Oracle::default();
        let mut advanced = 0u32;
        for _ in 0..8_000 {
            if rng.gen_bool(0.25) {
                assert_eq!(q.peek_time(), o.earliest());
            }
            match rng.gen_range(0..10usize) {
                0..=1 if !o.pending.is_empty() => {
                    o.pop(&mut q);
                }
                // A handler: pop, then file 0-3 events, fresh and late.
                2..=3 if !o.pending.is_empty() => {
                    o.pop(&mut q);
                    for _ in 0..rng.gen_range(0..4u32) {
                        if rng.gen_bool(0.3) {
                            o.file_late(&mut q, &mut rng);
                        } else {
                            o.fresh(&mut q, &mut rng, false);
                        }
                    }
                }
                // A run that stops at a horizon: pop, then move the clock
                // to somewhere short of the next pending event.
                4 if !o.pending.is_empty() => {
                    o.pop(&mut q);
                    let now = q.now();
                    let t = o.earliest().map_or(now + Nanos(1_000), |next| {
                        Nanos(rng.gen_range(now.0..next.0 + 1))
                    });
                    q.advance_to(t);
                    assert_eq!(q.now(), t);
                    advanced += 1;
                }
                5 => o.file_late(&mut q, &mut rng),
                kind => o.fresh(&mut q, &mut rng, kind == 6),
            }
        }
        assert!(
            o.filed_late > 200,
            "only {} reservations filed late",
            o.filed_late
        );
        let (fresh, late) = o.on_hold;
        assert!(
            fresh > 1_000 && late > 100 && advanced > 500,
            "held-root filings {fresh} fresh / {late} late, {advanced} advances"
        );
        while o.pop(&mut q) {}
        assert_eq!(q.processed(), o.filed);
    }
}
