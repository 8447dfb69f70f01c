//! Streaming telemetry out of a running simulation.
//!
//! [`StreamingHook`] decorates the concrete [`HawkeyeHook`] (the same
//! decorator shape as [`ObservedHook`](hawkeye_sim::ObservedHook)): every
//! simulator callback is delegated unchanged — probe decisions, telemetry
//! registers and the local collector behave bit-for-bit as in a one-shot
//! run — and after each `on_probe` any collection events the hook's
//! collector just accepted are *additionally* pushed into an
//! [`EpochSink`]. Replays through the daemon therefore produce the exact
//! simulation trajectory of the one-shot path, which is what makes
//! served-vs-one-shot verdict parity a meaningful check.

use hawkeye_client::{EpochSink, SinkAck};
use hawkeye_core::HawkeyeHook;
use hawkeye_sim::{
    EnqueueRecord, Nanos, NodeId, PfcEvent, Probe, ProbeDecision, SwitchHook, SwitchView,
};
use hawkeye_telemetry::TelemetrySnapshot;

/// Delivery counters for one streamed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    pub pushed: u64,
    /// Sink accepted the write but did not take the snapshot (a front-end
    /// whose owning backend is down).
    pub shed: u64,
    /// Sink I/O failures (daemon unreachable); streaming degrades to a
    /// local-only run rather than aborting the simulation.
    pub errors: u64,
}

/// See module docs.
pub struct StreamingHook<S: EpochSink> {
    inner: HawkeyeHook,
    sink: S,
    /// Collector events already forwarded (`inner.collector.events` is
    /// append-only).
    forwarded: usize,
    /// Snapshots per sink write. 1 = the legacy per-snapshot `push` path
    /// (byte-identical behaviour); N > 1 buffers and sends multi-epoch
    /// batch frames via [`EpochSink::push_batch`].
    batch: usize,
    /// Buffered snapshots awaiting a full batch (batch > 1 only).
    buf: Vec<TelemetrySnapshot>,
    pub stats: StreamStats,
}

impl<S: EpochSink> StreamingHook<S> {
    pub fn new(inner: HawkeyeHook, sink: S) -> Self {
        StreamingHook {
            inner,
            sink,
            forwarded: 0,
            batch: 1,
            buf: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// Stream in batches of `n` snapshots per frame (min 1).
    pub fn with_batch(mut self, n: usize) -> Self {
        self.batch = n.max(1);
        self
    }

    pub fn inner(&self) -> &HawkeyeHook {
        &self.inner
    }

    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Unwrap into the inner hook, the sink, and the delivery counters.
    /// Flushes any buffered partial batch and settles pipelined acks
    /// first, so the counters cover everything the run produced.
    pub fn into_parts(mut self) -> (HawkeyeHook, S, StreamStats) {
        self.finish();
        (self.inner, self.sink, self.stats)
    }

    /// Flush the partial batch and settle everything in flight. Idempotent.
    pub fn finish(&mut self) {
        if !self.buf.is_empty() {
            let buf = std::mem::take(&mut self.buf);
            match self.sink.push_batch(&buf) {
                Ok(ack) => self.note(ack),
                Err(_) => self.stats.errors += buf.len() as u64,
            }
        }
        match self.sink.finish() {
            Ok(ack) => self.note(ack),
            Err(_) => self.stats.errors += 1,
        }
    }

    fn note(&mut self, ack: SinkAck) {
        self.stats.pushed += ack.accepted;
        self.stats.shed += ack.shed;
    }

    /// Forward collector events accepted since the last drain.
    fn drain(&mut self) {
        while self.forwarded < self.inner.collector.events.len() {
            let snap = self.inner.collector.events[self.forwarded].snapshot.clone();
            self.forwarded += 1;
            if self.batch <= 1 {
                match self.sink.push(&snap) {
                    Ok(true) => self.stats.pushed += 1,
                    Ok(false) => self.stats.shed += 1,
                    Err(_) => self.stats.errors += 1,
                }
            } else {
                self.buf.push(snap);
                if self.buf.len() >= self.batch {
                    let buf = std::mem::take(&mut self.buf);
                    match self.sink.push_batch(&buf) {
                        Ok(ack) => self.note(ack),
                        Err(_) => self.stats.errors += buf.len() as u64,
                    }
                }
            }
        }
    }
}

impl<S: EpochSink> SwitchHook for StreamingHook<S> {
    #[inline]
    fn on_data_enqueue(&mut self, rec: &EnqueueRecord) {
        self.inner.on_data_enqueue(rec);
    }

    #[inline]
    fn on_pfc_frame(&mut self, ev: &PfcEvent) {
        self.inner.on_pfc_frame(ev);
    }

    fn on_probe(
        &mut self,
        switch: NodeId,
        in_port: u8,
        probe: Probe,
        view: &SwitchView<'_>,
        now: Nanos,
    ) -> ProbeDecision {
        // Collections happen inside this call (CPU mirror → collector).
        let decision = self.inner.on_probe(switch, in_port, probe, view, now);
        self.drain();
        decision
    }
}
