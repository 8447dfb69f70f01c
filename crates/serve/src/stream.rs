//! Streaming telemetry out of a running simulation.
//!
//! [`StreamingHook`] decorates the concrete [`HawkeyeHook`] (the same
//! decorator shape as [`ObservedHook`](hawkeye_sim::ObservedHook)): every
//! simulator callback is delegated unchanged — probe decisions, telemetry
//! registers and the local collector behave bit-for-bit as in a one-shot
//! run — and after each `on_probe` any collection events the hook's
//! collector just accepted are *additionally* pushed into an
//! [`EpochSink`], `batch` snapshots per frame (1 = a frame per snapshot;
//! the sequence the sink receives does not depend on it). Replays through
//! the daemon therefore produce the exact simulation trajectory of the
//! one-shot path, which is what makes served-vs-one-shot verdict parity a
//! meaningful check.

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
    /// Snapshots per sink write ([`EpochSink::push_batch`]), at least 1.
    batch: usize,
    /// Buffered snapshots awaiting a full frame.
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
        self.flush();
        match self.sink.finish() {
            Ok(ack) => self.note(ack),
            Err(_) => self.stats.errors += 1,
        }
    }

    /// Send whatever is buffered as one frame.
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        match self.sink.push_batch(&self.buf) {
            Ok(ack) => self.note(ack),
            Err(_) => self.stats.errors += self.buf.len() as u64,
        }
        self.buf.clear();
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
            self.buf.push(snap);
            if self.buf.len() >= self.batch {
                self.flush();
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

#[cfg(test)]
mod tests {
    use crate::replay::replay_streaming_batched;
    use hawkeye_client::VecSink;
    use hawkeye_eval::optimal_run_config;
    use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};

    /// The frame size is transport only: a capture in frames of one and in
    /// frames of seven (with a partial trailing frame) is the same snapshot
    /// sequence with the same delivery counters — what lets a trace be
    /// captured once and re-framed by whoever replays it.
    #[test]
    fn frame_size_does_not_change_the_capture() {
        let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
        let cfg = optimal_run_config(1);
        let (by_1, sink_1) = replay_streaming_batched(&sc, &cfg, VecSink::default(), 1);
        let (by_7, sink_7) = replay_streaming_batched(&sc, &cfg, VecSink::default(), 7);
        assert!(sink_1.snaps.len() % 7 != 0, "no partial trailing frame");
        assert_eq!(sink_7.snaps, sink_1.snaps);
        assert_eq!(by_7.stream, by_1.stream);
        assert_eq!(by_1.stream.pushed, sink_1.snaps.len() as u64);
        assert_eq!((by_1.stream.shed, by_1.stream.errors), (0, 0));
    }
}
