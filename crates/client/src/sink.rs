//! Where streamed collection epochs go.

use hawkeye_telemetry::TelemetrySnapshot;
use std::io;

/// Delivery outcome settled by a batched/pipelined sink operation. A
/// pipelining sink (the credit-window [`ServeClient`](crate::ServeClient))
/// may settle acknowledgements for *earlier* pushes during any call, so
/// counts are cumulative deltas, not per-call verdicts; after
/// [`EpochSink::finish`] everything pushed has been settled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkAck {
    /// Snapshots acknowledged as ingested.
    pub accepted: u64,
    /// Snapshots acknowledged as not taken (a front-end whose owning
    /// backend is down).
    pub shed: u64,
}

impl SinkAck {
    pub fn merge(&mut self, other: SinkAck) {
        self.accepted += other.accepted;
        self.shed += other.shed;
    }
}

/// Where streamed snapshots go. `push` returns `Ok(false)` when the sink
/// did not take the snapshot (delivery failed but the stream should
/// continue), `Err` when the sink is gone.
pub trait EpochSink {
    fn push(&mut self, snap: &TelemetrySnapshot) -> io::Result<bool>;

    /// Push several snapshots at once. The default delegates to per-
    /// snapshot `push`; batching sinks override it to send one multi-epoch
    /// frame (and may pipeline, settling acks lazily — see [`SinkAck`]).
    fn push_batch(&mut self, snaps: &[TelemetrySnapshot]) -> io::Result<SinkAck> {
        let mut ack = SinkAck::default();
        for s in snaps {
            if self.push(s)? {
                ack.accepted += 1;
            } else {
                ack.shed += 1;
            }
        }
        Ok(ack)
    }

    /// Settle everything still in flight (pipelined sends awaiting
    /// acknowledgement). The default is a no-op for synchronous sinks.
    fn finish(&mut self) -> io::Result<SinkAck> {
        Ok(SinkAck::default())
    }
}

/// A sink that buffers everything — unit tests and local captures.
#[derive(Debug, Default)]
pub struct VecSink {
    pub snaps: Vec<TelemetrySnapshot>,
}

impl EpochSink for VecSink {
    fn push(&mut self, snap: &TelemetrySnapshot) -> io::Result<bool> {
        self.snaps.push(snap.clone());
        Ok(true)
    }
}
