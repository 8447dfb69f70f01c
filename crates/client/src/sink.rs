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

/// Where streamed snapshots go, one frame of N ≥ 1 at a time. A snapshot
/// the sink did not take (delivery failed but the stream should continue)
/// is counted in [`SinkAck::shed`]; `Err` means the sink is gone.
pub trait EpochSink {
    /// Push one frame. A sink may pipeline, settling acks lazily — see
    /// [`SinkAck`].
    fn push_batch(&mut self, snaps: &[TelemetrySnapshot]) -> io::Result<SinkAck>;

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
    fn push_batch(&mut self, snaps: &[TelemetrySnapshot]) -> io::Result<SinkAck> {
        self.snaps.extend_from_slice(snaps);
        Ok(SinkAck {
            accepted: snaps.len() as u64,
            shed: 0,
        })
    }
}
