//! End-to-end online diagnosis: replay a scenario through a live daemon.
//!
//! A replay is capture, then send. The simulation runs the standard
//! [`HawkeyeHook`] through [`hawkeye_eval::simulate`] — the trial
//! `run_method` runs with `Method::Hawkeye` — and its collector keeps every
//! accepted snapshot in arrival order. The one-shot reference comes from
//! that collector through [`hawkeye_eval::conclude_trial`]; then the
//! collector's log goes to the sink in `IngestBatch` frames of `batch`
//! snapshots, the order the switches uploaded it. A
//! [`ServeClient`](hawkeye_client::ServeClient) sink can afterwards ask the
//! daemon to `Diagnose` the same window. On a fault-free run the two
//! verdicts must be identical in label, culprits and confidence
//! ([`ReplayOutcome::parity_with`]), because the daemon's store
//! reconstructs the exact canonical telemetry the batch aggregator derives
//! from the raw snapshot slice.

use hawkeye_client::{EpochSink, SinkAck};
use hawkeye_core::{DiagnosisReport, HawkeyeHook, Window};
use hawkeye_eval::{conclude_trial, simulate, Method, RunConfig, ScoreConfig, Verdict};
use hawkeye_obs::Recorder;
use hawkeye_sim::NodeId;
use hawkeye_workloads::Scenario;

/// Delivery counters for one replayed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    pub pushed: u64,
    /// Sink accepted the write but did not take the snapshot (a front-end
    /// whose owning backend is down).
    pub shed: u64,
    /// Sink I/O failures (daemon unreachable): a failed frame counts its
    /// snapshots, a failed settle counts one. The run's local outcome
    /// stands either way.
    pub errors: u64,
}

impl StreamStats {
    fn note(&mut self, ack: SinkAck) {
        self.pushed += ack.accepted;
        self.shed += ack.shed;
    }
}

/// Everything a replayed run produced.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Local reference diagnosis from the run's own collector.
    pub oneshot: Option<DiagnosisReport>,
    /// The verdict judged against ground truth (from the one-shot report).
    pub verdict: Option<Verdict>,
    /// The diagnosis window, when a detection produced one.
    pub window: Option<Window>,
    /// Switches that failed collection inside the window (fault runs).
    pub missing: Vec<NodeId>,
    /// Delivery counters.
    pub stream: StreamStats,
}

impl ReplayOutcome {
    /// Whether a served report matches the one-shot reference on the
    /// fields the acceptance criteria name: anomaly label, root causes,
    /// and confidence.
    pub fn parity_with(&self, served: &DiagnosisReport) -> bool {
        let Some(one) = &self.oneshot else {
            return false;
        };
        one.anomaly == served.anomaly
            && one.root_causes == served.root_causes
            && one.confidence == served.confidence
    }
}

/// [`replay_streaming_batched`] in frames of one snapshot.
pub fn replay_streaming<S: EpochSink>(
    scenario: &Scenario,
    cfg: &RunConfig,
    sink: S,
) -> (ReplayOutcome, S) {
    replay_streaming_batched(scenario, cfg, sink, 1)
}

/// Run `scenario`, produce the local one-shot reference diagnosis, then
/// send the run's collected telemetry into `sink`, `batch` snapshots per
/// sink write (at least one). Returns the outcome plus the sink, so a
/// [`ServeClient`](hawkeye_client::ServeClient) sink can subsequently
/// issue the served `Diagnose` for the same window. The partial trailing
/// frame and pipelined acks are settled before the outcome's delivery
/// counters are read.
pub fn replay_streaming_batched<S: EpochSink>(
    scenario: &Scenario,
    cfg: &RunConfig,
    mut sink: S,
    batch: usize,
) -> (ReplayOutcome, S) {
    let mut sim = simulate(scenario, cfg, |h| HawkeyeHook::new(&scenario.topo, h));
    let score = ScoreConfig::default();
    let obs = &mut Recorder::disabled();
    let collector = &sim.hook.collector;
    let out = conclude_trial(&sim, collector, scenario, cfg, Method::Hawkeye, &score, obs);

    // The simulator is freed before any frame is built: frames cloned out
    // of a live one raised the daemon benchmark's peak RSS further
    // (`fleet-diagnose` medians on 2 vCPUs: 116 MB before the replay
    // sent after the run, 135 MB cloned, 128 MB this way).
    let events = std::mem::take(&mut sim.hook.collector.events);
    drop(sim);
    let mut stream = StreamStats::default();
    let mut snaps = events.into_iter().map(|e| e.snapshot).peekable();
    while snaps.peek().is_some() {
        let frame: Vec<_> = snaps.by_ref().take(batch.max(1)).collect();
        match sink.push_batch(&frame) {
            Ok(ack) => stream.note(ack),
            Err(_) => stream.errors += frame.len() as u64,
        }
    }
    match sink.finish() {
        Ok(ack) => stream.note(ack),
        Err(_) => stream.errors += 1,
    }
    (
        ReplayOutcome {
            oneshot: out.report,
            verdict: out.verdict,
            window: out.window,
            missing: out.missing,
            stream,
        },
        sink,
    )
}

#[cfg(test)]
mod tests {
    use super::replay_streaming_batched;
    use hawkeye_client::VecSink;
    use hawkeye_eval::RunConfig;
    use hawkeye_workloads::{build_scenario, ScenarioKind, ScenarioParams};

    /// The frame size is transport only: a capture in frames of one and in
    /// frames of seven (with a partial trailing frame) is the same snapshot
    /// sequence with the same delivery counters — what lets a trace be
    /// captured once and re-framed by whoever replays it.
    #[test]
    fn frame_size_does_not_change_the_capture() {
        let sc = build_scenario(ScenarioKind::MicroBurstIncast, ScenarioParams::default());
        let cfg = RunConfig::default();
        let (by_1, sink_1) = replay_streaming_batched(&sc, &cfg, VecSink::default(), 1);
        let (by_7, sink_7) = replay_streaming_batched(&sc, &cfg, VecSink::default(), 7);
        assert!(sink_1.snaps.len() % 7 != 0, "no partial trailing frame");
        assert_eq!(sink_7.snaps, sink_1.snaps);
        assert_eq!(by_7.stream, by_1.stream);
        assert_eq!(by_1.stream.pushed, sink_1.snaps.len() as u64);
        assert_eq!((by_1.stream.shed, by_1.stream.errors), (0, 0));
    }
}
