//! End-to-end online diagnosis: replay a scenario through a live daemon.
//!
//! The simulation runs under a [`StreamingHook`] wrapping the standard
//! [`HawkeyeHook`] — identical trajectory to the one-shot pipeline in
//! `hawkeye_eval::runner` — while every collection epoch is simultaneously
//! pushed to the daemon in `IngestBatch` frames. Afterwards the same diagnosis
//! window is analyzed twice: locally from the run's own collector through
//! [`hawkeye_eval::conclude_trial`] (the one-shot reference, the very
//! outcome `run_method` gives with `Method::Hawkeye`) and remotely via
//! `Diagnose` over the socket. On a
//! fault-free run the two verdicts must be identical in label, culprits
//! and confidence ([`ReplayOutcome::parity_with`]), because the daemon's
//! store reconstructs the exact canonical telemetry the batch aggregator
//! derives from the raw snapshot slice.

use crate::stream::{StreamStats, StreamingHook};
use hawkeye_client::EpochSink;
use hawkeye_core::{DiagnosisReport, HawkeyeHook, Window};
use hawkeye_eval::{conclude_trial, simulate, Method, RunConfig, ScoreConfig, Verdict};
use hawkeye_obs::Recorder;
use hawkeye_sim::NodeId;
use hawkeye_workloads::Scenario;

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
    /// Streaming delivery counters.
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

/// Run `scenario` with telemetry streamed into `sink`, `batch` snapshots
/// per sink write (at least one), then produce the local one-shot
/// reference diagnosis. Returns the outcome plus the sink, so a
/// [`ServeClient`](hawkeye_client::ServeClient) sink can subsequently
/// issue the served `Diagnose` for the same window. Partial trailing
/// frames and pipelined acks are settled before the outcome's stream
/// counters are read.
pub fn replay_streaming_batched<S: EpochSink>(
    scenario: &Scenario,
    cfg: &RunConfig,
    sink: S,
    batch: usize,
) -> (ReplayOutcome, S) {
    let sim = simulate(scenario, cfg, |h| {
        StreamingHook::new(HawkeyeHook::new(&scenario.topo, h), sink).with_batch(batch)
    });
    let collector = &sim.hook.inner().collector;
    let score = ScoreConfig::default();
    let obs = &mut Recorder::disabled();
    let out = conclude_trial(&sim, collector, scenario, cfg, Method::Hawkeye, &score, obs);

    let (_, sink, stream) = sim.hook.into_parts();
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
