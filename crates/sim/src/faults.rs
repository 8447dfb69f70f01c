//! Deterministic, seed-driven fault injection for the monitoring control
//! plane.
//!
//! Hawkeye's control plane is best-effort end to end: polling packets ride
//! the data plane through congested (even PFC-paused) ports, and telemetry
//! reaches the collector via switch-CPU uploads that can be dropped,
//! delayed, truncated or stale. A [`FaultPlan`] is one fault rate and a
//! seed; this module is the one definition of the fault mix that rate
//! drives ([`FaultPlan::probability`], the delay bounds and the CPU flap
//! rule below). Every decision is drawn from a dedicated [`FaultRng`]
//! stream seeded from `(plan.seed, stream id)`, so a given plan replays
//! the exact same failure sequence — each observed failure is a
//! reproducible test case.
//!
//! Two layers consume the plan:
//!
//! - the simulator applies the *probe-path* faults (drop / delay / duplicate
//!   of polling packets, per switch hop) while dispatching `Arrive` events;
//! - the collector (in `hawkeye-core`) applies the *upload-path* faults
//!   (upload loss and delay, stale or truncated snapshots, corrupted
//!   causality-meter entries);
//!
//! and both drop what reaches a switch CPU while it flaps.
//!
//! [`FaultPlan::none()`] — the default — takes **zero** behavior-affecting
//! branches: the injector is consulted only when the plan is active, so a
//! fault-free run is bit-for-bit identical to a build without this module.

use crate::time::Nanos;

/// Upper bound of a delayed polling packet's extra hold.
const PROBE_DELAY_MAX: Nanos = Nanos::from_micros(20);
/// Upper bound of a duplicate probe's trailing jitter: a sixteenth of the
/// probe delay bound, at least 64 ns, so the copy lands in the same epoch.
const PROBE_DUPLICATE_JITTER: Nanos = {
    let j = PROBE_DELAY_MAX.0 / 16;
    Nanos(if j > 64 { j } else { 64 })
};
/// Upper bound of a delayed upload's extra transit.
pub const UPLOAD_DELAY_MAX: Nanos = Nanos::from_micros(200);
/// From this rate up, every switch CPU flaps — the harshest regime short of
/// killing telemetry outright.
const CPU_FLAP_RATE: f64 = 0.4;
/// A flapping CPU is dead for the first half of each period and alive for
/// the second, modelling a wedged-then-restarted telemetry agent.
const CPU_FLAP_PERIOD: Nanos = Nanos::from_micros(200);

/// One class of injected fault. All probabilities are per event: per probe
/// hop, per upload, per meter entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A polling packet is lost on arrival at a switch (congestion loss on
    /// the probe's own path).
    ProbeDrop,
    /// A polling packet is held for `1..=PROBE_DELAY_MAX` before
    /// re-arriving — this also *reorders* probes relative to each other
    /// and to data.
    ProbeDelay,
    /// A polling packet arrival is duplicated; the copy re-arrives within
    /// `PROBE_DUPLICATE_JITTER`.
    ProbeDuplicate,
    /// A switch-CPU telemetry upload is lost entirely.
    UploadDrop,
    /// An upload is delayed by `1..=UPLOAD_DELAY_MAX`.
    UploadDelay,
    /// A delivered snapshot is stale: its newest epoch is missing (the CPU
    /// read raced the telemetry ring).
    SnapshotStale,
    /// A delivered snapshot is truncated (flow rows cut, as if the upload
    /// was cut short mid-transfer).
    SnapshotTruncate,
    /// A causality-meter record in a delivered snapshot is corrupted.
    MeterCorrupt,
}

/// The control-plane faults of one run: one scalar rate in `[0, 1]` drives
/// a mixed failure cocktail, drawn from streams seeded by `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault decision streams. Independent from
    /// `SimConfig::seed` so the same traffic can be replayed under
    /// different fault draws (and vice versa).
    pub seed: u64,
    /// The per-hop probe-drop probability; every other fault class scales
    /// with it. Zero (or less) is the fault-free plan.
    pub rate: f64,
}

impl FaultPlan {
    /// The fault-free plan. Runs under it are bit-for-bit identical to runs
    /// without fault injection.
    pub const fn none() -> FaultPlan {
        FaultPlan { seed: 0, rate: 0.0 }
    }

    /// True if no fault can ever fire under this plan.
    pub fn is_none(&self) -> bool {
        self.rate <= 0.0
    }

    /// True if any probe-path fault can fire (the simulator's fast-path
    /// gate: when false, dispatch never consults the injector).
    pub fn probe_faults_active(&self) -> bool {
        self.rate > 0.0
    }

    /// True if any upload-path fault can fire (the collector's gate).
    pub fn upload_faults_active(&self) -> bool {
        self.rate > 0.0
    }

    /// The fault mix: probe drop at the rate; probe delay, upload drop and
    /// delay and stale snapshots at half of it; duplication, truncation and
    /// meter corruption at a quarter.
    pub fn probability(&self, fault: Fault) -> f64 {
        match fault {
            Fault::ProbeDrop => self.rate,
            Fault::ProbeDelay | Fault::UploadDrop | Fault::UploadDelay | Fault::SnapshotStale => {
                self.rate / 2.0
            }
            Fault::ProbeDuplicate | Fault::SnapshotTruncate | Fault::MeterCorrupt => {
                self.rate / 4.0
            }
        }
    }

    /// Is every switch's CPU path dead at `now`? From `CPU_FLAP_RATE` (40 %)
    /// up, CPUs flap with `CPU_FLAP_PERIOD` (200 µs), dead first — purely
    /// a function of `(now, rate)`: replayable.
    pub fn cpu_down(&self, now: Nanos) -> bool {
        self.rate >= CPU_FLAP_RATE && now.0 % CPU_FLAP_PERIOD.0 < CPU_FLAP_PERIOD.0 / 2
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Counters for the faults the simulator itself injects (as opposed to
/// the plan's *rates*): probe faults and dead-CPU upload suppression.
/// Upload faults are the collector's to count, in its
/// `CollectorFaultStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub probes_dropped: u64,
    pub probes_delayed: u64,
    pub probes_duplicated: u64,
    /// Uploads suppressed because the switch's CPU path was dead.
    pub cpu_down_drops: u64,
}

impl FaultStats {
    /// Total individual faults the simulator injected.
    pub fn total_injected(&self) -> u64 {
        self.probes_dropped + self.probes_delayed + self.probes_duplicated + self.cpu_down_drops
    }
}

/// Stream identifiers: each consumer of the plan owns a disjoint stream so
/// adding a draw in one layer never perturbs another layer's sequence.
pub const STREAM_PROBE: u64 = 0x50_52_4f_42; // "PROB"
pub const STREAM_UPLOAD: u64 = 0x55_50_4c_44; // "UPLD"

/// xorshift64* generator seeded through a splitmix64 mix of
/// `(seed, stream)` — the same family the switches use for ECN marking,
/// but on an independent stream so fault draws never perturb the traffic.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    pub fn new(seed: u64, stream: u64) -> FaultRng {
        // splitmix64 finalizer over the combined seed; never zero.
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        FaultRng { state: z | 1 }
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw. `p <= 0` consumes no randomness, so the fault-free
    /// plan never perturbs a stream.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }

    /// Uniform delay in `1..=max` ns (0 if `max` is 0).
    pub fn delay(&mut self, max: Nanos) -> Nanos {
        if max.0 == 0 {
            return Nanos(0);
        }
        Nanos(1 + self.next_u64() % max.0)
    }
}

/// What the injector decided for one probe arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeFate {
    /// Deliver normally.
    Deliver,
    /// Lost at this hop.
    Drop,
    /// Re-arrives after this extra delay (a delayed probe is re-examined
    /// on re-arrival, so long delay chains decay geometrically).
    Delay(Nanos),
    /// Delivered now, plus a duplicate re-arriving after this jitter.
    Duplicate(Nanos),
}

/// Simulator-side injector: owns the probe-path decision stream and the
/// probe-path counters. One per simulation; single-threaded by construction
/// (parallelism in the eval harness is across whole trials).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    pub plan: FaultPlan,
    rng: FaultRng,
    pub stats: FaultStats,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            rng: FaultRng::new(plan.seed, STREAM_PROBE),
            stats: FaultStats::default(),
        }
    }

    /// Does dispatch need to consult [`Self::probe_arrival`] at all?
    #[inline]
    pub fn probes_active(&self) -> bool {
        self.plan.probe_faults_active()
    }

    /// Decide the fate of one polling packet arriving at a switch. Order of
    /// draws is fixed (drop, then delay, then duplicate) so each fault class
    /// has a stable stream position.
    pub fn probe_arrival(&mut self) -> ProbeFate {
        if self.rng.chance(self.plan.probability(Fault::ProbeDrop)) {
            self.stats.probes_dropped += 1;
            return ProbeFate::Drop;
        }
        if self.rng.chance(self.plan.probability(Fault::ProbeDelay)) {
            self.stats.probes_delayed += 1;
            return ProbeFate::Delay(self.rng.delay(PROBE_DELAY_MAX));
        }
        if self
            .rng
            .chance(self.plan.probability(Fault::ProbeDuplicate))
        {
            self.stats.probes_duplicated += 1;
            return ProbeFate::Duplicate(self.rng.delay(PROBE_DUPLICATE_JITTER));
        }
        ProbeFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inactive_everywhere() {
        let p = FaultPlan::none();
        assert!(p.is_none());
        assert!(!p.probe_faults_active());
        assert!(!p.upload_faults_active());
        assert!(!p.cpu_down(Nanos(123)));
        assert_eq!(FaultPlan::default(), p);
        assert!(FaultPlan { seed: 9, rate: 0.0 }.is_none());
    }

    /// The fault mix, pinned per class at both sides of the flap boundary:
    /// probe drop at the rate, delays, upload loss and stale reads at half,
    /// duplication, truncation and meter corruption at a quarter.
    #[test]
    fn fault_mix_table() {
        for rate in [0.0, 0.1, 0.39, 0.4, 0.5] {
            let plan = FaultPlan { seed: 9, rate };
            let table = [
                (Fault::ProbeDrop, rate),
                (Fault::ProbeDelay, rate / 2.0),
                (Fault::ProbeDuplicate, rate / 4.0),
                (Fault::UploadDrop, rate / 2.0),
                (Fault::UploadDelay, rate / 2.0),
                (Fault::SnapshotStale, rate / 2.0),
                (Fault::SnapshotTruncate, rate / 4.0),
                (Fault::MeterCorrupt, rate / 4.0),
            ];
            for (fault, p) in table {
                assert_eq!(plan.probability(fault), p, "{fault:?} at rate {rate}");
            }
            assert_eq!(plan.is_none(), rate == 0.0);
            // Flapping starts at 40%: dead for the first 100 µs of every
            // 200 µs period, alive for the second.
            let flaps = rate >= 0.4;
            for (ns, dead) in [
                (0, true),
                (99_999, true),
                (100_000, false),
                (199_999, false),
                (200_000, true),
            ] {
                assert_eq!(
                    plan.cpu_down(Nanos(ns)),
                    flaps && dead,
                    "rate {rate} at {ns} ns"
                );
            }
        }
        assert_eq!(PROBE_DELAY_MAX, Nanos(20_000));
        assert_eq!(PROBE_DUPLICATE_JITTER, Nanos(1250));
        assert_eq!(UPLOAD_DELAY_MAX, Nanos(200_000));
    }

    #[test]
    fn rng_streams_are_deterministic_and_disjoint() {
        let mut a = FaultRng::new(7, STREAM_PROBE);
        let mut b = FaultRng::new(7, STREAM_PROBE);
        let mut c = FaultRng::new(7, STREAM_UPLOAD);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys, "same (seed, stream) must replay");
        assert_ne!(xs, zs, "streams must be independent");
    }

    #[test]
    fn zero_probability_consumes_no_draws() {
        let mut a = FaultRng::new(3, STREAM_PROBE);
        let mut b = FaultRng::new(3, STREAM_PROBE);
        assert!(!a.chance(0.0));
        assert!(!a.chance(-1.0));
        // `a` drew nothing: both streams stay aligned.
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn injector_replays_identically() {
        let plan = FaultPlan {
            seed: 42,
            rate: 0.5,
        };
        let run = || {
            let mut inj = FaultInjector::new(plan);
            let fates: Vec<ProbeFate> = (0..256).map(|_| inj.probe_arrival()).collect();
            (fates, inj.stats)
        };
        assert_eq!(run(), run());
        let (fates, stats) = run();
        assert!(fates.contains(&ProbeFate::Drop));
        assert!(fates
            .iter()
            .any(|f| matches!(f, ProbeFate::Delay(d) if *d <= PROBE_DELAY_MAX)));
        assert!(fates
            .iter()
            .any(|f| matches!(f, ProbeFate::Duplicate(d) if *d <= PROBE_DUPLICATE_JITTER)));
        assert!(stats.probes_dropped > 0 && stats.total_injected() > 0);
    }
}
