//! DCQCN congestion control (Zhu et al., SIGCOMM 2015) — the reaction-point
//! state machine run per flow by the sending NIC.
//!
//! The receiver notification point and the switch congestion point (RED/ECN
//! marking) live in `host.rs` and `switch.rs`; this module is the pure rate
//! controller so it can be unit-tested in isolation.

use crate::time::Nanos;
use crate::units::Rate;

// DCQCN tunables: the common 100 Gbps deployment, as in the NS-3 HPCC
// simulator's DCQCN configuration.

/// alpha EWMA gain `g`.
const G: f64 = 1.0 / 256.0;
/// Alpha-update timer period (no-CNP decay).
pub(crate) const ALPHA_TIMER: Nanos = Nanos::from_micros(55);
/// Rate-increase timer period (timer-based stage).
pub(crate) const INCREASE_TIMER: Nanos = Nanos::from_micros(55);
/// Bytes per byte-counter increase stage.
const BYTE_COUNTER: u64 = 10 * 1024 * 1024;
/// Additive increase step (bits/s).
const RAI: f64 = 40e6;
/// Hyper increase step (bits/s).
const RHAI: f64 = 200e6;
/// Fast-recovery iterations before additive increase.
const FAST_RECOVERY_THRESHOLD: u32 = 5;
/// Minimum sending rate (bits/s).
const MIN_RATE: f64 = 100e6;
/// Line rate cap (bits/s): the host NIC speed.
const LINE_RATE: f64 = 100e9;

/// Per-flow DCQCN reaction-point state.
#[derive(Debug, Clone)]
pub struct Dcqcn {
    /// Current sending rate Rc.
    rc: f64,
    /// Target rate Rt.
    rt: f64,
    alpha: f64,
    /// CNP seen since the last alpha timer tick.
    cnp_since_alpha_tick: bool,
    /// Successive increase iterations from the timer (T) and byte counter (B).
    timer_iter: u32,
    byte_iter: u32,
    bytes_since_stage: u64,
    /// True after the first CNP; rates stay at line rate until then
    /// (RoCEv2 NICs start at line rate, §2.2 "line-rate start").
    cut_happened: bool,
}

/// A flow starts at line rate with `alpha` = 1.
impl Default for Dcqcn {
    fn default() -> Self {
        Dcqcn {
            rc: LINE_RATE,
            rt: LINE_RATE,
            alpha: 1.0,
            cnp_since_alpha_tick: false,
            timer_iter: 0,
            byte_iter: 0,
            bytes_since_stage: 0,
            cut_happened: false,
        }
    }
}

impl Dcqcn {
    /// Current paced sending rate.
    pub fn rate(&self) -> Rate {
        Rate(self.rc)
    }

    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// A CNP arrived: cut the rate and reset the increase state machine.
    pub fn on_cnp(&mut self) {
        self.cnp_since_alpha_tick = true;
        self.cut_happened = true;
        self.rt = self.rc;
        self.rc = (self.rc * (1.0 - self.alpha / 2.0)).max(MIN_RATE);
        self.alpha = (1.0 - G) * self.alpha + G;
        self.timer_iter = 0;
        self.byte_iter = 0;
        self.bytes_since_stage = 0;
    }

    /// Alpha-update timer tick (every `ALPHA_TIMER`).
    pub fn on_alpha_timer(&mut self) {
        if !self.cnp_since_alpha_tick {
            self.alpha *= 1.0 - G;
        }
        self.cnp_since_alpha_tick = false;
    }

    /// Rate-increase timer tick (every `INCREASE_TIMER`).
    pub fn on_increase_timer(&mut self) {
        self.timer_iter += 1;
        self.increase();
    }

    /// Account transmitted bytes; may trigger byte-counter increase stages.
    pub fn on_bytes_sent(&mut self, bytes: u64) {
        if !self.cut_happened {
            return;
        }
        self.bytes_since_stage += bytes;
        while self.bytes_since_stage >= BYTE_COUNTER {
            self.bytes_since_stage -= BYTE_COUNTER;
            self.byte_iter += 1;
            self.increase();
        }
    }

    /// One increase step; the stage is chosen by max(T, B) iterations as in
    /// the DCQCN paper: fast recovery, then additive, then hyper increase.
    fn increase(&mut self) {
        if !self.cut_happened {
            return;
        }
        let iter = self.timer_iter.max(self.byte_iter);
        if iter > FAST_RECOVERY_THRESHOLD {
            let both_past = self.timer_iter > FAST_RECOVERY_THRESHOLD
                && self.byte_iter > FAST_RECOVERY_THRESHOLD;
            let step = if both_past {
                // Hyper increase once both counters pass the threshold.
                let i = self
                    .timer_iter
                    .min(self.byte_iter)
                    .saturating_sub(FAST_RECOVERY_THRESHOLD) as f64;
                i * RHAI
            } else {
                RAI
            };
            self.rt = (self.rt + step).min(LINE_RATE);
        }
        self.rc = ((self.rt + self.rc) / 2.0).min(LINE_RATE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cc() -> Dcqcn {
        Dcqcn::default()
    }

    #[test]
    fn starts_at_line_rate() {
        let d = cc();
        assert_eq!(d.rate().0, 100e9);
        assert_eq!(d.alpha(), 1.0);
    }

    #[test]
    fn cnp_halves_rate_initially() {
        let mut d = cc();
        d.on_cnp();
        // alpha was 1.0 -> cut by alpha/2 = 50%.
        assert!((d.rate().0 - 50e9).abs() < 1e6);
        // alpha decays toward CNP-present steady state.
        assert!(d.alpha() <= 1.0);
    }

    #[test]
    fn repeated_cnps_approach_min_rate() {
        let mut d = cc();
        for _ in 0..2000 {
            d.on_cnp();
        }
        assert_eq!(d.rate().0, 100e6); // min_rate floor
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut d = cc();
        d.on_cnp();
        let a0 = d.alpha();
        for _ in 0..100 {
            d.on_alpha_timer();
        }
        assert!(d.alpha() < a0 * 0.8);
    }

    #[test]
    fn fast_recovery_converges_to_target() {
        let mut d = cc();
        d.on_cnp(); // rc=50G, rt=100G
        for _ in 0..5 {
            d.on_increase_timer(); // fast recovery: rc -> (rc+rt)/2
        }
        // After 5 halvings toward target: 100 - 50/2^5 = 98.44 G
        assert!(d.rate().0 > 98e9 && d.rate().0 < 100e9);
    }

    #[test]
    fn additive_then_hyper_increase_regains_line_rate() {
        let mut d = cc();
        d.on_cnp();
        for _ in 0..200 {
            d.on_increase_timer();
            d.on_bytes_sent(20 * 1024 * 1024);
        }
        assert!((d.rate().0 - 100e9).abs() < 1e9, "rate {}", d.rate().0);
    }

    #[test]
    fn no_increase_before_first_cut() {
        let mut d = cc();
        d.on_increase_timer();
        d.on_bytes_sent(100 * 1024 * 1024);
        assert_eq!(d.rate().0, 100e9);
    }

    #[test]
    fn rate_never_exceeds_line_rate_nor_drops_below_min() {
        let mut d = cc();
        for i in 0..10_000u32 {
            match i % 7 {
                0 => d.on_cnp(),
                1 | 2 => d.on_increase_timer(),
                3 => d.on_alpha_timer(),
                _ => d.on_bytes_sent(1_000_000),
            }
            let r = d.rate().0;
            assert!(
                (100e6 - 1.0..=100e9 + 1.0).contains(&r),
                "rate {r} out of bounds"
            );
        }
    }
}
