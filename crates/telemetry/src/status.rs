//! Per-port PFC status registers (§3.3 "Port Status" and §3.6 "Enable PFC
//! awareness for P4").
//!
//! Tofino does not expose real-time port PFC state to P4, so Hawkeye passes
//! PFC frames into the pipeline and maintains its own registers: for each
//! port, whether the data class is currently paused and until when. Data
//! packets enqueued while the register says "paused" are counted as *paused
//! packets* in flow and port telemetry.

use hawkeye_sim::{Nanos, PfcEvent};

/// PFC pause state of every port of one switch.
#[derive(Debug, Clone)]
pub struct PortStatusRegisters {
    pause_until: Vec<Nanos>,
    /// Total PAUSE frames seen per port (diagnostic counter).
    pause_frames: Vec<u64>,
}

impl PortStatusRegisters {
    pub fn new(nports: usize) -> Self {
        PortStatusRegisters {
            pause_until: vec![Nanos::ZERO; nports],
            pause_frames: vec![0; nports],
        }
    }

    /// Update from a PFC frame the pipeline observed at `ev.port`.
    pub fn on_pfc(&mut self, ev: &PfcEvent) {
        let p = ev.port as usize;
        if ev.pause {
            self.pause_frames[p] += 1;
            self.pause_until[p] = ev.now + ev.pause_time;
        } else {
            self.pause_until[p] = ev.now;
        }
    }

    /// Is the data class of `port` paused at `now`?
    pub fn is_paused(&self, port: u8, now: Nanos) -> bool {
        self.pause_until[port as usize] > now
    }

    /// Remaining pause time of `port` at `now`.
    pub fn remaining(&self, port: u8, now: Nanos) -> Nanos {
        self.pause_until[port as usize].saturating_sub(now)
    }

    pub fn pause_frames(&self, port: u8) -> u64 {
        self.pause_frames[port as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_sim::NodeId;

    fn ev(port: u8, pause: bool, pause_time: u64, now: u64) -> PfcEvent {
        PfcEvent {
            switch: NodeId(0),
            port,
            class: 0,
            pause,
            pause_time: Nanos(pause_time),
            now: Nanos(now),
        }
    }

    #[test]
    fn pause_sets_deadline_resume_clears() {
        let mut r = PortStatusRegisters::new(4);
        assert!(!r.is_paused(1, Nanos(0)));
        r.on_pfc(&ev(1, true, 1000, 100));
        assert!(r.is_paused(1, Nanos(500)));
        assert_eq!(r.remaining(1, Nanos(600)), Nanos(500));
        assert!(!r.is_paused(1, Nanos(1100)), "expires at now+pause_time");
        r.on_pfc(&ev(1, true, 1000, 200));
        r.on_pfc(&ev(1, false, 0, 300));
        assert!(!r.is_paused(1, Nanos(301)));
    }

    #[test]
    fn ports_are_independent() {
        let mut r = PortStatusRegisters::new(4);
        r.on_pfc(&ev(2, true, 5000, 0));
        assert!(r.is_paused(2, Nanos(10)));
        assert!(!r.is_paused(0, Nanos(10)));
        assert!(!r.is_paused(3, Nanos(10)));
        assert_eq!(r.pause_frames(2), 1);
        assert_eq!(r.pause_frames(0), 0);
    }

    #[test]
    fn refresh_extends_pause() {
        let mut r = PortStatusRegisters::new(2);
        r.on_pfc(&ev(0, true, 1000, 0));
        r.on_pfc(&ev(0, true, 1000, 800));
        assert!(r.is_paused(0, Nanos(1500)));
        assert_eq!(r.pause_frames(0), 2);
    }
}
