//! Bandwidth and PFC quanta arithmetic.

use crate::time::Nanos;

/// Link bandwidth.
///
/// Stored in bits per second; helper constructors cover the usual data-center
/// speeds. Conversion to serialization time is exact in integer nanoseconds
/// (rounded up so a transmitting port is never released early).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, serde::Serialize, serde::Deserialize,
)]
pub struct Bandwidth {
    bits_per_sec: u64,
}

impl Bandwidth {
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth {
            bits_per_sec: gbps * 1_000_000_000,
        }
    }

    pub const fn from_bps(bits_per_sec: u64) -> Self {
        Bandwidth { bits_per_sec }
    }

    pub const fn bits_per_sec(self) -> u64 {
        self.bits_per_sec
    }

    /// Time to serialize `bytes` onto the wire at this bandwidth.
    ///
    /// Rounds up to the next nanosecond: a port stays busy for at least the
    /// true serialization time, which keeps link utilization <= 100%.
    pub fn tx_time(self, bytes: u32) -> Nanos {
        debug_assert!(self.bits_per_sec > 0, "zero bandwidth");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(self.bits_per_sec as u128);
        Nanos(ns as u64)
    }

    /// Bytes transferable in `dur` at this bandwidth (rounded down).
    pub fn bytes_in(self, dur: Nanos) -> u64 {
        (self.bits_per_sec as u128 * dur.as_nanos() as u128 / 8 / 1_000_000_000) as u64
    }
}

/// One IEEE 802.1Qbb pause quantum is the time to transmit 512 bits at the
/// port's line rate. A PFC PAUSE frame carries a 16-bit quanta count per
/// priority class.
pub fn quanta_to_pause_time(quanta: u16, speed: Bandwidth) -> Nanos {
    let bits = quanta as u128 * 512;
    let ns = (bits * 1_000_000_000).div_ceil(speed.bits_per_sec as u128);
    Nanos(ns as u64)
}

/// A sending rate used by host congestion control, in bits per second.
///
/// Kept separate from [`Bandwidth`] because rates are adjusted in floating
/// point by DCQCN, while link bandwidths are exact configuration.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Rate(pub f64);

impl Rate {
    pub fn gbps(self) -> f64 {
        self.0 / 1e9
    }

    /// Inter-packet gap when pacing `bytes`-sized packets at this rate.
    pub fn pacing_delay(self, bytes: u32) -> Nanos {
        if self.0 <= 0.0 {
            return Nanos::MAX;
        }
        let ns = (bytes as f64 * 8.0 * 1e9 / self.0).ceil();
        if ns >= u64::MAX as f64 {
            Nanos::MAX
        } else {
            Nanos(ns as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_100g() {
        // 1000 bytes at 100 Gbps = 8000 bits / 100 bits-per-ns = 80 ns.
        let bw = Bandwidth::from_gbps(100);
        assert_eq!(bw.tx_time(1000), Nanos(80));
        // Rounds up.
        assert_eq!(bw.tx_time(1), Nanos(1));
    }

    #[test]
    fn tx_time_25g() {
        let bw = Bandwidth::from_gbps(25);
        assert_eq!(bw.tx_time(1000), Nanos(320));
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let bw = Bandwidth::from_gbps(100);
        let t = bw.tx_time(1500);
        assert_eq!(bw.bytes_in(t), 1500);
    }

    #[test]
    fn quanta_round_trip() {
        let bw = Bandwidth::from_gbps(100);
        // 65535 quanta at 100 Gbps: 65535*512 bits / 100 bits-per-ns.
        let t = quanta_to_pause_time(u16::MAX, bw);
        assert_eq!(t, Nanos(335_540));
    }

    #[test]
    fn zero_quanta_is_resume() {
        let bw = Bandwidth::from_gbps(100);
        assert_eq!(quanta_to_pause_time(0, bw), Nanos::ZERO);
    }

    #[test]
    fn rate_pacing() {
        let r = Rate(100e9);
        assert_eq!(r.pacing_delay(1000), Nanos(80));
        let half = Rate(50e9);
        assert_eq!(half.pacing_delay(1000), Nanos(160));
        assert_eq!(Rate(0.0).pacing_delay(1000), Nanos::MAX);
    }
}
