//! The one fixed hasher for maps whose keys come from a bounded id space.
//!
//! SipHash's collision resistance only pays when an adversary picks the
//! keys. Two kinds of key are bounded before any map sees them: a switch's
//! telemetry ring keys `(slot, id)` (the store's raw-ring maps), and the
//! switch and port ids of aggregated evidence, which every ingest gate
//! checks against the fabric (`hawkeye_client::proto::check_evidence`).
//! Such keys carry a few bits of honest entropy, so a multiply-mix hash
//! distributes them as well as SipHash does at a fraction of the cost on
//! the append and aggregation hot paths. Keys an uploader chooses freely —
//! flow five-tuples — stay on the randomly seeded std hasher.

use std::hash::{BuildHasherDefault, Hasher};

/// Deterministic splitmix64-finalizer hasher over an accumulating state.
#[derive(Default)]
pub struct BoundedKeyHasher(u64);

impl BoundedKeyHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        let mut x = self.0 ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        self.0 = x;
    }
}

impl Hasher for BoundedKeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// `BuildHasher` for [`BoundedKeyHasher`]: `HashMap<K, V, BoundedKeys>`.
pub type BoundedKeys = BuildHasherDefault<BoundedKeyHasher>;
