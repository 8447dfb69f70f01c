//! # hawkeye-telemetry
//!
//! The PFC-aware, epoch-based telemetry layer of Hawkeye (§3.3 of the
//! paper), exactly as a P4 pipeline would maintain it:
//!
//! - [`status::PortStatusRegisters`] — real-time per-port PFC pause state,
//!   reconstructed from PFC frames passed into the pipeline (Tofino hides
//!   native PFC state from P4, §3.6).
//! - [`epoch::EpochConfig`] — epoch demarcation by slicing bits out of the
//!   48-bit enqueue timestamp, with 8-bit wrap-around IDs (Fig. 4).
//! - [`tables::FlowTable`] — per-epoch hash-indexed flow slots (5-tuple,
//!   packet count, *paused packet count*, queue-depth sum) with
//!   XOR-match/evict semantics.
//! - [`tables::PortTable`] — per-epoch per-port paused counts and queue
//!   depths, pre-aggregated in the data plane.
//! - [`tables::CausalityMeter`] — the per-port-pair traffic meter of the
//!   PFC causality structure (Fig. 3).
//! - [`switch_state::SwitchTelemetry`] — one switch's complete state plus
//!   the in-switch queries used by polling-packet forwarding.
//! - [`snapshot::TelemetrySnapshot`] — what the switch CPU uploads, with
//!   full-dump vs zero-filtered wire-size accounting for the overhead
//!   experiments.

pub mod compact;
pub mod epoch;
pub mod snapshot;
pub mod status;
pub mod switch_state;
pub mod tables;
pub mod wire;

pub use compact::{CompactedEpoch, FlowTotals, PortTotals};
pub use epoch::{EpochConfig, EPOCH_ID_BITS};
pub use snapshot::{
    EpochSnapshot, TelemetrySnapshot, EPOCH_HEADER_BYTES, FLOW_ENTRY_BYTES, METER_ENTRY_BYTES,
    PORT_ENTRY_BYTES,
};
pub use status::PortStatusRegisters;
pub use switch_state::{SwitchTelemetry, TelemetryConfig};
pub use tables::{CausalityMeter, EvictedFlow, FlowRecord, FlowTable, PortRecord, PortTable};
pub use wire::{
    decode_batch, decode_compacted, decode_snapshot, encode_batch, encode_compacted,
    encode_snapshot, CodecError, Reader, Writer, KIND_BATCH, KIND_COMPACTED, WIRE_VERSION,
};
