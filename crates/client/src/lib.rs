//! `hawkeye-client`: the serve wire protocol and its synchronous client,
//! extracted from `hawkeye-serve` so that every frame speaker — the CLI,
//! the daemon, the cluster front-end, external collectors — shares one
//! implementation.
//!
//! - [`proto`] — the §9.3 length-prefixed frame codec: request/response
//!   enums, opcode tables, versioned `Hello` negotiation, the `Fragments`
//!   cross-shard gather op, and shard-ownership (`wrong_shard`) errors.
//! - [`client`] — [`ServeClient`]: synchronous requests plus pipelined
//!   `IngestBatch` under a credit window; every operation is one attempt.
//! - [`conn`] — [`AnyStream`], the unix-or-TCP connected byte stream both
//!   ends of the protocol read frames from.
//! - [`sink`] — [`EpochSink`], the push interface streamed collection
//!   epochs go through (the client is one; `VecSink` buffers locally).
//! - [`types`] — data rows that cross the wire as JSON: flow-history
//!   observations and verdict audit records.

pub mod client;
pub mod conn;
pub mod proto;
pub mod sink;
pub mod types;

pub use client::ServeClient;
pub use conn::AnyStream;
pub use proto::{
    decode_request, decode_response, observation_to_value, read_frame, write_frame, write_request,
    write_response, DiagnoseParams, PeerInfo, ProtoError, Request, Response, ShardRange, MAX_FRAME,
    PROTO_VERSION,
};
pub use sink::{EpochSink, SinkAck, VecSink};
pub use types::{ExplainRecord, Fidelity, FlowObservation};
