#![warn(missing_docs)]
// Serving-path crate: a panic on a request kills the daemon, so failures
// are typed errors (docs/LINTS.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]
// Lock discipline and serving-path indexing: the lock, queue and map types
// and the blocking calls `clippy.toml` bans go through `oasis_obs::sync`
// (docs/LINTS.md).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

//! # oasis-net
//!
//! The network serving subsystem: a versioned, length-prefixed binary wire
//! protocol over `std::net::TcpStream`, the [`OasisServer`] daemon that
//! speaks it over a shared [`oasis_engine::ServingEngine`], and the
//! [`Client`] that remote tools (the `oasis query --remote` CLI, the
//! loopback benchmark mode) connect with.
//!
//! The paper pitches OASIS as an *online* technique — interactive queries
//! answered best-first in seconds — and real sequence-search deployments
//! are shared network services. This crate turns the in-process serving
//! stack (admission control, sharded execution, generational hot-swap)
//! into an actual server:
//!
//! * [`frame`] defines the protocol: a handshake [`Hello`] frame carrying
//!   the protocol version and the serving index generation, search
//!   requests with the full parameter set (score rule, top-k, deadline),
//!   streaming [`RemoteHit`] responses delivered incrementally in the
//!   engine's canonical online order, and typed [`ErrorFrame`]s —
//!   [`ErrorCode::Busy`] maps `AdmissionError::QueueFull` backpressure
//!   onto the wire.
//! * [`OasisServer`] is a threaded daemon over a shared `ServingEngine`:
//!   each connection has a blocking reader thread and a writer thread,
//!   and nothing waits on a timer. Connections are **pipelined** (several
//!   requests in flight per stream, responses in request order), every
//!   search executes (there is no result cache), each search's hits go
//!   on the wire as the
//!   engine's shard merge releases them (the first one long before the
//!   search ends), a search whose deadline elapsed or whose connection
//!   was reset is cancelled on its worker, and graceful shutdown stops
//!   accepting, drains admitted work, and closes every stream with a
//!   terminal frame. The `Metrics` admin frame is the one admin
//!   snapshot: queue depth, latency tails, the serving generation,
//!   live-ingestion state and connection/pipeline counts,
//!   the same report the `--metrics-addr` scrape renders.
//! * [`Client`] connects (optionally with a connect timeout), verifies
//!   the handshake, and iterates streamed hits as they arrive.
//!
//! The full wire format is specified in `docs/PROTOCOL.md`.
//!
//! ```no_run
//! use std::sync::Arc;
//! use oasis_align::Scoring;
//! use oasis_bioseq::{Alphabet, DatabaseBuilder};
//! use oasis_engine::ShardedEngine;
//! use oasis_net::{Client, OasisServer, SearchRequest, ServedIndex, ServerConfig};
//!
//! let mut b = DatabaseBuilder::new(Alphabet::dna());
//! b.push_str("s0", "AGTACGCCTAG").unwrap();
//! let db = Arc::new(b.finish());
//! let scoring = Scoring::unit_dna();
//! let engine = ShardedEngine::build(db.clone(), scoring.clone(), 2);
//! let index = ServedIndex::new(db, Arc::new(engine));
//! let server =
//!     OasisServer::bind("127.0.0.1:0", index, scoring, ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let mut stream = client.search(SearchRequest::new("TACG").with_min_score(2)).unwrap();
//! while let Some(hit) = stream.next_hit().unwrap() {
//!     println!("{} score={}", hit.name, hit.score);
//! }
//! handle.shutdown();
//! ```

mod client;
mod conn;
pub mod frame;
mod server;

pub use client::{Client, HitStream};
pub use frame::{
    read_frame, write_frame, AppendDone, AppendRequest, ErrorCode, ErrorFrame, Frame,
    GenerationServed, Hello, MetricsReport, ReloadDone, ReloadRequest, RemoteHit, ScoreRule,
    SearchDone, SearchRequest, StageSummary, StatsReport, TraceDump, TraceEntry, TraceSpan,
    MAX_FRAME_BYTES, PROTOCOL_MAGIC, PROTOCOL_VERSION,
};
pub use server::{
    OasisServer, ServedIndex, ServerConfig, ServerError, ServerHandle, PER_GENERATION_ROWS,
};

/// Why a network operation failed.
#[derive(Debug)]
pub enum NetError {
    /// Underlying socket failure (includes unexpected end-of-stream).
    Io(std::io::Error),
    /// The peer violated the wire protocol: malformed or truncated frame,
    /// bad magic, unsupported version, or a frame that makes no sense in
    /// the current conversation state.
    Protocol(String),
    /// The server reported a typed error for this request.
    Remote(ErrorFrame),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "network i/o error: {e}"),
            NetError::Protocol(what) => write!(f, "protocol error: {what}"),
            NetError::Remote(e) => write!(f, "server error ({}): {}", e.code, e.message),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}
