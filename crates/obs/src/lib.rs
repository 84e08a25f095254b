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

//! # oasis-obs
//!
//! Dependency-free observability for the OASIS serving path: the paper's
//! *online* framing is a promise about tail latency, and this crate is how
//! the rest of the workspace keeps that promise measurable without
//! distorting it.
//!
//! Three pieces, each bounded in memory and lock-free (or nearly so) on the
//! hot path:
//!
//! * [`Histogram`] — a log-bucketed, HDR-style latency histogram with
//!   shard-per-thread atomic counters. Recording is two relaxed atomic
//!   adds plus a `fetch_max`; quantiles come from a merged
//!   [`HistogramSnapshot`] and are *exact over buckets* (every sample is
//!   counted, unlike the sampled ring it replaces) with ≤ 1/32 relative
//!   bucket error. A [`Counter`] is its one-number sibling.
//! * [`QueryTrace`] / [`TraceRecord`] — per-query span tracing. Every
//!   query gets one trace, owned by its connection's writer from
//!   admission to the last byte, with one span per pipeline stage (a
//!   stage recorded per batch sums into its span).
//! * [`SlowLog`] — a bounded ring of finished [`TraceRecord`]s for
//!   queries over a configurable threshold, dumpable over the wire
//!   (`TraceDump` frame) and via `oasis admin slowlog`.
//!
//! [`PromWriter`] renders Prometheus text exposition (format 0.0.4) so the
//! server's `--metrics-addr` listener and `oasis admin metrics --prom`
//! emit byte-identical scrape bodies.

pub mod hist;
pub mod prom;
pub mod slowlog;
pub mod sync;
pub mod trace;

pub use hist::{Counter, Histogram, HistogramSnapshot};
pub use prom::PromWriter;
pub use slowlog::{SlowLog, SlowLogSnapshot};
pub use trace::{QueryTrace, StageSpan, TraceCounters, TraceRecord};
