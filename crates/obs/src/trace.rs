//! Per-query span tracing.
//!
//! A [`QueryTrace`] is born when a query is admitted and travels *by
//! value* with it through the serving pipeline — admission queue, worker
//! execution, hit resolution, frame flush — each layer appending a
//! [`StageSpan`] (a named interval, offsets relative to the trace's birth)
//! and folding its counters into [`TraceCounters`]. When the response hits
//! the socket the trace is [finished](QueryTrace::finish) into a plain
//! [`TraceRecord`], which the server keeps in the [slow-query
//! log](crate::SlowLog) if the query exceeded the threshold.
//!
//! Cost discipline: a [disabled](QueryTrace::disabled) trace holds an
//! empty `Vec` (no allocation) and every recording method checks one bool
//! and returns — the per-query overhead with tracing off is a handful of
//! branches.

use std::time::{Duration, Instant};

/// Canonical stage names, in pipeline order. Layers attach spans by these
/// names so dashboards and tests can rely on one taxonomy (documented in
/// `docs/OBSERVABILITY.md`).
pub mod stage {
    /// Admission queue: submit until a worker picks the query up.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Worker execution: suffix traversal + expand kernel + merge.
    pub const EXECUTE: &str = "execute";
    /// Event-loop resolution: a batch of streamed hits taken from the
    /// ticket, named and framed (summed over a query's batches).
    pub const RESOLVE: &str = "resolve";
    /// Frame flush: a batch's encode + socket write attempt (summed over a
    /// query's batches).
    pub const FRAME_FLUSH: &str = "frame_flush";
    /// Time to first hit: admission to the first `Hit` frame handed to
    /// the socket. It overlaps the stages above — the online property
    /// means the first hit leaves while the search still executes.
    pub const FIRST_HIT: &str = "first_hit";
}

/// One named interval inside a query's lifetime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name (one of the [`stage`] constants).
    pub stage: String,
    /// Microseconds from trace birth to stage start.
    pub start_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
}

/// Work and outcome counters folded into a trace as the query moves
/// through the layers that know them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Suffix-tree nodes expanded by the search driver.
    pub nodes_expanded: u64,
    /// Nodes pushed onto the best-first frontier.
    pub nodes_enqueued: u64,
    /// Dynamic-programming columns computed by the expand kernel.
    pub columns_expanded: u64,
    /// Child nodes computed and discarded as unviable (cells skipped).
    pub nodes_pruned: u64,
    /// Hits emitted to the client.
    pub hits: u64,
    /// Whether the result was served from the result cache.
    pub cache_hit: bool,
    /// WAL fsyncs this query waited on (live appends only).
    pub wal_fsyncs: u64,
    /// Catalog generation the query was admitted on (and executed on).
    pub generation: u64,
}

/// A live trace riding along with one query.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    enabled: bool,
    born: Instant,
    /// Numeric token naming the query (the server's `BatchQuery` id).
    pub id: u64,
    /// Query length in residues.
    pub query_len: u32,
    /// Work counters folded in so far.
    pub counters: TraceCounters,
    spans: Vec<StageSpan>,
}

impl QueryTrace {
    /// A disabled trace: allocates nothing, every method is a cheap no-op.
    pub fn disabled() -> QueryTrace {
        QueryTrace {
            enabled: false,
            born: Instant::now(),
            id: 0,
            query_len: 0,
            counters: TraceCounters::default(),
            spans: Vec::new(),
        }
    }

    /// An enabled trace born now, for the query named `id`.
    pub fn enabled(id: u64, query_len: u32) -> QueryTrace {
        QueryTrace {
            enabled: true,
            born: Instant::now(),
            id,
            query_len,
            counters: TraceCounters::default(),
            spans: Vec::new(),
        }
    }

    /// Whether recording calls do anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// When this trace was born (admission time).
    pub fn born(&self) -> Instant {
        self.born
    }

    /// Append the interval `start..end` as stage `name`. Instants before
    /// birth clamp to zero; a disabled trace records nothing.
    pub fn record_span(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let start_us = as_us(start.saturating_duration_since(self.born));
        let dur_us = as_us(end.saturating_duration_since(start));
        self.spans.push(StageSpan {
            stage: name.to_string(),
            start_us,
            dur_us,
        });
    }

    /// Spans recorded so far, in append order.
    pub fn spans(&self) -> &[StageSpan] {
        &self.spans
    }

    /// Fold in the driver's work counters (summed across shards).
    pub fn record_search(
        &mut self,
        nodes_expanded: u64,
        nodes_enqueued: u64,
        columns_expanded: u64,
        nodes_pruned: u64,
        hits: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.counters.nodes_expanded = nodes_expanded;
        self.counters.nodes_enqueued = nodes_enqueued;
        self.counters.columns_expanded = columns_expanded;
        self.counters.nodes_pruned = nodes_pruned;
        self.counters.hits = hits;
    }

    /// Seal the trace into a plain record, stamping the total.
    pub fn finish(self) -> TraceRecord {
        let total_us = as_us(self.born.elapsed());
        TraceRecord {
            id: self.id,
            query_len: self.query_len,
            total_us,
            counters: self.counters,
            spans: self.spans,
        }
    }
}

fn as_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A finished trace: plain data, safe to store, ship, and print.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Numeric token naming the query.
    pub id: u64,
    /// Query length in residues.
    pub query_len: u32,
    /// Admission-to-finish wall time in microseconds.
    pub total_us: u64,
    /// Work and outcome counters.
    pub counters: TraceCounters,
    /// Recorded stage spans, in append (pipeline) order.
    pub spans: Vec<StageSpan>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_trace_records_nothing_and_allocates_nothing() {
        let mut t = QueryTrace::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.spans.capacity(), 0);
        let now = Instant::now();
        t.record_span(stage::EXECUTE, now, now + Duration::from_millis(5));
        t.record_search(1, 2, 3, 4, 5);
        assert!(t.spans().is_empty());
        assert_eq!(t.spans.capacity(), 0);
        assert_eq!(t.counters, TraceCounters::default());
    }

    #[test]
    fn spans_preserve_pipeline_order_and_offsets() {
        let mut t = QueryTrace::enabled(42, 11);
        let born = t.born();
        let a0 = born + Duration::from_micros(100);
        let a1 = born + Duration::from_micros(300);
        let b1 = born + Duration::from_micros(900);
        t.record_span(stage::QUEUE_WAIT, born, a0);
        t.record_span(stage::EXECUTE, a0, a1);
        t.record_span(stage::RESOLVE, a1, b1);
        let names: Vec<&str> = t.spans().iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            vec![stage::QUEUE_WAIT, stage::EXECUTE, stage::RESOLVE]
        );
        // Stage starts are non-decreasing and each span starts at or after
        // the previous one's end: the ordering invariant consumers rely on.
        let spans = t.spans().to_vec();
        for pair in spans.windows(2) {
            assert!(pair[1].start_us >= pair[0].start_us + pair[0].dur_us);
        }
        assert_eq!(spans[0].start_us, 0);
        assert_eq!(spans[0].dur_us, 100);
        assert_eq!(spans[1].start_us, 100);
        assert_eq!(spans[1].dur_us, 200);
        let rec = t.finish();
        assert_eq!(rec.id, 42);
        assert_eq!(rec.query_len, 11);
        assert_eq!(rec.spans.len(), 3);
    }

    #[test]
    fn instants_before_birth_clamp_to_zero() {
        let early = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let mut t = QueryTrace::enabled(1, 1);
        t.record_span(stage::QUEUE_WAIT, early, early);
        assert_eq!(t.spans()[0].start_us, 0);
    }
}
