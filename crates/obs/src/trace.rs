//! Per-query span tracing.
//!
//! A [`QueryTrace`] is born when a query is admitted and stays with the
//! connection's writer until the response's last byte is written: the
//! writer records each stage as a [`StageSpan`] (a named interval, offset
//! from the trace's birth) and folds the query's work into
//! [`TraceCounters`]. A stage recorded more than once — the writer's
//! `resolve` and `frame_flush`, once per batch of hits — is one span whose
//! duration is the sum. When the response is written the trace is
//! [finished](QueryTrace::finish) into a plain [`TraceRecord`], whose
//! spans feed the server's stage histograms; the server keeps the record
//! in the [slow-query log](crate::SlowLog) if the query crossed the
//! threshold.
//!
//! Every query is traced. A trace is a few counters plus at most one
//! span per stage, allocated once at birth, so recording a span is a
//! scan of at most five entries.

use std::time::{Duration, Instant};

/// Canonical stage names, in pipeline order. Layers attach spans by these
/// names so dashboards and tests can rely on one taxonomy (documented in
/// `docs/OBSERVABILITY.md`).
pub mod stage {
    /// Admission queue: submit until a worker picks the query up.
    pub const QUEUE_WAIT: &str = "queue_wait";
    /// Worker execution: suffix traversal + expand kernel + merge.
    pub const EXECUTE: &str = "execute";
    /// Writer resolution: a batch of streamed hits taken from the ticket,
    /// named and framed (summed over a query's batches).
    pub const RESOLVE: &str = "resolve";
    /// Frame flush: a batch's encode + socket write (summed over a
    /// query's batches).
    pub const FRAME_FLUSH: &str = "frame_flush";
    /// Time to first hit: admission to the first `Hit` frame handed to
    /// the socket. It overlaps the stages above — the online property
    /// means the first hit leaves while the search still executes.
    pub const FIRST_HIT: &str = "first_hit";

    /// Every stage, in pipeline order: the order of a finished trace's
    /// spans.
    pub const ALL: [&str; 5] = [QUEUE_WAIT, EXECUTE, RESOLVE, FRAME_FLUSH, FIRST_HIT];
}

/// One named interval inside a query's lifetime.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// Stage name (one of the [`stage`] constants).
    pub stage: &'static str,
    /// From trace birth to stage start.
    pub start: Duration,
    /// Stage duration, summed over the stage's recordings.
    pub dur: Duration,
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
    /// WAL fsyncs this query waited on (live appends only).
    pub wal_fsyncs: u64,
    /// Catalog generation the query was admitted on (and executed on).
    pub generation: u64,
}

/// A live trace riding along with one query.
#[derive(Debug, Clone)]
pub struct QueryTrace {
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
    /// A trace born now, for the query named `id`.
    pub fn new(id: u64, query_len: u32) -> QueryTrace {
        QueryTrace {
            born: Instant::now(),
            id,
            query_len,
            counters: TraceCounters::default(),
            spans: Vec::with_capacity(stage::ALL.len()),
        }
    }

    /// When this trace was born (admission time).
    pub fn born(&self) -> Instant {
        self.born
    }

    /// Record the interval `start..end` as stage `name`; instants before
    /// birth clamp to zero. A stage that already has a span adds the
    /// interval to its duration and keeps its start.
    pub fn record_span(&mut self, name: &'static str, start: Instant, end: Instant) {
        let dur = end.saturating_duration_since(start);
        match self.spans.iter_mut().find(|span| span.stage == name) {
            Some(span) => span.dur += dur,
            None => self.spans.push(StageSpan {
                stage: name,
                start: start.saturating_duration_since(self.born),
                dur,
            }),
        }
    }

    /// The span of stage `name`, if one was recorded.
    pub fn span(&self, name: &str) -> Option<&StageSpan> {
        self.spans.iter().find(|span| span.stage == name)
    }

    /// Fold in the driver's work counters (summed across shards).
    pub fn record_search(
        &mut self,
        nodes_expanded: u64,
        nodes_enqueued: u64,
        columns_expanded: u64,
        nodes_pruned: u64,
    ) {
        self.counters.nodes_expanded = nodes_expanded;
        self.counters.nodes_enqueued = nodes_enqueued;
        self.counters.columns_expanded = columns_expanded;
        self.counters.nodes_pruned = nodes_pruned;
    }

    /// Seal the trace into a plain record, stamping the total and putting
    /// the spans in pipeline ([`stage::ALL`]) order.
    pub fn finish(mut self) -> TraceRecord {
        let total_us = u64::try_from(self.born.elapsed().as_micros()).unwrap_or(u64::MAX);
        let rank = |span: &StageSpan| stage::ALL.iter().position(|&s| s == span.stage);
        self.spans
            .sort_by_key(|span| rank(span).unwrap_or(usize::MAX));
        TraceRecord {
            id: self.id,
            query_len: self.query_len,
            total_us,
            counters: self.counters,
            spans: self.spans,
        }
    }
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
    /// Recorded stage spans, in pipeline order.
    pub spans: Vec<StageSpan>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_preserve_pipeline_order_and_offsets() {
        let mut t = QueryTrace::new(42, 11);
        let born = t.born();
        let at = |us| born + Duration::from_micros(us);
        // Recorded out of pipeline order, as the connection writer does:
        // its own stages while the search runs, the worker's at the end.
        t.record_span(stage::RESOLVE, at(300), at(900));
        t.record_span(stage::QUEUE_WAIT, born, at(100));
        t.record_span(stage::EXECUTE, at(100), at(300));
        let rec = t.finish();
        let names: Vec<&str> = rec.spans.iter().map(|s| s.stage).collect();
        assert_eq!(
            names,
            vec![stage::QUEUE_WAIT, stage::EXECUTE, stage::RESOLVE]
        );
        // Each span starts at or after the previous one's end: the
        // ordering invariant consumers rely on.
        for pair in rec.spans.windows(2) {
            assert!(pair[1].start >= pair[0].start + pair[0].dur);
        }
        assert_eq!(rec.spans[0].start, Duration::ZERO);
        assert_eq!(rec.spans[0].dur, Duration::from_micros(100));
        assert_eq!(rec.spans[1].start, Duration::from_micros(100));
        assert_eq!(rec.spans[1].dur, Duration::from_micros(200));
        assert_eq!((rec.id, rec.query_len), (42, 11));
    }

    #[test]
    fn a_repeated_stage_adds_to_its_span() {
        let mut t = QueryTrace::new(1, 1);
        let born = t.born();
        let at = |us| born + Duration::from_micros(us);
        t.record_span(stage::FRAME_FLUSH, at(10), at(15));
        t.record_span(stage::FRAME_FLUSH, at(40), at(47));
        let span = t.span(stage::FRAME_FLUSH).expect("one span");
        assert_eq!(span.start, Duration::from_micros(10));
        assert_eq!(span.dur, Duration::from_micros(12));
        assert!(t.span(stage::FIRST_HIT).is_none());
        assert_eq!(t.finish().spans.len(), 1);
    }

    #[test]
    fn instants_before_birth_clamp_to_zero() {
        let early = Instant::now();
        crate::sync::sleep(Duration::from_millis(1));
        let mut t = QueryTrace::new(1, 1);
        t.record_span(stage::QUEUE_WAIT, early, early);
        assert_eq!(t.span(stage::QUEUE_WAIT).unwrap().start, Duration::ZERO);
    }
}
