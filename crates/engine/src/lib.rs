#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # oasis-engine
//!
//! The concurrent multi-query layer over the OASIS search: what the paper's
//! *online* framing assumes but never spells out — many simultaneous
//! queries sharing one immutable suffix-tree index and one buffer pool.
//!
//! [`OasisEngine`] owns the read-only substrate (database + index + the
//! index's buffer pool, if disk-resident) behind [`Arc`] and executes
//! batches of queries across a pool of worker threads. Each query runs its
//! own [`SearchDriver`], so results are
//! *byte-identical* to a serial [`oasis_core::OasisSearch`] run regardless
//! of thread count or scheduling: the search itself is deterministic, and
//! every mutable datum (frontier, scratch columns, statistics) is private
//! to its query. The only shared mutable state is the buffer-pool frame
//! table, which affects *timing*, never *results*.
//!
//! Per-query buffer-pool accounting uses
//! [`PoolDeltaScope`]: each worker opens a
//! thread-local scope around its query, so [`SearchOutcome::pool_delta`]
//! reports exactly that query's hit ratio even while other queries hammer
//! the same pool — the racy "reset the global counters, run, snapshot"
//! pattern is gone.
//!
//! On top of the single-index engine sit two serving-oriented layers:
//!
//! * [`ShardedEngine`] partitions the database into lexically contiguous
//!   sequence shards (boundaries picked by `oasis-storage`'s adaptive
//!   lexical-range machinery), indexes each shard separately, fans every
//!   query out across the shards, and k-way-merges the per-shard online
//!   streams back into the global non-increasing-score order — with
//!   byte-identical results to the unsharded engine.
//! * [`ServingEngine`] is the non-blocking front end: a bounded admission
//!   queue and worker pool, completion through ticket handles, and
//!   per-query latency capture for tail-latency reporting.
//!
//! The index itself has a lifecycle: [`persist`] writes a built index to a
//! checksummed on-disk artifact and reconstitutes ready engines from it
//! (so restarts load instead of rebuild), [`LiveIndex`] layers appended
//! sequences over a base artifact, and [`IndexCatalog`] hot-swaps a
//! freshly built or loaded [`Generation`] under live traffic. Every
//! submission to the [`ServingEngine`] carries the generation pinned at
//! its admission: admitted queries run on it, new admissions see the new
//! one, and the old generation is dropped when its last query completes.
//!
//! ```
//! use std::sync::Arc;
//! use oasis_align::Scoring;
//! use oasis_bioseq::{Alphabet, DatabaseBuilder};
//! use oasis_core::OasisParams;
//! use oasis_engine::{BatchQuery, OasisEngine};
//! use oasis_suffix::SuffixTree;
//!
//! let mut b = DatabaseBuilder::new(Alphabet::dna());
//! b.push_str("s0", "AGTACGCCTAG").unwrap();
//! b.push_str("s1", "TACCG").unwrap();
//! let db = Arc::new(b.finish());
//! let tree = Arc::new(SuffixTree::build(&db));
//! let engine = OasisEngine::new(tree, db, Scoring::unit_dna()).with_threads(4);
//!
//! let alpha = Alphabet::dna();
//! let params = OasisParams::with_min_score(2);
//! let jobs = vec![
//!     BatchQuery::new(alpha.encode_str("TACG").unwrap(), params),
//!     BatchQuery::new(alpha.encode_str("CCG").unwrap(), params),
//! ];
//! let outcomes = engine.run_batch(&jobs);
//! assert_eq!(outcomes.len(), 2);
//! assert!(outcomes[0].hits.iter().all(|h| h.score >= 2));
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use oasis_align::{Score, Scoring};
use oasis_bioseq::SequenceDatabase;
use oasis_core::{Hit, OasisParams, OasisSearch, SearchDriver, SearchStats};
use oasis_storage::{PoolDeltaScope, PoolStatsSnapshot};
use oasis_suffix::SuffixTreeAccess;

mod cache;
mod catalog;
mod compactor;
mod delta;
mod layered;
pub mod persist;
mod serving;
mod shard;

pub use cache::{CacheKey, CacheStats, ResultCache};
pub use catalog::{Generation, GenerationInfo, IndexCatalog, PublishError};
pub use compactor::{compact_artifact, CompactionReport};
pub use delta::DeltaIndex;
pub use layered::{AppendReceipt, LiveIndex, LiveIndexError, LiveIndexOptions, LiveStats};
pub use persist::{
    build_index_artifact, disk_engine_from_artifact, load_sharded_engine, open_artifact_engine,
    opens_disk_resident, persist_sharded_engine, sharded_engine_from_artifact, ArtifactEngine,
};
pub use serving::{
    AdmissionError, CompletionHook, LatencySummary, QueryExecutor, QueryTicket, ServedOutcome,
    ServingConfig, ServingConfigError, ServingEngine, ServingSnapshot, ServingStats,
};
pub use shard::{IndexBackend, ShardedEngine, ShardedSession};

/// One query of a batch: the encoded sequence plus its search parameters
/// (per-query, because `minScore` typically depends on query length via
/// the E-value conversion of Equation 3).
#[derive(Debug, Clone)]
pub struct BatchQuery {
    /// Caller-assigned identifier, carried through to the output (FASTA
    /// record name in the CLI, index string otherwise).
    pub id: String,
    /// The encoded query sequence (database alphabet).
    pub query: Vec<u8>,
    /// Search parameters for this query.
    pub params: OasisParams,
    /// Stop after this many hits (the paper's top-k abort: because hits
    /// stream out best-first, the search pays only for the hits taken).
    /// `None` drains the search.
    pub limit: Option<usize>,
}

impl BatchQuery {
    /// A batch entry with an empty id.
    pub fn new(query: Vec<u8>, params: OasisParams) -> Self {
        BatchQuery {
            id: String::new(),
            query,
            params,
            limit: None,
        }
    }

    /// A batch entry with an explicit id.
    pub fn named(id: impl Into<String>, query: Vec<u8>, params: OasisParams) -> Self {
        BatchQuery {
            id: id.into(),
            query,
            params,
            limit: None,
        }
    }

    /// Abort this query after `limit` hits (top-k early stop).
    pub fn with_limit(mut self, limit: usize) -> Self {
        self.limit = Some(limit);
        self
    }
}

/// Everything one query produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The hits, in the search's online (non-increasing score) order —
    /// identical to what a serial [`OasisSearch`] run would return (a
    /// prefix of it when the job set [`BatchQuery::limit`]).
    pub hits: Vec<Hit>,
    /// Search instrumentation counters for this query alone.
    pub stats: SearchStats,
    /// Buffer-pool traffic attributable to this query alone (all zeros
    /// for purely in-memory indexes, which issue no pool requests).
    pub pool_delta: PoolStatsSnapshot,
}

/// The shared-substrate, multi-query OASIS engine.
///
/// Owns the immutable search substrate behind [`Arc`] — the sequence
/// database and any [`SuffixTreeAccess`] index (in-memory or disk-resident
/// behind a buffer pool) — plus the scoring scheme, and executes queries
/// against it: one at a time ([`run_one`]), streamed ([`session`]), or as
/// a concurrent batch over worker threads ([`run_batch`]).
///
/// The index type may be a trait object (`OasisEngine<dyn SuffixTreeAccess>`):
/// the trait is object-safe and `Sync` by design.
///
/// [`run_one`]: OasisEngine::run_one
/// [`session`]: OasisEngine::session
/// [`run_batch`]: OasisEngine::run_batch
pub struct OasisEngine<T: SuffixTreeAccess + ?Sized> {
    db: Arc<SequenceDatabase>,
    scoring: Scoring,
    threads: usize,
    tree: Arc<T>,
}

impl<T: SuffixTreeAccess + ?Sized> OasisEngine<T> {
    /// An engine over `tree` (which must index exactly `db`) scoring with
    /// `scoring`. Worker count defaults to the machine's available
    /// parallelism.
    pub fn new(tree: Arc<T>, db: Arc<SequenceDatabase>, scoring: Scoring) -> Self {
        assert_eq!(
            tree.text_len(),
            db.text_len(),
            "suffix tree does not index this database"
        );
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        OasisEngine {
            db,
            scoring,
            threads,
            tree,
        }
    }

    /// Override the worker-thread count for [`run_batch`] (min 1).
    ///
    /// [`run_batch`]: OasisEngine::run_batch
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared database.
    pub fn db(&self) -> &SequenceDatabase {
        &self.db
    }

    /// The shared index.
    pub fn tree(&self) -> &T {
        &self.tree
    }

    /// The scoring scheme every query uses.
    pub fn scoring(&self) -> &Scoring {
        &self.scoring
    }

    /// Begin a streaming search: hits arrive one by one, online, and the
    /// session tracks this query's buffer-pool delta. Consume it as an
    /// iterator, then call [`QuerySession::finish`] for the accounting.
    pub fn session(&self, query: &[u8], params: &OasisParams) -> QuerySession<'_, T> {
        let scope = PoolDeltaScope::begin();
        QuerySession {
            search: OasisSearch::new(&*self.tree, &self.db, query, &self.scoring, params),
            scope: Some(scope),
        }
    }

    /// Run one query to completion on the calling thread.
    pub fn run_one(&self, query: &[u8], params: &OasisParams) -> SearchOutcome {
        run_query(&*self.tree, &self.db, &self.scoring, query, params, None)
    }

    /// Run one batch job (respecting its [`BatchQuery::limit`]) on the
    /// calling thread.
    pub fn run_job(&self, job: &BatchQuery) -> SearchOutcome {
        run_query(
            &*self.tree,
            &self.db,
            &self.scoring,
            &job.query,
            &job.params,
            job.limit,
        )
    }

    /// Execute a batch of queries across the worker pool, returning one
    /// [`SearchOutcome`] per job, **in job order**.
    ///
    /// Workers claim jobs from a shared cursor, so long and short queries
    /// interleave without static partitioning skew. Each query's results
    /// are identical to a serial run — concurrency affects only wall-clock
    /// time. A worker panic (e.g. a query encoded with the wrong alphabet)
    /// propagates to the caller.
    pub fn run_batch(&self, jobs: &[BatchQuery]) -> Vec<SearchOutcome> {
        // Workers borrow the substrate as plain `&`s: `&T` crosses threads
        // because the trait demands `Sync`; nothing requires `T: Send`.
        let (tree, db, scoring) = (&*self.tree, &*self.db, &self.scoring);
        run_pooled(self.threads, jobs.len(), move |i| {
            // oasis-lint: allow(panic-free-serving) — run_pooled only calls with i < jobs.len()
            let job = &jobs[i];
            run_query(tree, db, scoring, &job.query, &job.params, job.limit)
        })
    }
}

/// Execute `run(0..n)` across up to `threads` scoped worker threads,
/// collecting the results **in index order**. Workers claim indices from a
/// shared cursor, so slow and fast jobs interleave without static
/// partitioning skew; with one worker (or one job) everything runs on the
/// calling thread. A panic inside `run` propagates to the caller.
pub(crate) fn run_pooled<F>(threads: usize, n: usize, run: F) -> Vec<SearchOutcome>
where
    F: Fn(usize) -> SearchOutcome + Sync,
{
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(run).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<SearchOutcome>> = (0..n).map(|_| OnceLock::new()).collect();
    let run = &run;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (cursor, slots) = (&cursor, &slots);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let outcome = run(i);
                // oasis-lint: allow(panic-free-serving) — the cursor hands out each i < n exactly once
                slots[i]
                    .set(outcome)
                    .unwrap_or_else(|_| unreachable!("slot {i} claimed twice"));
            });
        }
    });
    slots
        .into_iter()
        // oasis-lint: allow(panic-free-serving) — scope join already propagated any worker panic, so every slot is set
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

/// Run one query against a borrowed substrate, with a per-query pool delta
/// scope around the whole search. With a `limit`, the search aborts after
/// that many hits — the online property means the unexplored remainder is
/// never paid for. A zero-length query short-circuits to an empty outcome
/// without touching the driver: no alignment of the empty string can reach
/// a positive `minScore`, and the serving path must not depend on how the
/// driver happens to treat degenerate input.
fn run_query<T: SuffixTreeAccess + ?Sized>(
    tree: &T,
    db: &SequenceDatabase,
    scoring: &Scoring,
    query: &[u8],
    params: &OasisParams,
    limit: Option<usize>,
) -> SearchOutcome {
    if query.is_empty() {
        return SearchOutcome {
            hits: Vec::new(),
            stats: SearchStats::default(),
            pool_delta: PoolStatsSnapshot::default(),
        };
    }
    let scope = PoolDeltaScope::begin();
    let mut search = OasisSearch::new(tree, db, query, scoring, params);
    let cap = limit.unwrap_or(usize::MAX);
    let hits: Vec<Hit> = search.by_ref().take(cap).collect();
    SearchOutcome {
        hits,
        stats: search.stats(),
        pool_delta: scope.finish(),
    }
}

/// A streaming single-query handle borrowed from an [`OasisEngine`].
///
/// Iterates [`Hit`]s in the online order; [`finish`](QuerySession::finish)
/// closes the per-query buffer-pool delta scope and returns the
/// accounting. Dropping the session without finishing simply discards the
/// delta. The session stays on the thread that opened it (the delta scope
/// is thread-local), which the `!Send` scope enforces at compile time.
pub struct QuerySession<'e, T: SuffixTreeAccess + ?Sized> {
    search: OasisSearch<'e, T>,
    scope: Option<PoolDeltaScope>,
}

impl<'e, T: SuffixTreeAccess + ?Sized> QuerySession<'e, T> {
    /// Counters so far (final once iteration is exhausted).
    pub fn stats(&self) -> SearchStats {
        self.search.stats()
    }

    /// Upper bound on the score of any hit still to come (see
    /// [`OasisSearch::score_bound`]).
    pub fn score_bound(&self) -> Option<Score> {
        self.search.score_bound()
    }

    /// Close the session, returning the final search statistics and this
    /// query's buffer-pool delta.
    pub fn finish(mut self) -> (SearchStats, PoolStatsSnapshot) {
        let delta = self
            .scope
            .take()
            .map(PoolDeltaScope::finish)
            .unwrap_or_default();
        (self.search.stats(), delta)
    }

    /// Abandon per-query pool accounting and expose the underlying search,
    /// e.g. to wrap it in [`oasis_core::EvalueOrderedSearch`].
    pub fn into_search(self) -> OasisSearch<'e, T> {
        let QuerySession { search, scope } = self;
        drop(scope); // close the delta scope now, on this thread
        search
    }

    /// The underlying resumable driver (for step-level control).
    pub fn driver(&self) -> &SearchDriver<'e, T> {
        self.search.driver()
    }
}

impl<T: SuffixTreeAccess + ?Sized> Iterator for QuerySession<'_, T> {
    type Item = Hit;

    fn next(&mut self) -> Option<Hit> {
        self.search.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_bioseq::{Alphabet, DatabaseBuilder};
    use oasis_storage::{DiskSuffixTree, DiskTreeBuilder, Region};
    use oasis_suffix::SuffixTree;

    fn dna_db(seqs: &[&str]) -> Arc<SequenceDatabase> {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        Arc::new(b.finish())
    }

    fn mem_engine(db: &Arc<SequenceDatabase>) -> OasisEngine<SuffixTree> {
        let tree = Arc::new(SuffixTree::build(db));
        OasisEngine::new(tree, db.clone(), Scoring::unit_dna())
    }

    fn queries(alpha: &Alphabet, texts: &[&str], min: Score) -> Vec<BatchQuery> {
        texts
            .iter()
            .map(|t| {
                BatchQuery::named(
                    t.to_string(),
                    alpha.encode_str(t).unwrap(),
                    OasisParams::with_min_score(min),
                )
            })
            .collect()
    }

    #[test]
    fn batch_equals_serial_in_memory() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG", "CCCCCC", "GATTACA"]);
        let engine = mem_engine(&db).with_threads(4);
        let jobs = queries(&Alphabet::dna(), &["TACG", "GATT", "CC", "GGTAGG"], 2);
        let batch = engine.run_batch(&jobs);
        assert_eq!(batch.len(), jobs.len());
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        for (job, out) in jobs.iter().zip(&batch) {
            let (hits, stats) =
                OasisSearch::new(&tree, &db, &job.query, &scoring, &job.params).run();
            assert_eq!(out.hits, hits, "query {}", job.id);
            assert_eq!(out.stats, stats, "query {}", job.id);
            assert_eq!(out.pool_delta.total().requests, 0, "in-memory: no pool");
        }
    }

    #[test]
    fn run_one_and_session_agree() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG"]);
        let engine = mem_engine(&db);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let outcome = engine.run_one(&q, &params);
        let streamed: Vec<Hit> = engine.session(&q, &params).collect();
        assert_eq!(outcome.hits, streamed);
        assert_eq!(outcome.stats.hits_emitted as usize, outcome.hits.len());
    }

    #[test]
    fn session_supports_top_k_abort_and_bound() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG", "CCCC"]);
        let engine = mem_engine(&db);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let all = engine.run_one(&q, &params).hits;
        let mut session = engine.session(&q, &params);
        assert!(session.score_bound().is_some());
        let top2: Vec<Hit> = session.by_ref().take(2).collect();
        let (stats, _) = session.finish();
        assert_eq!(&all[..2], &top2[..]);
        assert_eq!(stats.hits_emitted, 2);
    }

    #[test]
    fn disk_engine_attributes_pool_traffic_per_query() {
        let db = dna_db(&["ACGTACGTTGCAGT", "GTACCA", "ACACACAC"]);
        let mem_tree = SuffixTree::build(&db);
        let (image, _) = DiskTreeBuilder::with_block_size(64).build_image(&mem_tree);
        let disk = Arc::new(DiskSuffixTree::open_image(image, 64, 1 << 20).unwrap());
        let engine = OasisEngine::new(disk.clone(), db.clone(), Scoring::unit_dna());
        let q = Alphabet::dna().encode_str("GTAC").unwrap();
        let params = OasisParams::with_min_score(3);
        let before = disk.pool().stats().total().requests;
        let outcome = engine.run_one(&q, &params);
        assert!(outcome.pool_delta.total().requests > 0);
        assert!(outcome.pool_delta.region(Region::Internal).requests > 0);
        // The delta is bounded by the global growth on this (single) thread.
        let grown = disk.pool().stats().total().requests - before;
        assert_eq!(outcome.pool_delta.total().requests, grown);
        // And the disk engine agrees with the in-memory one.
        let mem = mem_engine(&db);
        assert_eq!(outcome.hits, mem.run_one(&q, &params).hits);
    }

    #[test]
    fn engine_over_trait_object_substrate() {
        // The substrate can be type-erased: SuffixTreeAccess is object-safe.
        let db = dna_db(&["AGTACGCCTAG", "TACCG"]);
        let tree: Arc<dyn SuffixTreeAccess> = Arc::new(SuffixTree::build(&db));
        let engine = OasisEngine::new(tree, db.clone(), Scoring::unit_dna()).with_threads(2);
        let jobs = queries(&Alphabet::dna(), &["TACG", "CC"], 1);
        let outcomes = engine.run_batch(&jobs);
        assert!(!outcomes[0].hits.is_empty());
        let concrete = mem_engine(&db).run_batch(&jobs);
        for (a, b) in outcomes.iter().zip(&concrete) {
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.stats, b.stats);
        }
    }

    #[test]
    fn batch_limit_returns_serial_prefix_with_less_work() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG", "CCCCCC", "GATTACA"]);
        let engine = mem_engine(&db).with_threads(4);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let full = engine.run_one(&q, &params);
        let jobs = vec![BatchQuery::named("top2", q.clone(), params).with_limit(2)];
        let limited = &engine.run_batch(&jobs)[0];
        // The online property: a limited run is exactly the serial prefix…
        assert_eq!(limited.hits, full.hits[..2].to_vec());
        assert_eq!(limited.stats.hits_emitted, 2);
        // …and costs no more search work than the full drain.
        assert!(limited.stats.nodes_expanded <= full.stats.nodes_expanded);
    }

    #[test]
    fn zero_length_query_yields_empty_outcome() {
        // Degenerate input must never reach the driver: a zero-length
        // query serves an empty outcome on every execution path.
        let db = dna_db(&["AGTACGCCTAG", "TACCG"]);
        let engine = mem_engine(&db).with_threads(4);
        let params = OasisParams::with_min_score(1);
        let outcome = engine.run_one(&[], &params);
        assert!(outcome.hits.is_empty());
        assert_eq!(outcome.stats, SearchStats::default());
        assert_eq!(outcome.pool_delta.total().requests, 0);
        let jobs = vec![
            BatchQuery::named("empty", Vec::new(), params),
            BatchQuery::named("real", Alphabet::dna().encode_str("TACG").unwrap(), params),
        ];
        let outcomes = engine.run_batch(&jobs);
        assert!(outcomes[0].hits.is_empty());
        assert!(!outcomes[1].hits.is_empty());
    }

    #[test]
    fn empty_batch_and_more_threads_than_jobs() {
        let db = dna_db(&["ACGT"]);
        let engine = mem_engine(&db).with_threads(8);
        assert!(engine.run_batch(&[]).is_empty());
        let jobs = queries(&Alphabet::dna(), &["AC"], 1);
        assert_eq!(engine.run_batch(&jobs).len(), 1);
        assert_eq!(engine.with_threads(0).threads(), 1);
    }

    #[test]
    fn into_search_hands_off_cleanly() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG"]);
        let engine = mem_engine(&db);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let search = engine.session(&q, &params).into_search();
        let (hits, _) = search.run();
        assert_eq!(hits, engine.run_one(&q, &params).hits);
    }

    #[test]
    #[should_panic(expected = "does not index this database")]
    fn mismatched_substrate_rejected() {
        let db1 = dna_db(&["ACGT"]);
        let db2 = dna_db(&["ACGTACGT"]);
        let tree = Arc::new(SuffixTree::build(&db1));
        let _ = OasisEngine::new(tree, db2, Scoring::unit_dna());
    }
}
