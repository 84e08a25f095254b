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

//! # oasis-engine
//!
//! The concurrent multi-query layer over the OASIS search: what the paper's
//! *online* framing assumes but never spells out — many simultaneous
//! queries sharing one immutable index and one buffer pool.
//!
//! [`ShardedEngine`] is the one engine. It owns the read-only substrate
//! (database + K shard indexes) behind [`Arc`](std::sync::Arc) and
//! executes batches of queries across a pool of worker threads. An
//! unsharded index is K=1: one shard over the whole database, in memory
//! (a suffix tree or an enhanced suffix array) or disk-resident behind a
//! buffer pool (the paper's §3.4 mode, [`open_artifact_engine`]). With K > 1 the
//! database is partitioned into contiguous runs of sequences balanced by
//! residue count (boundaries picked by `oasis-storage`'s adaptive range
//! selection), every query fans out across the shards, and a lazy k-way
//! merge restores the global non-increasing-score order. Each query runs
//! its own [`SearchDriver`](oasis_core::SearchDriver) per shard, so results
//! are *byte-identical* to a serial [`oasis_core::OasisSearch`] run
//! regardless of shard count, thread count or scheduling: the search itself
//! is deterministic, and every mutable datum (frontier, scratch columns,
//! statistics) is private to its query. The only shared mutable state is
//! the buffer-pool frame table, which affects *timing*, never *results*.
//!
//! The pool's counters are cumulative and kept by the pool itself:
//! [`ShardedEngine::pool_stats`] reads them, and a caller diffs two reads
//! for the traffic of the run between them.
//!
//! [`ServingEngine`] is the non-blocking front end over it: a bounded
//! admission queue and worker pool, hits streamed through ticket handles, and
//! per-query latency capture for tail-latency reporting.
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
//! use oasis_engine::{BatchQuery, ShardedEngine};
//!
//! let mut b = DatabaseBuilder::new(Alphabet::dna());
//! b.push_str("s0", "AGTACGCCTAG").unwrap();
//! b.push_str("s1", "TACCG").unwrap();
//! let db = Arc::new(b.finish());
//! let engine = ShardedEngine::build(db, Scoring::unit_dna(), 1);
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
use std::sync::OnceLock;

use oasis_core::{Hit, OasisParams, SearchStats};

mod catalog;
mod compactor;
mod delta;
mod layered;
pub mod persist;
mod serving;
mod shard;

pub use catalog::{Generation, IndexCatalog, PublishError};
pub use compactor::CompactionReport;
pub use delta::DeltaIndex;
pub use layered::{AppendReceipt, LiveIndex, LiveIndexError, LiveIndexOptions, LiveStats};
pub use persist::{
    build_index_artifact, load_sharded_engine, open_artifact_engine, opens_disk_resident,
    persist_sharded_engine,
};
pub use serving::{
    AdmissionError, HitSink, QueryExecutor, QueryTicket, ReadyHook, ServedOutcome, ServingConfig,
    ServingConfigError, ServingEngine, ServingSnapshot, StreamEnd,
};
pub use shard::{IndexBackend, SessionPoll, ShardedEngine, ShardedSession};

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

/// Everything one query produced: its hits and search counters. Its
/// buffer-pool traffic is the pool's to count; see
/// [`ShardedEngine::pool_stats`].
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The hits, in the search's online (non-increasing score) order —
    /// identical to what a serial [`oasis_core::OasisSearch`] run would
    /// return (a prefix of it when the job set [`BatchQuery::limit`]).
    pub hits: Vec<Hit>,
    /// Search instrumentation counters for this query alone.
    pub stats: SearchStats,
}

/// Execute `run` on every job across up to `threads` scoped worker
/// threads, collecting the results **in job order**. Workers claim jobs
/// from a shared cursor, so slow and fast jobs interleave without static
/// partitioning skew; with one worker (or one job) everything runs on the
/// calling thread. A panic inside `run` propagates to the caller.
pub(crate) fn run_pooled<F>(threads: usize, jobs: &[BatchQuery], run: F) -> Vec<SearchOutcome>
where
    F: Fn(&BatchQuery) -> SearchOutcome + Sync,
{
    let workers = threads.min(jobs.len());
    if workers <= 1 {
        return jobs.iter().map(run).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<OnceLock<SearchOutcome>> = jobs.iter().map(|_| OnceLock::new()).collect();
    let run = &run;
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (cursor, slots) = (&cursor, &slots);
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let (Some(job), Some(slot)) = (jobs.get(i), slots.get(i)) else {
                    break;
                };
                slot.set(run(job))
                    .unwrap_or_else(|_| unreachable!("slot {i} claimed twice"));
            });
        }
    });
    #[expect(
        clippy::expect_used,
        reason = "scope join already propagated any worker panic, so every slot is set"
    )]
    let outcomes = slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect();
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use oasis_align::Scoring;
    use oasis_bioseq::{Alphabet, DatabaseBuilder, SequenceDatabase};
    use oasis_core::OasisSearch;
    use oasis_storage::{DiskSuffixTree, DiskTreeBuilder, FileDevice, Region};
    use oasis_suffix::{SuffixTree, SuffixTreeAccess};

    fn dna_db(seqs: &[&str]) -> Arc<SequenceDatabase> {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        Arc::new(b.finish())
    }

    fn mem_engine(db: &Arc<SequenceDatabase>) -> ShardedEngine {
        ShardedEngine::build(db.clone(), Scoring::unit_dna(), 1)
    }

    /// Write `tree`'s disk image to a per-test file and open it behind a
    /// pool of `pool_bytes`.
    fn disk_tree(tree: &SuffixTree, tag: &str, pool_bytes: usize) -> DiskSuffixTree<FileDevice> {
        let path = std::env::temp_dir().join(format!("oasis-engine-{tag}-{}", std::process::id()));
        DiskTreeBuilder::with_block_size(64)
            .write_file(tree, &path)
            .unwrap();
        let disk = DiskSuffixTree::open(FileDevice::open(&path, 64).unwrap(), pool_bytes).unwrap();
        std::fs::remove_file(&path).ok();
        disk
    }

    fn queries(alpha: &Alphabet, texts: &[&str], min: i32) -> Vec<BatchQuery> {
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
    fn session_supports_top_k_abort_and_bound() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG", "CCCC"]);
        let engine = mem_engine(&db);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let all = engine.run_one(&q, &params).hits;
        let mut session = engine.session(&q, &params);
        assert!(session.score_bound().is_some());
        let top2: Vec<Hit> = session.by_ref().take(2).collect();
        let stats = session.finish();
        assert_eq!(&all[..2], &top2[..]);
        assert_eq!(stats.hits_emitted, 2);
    }

    #[test]
    fn disk_engine_attributes_pool_traffic_per_query() {
        let db = dna_db(&["ACGTACGTTGCAGT", "GTACCA", "ACACACAC"]);
        let disk = disk_tree(&SuffixTree::build(&db), "pool-delta", 1 << 20);
        let engine = ShardedEngine::disk_resident(db.clone(), disk, Scoring::unit_dna()).unwrap();
        let q = Alphabet::dna().encode_str("GTAC").unwrap();
        let params = OasisParams::with_min_score(3);
        let before = engine.pool_stats();
        let outcome = engine.run_one(&q, &params);
        let first = engine.pool_stats().since(&before);
        assert!(first.total().requests > 0);
        assert!(first.region(Region::Internal).requests > 0);
        // A second run of the same query issues exactly as many requests.
        let before = engine.pool_stats();
        engine.run_one(&q, &params);
        let second = engine.pool_stats().since(&before);
        assert_eq!(second.total().requests, first.total().requests);
        // And the disk engine agrees with the in-memory one, counters too.
        let mem = mem_engine(&db).run_one(&q, &params);
        assert_eq!(outcome.hits, mem.hits);
        assert_eq!(outcome.stats, mem.stats);
    }

    #[test]
    fn engine_over_trait_object_substrate() {
        // The substrate can be type-erased (SuffixTreeAccess is object-safe):
        // the core search over a `dyn` tree agrees with the engine exactly.
        let db = dna_db(&["AGTACGCCTAG", "TACCG"]);
        let tree: Arc<dyn SuffixTreeAccess> = Arc::new(SuffixTree::build(&db));
        let engine = mem_engine(&db);
        let jobs = queries(&Alphabet::dna(), &["TACG", "CC"], 1);
        let outcomes = engine.run_batch_on(&jobs, 2);
        assert!(!outcomes[0].hits.is_empty());
        for (job, out) in jobs.iter().zip(&outcomes) {
            let (hits, stats) =
                OasisSearch::new(&*tree, &db, &job.query, &Scoring::unit_dna(), &job.params).run();
            assert_eq!(out.hits, hits);
            assert_eq!(out.stats, stats);
        }
    }

    #[test]
    fn batch_limit_returns_serial_prefix_with_less_work() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG", "CCCCCC", "GATTACA"]);
        let engine = mem_engine(&db);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let full = engine.run_one(&q, &params);
        let jobs = vec![BatchQuery::named("top2", q.clone(), params).with_limit(2)];
        let limited = &engine.run_batch_on(&jobs, 4)[0];
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
        let engine = mem_engine(&db);
        let params = OasisParams::with_min_score(1);
        let outcome = engine.run_one(&[], &params);
        assert!(outcome.hits.is_empty());
        assert_eq!(outcome.stats, SearchStats::default());
        let jobs = vec![
            BatchQuery::named("empty", Vec::new(), params),
            BatchQuery::named("real", Alphabet::dna().encode_str("TACG").unwrap(), params),
        ];
        let outcomes = engine.run_batch_on(&jobs, 4);
        assert!(outcomes[0].hits.is_empty());
        assert!(!outcomes[1].hits.is_empty());
    }

    #[test]
    fn empty_batch_and_more_threads_than_jobs() {
        let db = dna_db(&["ACGT"]);
        let engine = mem_engine(&db);
        assert!(engine.run_batch_on(&[], 8).is_empty());
        let jobs = queries(&Alphabet::dna(), &["AC"], 1);
        assert_eq!(engine.run_batch_on(&jobs, 8).len(), 1);
        assert_eq!(
            engine.run_batch_on(&jobs, 0).len(),
            1,
            "no workers runs inline"
        );
    }

    #[test]
    fn mismatched_substrate_rejected() {
        let db1 = dna_db(&["ACGT"]);
        let db2 = dna_db(&["ACGTACGT"]);
        let disk = disk_tree(&SuffixTree::build(&db1), "mismatch", 1 << 16);
        let err = ShardedEngine::disk_resident(db2, disk, Scoring::unit_dna())
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default();
        assert!(err.contains("the database has 9"), "{err}");
    }
}
