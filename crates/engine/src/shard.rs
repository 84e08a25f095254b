//! The engine: K per-partition indexes behind one query interface.
//!
//! [`ShardedEngine`] splits the database into contiguous runs of sequences
//! balanced by residue count — boundaries picked by `oasis-storage`'s
//! [`balanced_ranges`], the range selection the paper uses for
//! bounded-memory construction (§3.4.1), applied here to sequences rather
//! than to first symbols — and indexes each shard with SA-IS. A query fans out across every shard
//! and the per-shard online hit streams are merged back into the *global*
//! online order by a lazy k-way merge. An unsharded index is simply K=1:
//! one shard over the whole database, which shares the global database
//! instead of copying it. That shard may be an in-memory suffix tree, an
//! enhanced suffix array, or the paper's disk-resident tree read through a
//! buffer pool (§3.4), which is how [`crate::open_artifact_engine`] opens
//! a single-shard tree artifact.
//!
//! ## Why the merge is exact
//!
//! A local alignment lives entirely inside one database sequence, so
//! partitioning the database by whole sequences partitions the hit set.
//! The search driver emits hits in the canonical
//! (score descending, start-position ascending) order, which depends only
//! on the text and the query — never on suffix-tree node boundaries — so
//! each shard's stream is a sorted sub-sequence of the unsharded stream,
//! and merging on that key reproduces a single-index search byte for byte.
//!
//! The merge is *lazy*: a shard is advanced (one [`SearchDriver`] step at
//! a time, round-robin — no shard monopolizes the query's budget) only
//! while its [`SearchDriver::score_bound`] says it might still beat the
//! best already-materialized candidate. Aborting after the top k hits
//! therefore pays only for the work those k hits required, in every shard
//! — the paper's online property, preserved across the partition.

use std::sync::Arc;

use oasis_align::{Score, Scoring};
use oasis_bioseq::{SeqId, Sequence, SequenceDatabase};
use oasis_core::{Hit, OasisParams, SearchDriver, SearchStats, StepOutcome};
use oasis_storage::{
    balanced_ranges, ArtifactError, DiskSuffixTree, FileDevice, PoolStatsSnapshot,
};
use oasis_suffix::{EsaIndex, NodeHandle, SuffixTree, SuffixTreeAccess};

use crate::{run_pooled, BatchQuery, SearchOutcome};

/// Which index substrate a shard (and hence an engine or artifact) is
/// built on. Both produce byte-identical hit streams; they differ in
/// memory layout, build cost, and artifact encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexBackend {
    /// The compact in-memory suffix tree (the default).
    #[default]
    Tree,
    /// The enhanced suffix array: SA + LCP intervals with a two-byte
    /// bucket LUT, persisted as a packed payload served in place.
    Esa,
}

impl IndexBackend {
    /// Name used by the CLI (`--backend`) and `index inspect`.
    pub fn as_str(self) -> &'static str {
        match self {
            IndexBackend::Tree => "tree",
            IndexBackend::Esa => "esa",
        }
    }
}

/// A shard's index: one of the two in-memory [`SuffixTreeAccess`]
/// substrates, or the disk-resident tree behind its buffer pool. Every
/// trait method delegates, so a `SearchDriver` over a `ShardBackend`
/// traverses exactly what it would traverse over the underlying index
/// directly.
pub(crate) enum ShardBackend {
    Tree(SuffixTree),
    Esa(EsaIndex),
    Disk(DiskSuffixTree<FileDevice>),
}

impl SuffixTreeAccess for ShardBackend {
    fn root(&self) -> NodeHandle {
        match self {
            ShardBackend::Tree(t) => t.root(),
            ShardBackend::Esa(e) => e.root(),
            ShardBackend::Disk(d) => d.root(),
        }
    }

    fn text_len(&self) -> u32 {
        match self {
            ShardBackend::Tree(t) => t.text_len(),
            ShardBackend::Esa(e) => e.text_len(),
            ShardBackend::Disk(d) => d.text_len(),
        }
    }

    fn num_internal(&self) -> u32 {
        match self {
            ShardBackend::Tree(t) => t.num_internal(),
            ShardBackend::Esa(e) => e.num_internal(),
            ShardBackend::Disk(d) => d.num_internal(),
        }
    }

    fn depth(&self, h: NodeHandle) -> u32 {
        match self {
            ShardBackend::Tree(t) => t.depth(h),
            ShardBackend::Esa(e) => e.depth(h),
            ShardBackend::Disk(d) => d.depth(h),
        }
    }

    fn children_into(&self, h: NodeHandle, out: &mut Vec<NodeHandle>) {
        match self {
            ShardBackend::Tree(t) => t.children_into(h, out),
            ShardBackend::Esa(e) => e.children_into(h, out),
            ShardBackend::Disk(d) => d.children_into(h, out),
        }
    }

    fn arc_fill(&self, parent_depth: u32, h: NodeHandle, offset: u32, out: &mut [u8]) -> usize {
        match self {
            ShardBackend::Tree(t) => t.arc_fill(parent_depth, h, offset, out),
            ShardBackend::Esa(e) => e.arc_fill(parent_depth, h, offset, out),
            ShardBackend::Disk(d) => d.arc_fill(parent_depth, h, offset, out),
        }
    }

    fn leaves_under(&self, h: NodeHandle, visit: &mut dyn FnMut(u32)) {
        match self {
            ShardBackend::Tree(t) => t.leaves_under(h, visit),
            ShardBackend::Esa(e) => e.leaves_under(h, visit),
            ShardBackend::Disk(d) => d.leaves_under(h, visit),
        }
    }
}

/// One partition: a contiguous run of database sequences with its own
/// index, plus the offsets that map shard-local results back to global
/// coordinates.
pub(crate) struct Shard {
    pub(crate) db: Arc<SequenceDatabase>,
    pub(crate) index: ShardBackend,
    /// Global id of the shard's first sequence.
    pub(crate) seq_offset: SeqId,
    /// Global text position of the shard's first symbol.
    pub(crate) text_offset: u32,
}

impl Shard {
    /// The database of the contiguous global sequence range `lo..=hi`.
    /// A range covering all of `source` is `shared` itself when the
    /// caller holds it behind an [`Arc`] — an unsharded engine holds the
    /// database once — and otherwise a standalone copy of the range.
    /// Used by the cold-build path (below) and by the artifact loader in
    /// [`crate::persist`], which pairs pre-decoded trees with the same
    /// shard databases.
    pub(crate) fn database_for(
        source: &SequenceDatabase,
        shared: Option<&Arc<SequenceDatabase>>,
        lo: usize,
        hi: usize,
    ) -> Arc<SequenceDatabase> {
        let whole_range = lo == 0 && hi + 1 == source.num_sequences() as usize;
        if let (true, Some(shared)) = (whole_range, shared) {
            return Arc::clone(shared);
        }
        let mut b = DatabaseBuilderFor::new(source);
        for id in lo..=hi {
            b.push(id as SeqId);
        }
        Arc::new(b.finish())
    }

    /// Partition `db` into at most `max_shards` balanced shards (by
    /// residue count, whole sequences only) and index each one with
    /// `backend` — shards are independent, so they are built concurrently
    /// and startup is bounded by the slowest single shard, not the sum.
    /// `shared` is `db` behind an [`Arc`], when the caller has one (see
    /// [`Shard::database_for`]).
    pub(crate) fn build_all(
        db: &SequenceDatabase,
        shared: Option<&Arc<SequenceDatabase>>,
        max_shards: usize,
        backend: IndexBackend,
    ) -> Vec<Shard> {
        let weights: Vec<usize> = (0..db.num_sequences())
            // Terminators count too, so weights sum to the text length and
            // empty sequences still carry weight.
            .map(|id| db.seq_len(id) as usize + 1)
            .collect();
        let ranges = balanced_ranges(&weights, max_shards.max(1));
        let build_one = |&(lo, hi): &(usize, usize)| {
            let shard_db = Shard::database_for(db, shared, lo, hi);
            let index = match backend {
                IndexBackend::Tree => ShardBackend::Tree(SuffixTree::build(&shard_db)),
                IndexBackend::Esa => ShardBackend::Esa(EsaIndex::build(&shard_db)),
            };
            Shard {
                db: shard_db,
                index,
                seq_offset: lo as SeqId,
                text_offset: db.seq_start(lo as SeqId),
            }
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|range| scope.spawn(move || build_one(range)))
                .collect();
            #[expect(
                clippy::disallowed_methods,
                reason = "joins this build's own scoped threads; no caller holds a lock here"
            )]
            let shards = handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect();
            shards
        })
    }
}

/// The fan-out/merge OASIS engine — the one engine.
///
/// Owns the immutable search substrate behind [`Arc`] — the sequence
/// database and K per-shard indexes — plus the scoring scheme, and
/// executes queries against it: one at a time ([`run_one`]), streamed
/// ([`session`]), or as a concurrent batch over worker threads
/// ([`run_batch`]). Each query runs one [`SearchDriver`] per shard and
/// k-way-merges the streams, so results are byte-identical to a serial
/// [`oasis_core::OasisSearch`] over the whole database for every shard and
/// thread count (asserted by `tests/model_oracle.rs`); with one shard even
/// the search counters match.
///
/// [`run_one`]: ShardedEngine::run_one
/// [`run_batch`]: ShardedEngine::run_batch
/// [`session`]: ShardedEngine::session
pub struct ShardedEngine {
    db: Arc<SequenceDatabase>,
    scoring: Scoring,
    // Shards are shared (`Arc`) so layered snapshots — base shards + a
    // fresh delta shard per append — clone handles, not indexes.
    shards: Vec<Arc<Shard>>,
}

impl ShardedEngine {
    /// Partition `db` into at most `shards` balanced shards (by residue
    /// count, whole sequences only) and index each one — shards are
    /// independent, so they are built concurrently and startup is bounded
    /// by the slowest single shard, not the sum. Fewer shards may result
    /// when the database has fewer sequences than requested.
    pub fn build(db: Arc<SequenceDatabase>, scoring: Scoring, shards: usize) -> Self {
        let shards = Shard::build_all(&db, Some(&db), shards, IndexBackend::Tree);
        Self::from_shards(db, scoring, shards)
    }

    /// A one-shard engine serving `tree` disk-resident through its buffer
    /// pool — the paper's §3.4 operating mode, where the tree is never
    /// materialized in memory. `tree` must index exactly `db`, which the
    /// shard shares rather than copies. The single-shard artifact loader
    /// ([`crate::persist::disk_engine_from_artifact`]) opens through here,
    /// after checking that the tree indexes exactly `db`'s text.
    pub(crate) fn disk_resident(
        db: Arc<SequenceDatabase>,
        tree: DiskSuffixTree<FileDevice>,
        scoring: Scoring,
    ) -> Result<Self, ArtifactError> {
        if tree.text_len() != db.text_len() {
            return Err(ArtifactError::Corrupt(format!(
                "the disk tree indexes {} text symbols, the database has {}",
                tree.text_len(),
                db.text_len()
            )));
        }
        let shard = Shard {
            db: Arc::clone(&db),
            index: ShardBackend::Disk(tree),
            seq_offset: 0,
            text_offset: 0,
        };
        Ok(Self::from_shards(db, scoring, vec![shard]))
    }

    /// Assemble an engine from already-built shards (the cold-build path
    /// above, or pre-decoded trees loaded from an index artifact).
    pub(crate) fn from_shards(
        db: Arc<SequenceDatabase>,
        scoring: Scoring,
        shards: Vec<Shard>,
    ) -> Self {
        Self::from_shared_shards(db, scoring, shards.into_iter().map(Arc::new).collect())
    }

    /// Assemble an engine from shared shard handles — the layered path:
    /// every append snapshot reuses the base shards and adds one delta
    /// shard, so assembling a snapshot is O(shard count), not O(index).
    pub(crate) fn from_shared_shards(
        db: Arc<SequenceDatabase>,
        scoring: Scoring,
        shards: Vec<Arc<Shard>>,
    ) -> Self {
        ShardedEngine {
            db,
            scoring,
            shards,
        }
    }

    /// Number of shards actually built.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard list (for the artifact writer in [`crate::persist`]).
    pub(crate) fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Clone the shared shard handles (for layered snapshots).
    pub(crate) fn shared_shards(&self) -> Vec<Arc<Shard>> {
        self.shards.clone()
    }

    /// The global (unsharded) database.
    pub fn db(&self) -> &SequenceDatabase {
        &self.db
    }

    /// A shared handle to the global database.
    pub fn db_shared(&self) -> Arc<SequenceDatabase> {
        self.db.clone()
    }

    /// The scoring scheme every query uses.
    pub fn scoring(&self) -> &Scoring {
        &self.scoring
    }

    /// The buffer-pool counters of the disk-resident shard, cumulative
    /// since it was opened; all zeros for an in-memory engine. At most one
    /// shard is disk-resident (the §3.4 mode serves one unsharded tree),
    /// and the layered snapshots over it share its pool. Diff two reads
    /// with [`PoolStatsSnapshot::since`] for the traffic in between.
    pub fn pool_stats(&self) -> PoolStatsSnapshot {
        self.shards
            .iter()
            .find_map(|shard| match &shard.index {
                ShardBackend::Disk(tree) => Some(tree.pool().stats()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Begin a streaming fan-out search across all shards: hits arrive one
    /// by one in the global online order. Consume it as an iterator, then
    /// call [`ShardedSession::finish`] for the accounting.
    pub fn session(&self, query: &[u8], params: &OasisParams) -> ShardedSession<'_> {
        let cursors = if query.is_empty() {
            Vec::new() // degenerate input: serve an empty stream
        } else {
            self.shards
                .iter()
                .map(|shard| ShardCursor {
                    driver: SearchDriver::new(
                        &shard.index,
                        &shard.db,
                        query,
                        &self.scoring,
                        params,
                    ),
                    head: None,
                    exhausted: false,
                    seq_offset: shard.seq_offset,
                    text_offset: shard.text_offset,
                })
                .collect()
        };
        ShardedSession {
            cursors,
            emitted: 0,
        }
    }

    /// Run one query to completion on the calling thread.
    pub fn run_one(&self, query: &[u8], params: &OasisParams) -> SearchOutcome {
        self.run_job(&BatchQuery::new(query.to_vec(), *params))
    }

    /// Run one batch job (respecting its [`BatchQuery::limit`]) on the
    /// calling thread.
    pub fn run_job(&self, job: &BatchQuery) -> SearchOutcome {
        let mut session = self.session(&job.query, &job.params);
        let cap = job.limit.unwrap_or(usize::MAX);
        let hits: Vec<Hit> = session.by_ref().take(cap).collect();
        let stats = session.finish();
        SearchOutcome { hits, stats }
    }

    /// Execute a batch with one worker per available core, as
    /// [`run_batch_on`](ShardedEngine::run_batch_on) does with a given
    /// worker count.
    pub fn run_batch(&self, jobs: &[BatchQuery]) -> Vec<SearchOutcome> {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.run_batch_on(jobs, threads)
    }

    /// Execute a batch of queries across `threads` workers, one fan-out per
    /// query, returning one [`SearchOutcome`] per job **in job order**.
    ///
    /// Workers claim jobs from a shared cursor, so long and short queries
    /// interleave without static partitioning skew. Each query's results
    /// are identical to a serial run — concurrency affects only wall-clock
    /// time, even when the workers share one disk shard's buffer pool. A
    /// worker panic (e.g. a query encoded with the wrong alphabet)
    /// propagates to the caller.
    pub fn run_batch_on(&self, jobs: &[BatchQuery], threads: usize) -> Vec<SearchOutcome> {
        run_pooled(threads, jobs, |job| self.run_job(job))
    }
}

/// Rebuilds a contiguous slice of a database as a standalone database with
/// identical per-sequence content (names included, so diagnostics stay
/// meaningful inside a shard).
///
/// This copies the slice, so a multi-shard engine holds the sequence data
/// twice (global database + union of shards); a one-shard engine shares
/// the global database instead. A borrowed sub-database view over the
/// global text — valid because every shard is a contiguous text slice —
/// would eliminate the copy, but needs view support in
/// `oasis-bioseq`/`SuffixTree::build`; revisit if databases outgrow RAM.
pub(crate) struct DatabaseBuilderFor<'a> {
    source: &'a SequenceDatabase,
    builder: oasis_bioseq::DatabaseBuilder,
}

impl<'a> DatabaseBuilderFor<'a> {
    fn new(source: &'a SequenceDatabase) -> Self {
        DatabaseBuilderFor {
            source,
            builder: oasis_bioseq::DatabaseBuilder::new(source.alphabet().clone()),
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "build-time invariant: the shard re-adds a strict subset of the source"
    )]
    fn push(&mut self, id: SeqId) {
        let view = self.source.sequence(id);
        self.builder
            .push(Sequence::from_codes(
                view.name.to_string(),
                view.codes.to_vec(),
            ))
            .expect("shard cannot exceed the source database's size");
    }

    fn finish(self) -> SequenceDatabase {
        self.builder.finish()
    }
}

/// One shard's position in an in-progress merge.
struct ShardCursor<'e> {
    driver: SearchDriver<'e, ShardBackend>,
    /// The shard's next hit, already remapped to global coordinates.
    head: Option<Hit>,
    exhausted: bool,
    seq_offset: SeqId,
    text_offset: u32,
}

impl ShardCursor<'_> {
    /// Advance the underlying driver by one unit of work.
    fn pump(&mut self) {
        debug_assert!(self.head.is_none() && !self.exhausted);
        match self.driver.step() {
            StepOutcome::Hit(mut hit) => {
                hit.seq += self.seq_offset;
                hit.t_start += self.text_offset;
                self.head = Some(hit);
            }
            StepOutcome::Advanced => {}
            StepOutcome::Exhausted => self.exhausted = true,
        }
    }

    /// Could this shard still produce a hit at `score` or better? (Only
    /// meaningful while no head is materialized — the head *is* the
    /// shard's best remaining hit otherwise.)
    fn may_reach(&self, score: Score) -> bool {
        !self.exhausted && self.driver.score_bound().is_some_and(|b| b >= score)
    }
}

/// In the canonical global order, does `a` precede `b`?
fn precedes(a: &Hit, b: &Hit) -> bool {
    a.score > b.score || (a.score == b.score && a.t_start < b.t_start)
}

/// A streaming fan-out query over a [`ShardedEngine`]: iterates [`Hit`]s
/// in the global online (score descending, then start position) order,
/// byte-identical to a serial [`oasis_core::OasisSearch`] over the whole
/// database. Dropping the session without finishing simply discards the
/// accounting.
///
/// [`finish`](ShardedSession::finish) returns the aggregate search
/// statistics (summed over shards; `max_queue` is the largest per-shard
/// queue and `hits_emitted` counts hits the *merge* emitted).
pub struct ShardedSession<'e> {
    cursors: Vec<ShardCursor<'e>>,
    emitted: u64,
}

impl ShardedSession<'_> {
    /// An upper bound on the score of any hit the merged stream can still
    /// emit, or `None` when every shard is exhausted.
    pub fn score_bound(&self) -> Option<Score> {
        self.cursors
            .iter()
            .filter_map(|c| {
                c.head
                    .as_ref()
                    .map(|h| h.score)
                    .or_else(|| (!c.exhausted).then(|| c.driver.score_bound()).flatten())
            })
            .max()
    }

    /// Close the session, returning the aggregated search statistics.
    pub fn finish(self) -> SearchStats {
        let mut stats = SearchStats::default();
        for cursor in &self.cursors {
            let s = cursor.driver.stats();
            stats.columns_expanded += s.columns_expanded;
            stats.nodes_expanded += s.nodes_expanded;
            stats.nodes_enqueued += s.nodes_enqueued;
            stats.nodes_pruned += s.nodes_pruned;
            stats.max_queue = stats.max_queue.max(s.max_queue);
        }
        stats.hits_emitted = self.emitted;
        stats
    }
}

/// What one bounded [`ShardedSession::poll`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPoll {
    /// The merge released its next hit, in the global online order.
    Hit(Hit),
    /// The step budget ran out before the merge could release a hit; poll
    /// again to continue exactly where this call stopped.
    Pending,
    /// Every shard is exhausted: the stream is complete.
    Done,
}

impl ShardedSession<'_> {
    /// Advance the merge by at most `budget` driver steps (at least one
    /// round-robin pass): the next hit if the merge can release one within
    /// that work, [`SessionPoll::Pending`] if not.
    ///
    /// The merge keeps all its state in the cursors, so stopping after
    /// any pass and polling again performs exactly the steps one
    /// uninterrupted [`Iterator::next`] would: the hit order never
    /// depends on the budget. A caller that must stay responsive (the
    /// serving worker checks for cancellation) polls in bounded batches.
    pub fn poll(&mut self, budget: usize) -> SessionPoll {
        let mut steps = 0usize;
        loop {
            // The best already-materialized candidate.
            let best: Option<Hit> = self.cursors.iter().filter_map(|c| c.head).reduce(|a, b| {
                if precedes(&b, &a) {
                    b
                } else {
                    a
                }
            });
            // Any shard whose bound says it could still beat (or tie — a
            // tie is decided by start position, which only a materialized
            // head reveals) the candidate must advance first. One step
            // each, round-robin, so no shard monopolizes the merge.
            let mut pumped = false;
            for cursor in &mut self.cursors {
                if cursor.head.is_some() || cursor.exhausted {
                    continue;
                }
                // (Exhausted cursors were skipped above, so with no
                // candidate yet this shard must always advance.)
                let must = best.as_ref().is_none_or(|b| cursor.may_reach(b.score));
                if must {
                    cursor.pump();
                    pumped = true;
                    steps += 1;
                }
            }
            if pumped {
                if steps >= budget {
                    return SessionPoll::Pending;
                }
                continue;
            }
            // No shard can compete with `best` any more: emit it.
            let winner = self.cursors.iter_mut().find(|c| {
                c.head
                    .map(|h| best.map(|b| h == b).unwrap_or(false))
                    .unwrap_or(false)
            });
            return match winner.and_then(|cursor| cursor.head.take()) {
                Some(hit) => {
                    self.emitted += 1;
                    SessionPoll::Hit(hit)
                }
                None => SessionPoll::Done,
            };
        }
    }
}

impl Iterator for ShardedSession<'_> {
    type Item = Hit;

    fn next(&mut self) -> Option<Hit> {
        loop {
            match self.poll(usize::MAX) {
                SessionPoll::Hit(hit) => return Some(hit),
                SessionPoll::Pending => {}
                SessionPoll::Done => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_bioseq::{Alphabet, DatabaseBuilder};
    use oasis_core::OasisSearch;

    fn dna_db(seqs: &[&str]) -> Arc<SequenceDatabase> {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        Arc::new(b.finish())
    }

    /// Serial ground truth: one `OasisSearch` over a suffix tree of the
    /// whole database.
    fn serial(db: &SequenceDatabase, q: &[u8], params: &OasisParams) -> (Vec<Hit>, SearchStats) {
        let tree = SuffixTree::build(db);
        OasisSearch::new(&tree, db, q, &Scoring::unit_dna(), params).run()
    }

    const SEQS: &[&str] = &[
        "AGTACGCCTAG",
        "TACCG",
        "GGTAGG",
        "CCCCCC",
        "GATTACA",
        "TACGTACG",
        "ACACAC",
    ];

    #[test]
    fn single_shard_reproduces_stats_exactly() {
        let db = dna_db(SEQS);
        let engine = ShardedEngine::build(db.clone(), Scoring::unit_dna(), 1);
        assert_eq!(engine.num_shards(), 1);
        let q = Alphabet::dna().encode_str("GATT").unwrap();
        let params = OasisParams::with_min_score(2);
        let (hits, stats) = serial(&db, &q, &params);
        let got = engine.run_one(&q, &params);
        assert_eq!(got.hits, hits);
        assert_eq!(got.stats, stats);
    }

    #[test]
    fn one_shard_shares_the_global_database() {
        let db = dna_db(SEQS);
        for backend in [IndexBackend::Tree, IndexBackend::Esa] {
            let shards = Shard::build_all(&db, Some(&db), 1, backend);
            assert!(Arc::ptr_eq(&shards[0].db, &db), "{backend:?}");
        }
        // Several shards each hold their own slice of the database.
        let engine = ShardedEngine::build(db.clone(), Scoring::unit_dna(), 2);
        assert!(engine.shards().iter().all(|s| !Arc::ptr_eq(&s.db, &db)));
    }

    #[test]
    fn limit_takes_the_merged_prefix_lazily() {
        let db = dna_db(SEQS);
        let engine = ShardedEngine::build(db.clone(), Scoring::unit_dna(), 3);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let full = engine.run_one(&q, &params);
        let job = BatchQuery::new(q.clone(), params).with_limit(2);
        let limited = engine.run_job(&job);
        assert_eq!(limited.hits, full.hits[..2].to_vec());
        assert_eq!(limited.stats.hits_emitted, 2);
        // Laziness: the truncated fan-out does no more search work.
        assert!(limited.stats.nodes_expanded <= full.stats.nodes_expanded);
        // And matches the serial search's prefix.
        assert_eq!(limited.hits, serial(&db, &q, &params).0[..2]);
    }

    #[test]
    fn session_streams_in_global_online_order() {
        let db = dna_db(SEQS);
        let engine = ShardedEngine::build(db, Scoring::unit_dna(), 3);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let mut session = engine.session(&q, &params);
        assert!(session.score_bound().is_some());
        let hits: Vec<Hit> = session.by_ref().collect();
        assert!(session.score_bound().is_none());
        assert!(hits.windows(2).all(|w| w[0].score > w[1].score
            || (w[0].score == w[1].score && w[0].t_start < w[1].t_start)));
        let stats = session.finish();
        assert_eq!(stats.hits_emitted as usize, hits.len());
        assert_eq!(
            engine.pool_stats().total().requests,
            0,
            "in-memory shards: no pool"
        );
    }

    #[test]
    fn bounded_polls_release_the_iterator_stream_exactly() {
        let db = dna_db(SEQS);
        let engine = ShardedEngine::build(db, Scoring::unit_dna(), 3);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let mut whole = engine.session(&q, &params);
        let want: Vec<Hit> = whole.by_ref().collect();
        let want_stats = whole.finish();
        assert!(want.len() > 2, "the query must stream several hits");
        for budget in [1usize, 2, 7] {
            let mut session = engine.session(&q, &params);
            let (mut got, mut pending) = (Vec::new(), 0usize);
            loop {
                match session.poll(budget) {
                    SessionPoll::Hit(hit) => got.push(hit),
                    SessionPoll::Pending => pending += 1,
                    SessionPoll::Done => break,
                }
            }
            assert_eq!(got, want, "budget {budget}");
            assert_eq!(session.finish(), want_stats, "budget {budget}");
            if budget == 1 {
                assert!(pending > 0, "a one-step budget must yield Pending");
            }
        }
    }

    #[test]
    fn shard_names_and_coordinates_remap_to_global() {
        let db = dna_db(&["AAAA", "TACG", "GGGG"]);
        let engine = ShardedEngine::build(db.clone(), Scoring::unit_dna(), 3);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let hits = engine.run_one(&q, &OasisParams::with_min_score(4)).hits;
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].seq, 1);
        assert_eq!(db.name(hits[0].seq), "s1");
        assert_eq!(hits[0].t_start, 5); // global text position of "TACG"
    }

    #[test]
    fn empty_query_and_empty_database_are_served() {
        let db = dna_db(SEQS);
        let engine = ShardedEngine::build(db, Scoring::unit_dna(), 2);
        let params = OasisParams::with_min_score(1);
        let outcome = engine.run_one(&[], &params);
        assert!(outcome.hits.is_empty());
        assert_eq!(outcome.stats, SearchStats::default());

        let empty = dna_db(&[]);
        let engine = ShardedEngine::build(empty, Scoring::unit_dna(), 4);
        assert_eq!(engine.num_shards(), 0);
        let q = vec![0u8, 1];
        assert!(engine.run_one(&q, &params).hits.is_empty());
    }
}
