//! The layered mutable index: immutable base shards + live delta + WAL.
//!
//! This module turns the build-once artifact lifecycle into an
//! LSM-flavoured layered one. A [`LiveIndex`] owns one on-disk base
//! artifact, the append write-ahead log next to it, and an in-memory
//! [`DeltaIndex`](crate::DeltaIndex) holding every durably logged append
//! a compaction has not yet folded into the base. Queries never touch
//! that mutable state directly: each mutation rebuilds an immutable
//! snapshot — a [`ShardedEngine`] over the base shards plus one delta
//! shard, fanned through the exact lazy k-way merge — and readers grab
//! whichever snapshot is current via an `Arc` swap, the same publication
//! pattern [`IndexCatalog`](crate::IndexCatalog) uses for whole
//! generations.
//!
//! The base is whatever engine the artifact was opened as:
//! [`LiveIndex::adopt`] shares its shards, so a disk-resident base stays
//! on disk until the first compaction replaces it with the folded one.
//!
//! ## Invariants
//!
//! * **Logged iff indexed.** `append` writes each sequence to the WAL
//!   (fsynced) *before* adding it to the delta, one record at a time. A
//!   crash mid-batch loses only un-logged sequences; replay reproduces
//!   the delta exactly.
//! * **Truncate only after publish.** Compaction persists the merged
//!   artifact (manifest v3, `folded_through` recorded), adopts it as the
//!   new base, publishes the fresh snapshot, and only then rewrites the
//!   WAL down to the unfolded tail. Any crash in between replays from
//!   `folded_through`, so folded appends are never applied twice.
//! * **Byte identity.** The layered snapshot answers every query with
//!   output byte-identical to a fresh full build over the concatenated
//!   (base + delta) database — see the module docs of
//!   [`crate::DeltaIndex`] for why the shard merge makes this exact.

use std::ops::{Deref, DerefMut};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use oasis_align::Scoring;
use oasis_bioseq::database::MAX_TEXT_LEN;
use oasis_bioseq::{BioseqError, DatabaseBuilder, Sequence, SequenceDatabase};
use oasis_obs::sync::{Mutex, MutexGuard};
use oasis_storage::artifact::ArtifactError;
use oasis_storage::wal::{WalError, WriteAheadLog};
use oasis_storage::{pending_records, read_manifest, DeltaLineage, IndexManifest};

use crate::catalog::PublishError;
use crate::compactor::{fold_into_base, resolve_shape, CompactionReport};
use crate::delta::DeltaIndex;
use crate::persist::sharded_engine_from_artifact;
use crate::shard::{IndexBackend, ShardedEngine};

/// Everything that can go wrong operating a [`LiveIndex`].
#[derive(Debug)]
pub enum LiveIndexError {
    /// Reading or writing the base artifact failed.
    Artifact(ArtifactError),
    /// Reading or writing the append write-ahead log failed.
    Wal(WalError),
    /// The appended sequences would push the concatenated database past
    /// the global text-length limit.
    Bioseq(BioseqError),
    /// Publishing the compacted generation was refused.
    Publish(PublishError),
    /// Another compaction is already running; try again after it ends.
    CompactionInProgress,
}

impl std::fmt::Display for LiveIndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveIndexError::Artifact(e) => write!(f, "artifact: {e}"),
            LiveIndexError::Wal(e) => write!(f, "wal: {e}"),
            LiveIndexError::Bioseq(e) => write!(f, "append rejected: {e}"),
            LiveIndexError::Publish(e) => write!(f, "publish: {e}"),
            LiveIndexError::CompactionInProgress => {
                write!(f, "a compaction is already in progress")
            }
        }
    }
}

impl std::error::Error for LiveIndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveIndexError::Artifact(e) => Some(e),
            LiveIndexError::Wal(e) => Some(e),
            LiveIndexError::Bioseq(e) => Some(e),
            LiveIndexError::Publish(e) => Some(e),
            LiveIndexError::CompactionInProgress => None,
        }
    }
}

impl From<ArtifactError> for LiveIndexError {
    fn from(e: ArtifactError) -> Self {
        LiveIndexError::Artifact(e)
    }
}

impl From<WalError> for LiveIndexError {
    fn from(e: WalError) -> Self {
        LiveIndexError::Wal(e)
    }
}

impl From<BioseqError> for LiveIndexError {
    fn from(e: BioseqError) -> Self {
        LiveIndexError::Bioseq(e)
    }
}

impl From<PublishError> for LiveIndexError {
    fn from(e: PublishError) -> Self {
        LiveIndexError::Publish(e)
    }
}

/// Overrides for how a [`LiveIndex`] rebuilds artifacts at compaction.
/// `None` fields inherit from the base manifest, so the default keeps
/// the artifact's existing shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct LiveIndexOptions {
    /// Shard count for compacted artifacts (default: the base's count).
    pub shards: Option<usize>,
    /// Block size for compacted artifacts (default: the base's).
    pub block_size: Option<usize>,
    /// Index backend for delta and compacted shards (default: the
    /// base's first shard's backend).
    pub backend: Option<IndexBackend>,
}

/// A point-in-time snapshot of live ingestion state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Sequences in the delta (appended, not yet compacted).
    pub delta_seqs: u32,
    /// Residues in the delta (terminators excluded).
    pub delta_residues: u64,
    /// Bytes in the append write-ahead log.
    pub wal_bytes: u64,
    /// Compactions completed over the artifact's lifetime.
    pub compactions: u64,
    /// Total sequences ever appended (folded and pending alike).
    pub appended_seqs: u64,
    /// Wall-clock duration of the most recent compaction, in
    /// microseconds. Zero when no compaction has run yet.
    pub last_compaction_micros: u64,
    /// Sequences the most recent compaction folded into the base.
    pub last_folded_seqs: u64,
}

/// What one [`LiveIndex::append`] call did.
#[derive(Debug, Clone)]
pub struct AppendReceipt {
    /// Sequences appended by this call.
    pub appended_seqs: u32,
    /// Residues appended by this call (terminators excluded).
    pub appended_residues: u64,
    /// Ingestion state after the append.
    pub stats: LiveStats,
}

struct LiveState {
    /// The base: the adopted engine, or the last compaction's fold.
    base: Arc<ShardedEngine>,
    delta: DeltaIndex,
    wal: WriteAheadLog,
    lineage: DeltaLineage,
    snapshot: Arc<ShardedEngine>,
    last_compaction_micros: u64,
    last_folded_seqs: u64,
}

impl LiveState {
    fn stats(&self) -> LiveStats {
        LiveStats {
            delta_seqs: self.delta.num_seqs(),
            delta_residues: self.delta.residues(),
            wal_bytes: self.wal.bytes(),
            compactions: self.lineage.compactions,
            appended_seqs: self.wal.next_seq(),
            last_compaction_micros: self.last_compaction_micros,
            last_folded_seqs: self.last_folded_seqs,
        }
    }
}

/// The layered mutable index: one base artifact on disk, its append
/// WAL, the in-memory delta, and the current query snapshot.
///
/// All methods take `&self`; internal state lives behind a mutex so a
/// server can share one `Arc<LiveIndex>` between its connection
/// handlers and a background compaction thread. Queries should not hold
/// the lock: grab [`LiveIndex::snapshot`] and run against that.
pub struct LiveIndex {
    dir: PathBuf,
    backend: IndexBackend,
    shard_count: usize,
    block_size: usize,
    state: Mutex<LiveState>,
    /// `state`'s counters as of the last mutation, published before the
    /// mutation releases `state`. [`LiveIndex::stats`] reads this copy,
    /// so a metrics request never waits behind an append's WAL fsyncs or
    /// a snapshot rebuild.
    stats: Mutex<LiveStats>,
    compacting: AtomicBool,
}

/// `state` locked for a mutation. Dropping it publishes the state's
/// counters to [`LiveIndex::stats`] before the lock is released.
struct Mutating<'a> {
    state: MutexGuard<'a, LiveState>,
    stats: &'a Mutex<LiveStats>,
}

impl Deref for Mutating<'_> {
    type Target = LiveState;

    fn deref(&self) -> &LiveState {
        &self.state
    }
}

impl DerefMut for Mutating<'_> {
    fn deref_mut(&mut self) -> &mut LiveState {
        &mut self.state
    }
}

impl Drop for Mutating<'_> {
    fn drop(&mut self) {
        *self.stats.lock() = self.state.stats();
    }
}

impl LiveIndex {
    /// Open the artifact in `dir` for live ingestion: load the base in
    /// memory, then [`adopt`](LiveIndex::adopt) it.
    pub fn open(
        dir: &Path,
        scoring: Scoring,
        options: LiveIndexOptions,
    ) -> Result<Self, LiveIndexError> {
        let manifest = read_manifest(dir)?;
        let db = Arc::new(manifest.load_database(dir)?);
        let base = sharded_engine_from_artifact(dir, &manifest, db, scoring)?;
        Self::adopt(dir, &manifest, base, options)
    }

    /// Take over `base`, an engine already opened over the artifact in
    /// `dir` (whose manifest is `manifest`), for live ingestion: share its
    /// database and shards as they are — a disk-resident shard stays
    /// disk-resident until the first compaction — replay the WAL tail
    /// past the manifest's `folded_through` mark into the delta, and
    /// build the initial snapshot with `base`'s scoring and thread count.
    pub fn adopt(
        dir: &Path,
        manifest: &IndexManifest,
        base: ShardedEngine,
        options: LiveIndexOptions,
    ) -> Result<Self, LiveIndexError> {
        let (backend, shard_count, block_size) = resolve_shape(manifest, options);
        let (mut wal, replay) = WriteAheadLog::open(dir)?;
        let delta =
            DeltaIndex::from_records(pending_records(replay.records, manifest.lineage.as_ref()));
        if let Some(lineage) = &manifest.lineage {
            wal.reserve_past(lineage.folded_through);
        }
        let base = Arc::new(base);
        let snapshot = make_snapshot(&base, &delta, backend)?;
        let state = LiveState {
            base,
            delta,
            wal,
            lineage: manifest.lineage.unwrap_or_default(),
            snapshot,
            last_compaction_micros: 0,
            last_folded_seqs: 0,
        };
        Ok(LiveIndex {
            dir: dir.to_path_buf(),
            backend,
            shard_count,
            block_size,
            stats: Mutex::new(state.stats()),
            state: Mutex::new(state),
            compacting: AtomicBool::new(false),
        })
    }

    /// The backend delta and compacted shards are built with.
    pub fn backend(&self) -> IndexBackend {
        self.backend
    }

    /// The current immutable query snapshot: the base shards plus, when
    /// the delta is non-empty, one delta shard over the concatenated
    /// database ([`LiveIndex::stats`] reports the delta's size).
    pub fn snapshot(&self) -> Arc<ShardedEngine> {
        Arc::clone(&self.state.lock().snapshot)
    }

    /// Ingestion counters as of the end of the last append or compaction.
    /// Never waits for one in flight.
    pub fn stats(&self) -> LiveStats {
        *self.stats.lock()
    }

    /// Lock `state` for a mutation; see [`Mutating`].
    fn mutate(&self) -> Mutating<'_> {
        Mutating {
            state: self.state.lock(),
            stats: &self.stats,
        }
    }

    /// Durably append sequences and fold them into the live snapshot.
    ///
    /// Each sequence is WAL-logged (fsynced) before it enters the delta,
    /// so "in the log" and "applied to the delta" never diverge by more
    /// than the record being written. The whole batch is admission-checked
    /// against the global text-length limit up front; an oversized batch
    /// is rejected whole, leaving log and delta untouched.
    pub fn append(&self, seqs: Vec<Sequence>) -> Result<AppendReceipt, LiveIndexError> {
        let mut state = self.mutate();
        let mut projected = state.base.db().text_len() as u64
            + state.delta.residues()
            + u64::from(state.delta.num_seqs());
        for seq in &seqs {
            projected = projected
                .saturating_add(seq.codes().len() as u64)
                .saturating_add(1);
        }
        if projected > MAX_TEXT_LEN {
            return Err(LiveIndexError::Bioseq(BioseqError::TooLarge {
                attempted: projected,
            }));
        }
        let mut appended_residues = 0u64;
        let appended_seqs = seqs.len() as u32;
        for seq in seqs {
            appended_residues += seq.codes().len() as u64;
            let record = state.wal.append(seq.name(), seq.codes())?;
            state.delta.push(record);
        }
        state.snapshot = make_snapshot(&state.base, &state.delta, self.backend)?;
        Ok(AppendReceipt {
            appended_seqs,
            appended_residues,
            stats: state.stats(),
        })
    }

    /// Fold the current delta into a fresh base artifact, publish the
    /// compacted snapshot through `publish`, and truncate the WAL.
    ///
    /// The expensive work (concatenating the database, rebuilding every
    /// shard, persisting the artifact) runs *off* the state lock, so
    /// appends and queries proceed while the compaction grinds; only the
    /// initial freeze and the final adopt-and-truncate hold it. At most
    /// one compaction runs at a time ([`LiveIndexError::CompactionInProgress`]
    /// otherwise). If `publish` refuses — the catalog is shutting down —
    /// the WAL is left intact: nothing is lost, and the next startup
    /// replays from the artifact actually visible on disk.
    pub fn compact(
        &self,
        publish: impl FnOnce(Arc<ShardedEngine>) -> Result<u64, PublishError>,
    ) -> Result<CompactionReport, LiveIndexError> {
        if self.compacting.swap(true, Ordering::SeqCst) {
            return Err(LiveIndexError::CompactionInProgress);
        }
        let report = self.compact_locked_flag(publish);
        self.compacting.store(false, Ordering::SeqCst);
        report
    }

    fn compact_locked_flag(
        &self,
        publish: impl FnOnce(Arc<ShardedEngine>) -> Result<u64, PublishError>,
    ) -> Result<CompactionReport, LiveIndexError> {
        let started = Instant::now();
        // Freeze: under the lock, note exactly which records this
        // compaction will fold. Appends that land afterwards get higher
        // seq_nos and simply survive into the next delta.
        let (base, frozen, lineage) = {
            let state = self.state.lock();
            if state.delta.is_empty() {
                return Ok(CompactionReport {
                    folded_seqs: 0,
                    folded_residues: 0,
                    generation: None,
                    micros: 0,
                });
            }
            (
                Arc::clone(&state.base),
                DeltaIndex::from_records(state.delta.records().to_vec()),
                state.lineage,
            )
        };
        let folded_through = match frozen.last_seq_no() {
            Some(n) => n,
            None => return Err(LiveIndexError::CompactionInProgress),
        };
        let next_lineage = DeltaLineage {
            compactions: lineage.compactions + 1,
            appended_seqs: folded_through + 1,
            folded_through,
        };
        // Build + persist off the lock: queries and appends continue
        // against the old snapshot while this grinds.
        let (merged_db, merged_shards) = fold_into_base(
            &self.dir,
            base.db(),
            &frozen,
            self.shard_count,
            self.block_size,
            self.backend,
            next_lineage,
        )?;
        let folded_residues = frozen.residues();
        let folded_seqs = frozen.num_seqs();

        // Adopt: swap the merged artifact in as the new base, rebuild the
        // snapshot over the (possibly non-empty) surviving delta tail,
        // publish, and only then truncate the WAL.
        let merged = ShardedEngine::from_shards(merged_db, base.scoring().clone(), merged_shards);
        let mut state = self.mutate();
        state.base = Arc::new(merged);
        state.delta.drop_folded(folded_through);
        state.lineage = next_lineage;
        state.snapshot = make_snapshot(&state.base, &state.delta, self.backend)?;
        let generation = publish(Arc::clone(&state.snapshot))?;
        let tail = state.delta.records().to_vec();
        state.wal.rewrite(&tail)?;
        let micros = started.elapsed().as_micros() as u64;
        state.last_compaction_micros = micros;
        state.last_folded_seqs = u64::from(folded_seqs);
        Ok(CompactionReport {
            folded_seqs,
            folded_residues,
            generation: Some(generation),
            micros,
        })
    }

    /// True while a compaction is running.
    pub fn is_compacting(&self) -> bool {
        self.compacting.load(Ordering::SeqCst)
    }
}

/// Concatenate `base`'s sequences with the delta's into one database —
/// the database a full rebuild over "everything appended so far" would
/// index.
pub(crate) fn concatenate(
    base: &SequenceDatabase,
    delta: &DeltaIndex,
) -> Result<SequenceDatabase, LiveIndexError> {
    let mut builder = DatabaseBuilder::new(base.alphabet().clone());
    for view in base.sequences() {
        builder.push(Sequence::from_codes(
            view.name.to_string(),
            view.codes.to_vec(),
        ))?;
    }
    for seq in delta.sequences() {
        builder.push(seq)?;
    }
    Ok(builder.finish())
}

/// Build an immutable snapshot: `base` itself while the delta is empty,
/// otherwise `base`'s shards, shared as they are, plus one delta shard,
/// backed by the concatenated database.
fn make_snapshot(
    base: &Arc<ShardedEngine>,
    delta: &DeltaIndex,
    backend: IndexBackend,
) -> Result<Arc<ShardedEngine>, LiveIndexError> {
    if delta.is_empty() {
        return Ok(Arc::clone(base));
    }
    let combined = Arc::new(concatenate(base.db(), delta)?);
    let delta_shard = match delta.build_shard(base.db(), backend) {
        Some(shard) => shard,
        // Unreachable: `concatenate` above already validated the size.
        None => {
            return Err(LiveIndexError::Bioseq(BioseqError::TooLarge {
                attempted: combined.text_len() as u64,
            }))
        }
    };
    let mut shards = base.shared_shards();
    shards.push(Arc::new(delta_shard));
    Ok(Arc::new(ShardedEngine::from_shared_shards(
        combined,
        base.scoring().clone(),
        shards,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{build_index_artifact, open_artifact_engine};
    use oasis_bioseq::Alphabet;
    use oasis_core::OasisParams;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oasis-layered-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seed_artifact(dir: &Path, backend: IndexBackend, shards: usize) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        b.push_str("a", "ACGTACGTAC").unwrap();
        b.push_str("b", "TTACGTTT").unwrap();
        b.push_str("c", "GGGACGTA").unwrap();
        let db = b.finish();
        build_index_artifact(&db, dir, shards, 64, backend).unwrap();
        db
    }

    fn dna_seq(name: &str, residues: &str) -> Sequence {
        let codes = Alphabet::dna().encode_str(residues).unwrap();
        Sequence::from_codes(name, codes)
    }

    #[test]
    fn reopen_replays_the_wal() {
        let dir = tmpdir("reopen");
        seed_artifact(&dir, IndexBackend::Esa, 1);
        {
            let live =
                LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default()).unwrap();
            live.append(vec![dna_seq("d", "ACGT"), dna_seq("e", "TTTT")])
                .unwrap();
        }
        let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default()).unwrap();
        let stats = live.stats();
        assert_eq!(stats.delta_seqs, 2);
        assert_eq!(stats.appended_seqs, 2);
        assert_eq!(live.backend(), IndexBackend::Esa, "backend inherited");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test code: the state lock is held across the wait on purpose"
    )]
    fn stats_answer_while_a_mutation_holds_the_state_lock() {
        let dir = tmpdir("stats-unlocked");
        seed_artifact(&dir, IndexBackend::Tree, 1);
        let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default()).unwrap();
        let receipt = live.append(vec![dna_seq("d", "ACGTAA")]).unwrap();
        // An append in flight holds `state` across its fsyncs and the
        // snapshot rebuild; a stats reader must not wait for it.
        let held = live.state.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let live = &live;
            scope.spawn(move || tx.send(live.stats()));
            let answered = rx.recv_timeout(std::time::Duration::from_secs(2));
            drop(held);
            assert_eq!(answered.ok(), Some(receipt.stats));
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_folds_the_delta_and_truncates_the_wal() {
        let dir = tmpdir("compact");
        seed_artifact(&dir, IndexBackend::Tree, 2);
        let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default()).unwrap();
        live.append(vec![dna_seq("d", "ACGTAA")]).unwrap();
        live.append(vec![dna_seq("e", "GGCCGG")]).unwrap();

        let report = live.compact(|_snap| Ok(7)).unwrap();
        assert_eq!(report.folded_seqs, 2);
        assert_eq!(report.folded_residues, 12);
        assert_eq!(report.generation, Some(7));

        let stats = live.stats();
        assert_eq!(stats.delta_seqs, 0);
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.last_folded_seqs, 2);

        // The new manifest records the lineage and the merged sequences.
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.num_seqs, 5);
        let lineage = manifest.lineage.unwrap();
        assert_eq!(lineage.compactions, 1);
        assert_eq!(lineage.folded_through, 1);

        // An empty compact is a no-op that publishes nothing.
        let idle = live.compact(|_snap| Ok(99)).unwrap();
        assert_eq!(idle.folded_seqs, 0);
        assert_eq!(idle.generation, None);

        // A later append continues the WAL numbering past the fold.
        let receipt = live.append(vec![dna_seq("f", "AAAA")]).unwrap();
        assert_eq!(receipt.stats.appended_seqs, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn refused_publish_leaves_the_wal_intact() {
        let dir = tmpdir("refused-publish");
        seed_artifact(&dir, IndexBackend::Tree, 1);
        let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default()).unwrap();
        live.append(vec![dna_seq("d", "ACGTAA")]).unwrap();
        let wal_bytes = live.stats().wal_bytes;

        let err = live
            .compact(|_snap| Err(PublishError::ShuttingDown))
            .unwrap_err();
        assert!(matches!(err, LiveIndexError::Publish(_)));
        // The log still holds the record: a restart replays it against
        // whatever artifact is visible on disk. Here the merged artifact
        // *did* land (only the publish failed), so replay skips the
        // folded record and the delta comes back empty.
        assert_eq!(live.stats().wal_bytes, wal_bytes);
        drop(live);
        let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default()).unwrap();
        assert_eq!(live.stats().delta_seqs, 0, "already folded on disk");
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.num_seqs, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn adopted_disk_resident_base_stays_on_the_pool_after_appends() {
        let dir = tmpdir("adopt-disk");
        seed_artifact(&dir, IndexBackend::Tree, 1);
        let manifest = read_manifest(&dir).unwrap();
        let db = Arc::new(manifest.load_database(&dir).unwrap());
        let base = open_artifact_engine(&dir, &manifest, db, Scoring::unit_dna(), 1 << 16).unwrap();
        let live = LiveIndex::adopt(&dir, &manifest, base, LiveIndexOptions::default()).unwrap();
        live.append(vec![dna_seq("d", "ACGTTACG"), dna_seq("e", "TACGTACG")])
            .unwrap();

        let snap = live.snapshot();
        assert_eq!(snap.num_shards(), 2, "the disk base shard plus the delta");
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (name, residues) in [
            ("a", "ACGTACGTAC"),
            ("b", "TTACGTTT"),
            ("c", "GGGACGTA"),
            ("d", "ACGTTACG"),
            ("e", "TACGTACG"),
        ] {
            b.push_str(name, residues).unwrap();
        }
        let rebuilt = ShardedEngine::build(Arc::new(b.finish()), Scoring::unit_dna(), 1);
        let q = Alphabet::dna().encode_str("TACGT").unwrap();
        for min in 1..=5 {
            let params = OasisParams::with_min_score(min);
            let before = snap.pool_stats();
            let outcome = snap.run_one(&q, &params);
            assert!(
                snap.pool_stats().since(&before).total().requests > 0,
                "min={min}: the base shard must still read through the buffer pool"
            );
            assert_eq!(outcome.hits, rebuilt.run_one(&q, &params).hits, "min={min}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_compaction_is_rejected_while_one_runs() {
        let dir = tmpdir("compact-race");
        seed_artifact(&dir, IndexBackend::Tree, 1);
        let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default()).unwrap();
        live.append(vec![dna_seq("d", "ACGTAA")]).unwrap();
        let live = Arc::new(live);
        let inner = Arc::clone(&live);
        let report = live
            .compact(move |_snap| {
                // Re-entrant compact from inside the publish step models a
                // concurrent caller: the in-flight flag must reject it.
                let err = inner.compact(|_s| Ok(0)).unwrap_err();
                assert!(matches!(err, LiveIndexError::CompactionInProgress));
                Ok(3)
            })
            .unwrap();
        assert_eq!(report.generation, Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }
}
