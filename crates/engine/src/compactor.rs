//! Background compaction: fold the delta into a fresh base artifact.
//!
//! Compaction is the maintenance half of the layered lifecycle
//! ([`crate::LiveIndex`]): it concatenates the base database with the
//! frozen delta, rebuilds every shard over the merged text, and persists
//! an artifact whose [`DeltaLineage`] records how far into the
//! WAL the fold reached (`folded_through`). The artifact write is atomic
//! (temp + fsync + rename, inherited from the artifact layer), and the
//! WAL is truncated only *after* the merged artifact — and, on the
//! serving path, the published generation — is durable. Every crash
//! window therefore resolves to one of two states on restart: the old
//! base plus a replayable log, or the new base plus a log whose folded
//! prefix replay skips.
//!
//! The one entry point is [`LiveIndex::compact`](crate::LiveIndex::compact):
//! the expensive fold runs off the state lock, so queries and appends go
//! on while it grinds. Offline (`oasis index append --compact`) it is
//! the same call with a `publish` that has no catalog to publish into.

use std::path::Path;

use oasis_bioseq::SequenceDatabase;
use oasis_storage::{DeltaLineage, IndexManifest};

use crate::delta::DeltaIndex;
use crate::layered::{concatenate, LiveIndexError, LiveIndexOptions};
use crate::persist::artifact_entries;
use crate::shard::{IndexBackend, Shard};
use std::sync::Arc;

/// What one compaction did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionReport {
    /// Sequences folded from the delta into the new base.
    pub folded_seqs: u32,
    /// Residues folded (terminators excluded).
    pub folded_residues: u64,
    /// The generation `publish` reported for the compacted snapshot
    /// (`None` for an empty-delta no-op, which publishes nothing).
    pub generation: Option<u64>,
    /// Wall-clock duration of the compaction, in microseconds.
    pub micros: u64,
}

/// Resolve artifact-shape overrides against what the manifest records:
/// `(backend, shard count, block size)`.
pub(crate) fn resolve_shape(
    manifest: &IndexManifest,
    options: LiveIndexOptions,
) -> (IndexBackend, usize, usize) {
    let manifest_backend = match manifest.shards.first().map(|s| s.kind) {
        Some(oasis_storage::SectionKind::PackedEsa) => IndexBackend::Esa,
        _ => IndexBackend::Tree,
    };
    (
        options.backend.unwrap_or(manifest_backend),
        options
            .shards
            .unwrap_or_else(|| manifest.shards.len().max(1)),
        options.block_size.unwrap_or(manifest.block_size as usize),
    )
}

/// The fold: concatenate `base` with the frozen delta, rebuild
/// `shard_count` shards over the merged database, and atomically persist
/// the artifact (lineage included) into `dir`. Returns the
/// merged database and its shards so the caller can adopt them without
/// re-reading the artifact it just wrote.
pub(crate) fn fold_into_base(
    dir: &Path,
    base: &SequenceDatabase,
    frozen: &DeltaIndex,
    shard_count: usize,
    block_size: usize,
    backend: IndexBackend,
    lineage: DeltaLineage,
) -> Result<(Arc<SequenceDatabase>, Vec<Shard>), LiveIndexError> {
    let merged = Arc::new(concatenate(base, frozen)?);
    let shards = Shard::build_all(&merged, Some(&merged), shard_count, backend);
    let entries = artifact_entries(shards.iter())?;
    oasis_storage::write_index_artifact(dir, &merged, &entries, block_size, Some(lineage))?;
    Ok((merged, shards))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{build_index_artifact, load_sharded_engine};
    use crate::shard::ShardedEngine;
    use crate::LiveIndex;
    use oasis_align::Scoring;
    use oasis_bioseq::{Alphabet, DatabaseBuilder, Sequence};
    use oasis_core::OasisParams;
    use oasis_storage::{read_manifest, replay_wal, WriteAheadLog, WAL_FILE};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("oasis-compactor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seed(dir: &Path, backend: IndexBackend, shards: usize) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        b.push_str("a", "ACGTACGTAC").unwrap();
        b.push_str("b", "TTACGTTT").unwrap();
        let db = b.finish();
        build_index_artifact(&db, dir, shards, 64, backend).unwrap();
        db
    }

    fn log_append(dir: &Path, name: &str, residues: &str) {
        let (mut wal, _) = WriteAheadLog::open(dir).unwrap();
        if let Some(l) = read_manifest(dir).unwrap().lineage {
            wal.reserve_past(l.folded_through);
        }
        let codes = Alphabet::dna().encode_str(residues).unwrap();
        wal.append(name, &codes).unwrap();
    }

    /// Open the artifact in `dir` (replaying its WAL) and compact it with
    /// no catalog to publish into, as `oasis index append --compact` does.
    fn compact_offline(dir: &Path, options: LiveIndexOptions) -> CompactionReport {
        LiveIndex::open(dir, Scoring::unit_dna(), options)
            .unwrap()
            .compact(|_| Ok(0))
            .unwrap()
    }

    #[test]
    fn offline_compaction_folds_the_log() {
        for backend in [IndexBackend::Tree, IndexBackend::Esa] {
            let dir = tmpdir(&format!("offline-{}", backend.as_str()));
            seed(&dir, backend, 2);
            log_append(&dir, "c", "GGGACGTA");
            log_append(&dir, "d", "TTTT");

            let report = compact_offline(&dir, LiveIndexOptions::default());
            assert_eq!(report.folded_seqs, 2);
            assert_eq!(report.folded_residues, 12);
            assert_eq!(report.generation, Some(0), "what the publish hook returned");

            let manifest = read_manifest(&dir).unwrap();
            assert_eq!(manifest.num_seqs, 4);
            let lineage = manifest.lineage.unwrap();
            assert_eq!(
                (
                    lineage.compactions,
                    lineage.appended_seqs,
                    lineage.folded_through
                ),
                (1, 2, 1)
            );
            // The log shrank to just its magic; replay finds nothing new.
            let replay = replay_wal(&dir).unwrap().unwrap();
            assert!(replay.records.is_empty());

            // The folded artifact answers like a fresh build over all four.
            let mut b = DatabaseBuilder::new(Alphabet::dna());
            b.push_str("a", "ACGTACGTAC").unwrap();
            b.push_str("b", "TTACGTTT").unwrap();
            b.push(Sequence::from_codes(
                "c",
                Alphabet::dna().encode_str("GGGACGTA").unwrap(),
            ))
            .unwrap();
            b.push(Sequence::from_codes(
                "d",
                Alphabet::dna().encode_str("TTTT").unwrap(),
            ))
            .unwrap();
            let fresh = ShardedEngine::build(Arc::new(b.finish()), Scoring::unit_dna(), 2);
            let loaded = load_sharded_engine(&dir, Scoring::unit_dna()).unwrap();
            let q = Alphabet::dna().encode_str("ACGT").unwrap();
            for min in 1..=4 {
                let params = OasisParams::with_min_score(min);
                assert_eq!(
                    loaded.run_one(&q, &params).hits,
                    fresh.run_one(&q, &params).hits,
                    "backend={backend:?} min={min}"
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn idle_compaction_changes_nothing() {
        let dir = tmpdir("idle");
        seed(&dir, IndexBackend::Tree, 1);
        // No WAL at all, and opening one for the compaction creates none.
        let report = compact_offline(&dir, LiveIndexOptions::default());
        assert_eq!((report.folded_seqs, report.generation), (0, None));
        assert!(
            !dir.join(WAL_FILE).exists(),
            "opening the WAL wrote no file"
        );
        let manifest = read_manifest(&dir).unwrap();
        assert!(manifest.lineage.is_none(), "stays lineage-free");

        // A second compaction right after a fold is also idle.
        log_append(&dir, "c", "ACGT");
        compact_offline(&dir, LiveIndexOptions::default());
        let report = compact_offline(&dir, LiveIndexOptions::default());
        assert_eq!(report.folded_seqs, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_between_fold_and_truncate_replays_nothing_twice() {
        let dir = tmpdir("crash-window");
        seed(&dir, IndexBackend::Tree, 1);
        log_append(&dir, "c", "GGGACGTA");

        // Simulate the crash window: fold the artifact but "crash" before
        // the WAL truncation by doing the fold manually.
        let manifest = read_manifest(&dir).unwrap();
        let base = manifest.load_database(&dir).unwrap();
        let replay = replay_wal(&dir).unwrap().unwrap();
        let frozen = DeltaIndex::from_records(replay.records);
        let folded_through = frozen.last_seq_no().unwrap();
        fold_into_base(
            &dir,
            &base,
            &frozen,
            1,
            64,
            IndexBackend::Tree,
            DeltaLineage {
                compactions: 1,
                appended_seqs: folded_through + 1,
                folded_through,
            },
        )
        .unwrap();
        // WAL still holds the folded record — but the next compaction
        // skips it instead of folding it twice.
        let report = compact_offline(&dir, LiveIndexOptions::default());
        assert_eq!(report.folded_seqs, 0);
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.num_seqs, 3, "c folded exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shape_overrides_apply() {
        let dir = tmpdir("shape");
        seed(&dir, IndexBackend::Tree, 1);
        log_append(&dir, "c", "GGGACGTA");
        let opts = LiveIndexOptions {
            shards: Some(3),
            block_size: Some(128),
            backend: Some(IndexBackend::Esa),
        };
        compact_offline(&dir, opts);
        let manifest = read_manifest(&dir).unwrap();
        assert_eq!(manifest.shards.len(), 3);
        assert_eq!(manifest.block_size, 128);
        assert!(manifest
            .shards
            .iter()
            .all(|s| s.kind == oasis_storage::SectionKind::PackedEsa));
        std::fs::remove_dir_all(&dir).ok();
    }
}
