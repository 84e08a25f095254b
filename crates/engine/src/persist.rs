//! Building and loading persistent index artifacts at the engine level.
//!
//! `oasis-storage`'s artifact module defines the on-disk format (manifest,
//! checksums, atomic writes); this module connects it to the
//! [`ShardedEngine`]:
//!
//! * [`build_index_artifact`] partitions a database exactly like
//!   [`ShardedEngine::build`] (same balanced lexical ranges), indexes each
//!   shard, and persists everything into an artifact directory.
//! * [`load_sharded_engine`] reconstitutes a ready in-memory engine from
//!   an artifact — decoding the serialized trees instead of rebuilding
//!   them, so startup scales with index size on disk, not with
//!   suffix-array construction.
//! * [`open_artifact_engine`] applies the serving policy
//!   ([`opens_disk_resident`]): one tree-image shard opens
//!   *disk-resident* — after a one-pass checksum verification and a check
//!   that the image indexes exactly the database's text, the shard image
//!   is served through a [`oasis_storage::BufferPool`] over a
//!   [`FileDevice`], the paper's operating mode — and anything else loads
//!   in memory. The CLI and the network server open artifacts through
//!   it.
//!
//! Either load path produces hits byte-identical to a freshly built index
//! (`tests/model_oracle.rs` property-tests this), so a loaded
//! generation can be [`crate::IndexCatalog::publish`]ed into a live
//! serving engine without observable behavior change.

use std::path::Path;
use std::sync::Arc;

use oasis_align::Scoring;
use oasis_bioseq::{SeqId, SequenceDatabase};
use oasis_storage::{
    decode_esa, image_text, load_section, read_manifest, write_index_artifact, ArtifactError,
    DiskSuffixTree, FileDevice, IndexManifest, SectionKind, ShardMeta, ShardPayload,
};

use crate::shard::{Shard, ShardBackend};
use crate::{IndexBackend, ShardedEngine};

/// The artifact writer's view of a shard list: each shard's inclusive
/// global sequence range plus its index payload. A disk-resident shard
/// has no in-memory index to write, which is a typed error.
pub(crate) fn artifact_entries<'a>(
    shards: impl IntoIterator<Item = &'a Shard>,
) -> Result<Vec<(u32, u32, ShardPayload<'a>)>, ArtifactError> {
    shards
        .into_iter()
        .map(|shard| {
            let lo = shard.seq_offset;
            let hi = lo + shard.db.num_sequences() - 1;
            let payload = match &shard.index {
                ShardBackend::Tree(tree) => ShardPayload::Tree(tree),
                ShardBackend::Esa(esa) => ShardPayload::Esa(esa),
                ShardBackend::Disk(_) => {
                    return Err(ArtifactError::Unsupported(
                        "a disk-resident shard is served from its artifact and cannot be \
                         persisted again"
                            .to_string(),
                    ))
                }
            };
            Ok((lo, hi, payload))
        })
        .collect()
}

/// Build the index for `db` — `shards` balanced partitions, one
/// `backend` index each — and persist it into the artifact directory
/// `dir` (`block_size` is the §3.4 disk-image block size; the paper uses
/// 2048; packed ESA sections ignore it). Returns the written manifest. To
/// persist an index that is already built and serving, use
/// [`persist_sharded_engine`] instead of paying for construction twice.
pub fn build_index_artifact(
    db: &SequenceDatabase,
    dir: &Path,
    shards: usize,
    block_size: usize,
    backend: IndexBackend,
) -> Result<IndexManifest, ArtifactError> {
    let built = Shard::build_all(db, None, shards, backend);
    write_index_artifact(dir, db, &artifact_entries(&built)?, block_size, None)
}

/// Persist an already-built [`ShardedEngine`]'s index into the artifact
/// directory `dir`, reusing its shard trees — no rebuilding. This is the
/// serving-side flow: build (or load) once, serve, persist. A
/// disk-resident engine is already persisted; writing it again is
/// [`ArtifactError::Unsupported`].
pub fn persist_sharded_engine(
    engine: &ShardedEngine,
    dir: &Path,
    block_size: usize,
) -> Result<IndexManifest, ArtifactError> {
    write_index_artifact(
        dir,
        engine.db(),
        &artifact_entries(engine.shards().iter().map(Arc::as_ref))?,
        block_size,
        None,
    )
}

/// Check that the manifest's shard ranges tile `0..num_seqs` contiguously.
fn validate_coverage(manifest: &IndexManifest) -> Result<(), ArtifactError> {
    let mut next = 0u32;
    for (i, shard) in manifest.shards.iter().enumerate() {
        if shard.seq_lo != next || shard.seq_hi < shard.seq_lo {
            return Err(ArtifactError::Corrupt(format!(
                "shard {i} range {}..={} does not tile the database",
                shard.seq_lo, shard.seq_hi
            )));
        }
        next = shard.seq_hi + 1;
    }
    if next != manifest.num_seqs {
        return Err(ArtifactError::Corrupt(format!(
            "shards cover {next} of {} sequences",
            manifest.num_seqs
        )));
    }
    Ok(())
}

/// Reconstitute a [`ShardedEngine`] from the artifact in `dir`, with the
/// manifest and database already loaded. Shards decode concurrently.
pub(crate) fn sharded_engine_from_artifact(
    dir: &Path,
    manifest: &IndexManifest,
    db: Arc<SequenceDatabase>,
    scoring: Scoring,
) -> Result<ShardedEngine, ArtifactError> {
    validate_coverage(manifest)?;
    let load_one = |i: usize, meta: &ShardMeta| -> Result<Shard, ArtifactError> {
        let (lo, hi) = (meta.seq_lo as usize, meta.seq_hi as usize);
        let shard_db = Shard::database_for(&db, Some(&db), lo, hi);
        let index = match meta.kind {
            SectionKind::TreeImage => {
                let tree = manifest.load_shard_tree(dir, i)?;
                // The decoded tree must cover exactly the shard's text;
                // anything else means the manifest pairs a section with
                // the wrong range.
                if tree.text() != shard_db.text() {
                    return Err(ArtifactError::Corrupt(format!(
                        "shard {i}: index does not cover sequences {lo}..={hi}"
                    )));
                }
                ShardBackend::Tree(tree)
            }
            // The packed payload revalidates against the shard database
            // inside `decode_esa` (geometry + text checksum), which covers
            // the pairing check as well.
            SectionKind::PackedEsa => {
                let bytes = manifest.load_shard_section(dir, i)?;
                ShardBackend::Esa(decode_esa(bytes, &shard_db).map_err(|e| {
                    ArtifactError::Corrupt(format!("shard {i} (sequences {lo}..={hi}): {e}"))
                })?)
            }
        };
        Ok(Shard {
            db: shard_db,
            index,
            seq_offset: lo as SeqId,
            text_offset: db.seq_start(lo as SeqId),
        })
    };
    // Decode errors travel in the Result; a loader panic is a real bug
    // and propagates as itself.
    let shards: Result<Vec<Shard>, ArtifactError> = std::thread::scope(|scope| {
        let handles: Vec<_> = manifest
            .shards
            .iter()
            .enumerate()
            .map(|(i, meta)| scope.spawn(move || load_one(i, meta)))
            .collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "joins this load's own scoped threads; a reload runs it under the server's \
                      admin lock, which serializes admin work by design (docs/LINTS.md)"
        )]
        let shards = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
        shards
    });
    Ok(ShardedEngine::from_shards(db, scoring, shards?))
}

/// Load the artifact in `dir` into a ready in-memory [`ShardedEngine`]:
/// [`read_manifest`], [`IndexManifest::load_database`], then every shard
/// decoded concurrently.
pub fn load_sharded_engine(dir: &Path, scoring: Scoring) -> Result<ShardedEngine, ArtifactError> {
    let manifest = read_manifest(dir)?;
    let db = Arc::new(manifest.load_database(dir)?);
    sharded_engine_from_artifact(dir, &manifest, db, scoring)
}

/// Open a **single-shard** artifact disk-resident: verify the shard
/// image's checksum, then serve it through a buffer pool of `pool_bytes`
/// over a [`FileDevice`] as a one-shard engine
/// ([`ShardedEngine::disk_resident`]) — the §3.4 operating mode, where the
/// tree is never materialized in memory. Multi-shard artifacts load
/// through [`sharded_engine_from_artifact`] instead.
pub(crate) fn disk_engine_from_artifact(
    dir: &Path,
    manifest: &IndexManifest,
    db: Arc<SequenceDatabase>,
    scoring: Scoring,
    pool_bytes: usize,
) -> Result<ShardedEngine, ArtifactError> {
    let [shard] = manifest.shards.as_slice() else {
        return Err(ArtifactError::Corrupt(format!(
            "disk-resident load needs a single-shard artifact (this one has {})",
            manifest.shards.len()
        )));
    };
    if shard.kind != SectionKind::TreeImage {
        return Err(ArtifactError::Corrupt(
            "disk-resident load needs a tree-image shard (this one is packed-esa; \
             load it through the in-memory sharded path instead)"
                .to_string(),
        ));
    }
    validate_coverage(manifest)?;
    // One full pass for integrity, and — since checksums only prove each
    // section is intact, not that the manifest paired the right sections
    // together — verify the image indexes exactly this database's text
    // (the sharded load path makes the same check per shard). The bytes
    // are then dropped; all serving reads go through the buffer pool.
    let image = load_section(dir, &shard.section)?;
    if image_text(&image)? != db.text() {
        return Err(ArtifactError::Corrupt(
            "shard 0: tree does not index the database".to_string(),
        ));
    }
    drop(image);
    let device = FileDevice::open(manifest.shard_path(dir, 0), manifest.block_size as usize)?;
    let tree = DiskSuffixTree::open(device, pool_bytes)
        .map_err(|e| ArtifactError::Corrupt(format!("shard 0: {e}")))?;
    ShardedEngine::disk_resident(db, tree, scoring)
}

/// The serving policy for artifacts: does `manifest` open disk-resident?
/// Only a single tree-image shard does. Several shards fan out in memory,
/// and packed-ESA sections have no disk-resident mode, so an ESA shard
/// loads in memory even alone.
pub fn opens_disk_resident(manifest: &IndexManifest) -> bool {
    matches!(manifest.shards.as_slice(), [only] if only.kind == SectionKind::TreeImage)
}

/// Open the artifact in `dir` for serving, with the manifest and database
/// already loaded: disk-resident through a buffer pool of `pool_bytes`
/// when [`opens_disk_resident`] says so, otherwise in memory (as
/// [`load_sharded_engine`] does).
pub fn open_artifact_engine(
    dir: &Path,
    manifest: &IndexManifest,
    db: Arc<SequenceDatabase>,
    scoring: Scoring,
    pool_bytes: usize,
) -> Result<ShardedEngine, ArtifactError> {
    if opens_disk_resident(manifest) {
        disk_engine_from_artifact(dir, manifest, db, scoring, pool_bytes)
    } else {
        sharded_engine_from_artifact(dir, manifest, db, scoring)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_bioseq::{Alphabet, DatabaseBuilder};
    use oasis_core::OasisParams;
    use std::path::PathBuf;

    fn dna_db(seqs: &[&str]) -> Arc<SequenceDatabase> {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        Arc::new(b.finish())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oasis-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const SEQS: &[&str] = &[
        "AGTACGCCTAG",
        "TACCG",
        "GGTAGG",
        "CCCCCC",
        "GATTACA",
        "TACGTACG",
    ];

    #[test]
    fn disk_resident_load_serves_through_the_pool() {
        let db = dna_db(SEQS);
        let dir = tmpdir("diskres");
        let manifest = build_index_artifact(&db, &dir, 1, 64, IndexBackend::Tree).unwrap();
        let engine =
            disk_engine_from_artifact(&dir, &manifest, db.clone(), Scoring::unit_dna(), 1 << 16)
                .unwrap();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(2);
        let before = engine.pool_stats();
        let outcome = engine.run_one(&q, &params);
        let traffic = engine.pool_stats().since(&before);
        assert!(traffic.total().requests > 0, "must hit the pool");
        // The one disk shard shares the global database: it is held once.
        assert_eq!(engine.num_shards(), 1);
        assert!(Arc::ptr_eq(&engine.shards()[0].db, &db));
        // No in-memory index to re-persist: a typed error, not a panic.
        let err = persist_sharded_engine(&engine, &tmpdir("diskres-repersist"), 64);
        assert!(matches!(err, Err(ArtifactError::Unsupported(_))));
        let fresh = ShardedEngine::build(db, Scoring::unit_dna(), 1);
        assert_eq!(outcome.hits, fresh.run_one(&q, &params).hits);
        // Multi-shard artifacts refuse the disk-resident path.
        let dir2 = tmpdir("diskres2");
        let m2 = build_index_artifact(engine.db(), &dir2, 2, 64, IndexBackend::Tree).unwrap();
        let db2 = Arc::new(m2.load_database(&dir2).unwrap());
        assert!(matches!(
            disk_engine_from_artifact(&dir2, &m2, db2.clone(), Scoring::unit_dna(), 1 << 16),
            Err(ArtifactError::Corrupt(_))
        ));
        // A single-shard ESA artifact refuses the disk-resident path with
        // a typed error instead of misreading the payload as an image…
        let dir3 = tmpdir("esa-disk");
        let m3 = build_index_artifact(&db2, &dir3, 1, 64, IndexBackend::Esa).unwrap();
        let err = disk_engine_from_artifact(&dir3, &m3, db2, Scoring::unit_dna(), 1 << 16)
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default();
        assert!(err.contains("packed-esa"), "{err}");
        // …and loads in memory, where persisting it again re-emits the
        // packed section verbatim.
        let loaded = load_sharded_engine(&dir3, Scoring::unit_dna()).unwrap();
        let dir4 = tmpdir("esa-repersist");
        let m4 = persist_sharded_engine(&loaded, &dir4, 64).unwrap();
        assert_eq!(m4.shards[0].kind, SectionKind::PackedEsa);
        assert_eq!(m4.shards[0].section.checksum, m3.shards[0].section.checksum);
        for dir in [dir, dir2, dir3, dir4] {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn mismatched_tree_pairing_is_rejected_on_the_disk_path() {
        // Checksums prove sections are intact, not that the manifest
        // paired the right ones: a manifest splicing database A with a
        // shard image of same-text-length database B must be rejected,
        // not served with garbage coordinates.
        let db_a = dna_db(&["ACGTACGT"]);
        let db_b = dna_db(&["TTTTTTTT"]); // same text length as A
        let dir_a = tmpdir("pair-a");
        let dir_b = tmpdir("pair-b");
        let ma = build_index_artifact(&db_a, &dir_a, 1, 64, IndexBackend::Tree).unwrap();
        let mb = build_index_artifact(&db_b, &dir_b, 1, 64, IndexBackend::Tree).unwrap();
        std::fs::copy(
            mb.shard_path(&dir_b, 0),
            dir_a.join(&mb.shards[0].section.file),
        )
        .unwrap();
        let mut mixed = ma.clone();
        mixed.shards = mb.shards.clone();
        let err = match disk_engine_from_artifact(
            &dir_a,
            &mixed,
            db_a.clone(),
            Scoring::unit_dna(),
            1 << 16,
        ) {
            Err(err) => err,
            Ok(_) => panic!("mis-paired tree image must be rejected"),
        };
        assert!(matches!(err, ArtifactError::Corrupt(_)), "{err}");
        // The sharded path rejects the same splice.
        assert!(matches!(
            sharded_engine_from_artifact(&dir_a, &mixed, db_a, Scoring::unit_dna()),
            Err(ArtifactError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir_a).ok();
        std::fs::remove_dir_all(&dir_b).ok();
    }

    #[test]
    fn mismatched_shard_table_is_rejected() {
        let db = dna_db(SEQS);
        let dir = tmpdir("tamper");
        build_index_artifact(&db, &dir, 2, 64, IndexBackend::Tree).unwrap();
        let mut manifest = read_manifest(&dir).unwrap();
        // Claim a gap between the shards.
        manifest.shards[1].seq_lo += 1;
        let db = Arc::new(manifest.load_database(&dir).unwrap());
        assert!(matches!(
            sharded_engine_from_artifact(&dir, &manifest, db, Scoring::unit_dna()),
            Err(ArtifactError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
