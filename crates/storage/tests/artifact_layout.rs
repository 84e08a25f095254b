//! The artifact directory layout, checked by writing artifacts of every
//! shard kind: after a write the directory holds exactly `MANIFEST` and
//! the sections it names (plus the WAL, which the writer never touches),
//! a rebuild sweeps every section of the previous generation, a write
//! that fails midway publishes no manifest, and a bad shard table writes
//! nothing at all.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use oasis_bioseq::{Alphabet, DatabaseBuilder, SequenceDatabase};
use oasis_storage::{
    read_manifest, write_index_artifact, ArtifactError, DeltaLineage, IndexManifest, ShardPayload,
    MANIFEST_FILE, WAL_FILE,
};
use oasis_suffix::{EsaIndex, SuffixTree};

/// A database with every index an artifact shard can hold.
struct Built {
    db: SequenceDatabase,
    tree: SuffixTree,
    esa: EsaIndex,
}

fn built(seqs: &[&str]) -> Built {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, s) in seqs.iter().enumerate() {
        b.push_str(format!("s{i}"), s).unwrap();
    }
    let db = b.finish();
    let tree = SuffixTree::build(&db);
    let esa = EsaIndex::build(&db);
    Built { db, tree, esa }
}

/// One payload of every `ShardPayload` kind. Adding a kind fails to
/// compile here until it is listed.
fn every_payload(b: &Built) -> Vec<ShardPayload<'_>> {
    let payloads = vec![ShardPayload::Tree(&b.tree), ShardPayload::Esa(&b.esa)];
    for p in &payloads {
        match p {
            ShardPayload::Tree(_) | ShardPayload::Esa(_) => {}
        }
    }
    payloads
}

const LINEAGE: DeltaLineage = DeltaLineage {
    compactions: 1,
    appended_seqs: 3,
    folded_through: 2,
};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-layout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn listing(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect()
}

/// `MANIFEST`, every section `m` names, and `extra`.
fn expected(m: &IndexManifest, extra: &[&str]) -> BTreeSet<String> {
    std::iter::once(MANIFEST_FILE)
        .chain(std::iter::once(m.database.file.as_str()))
        .chain(m.shards.iter().map(|s| s.section.file.as_str()))
        .chain(extra.iter().copied())
        .map(str::to_string)
        .collect()
}

/// Write a one-shard artifact of `payload` over all of `b`'s database.
fn write(
    dir: &Path,
    b: &Built,
    payload: ShardPayload<'_>,
    lineage: Option<DeltaLineage>,
) -> Result<IndexManifest, ArtifactError> {
    let last = b.db.num_sequences() - 1;
    write_index_artifact(dir, &b.db, &[(0, last, payload)], 64, lineage)
}

#[test]
fn a_write_leaves_the_manifest_its_sections_and_the_wal() {
    let b = built(&["ACGTACGT", "TTGCA", "GGATC"]);
    for (k, payload) in every_payload(&b).into_iter().enumerate() {
        for lineage in [None, Some(LINEAGE)] {
            let dir = fresh_dir(&format!("write-{k}"));
            std::fs::write(dir.join(WAL_FILE), b"wal bytes").unwrap();
            let m = write(&dir, &b, payload, lineage).unwrap();
            assert_eq!(listing(&dir), expected(&m, &[WAL_FILE]), "kind {k}");
            assert_eq!(std::fs::read(dir.join(WAL_FILE)).unwrap(), b"wal bytes");
            let read = read_manifest(&dir).unwrap();
            assert_eq!(read, m);
            assert_eq!(read.lineage, lineage);
            assert_eq!(read.load_database(&dir).unwrap(), b.db);
            read.load_shard_section(&dir, 0).unwrap();
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn a_rebuild_with_another_database_and_kind_sweeps_the_old_generation() {
    let old = built(&["ACGTACGT", "TTGCA", "GGATC"]);
    let new = built(&["GGGGCCCC", "ATAT"]);
    for (k, old_payload) in every_payload(&old).into_iter().enumerate() {
        for (j, new_payload) in every_payload(&new).into_iter().enumerate() {
            if j == k {
                continue;
            }
            let dir = fresh_dir(&format!("rebuild-{k}-{j}"));
            let m1 = write(&dir, &old, old_payload, None).unwrap();
            std::fs::write(dir.join(".x.tmp"), b"crashed writer").unwrap();
            let m2 = write(&dir, &new, new_payload, Some(LINEAGE)).unwrap();
            assert_ne!(m1.database.file, m2.database.file, "content-addressed");
            assert_eq!(listing(&dir), expected(&m2, &[]), "kinds {k} -> {j}");
            assert_eq!(read_manifest(&dir).unwrap(), m2);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn a_write_that_fails_midway_publishes_no_manifest() {
    let b = built(&["ACGTACGT", "TTGCA", "GGATC"]);
    let other = built(&["GGGGCCCC", "ATAT"]);
    for (k, payload) in every_payload(&b).into_iter().enumerate() {
        // A directory where the manifest's temp file goes makes the final
        // manifest write fail after every section has landed.
        let failing = |dir: &Path| {
            let blocker = dir.join(format!(".{MANIFEST_FILE}.tmp"));
            std::fs::create_dir_all(&blocker).unwrap();
            let last = other.db.num_sequences() - 1;
            let err = write_index_artifact(dir, &other.db, &[(0, last, payload)], 64, None);
            assert!(matches!(err, Err(ArtifactError::Io(_))), "kind {k}");
            std::fs::remove_dir(&blocker).unwrap();
        };

        let dir = fresh_dir(&format!("fail-fresh-{k}"));
        failing(&dir);
        let names = listing(&dir);
        assert!(names.iter().any(|n| n.starts_with("db-")), "{names:?}");
        assert!(!names.contains(MANIFEST_FILE), "kind {k}: {names:?}");
        std::fs::remove_dir_all(&dir).ok();

        let dir = fresh_dir(&format!("fail-existing-{k}"));
        let m = write(&dir, &b, payload, None).unwrap();
        let before = std::fs::read(dir.join(MANIFEST_FILE)).unwrap();
        failing(&dir);
        assert_eq!(std::fs::read(dir.join(MANIFEST_FILE)).unwrap(), before);
        let read = read_manifest(&dir).unwrap();
        assert_eq!(read, m);
        assert_eq!(read.load_database(&dir).unwrap(), b.db);
        read.load_shard_section(&dir, 0).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_bad_shard_table_writes_nothing() {
    let b = built(&["ACGTACGT", "TTGCA", "GGATC"]);
    let other = built(&["GGGGCCCC", "ATAT"]);
    for (k, payload) in every_payload(&b).into_iter().enumerate() {
        // Shard 1's range lies outside the database.
        let shards = [(0, 0, payload), (1, 9, payload)];

        let dir = fresh_dir(&format!("bad-table-fresh-{k}"));
        let err = write_index_artifact(&dir, &other.db, &shards, 64, None);
        assert!(matches!(err, Err(ArtifactError::Corrupt(_))), "kind {k}");
        assert_eq!(listing(&dir), BTreeSet::new(), "kind {k}");
        std::fs::remove_dir_all(&dir).ok();

        let dir = fresh_dir(&format!("bad-table-existing-{k}"));
        write(&dir, &b, payload, None).unwrap();
        let before = listing(&dir);
        let err = write_index_artifact(&dir, &other.db, &shards, 64, None);
        assert!(matches!(err, Err(ArtifactError::Corrupt(_))), "kind {k}");
        assert_eq!(listing(&dir), before, "kind {k}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
