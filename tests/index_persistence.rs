//! The index lifecycle's correctness contract: build → persist → load
//! round-trips to **byte-identical hits** against a freshly built index
//! (property-tested across shard counts and thread counts, empty
//! sequences included), a flipped byte anywhere in the artifact fails
//! checksum verification with a clean error instead of garbage hits, and
//! an artifact-loaded generation hot-swaps into a live serving engine
//! without changing results.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use oasis::prelude::*;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per use (proptest reruns cases in-process).
fn scratch(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "oasis-index-persistence-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_db(seqs: &[Vec<u8>]) -> Arc<SequenceDatabase> {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, codes) in seqs.iter().enumerate() {
        b.push(Sequence::from_codes(format!("s{i}"), codes.clone()))
            .unwrap();
    }
    Arc::new(b.finish())
}

fn jobs_for(queries: &[Vec<u8>]) -> Vec<BatchQuery> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| BatchQuery::named(format!("q{i}"), q.clone(), OasisParams::with_min_score(1)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Build → persist → load must serve the exact bytes a fresh build
    /// serves, for K ∈ {1, 4} shards, serially and on 4 worker threads,
    /// for BOTH index backends (suffix-tree images and packed ESA
    /// sections). The reference hits come from a fresh tree build, so
    /// this also pins the persisted ESA path to the tree backend's
    /// byte-for-byte output. Sequence lengths start at 0 so empty
    /// sequences ride through the whole persistence pipeline too.
    #[test]
    fn persisted_index_serves_byte_identical_hits(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 0..40), 1..10),
        queries in prop::collection::vec(prop::collection::vec(0u8..4, 1..8), 1..4),
    ) {
        let db = build_db(&seqs);
        let jobs = jobs_for(&queries);
        for k in [1usize, 4] {
            let fresh = ShardedEngine::build(db.clone(), Scoring::unit_dna(), k);
            let want = fresh.run_batch_on(&jobs, 1);
            for backend in [IndexBackend::Tree, IndexBackend::Esa] {
                let dir = scratch("roundtrip");
                build_index_artifact(&db, &dir, k, 64, backend).expect("artifact written");
                for threads in [1usize, 4] {
                    let loaded = load_sharded_engine(&dir, Scoring::unit_dna())
                        .expect("artifact loads");
                    prop_assert_eq!(loaded.num_shards() <= k, true);
                    let got = loaded.run_batch_on(&jobs, threads);
                    prop_assert_eq!(got.len(), want.len());
                    for (g, w) in got.iter().zip(&want) {
                        prop_assert_eq!(
                            &g.hits, &w.hits,
                            "k={} threads={} backend={}", k, threads, backend.as_str()
                        );
                    }
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

#[test]
fn single_shard_artifact_serves_disk_resident_and_identical() {
    let db = build_db(&[
        vec![0, 2, 3, 0, 1, 2, 1, 1, 3, 0, 2],
        vec![3, 0, 1, 1, 2],
        vec![2, 2, 3, 0, 2, 2],
    ]);
    let dir = scratch("diskres");
    let manifest =
        build_index_artifact(&db, &dir, 1, 64, IndexBackend::Tree).expect("artifact written");
    assert!(opens_disk_resident(&manifest));
    let engine = open_artifact_engine(&dir, &manifest, db.clone(), Scoring::unit_dna(), 1 << 16)
        .expect("disk-resident load");
    let q = vec![3u8, 0, 1, 2];
    let params = OasisParams::with_min_score(1);
    let before = engine.pool_stats();
    let outcome = engine.run_one(&q, &params);
    // Genuinely disk-resident: served through the buffer pool.
    assert!(engine.pool_stats().since(&before).total().requests > 0);
    let fresh = ShardedEngine::build(db, Scoring::unit_dna(), 1);
    assert_eq!(outcome.hits, fresh.run_one(&q, &params).hits);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_byte_in_any_section_is_a_clean_checksum_error() {
    let db = build_db(&[
        vec![0, 2, 3, 0, 1, 2, 1, 1, 3, 0, 2],
        vec![3, 0, 1, 1, 2],
        vec![2, 2, 3, 0, 2, 2],
        vec![1, 1, 1, 1],
    ]);
    // Both section kinds carry their own checksums, so corruption
    // detection must hold for tree images and packed ESA sections alike.
    for backend in [IndexBackend::Tree, IndexBackend::Esa] {
        let dir = scratch("corruption");
        let manifest = build_index_artifact(&db, &dir, 2, 64, backend).expect("artifact written");

        // Every persisted file, corrupted one at a time, must surface as a
        // checksum error from the load path — never as different hits.
        let mut files = vec![dir.join(&manifest.database.file)];
        for i in 0..manifest.shards.len() {
            files.push(manifest.shard_path(&dir, i));
        }
        for file in files {
            let clean = std::fs::read(&file).unwrap();
            let mut bent = clean.clone();
            let mid = bent.len() / 2;
            bent[mid] ^= 0x20;
            std::fs::write(&file, &bent).unwrap();
            let err = load_sharded_engine(&dir, Scoring::unit_dna())
                .err()
                .unwrap_or_else(|| panic!("corruption in {} not detected", file.display()));
            assert!(
                matches!(err, ArtifactError::ChecksumMismatch { .. }),
                "{}: {err}",
                file.display()
            );
            std::fs::write(&file, &clean).unwrap();
        }
        // Intact again: loads fine.
        assert!(load_sharded_engine(&dir, Scoring::unit_dna()).is_ok());

        // The manifest protects itself the same way.
        let mf = dir.join(oasis::storage::MANIFEST_FILE);
        let mut bytes = std::fs::read(&mf).unwrap();
        bytes[9] ^= 0x01;
        std::fs::write(&mf, &bytes).unwrap();
        assert!(matches!(
            load_sharded_engine(&dir, Scoring::unit_dna()),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn loaded_generation_hot_swaps_into_live_serving_without_result_change() {
    let db = build_db(&[
        vec![0, 2, 3, 0, 1, 2, 1, 1, 3, 0, 2],
        vec![3, 0, 1, 1, 2],
        vec![2, 2, 3, 0, 2, 2],
        vec![2, 0, 3, 3, 0, 1, 0],
    ]);
    let dir = scratch("hotswap");
    // The published generation comes from a packed-ESA artifact while the
    // cold build is a suffix tree: the catalog swap must be invisible
    // across index substrates, not just across generations.
    build_index_artifact(&db, &dir, 3, 64, IndexBackend::Esa).expect("artifact written");

    let catalog = IndexCatalog::new(
        "cold build",
        ShardedEngine::build(db.clone(), Scoring::unit_dna(), 2),
    );
    let serving = ServingEngine::new(ServingConfig {
        workers: 2,
        queue_capacity: 64,
    })
    .expect("valid serving config");

    // Every submission pins the generation current at its admission.
    let submit = |round: usize| {
        let job = BatchQuery::named(
            format!("q{round}"),
            vec![3, 0, 1, 2],
            OasisParams::with_min_score(1),
        );
        serving.try_submit(catalog.current(), job, None)
    };
    let before = submit(0).expect("admitted").wait().expect("served");

    // Load a generation from the artifact and publish it mid-traffic.
    let loaded = load_sharded_engine(&dir, Scoring::unit_dna()).expect("artifact loads");
    let tickets: Vec<QueryTicket> = (1..=16)
        .map(|round| submit(round).expect("admitted"))
        .collect();
    catalog
        .publish("loaded from artifact", loaded)
        .expect("publish");
    let after = submit(99)
        .expect("admission stays open across the swap")
        .wait()
        .expect("served");

    for ticket in tickets {
        let served = ticket.wait().expect("in-flight work drains");
        assert_eq!(served.outcome.hits, before.outcome.hits);
    }
    assert_eq!(after.outcome.hits, before.outcome.hits);
    assert_eq!(serving.snapshot().rejected, 0);
    assert_eq!(catalog.current().label(), "loaded from artifact");
    std::fs::remove_dir_all(&dir).ok();
}
