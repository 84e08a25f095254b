//! The index lifecycle's robustness contract: a flipped byte anywhere in
//! the artifact fails checksum verification with a clean error instead
//! of garbage hits, and an artifact-loaded generation hot-swaps into a
//! live serving engine without changing results. That build → persist →
//! load serves byte-identical hits is checked by `tests/model_oracle.rs`.

mod support;

use std::sync::Arc;

use oasis::prelude::*;
use support::{build_db, scratch_dir};

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
        let dir = scratch_dir("corruption");
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
    let db = Arc::new(build_db(&[
        vec![0, 2, 3, 0, 1, 2, 1, 1, 3, 0, 2],
        vec![3, 0, 1, 1, 2],
        vec![2, 2, 3, 0, 2, 2],
        vec![2, 0, 3, 3, 0, 1, 0],
    ]));
    let dir = scratch_dir("hotswap");
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
