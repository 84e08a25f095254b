//! Persistent index artifacts + generational hot-swap, end to end: build
//! an index once, persist it as a checksummed artifact directory, load it
//! back (measurably faster than rebuilding — the restart-time win the
//! lifecycle exists for), and publish the loaded generation into a live
//! `ServingEngine` while queries are in flight.
//!
//! ```sh
//! cargo run --release --example persistent_index
//! ```

use std::time::Instant;

use oasis::engine::{load_sharded_engine, persist_sharded_engine};
use oasis::prelude::*;

fn main() {
    let workload = generate_protein(&ProteinDbSpec {
        num_sequences: 400,
        ..ProteinDbSpec::default()
    });
    let db = workload.db.clone();
    let scoring = Scoring::pam30_protein();
    let shards = 4;

    // --- build once, then persist the built engine (no double build) ----
    let dir = std::env::temp_dir().join(format!("oasis-persistent-index-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let cold = ShardedEngine::build(db.clone(), scoring.clone(), shards);
    let cold_time = start.elapsed();
    let start = Instant::now();
    let manifest = persist_sharded_engine(&cold, &dir, 2048).expect("artifact written");
    println!(
        "persisted {} shard(s), {:.2} MB (+ manifest with per-section checksums) in {:.2?}",
        manifest.shards.len(),
        manifest.total_bytes() as f64 / 1e6,
        start.elapsed()
    );

    // --- restart economics: cold build vs artifact load ------------------
    let start = Instant::now();
    let loaded = load_sharded_engine(&dir, scoring.clone()).expect("artifact loads");
    let load_time = start.elapsed();
    println!(
        "cold build {:.2?} vs artifact load {:.2?} ({:.1}x faster startup)",
        cold_time,
        load_time,
        cold_time.as_secs_f64() / load_time.as_secs_f64().max(1e-9)
    );

    // Loaded and freshly built engines are interchangeable: byte-identical.
    let query = Alphabet::protein().encode_str("DKDGDGCITTKEL").unwrap();
    let params = OasisParams::with_min_score(30);
    assert_eq!(
        loaded.run_one(&query, &params).hits,
        cold.run_one(&query, &params).hits,
        "loaded index must serve identical hits"
    );

    // --- generational hot-swap under a live serving engine ---------------
    let catalog = IndexCatalog::new("gen0: cold build", cold);
    let serving = ServingEngine::new(ServingConfig {
        workers: 2,
        queue_capacity: 16,
    })
    .expect("valid serving config");
    // Each submission pins the generation current at its admission.
    let job = BatchQuery::named("demo", query.clone(), params);
    let submit = |job: BatchQuery| {
        serving
            .try_submit(catalog.current(), job, None)
            .expect("admitted")
            .wait()
            .expect("served")
    };
    let before = submit(job.clone());
    let gen0 = std::sync::Arc::downgrade(&catalog.current());

    // Swap in the artifact-loaded generation without stopping admission:
    // pinned queries finish on the old generation, new ones see gen 1,
    // and the old generation is dropped with its last query.
    catalog
        .publish("gen1: loaded from artifact", loaded)
        .expect("publish");
    let after = submit(job);
    assert_eq!(before.outcome.hits, after.outcome.hits);
    let current = catalog.current();
    println!(
        "hot-swapped to generation {} ({:?}); generation 0 dropped: {}",
        current.id(),
        current.label(),
        gen0.upgrade().is_none()
    );
    println!("results identical across the swap (asserted)");

    std::fs::remove_dir_all(&dir).ok();
}
