//! The engine-layer correctness property: running N queries concurrently
//! through `OasisEngine` is *byte-identical* to running each serially
//! through `OasisSearch` — same hits (every field), same order, same
//! statistics — on ≥ 4 worker threads, over both the in-memory and the
//! disk-resident (shared buffer pool!) substrates. This extends the
//! `oasis_equals_sw` exactness property one layer up: engine ≡ serial
//! OASIS ≡ exhaustive Smith-Waterman.
//!
//! The sharded layer extends it once more: partitioning the database into
//! K per-shard indexes and k-way-merging the per-shard online streams is
//! byte-identical to the unsharded engine for every K, serial or
//! threaded — sharded ≡ engine ≡ serial OASIS ≡ S-W.

use std::sync::Arc;

use proptest::prelude::*;

use oasis::prelude::*;

const THREADS: usize = 4;

fn build_db(seqs: &[Vec<u8>]) -> Arc<SequenceDatabase> {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, codes) in seqs.iter().enumerate() {
        b.push(Sequence::from_codes(format!("s{i}"), codes.clone()))
            .unwrap();
    }
    Arc::new(b.finish())
}

fn jobs_from(queries: &[Vec<u8>], min_score: i32) -> Vec<BatchQuery> {
    queries
        .iter()
        .enumerate()
        .map(|(i, q)| {
            BatchQuery::named(
                format!("q{i}"),
                q.clone(),
                OasisParams::with_min_score(min_score),
            )
        })
        .collect()
}

/// Serial ground truth: one `OasisSearch` per job against a borrowed tree.
fn serial_reference<T: SuffixTreeAccess + ?Sized>(
    tree: &T,
    db: &SequenceDatabase,
    scoring: &Scoring,
    jobs: &[BatchQuery],
) -> Vec<(Vec<Hit>, SearchStats)> {
    jobs.iter()
        .map(|job| OasisSearch::new(tree, db, &job.query, scoring, &job.params).run())
        .collect()
}

/// Strategy: a database of 1..10 DNA sequences with lengths 1..50.
fn db_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..4, 1..50), 1..10)
}

/// Strategy: a batch of 1..8 queries of length 1..12.
fn batch_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..4, 1..12), 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn concurrent_batch_equals_serial_runs(
        seqs in db_strategy(),
        queries in batch_strategy(),
        min in 1i32..6,
    ) {
        let db = build_db(&seqs);
        let tree = Arc::new(SuffixTree::build(&db));
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);

        let engine =
            OasisEngine::new(tree.clone(), db.clone(), scoring.clone()).with_threads(THREADS);
        let outcomes = engine.run_batch(&jobs);
        let reference = serial_reference(&*tree, &db, &scoring, &jobs);

        prop_assert_eq!(outcomes.len(), reference.len());
        for (out, (hits, stats)) in outcomes.iter().zip(&reference) {
            // Byte-identical: every Hit field, in the same online order,
            // and the exact same search counters.
            prop_assert_eq!(&out.hits, hits);
            prop_assert_eq!(&out.stats, stats);
        }
    }

    #[test]
    fn engine_batch_equals_smith_waterman(
        seqs in db_strategy(),
        queries in batch_strategy(),
        min in 1i32..6,
    ) {
        // The oasis_equals_sw property, lifted to the engine layer.
        let db = build_db(&seqs);
        let tree = Arc::new(SuffixTree::build(&db));
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);
        let engine =
            OasisEngine::new(tree, db.clone(), scoring.clone()).with_threads(THREADS);
        for (job, out) in jobs.iter().zip(engine.run_batch(&jobs)) {
            let sw = SwScanner::new().scan(&db, &job.query, &scoring, min);
            let mut got: Vec<(SeqId, Score)> =
                out.hits.iter().map(|h| (h.seq, h.score)).collect();
            got.sort_unstable();
            let mut want: Vec<(SeqId, Score)> =
                sw.iter().map(|h| (h.seq, h.hit.score)).collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn concurrent_disk_batch_equals_serial_runs(
        seqs in db_strategy(),
        queries in prop::collection::vec(prop::collection::vec(0u8..4, 1..10), 1..6),
        min in 1i32..5,
    ) {
        // The hard case: all THREADS workers share one buffer pool (with a
        // deliberately tiny frame budget, so they fight over frames) while
        // their per-query deltas and results must stay exact.
        let db = build_db(&seqs);
        let mem_tree = SuffixTree::build(&db);
        let (image, _) = DiskTreeBuilder::with_block_size(64).build_image(&mem_tree);
        let disk = Arc::new(
            DiskSuffixTree::open_image(image, 64, 64 * 4).expect("valid image"),
        );
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);
        let engine =
            OasisEngine::new(disk.clone(), db.clone(), scoring.clone()).with_threads(THREADS);
        let outcomes = engine.run_batch(&jobs);
        // Byte-identical to serial runs over the SAME disk substrate…
        let reference = serial_reference(&*disk, &db, &scoring, &jobs);
        for (out, (hits, stats)) in outcomes.iter().zip(&reference) {
            prop_assert_eq!(&out.hits, hits);
            prop_assert_eq!(&out.stats, stats);
        }
        // …and byte-identical to the in-memory tree: the driver's
        // canonical (score desc, start asc) tie-break depends only on the
        // text and the query, never on the substrate's node enumeration.
        let mem_reference = serial_reference(&mem_tree, &db, &scoring, &jobs);
        for (out, (hits, _)) in outcomes.iter().zip(&mem_reference) {
            prop_assert_eq!(&out.hits, hits);
        }
        // Delta sanity: per-query deltas never exceed the pool's global
        // cumulative counters (which also include open()-time meta reads).
        let global = disk.pool().stats().total();
        let attributed: u64 = outcomes.iter().map(|o| o.pool_delta.total().requests).sum();
        prop_assert!(attributed <= global.requests);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The enhanced-suffix-array backend is a drop-in substrate: an
    /// `OasisEngine` over an `EsaIndex` must serve byte-identical hits
    /// *and statistics* to the suffix-tree engine — serially and on 4
    /// worker threads — and the sharded engine built with the ESA
    /// backend must match the unsharded tree engine for K ∈ {1, 4}.
    /// Together with `concurrent_disk_batch_equals_serial_runs` this
    /// closes the square: tree ≡ disk tree ≡ ESA, memory and disk.
    #[test]
    fn esa_backend_equals_tree_across_threads_and_shards(
        seqs in db_strategy(),
        queries in prop::collection::vec(prop::collection::vec(0u8..4, 1..12), 1..5),
        min in 1i32..6,
    ) {
        let db = build_db(&seqs);
        let tree = Arc::new(SuffixTree::build(&db));
        let esa = Arc::new(EsaIndex::build(&db));
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);
        let reference = OasisEngine::new(tree, db.clone(), scoring.clone())
            .with_threads(1)
            .run_batch(&jobs);
        for threads in [1usize, THREADS] {
            let outcomes = OasisEngine::new(esa.clone(), db.clone(), scoring.clone())
                .with_threads(threads)
                .run_batch(&jobs);
            prop_assert_eq!(outcomes.len(), reference.len());
            for (out, want) in outcomes.iter().zip(&reference) {
                prop_assert_eq!(&out.hits, &want.hits, "threads={}", threads);
                prop_assert_eq!(&out.stats, &want.stats, "threads={}", threads);
            }
        }
        for k in [1usize, 4] {
            let mut engine = ShardedEngine::build_with_backend(
                db.clone(),
                scoring.clone(),
                k,
                IndexBackend::Esa,
            );
            for threads in [1usize, THREADS] {
                engine = engine.with_threads(threads);
                let sharded = engine.run_batch(&jobs);
                for (s, u) in sharded.iter().zip(&reference) {
                    prop_assert_eq!(&s.hits, &u.hits, "k={} threads={}", k, threads);
                }
            }
        }
    }

    #[test]
    fn sharded_equals_unsharded_for_every_shard_count(
        seqs in db_strategy(),
        queries in prop::collection::vec(prop::collection::vec(0u8..4, 1..12), 1..5),
        min in 1i32..6,
    ) {
        let db = build_db(&seqs);
        let tree = Arc::new(SuffixTree::build(&db));
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);
        let unsharded = OasisEngine::new(tree, db.clone(), scoring.clone())
            .with_threads(1)
            .run_batch(&jobs);
        for k in [1usize, 2, 3, 7] {
            let mut engine = ShardedEngine::build(db.clone(), scoring.clone(), k);
            for threads in [1usize, THREADS] {
                engine = engine.with_threads(threads);
                let sharded = engine.run_batch(&jobs);
                prop_assert_eq!(sharded.len(), unsharded.len());
                for ((s, u), job) in sharded.iter().zip(&unsharded).zip(&jobs) {
                    // Byte-identical hits: every field, in the same global
                    // online order, whatever the partitioning.
                    prop_assert_eq!(
                        &s.hits, &u.hits,
                        "k={} threads={} query={}", k, threads, &job.id
                    );
                    prop_assert_eq!(s.stats.hits_emitted, u.stats.hits_emitted);
                }
            }
        }
    }
}

#[test]
fn batch_results_are_deterministic_across_runs() {
    let db = build_db(&[
        vec![3, 0, 1, 2, 1, 1, 3, 0, 2],
        vec![3, 0, 1, 1, 2],
        vec![2, 2, 3, 0, 2, 2],
        vec![0, 1, 2, 3, 0, 1, 2, 3],
    ]);
    let tree = Arc::new(SuffixTree::build(&db));
    let scoring = Scoring::unit_dna();
    let queries: Vec<Vec<u8>> = vec![
        vec![3, 0, 1, 2],
        vec![0, 1],
        vec![2, 2, 2],
        vec![1, 0, 3],
        vec![3, 0, 1, 1],
    ];
    let jobs = jobs_from(&queries, 1);
    let engine = OasisEngine::new(tree, db, scoring).with_threads(THREADS);
    let first = engine.run_batch(&jobs);
    for _ in 0..3 {
        let again = engine.run_batch(&jobs);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.hits, b.hits);
            assert_eq!(a.stats, b.stats);
        }
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let db = build_db(&[
        vec![0, 1, 0, 1, 0, 1, 0, 1],
        vec![1, 0, 1, 0, 1],
        vec![0, 0, 0, 0, 0, 0],
        vec![2, 3, 2, 3, 2],
    ]);
    let tree = Arc::new(SuffixTree::build(&db));
    let scoring = Scoring::unit_dna();
    let queries: Vec<Vec<u8>> = vec![vec![0, 1, 0], vec![2, 3], vec![0, 0, 0], vec![1, 1]];
    let jobs = jobs_from(&queries, 1);
    let serial = OasisEngine::new(tree.clone(), db.clone(), scoring.clone())
        .with_threads(1)
        .run_batch(&jobs);
    for threads in [2usize, 4, 8] {
        let parallel = OasisEngine::new(tree.clone(), db.clone(), scoring.clone())
            .with_threads(threads)
            .run_batch(&jobs);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.hits, b.hits, "threads={threads}");
            assert_eq!(a.stats, b.stats, "threads={threads}");
        }
    }
}

/// The generated protein workload (ProClass-like queries, PAM30, the
/// Equation 3 threshold at E = 20000) answers byte-identically to the
/// serial single-index batch on every execution path: 2–8 worker
/// threads, 1–8 shards, tree and ESA `run_one`, engines loaded from tree
/// and packed-ESA artifacts, and the serving front end under admission
/// backpressure, where every job is served exactly once.
#[test]
fn protein_workload_is_identical_on_every_execution_path() {
    let workload = generate_protein(&ProteinDbSpec::tiny());
    let db = workload.db.clone();
    let scoring = Scoring::pam30_protein();
    let karlin =
        KarlinParams::estimate(&scoring.matrix, &oasis::align::stats::background_protein())
            .unwrap();
    let jobs: Vec<BatchQuery> = generate_queries(&workload, &QuerySpec::proclass_like(16, 0xBEEF))
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            let min = karlin.min_score_for_evalue(q.len() as u64, db.total_residues(), 20_000.0);
            BatchQuery::named(format!("q{i}"), q, OasisParams::with_min_score(min))
        })
        .collect();
    let tree = Arc::new(SuffixTree::build(&db));
    let tree_engine =
        |threads| OasisEngine::new(tree.clone(), db.clone(), scoring.clone()).with_threads(threads);
    let serial = tree_engine(1).run_batch(&jobs);
    assert!(serial.iter().any(|o| !o.hits.is_empty()), "no query hit");
    let same = |got: &[SearchOutcome], what: &str| {
        assert_eq!(got.len(), serial.len(), "{what}: outcome count");
        for ((g, w), job) in got.iter().zip(&serial).zip(&jobs) {
            assert_eq!(g.hits, w.hits, "{what}: query {}", job.id);
        }
    };

    for threads in [2usize, THREADS, 8] {
        let outcomes = tree_engine(threads).run_batch(&jobs);
        same(&outcomes, &format!("threads={threads}"));
    }
    for shards in [1usize, 2, 4, 8] {
        let engine = ShardedEngine::build(db.clone(), scoring.clone(), shards);
        same(
            &engine.with_threads(THREADS).run_batch(&jobs),
            &format!("shards={shards}"),
        );
    }

    let esa_engine = OasisEngine::new(Arc::new(EsaIndex::build(&db)), db.clone(), scoring.clone());
    for (job, want) in jobs.iter().zip(&serial) {
        let via_tree = tree_engine(1).run_one(&job.query, &job.params);
        let via_esa = esa_engine.run_one(&job.query, &job.params);
        assert_eq!(via_tree.hits, want.hits, "tree run_one: query {}", job.id);
        assert_eq!(via_esa.hits, want.hits, "esa run_one: query {}", job.id);
    }

    for backend in [IndexBackend::Tree, IndexBackend::Esa] {
        let dir = std::env::temp_dir().join(format!(
            "oasis-equivalence-protein-{}-{}",
            backend.as_str(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        build_index_artifact(&db, &dir, 4, 2048, backend).expect("artifact written");
        let loaded = load_sharded_engine(&dir, scoring.clone()).expect("artifact loads");
        same(
            &loaded.with_threads(THREADS).run_batch(&jobs),
            &format!("{} artifact", backend.as_str()),
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    // A queue a quarter of the batch deep: a full queue is answered by
    // completing the oldest ticket and resubmitting.
    let generation = IndexCatalog::new("protein", tree_engine(1)).current();
    let serving = ServingEngine::new(ServingConfig {
        workers: THREADS,
        queue_capacity: jobs.len() / 4,
    })
    .expect("valid serving config");
    let mut tickets = std::collections::VecDeque::new();
    let mut served = Vec::new();
    for job in &jobs {
        loop {
            let trace = QueryTrace::disabled();
            match serving.try_submit(Arc::clone(&generation), job.clone(), trace, None) {
                Ok(ticket) => {
                    tickets.push_back(ticket);
                    break;
                }
                Err(AdmissionError::QueueFull { .. }) => {
                    let oldest: QueryTicket = tickets.pop_front().expect("a ticket is in flight");
                    served.push(oldest.wait().expect("served"));
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }
    served.extend(tickets.into_iter().map(|t| t.wait().expect("served")));
    assert_eq!(
        serving.stats().served as usize,
        jobs.len(),
        "every job served once"
    );
    assert_eq!(served.len(), jobs.len());
    for outcome in &served {
        let at = jobs
            .iter()
            .position(|j| j.id == outcome.id)
            .expect("known id");
        assert_eq!(
            outcome.outcome.hits, serial[at].hits,
            "served: query {}",
            outcome.id
        );
    }
}
