//! The engine-layer correctness property: running N queries concurrently
//! through a one-shard `ShardedEngine` is *byte-identical* to running each
//! serially through `OasisSearch` — same hits (every field), same order,
//! same statistics — on ≥ 4 worker threads, over both the in-memory and
//! the disk-resident (shared buffer pool!) shard. This extends the
//! `oasis_equals_sw` exactness property one layer up: engine ≡ serial
//! OASIS ≡ exhaustive Smith-Waterman.
//!
//! Sharding extends it once more: partitioning the database into K
//! per-shard indexes and k-way-merging the per-shard online streams is
//! byte-identical to the serial search for every K, serial or threaded —
//! K shards ≡ one shard ≡ serial OASIS ≡ S-W.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use oasis::prelude::*;
use oasis::storage::FileDevice;

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

/// A fresh scratch directory for one artifact.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "oasis-equivalence-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one-shard in-memory engine over `db`.
fn one_shard(db: &Arc<SequenceDatabase>, scoring: &Scoring) -> ShardedEngine {
    ShardedEngine::build(db.clone(), scoring.clone(), 1)
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
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);

        let outcomes = one_shard(&db, &scoring).run_batch_on(&jobs, THREADS);
        let reference = serial_reference(&tree, &db, &scoring, &jobs);

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
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);
        let engine = one_shard(&db, &scoring);
        for (job, out) in jobs.iter().zip(engine.run_batch_on(&jobs, THREADS)) {
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
        // their results and the pool's request count must stay exact. The
        // pool is a one-shard artifact's, opened disk-resident.
        let db = build_db(&seqs);
        let mem_tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);
        let dir = scratch_dir("disk");
        let manifest = build_index_artifact(&db, &dir, 1, 64, IndexBackend::Tree)
            .expect("artifact written");
        prop_assert!(opens_disk_resident(&manifest));
        let engine = open_artifact_engine(&dir, &manifest, db.clone(), scoring.clone(), 64 * 4)
            .expect("artifact opens");
        let before = engine.pool_stats();
        let outcomes = engine.run_batch_on(&jobs, THREADS);
        let concurrent = engine.pool_stats().since(&before).total().requests;
        // Byte-identical to serial runs over the SAME disk image: a read is
        // one request under the pool mutex however the frames are
        // contended, so the batch's requests must equal the serial runs'
        // sum exactly…
        let device = FileDevice::open(manifest.shard_path(&dir, 0), 64).expect("shard file");
        let disk = DiskSuffixTree::open(device, 64 * 4).expect("valid image");
        let before = disk.pool().stats();
        for (out, job) in outcomes.iter().zip(&jobs) {
            let (hits, stats) =
                OasisSearch::new(&disk, &db, &job.query, &scoring, &job.params).run();
            prop_assert_eq!(&out.hits, &hits);
            prop_assert_eq!(&out.stats, &stats);
        }
        prop_assert_eq!(concurrent, disk.pool().stats().since(&before).total().requests);
        // …and byte-identical to the in-memory tree: the driver's
        // canonical (score desc, start asc) tie-break depends only on the
        // text and the query, never on the substrate's node enumeration.
        let mem_reference = serial_reference(&mem_tree, &db, &scoring, &jobs);
        for (out, (hits, _)) in outcomes.iter().zip(&mem_reference) {
            prop_assert_eq!(&out.hits, hits);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The enhanced-suffix-array backend is a drop-in substrate: a
    /// one-shard ESA engine must serve byte-identical hits *and
    /// statistics* to the one-shard suffix-tree engine — serially and on
    /// 4 worker threads — and the 4-shard ESA engine must match its hits.
    /// Together with `concurrent_disk_batch_equals_serial_runs` this
    /// closes the square: tree ≡ disk tree ≡ ESA, memory and disk.
    #[test]
    fn esa_backend_equals_tree_across_threads_and_shards(
        seqs in db_strategy(),
        queries in prop::collection::vec(prop::collection::vec(0u8..4, 1..12), 1..5),
        min in 1i32..6,
    ) {
        let db = build_db(&seqs);
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);
        let reference = one_shard(&db, &scoring).run_batch_on(&jobs, 1);
        let esa =
            ShardedEngine::build_with_backend(db.clone(), scoring.clone(), 1, IndexBackend::Esa);
        for threads in [1usize, THREADS] {
            let outcomes = esa.run_batch_on(&jobs, threads);
            prop_assert_eq!(outcomes.len(), reference.len());
            for (out, want) in outcomes.iter().zip(&reference) {
                prop_assert_eq!(&out.hits, &want.hits, "threads={}", threads);
                prop_assert_eq!(&out.stats, &want.stats, "threads={}", threads);
            }
        }
        let engine =
            ShardedEngine::build_with_backend(db.clone(), scoring.clone(), 4, IndexBackend::Esa);
        for threads in [1usize, THREADS] {
            let sharded = engine.run_batch_on(&jobs, threads);
            for (s, u) in sharded.iter().zip(&reference) {
                prop_assert_eq!(&s.hits, &u.hits, "k=4 threads={}", threads);
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
        let scoring = Scoring::unit_dna();
        let jobs = jobs_from(&queries, min);
        let tree = SuffixTree::build(&db);
        let unsharded = serial_reference(&tree, &db, &scoring, &jobs);
        for k in [1usize, 2, 3, 7] {
            let engine = ShardedEngine::build(db.clone(), scoring.clone(), k);
            for threads in [1usize, THREADS] {
                let sharded = engine.run_batch_on(&jobs, threads);
                prop_assert_eq!(sharded.len(), unsharded.len());
                for ((s, (hits, _)), job) in sharded.iter().zip(&unsharded).zip(&jobs) {
                    // Byte-identical hits: every field, in the same global
                    // online order, whatever the partitioning.
                    prop_assert_eq!(
                        &s.hits, hits,
                        "k={} threads={} query={}", k, threads, &job.id
                    );
                    prop_assert_eq!(s.stats.hits_emitted as usize, hits.len());
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
    let scoring = Scoring::unit_dna();
    let queries: Vec<Vec<u8>> = vec![
        vec![3, 0, 1, 2],
        vec![0, 1],
        vec![2, 2, 2],
        vec![1, 0, 3],
        vec![3, 0, 1, 1],
    ];
    let jobs = jobs_from(&queries, 1);
    let engine = one_shard(&db, &scoring);
    let first = engine.run_batch_on(&jobs, THREADS);
    for _ in 0..3 {
        let again = engine.run_batch_on(&jobs, THREADS);
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
    let scoring = Scoring::unit_dna();
    let queries: Vec<Vec<u8>> = vec![vec![0, 1, 0], vec![2, 3], vec![0, 0, 0], vec![1, 1]];
    let jobs = jobs_from(&queries, 1);
    let engine = one_shard(&db, &scoring);
    let serial = engine.run_batch_on(&jobs, 1);
    for threads in [2usize, 4, 8] {
        let parallel = engine.run_batch_on(&jobs, threads);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.hits, b.hits, "threads={threads}");
            assert_eq!(a.stats, b.stats, "threads={threads}");
        }
    }
}

/// The generated protein workload (ProClass-like queries, PAM30, the
/// Equation 3 threshold at E = 20000) answers byte-identically to the
/// serial one-shard batch on every execution path: 2–8 worker threads,
/// 1–8 shards, tree and ESA `run_one`, engines loaded from tree and
/// packed-ESA artifacts, a one-shard artifact opened disk-resident, and
/// the serving front end under admission backpressure, where every job is
/// served exactly once.
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
    let tree_engine = one_shard(&db, &scoring);
    let serial = tree_engine.run_batch_on(&jobs, 1);
    assert!(serial.iter().any(|o| !o.hits.is_empty()), "no query hit");
    let same = |got: &[SearchOutcome], what: &str| {
        assert_eq!(got.len(), serial.len(), "{what}: outcome count");
        for ((g, w), job) in got.iter().zip(&serial).zip(&jobs) {
            assert_eq!(g.hits, w.hits, "{what}: query {}", job.id);
        }
    };

    for threads in [2usize, THREADS, 8] {
        same(
            &tree_engine.run_batch_on(&jobs, threads),
            &format!("threads={threads}"),
        );
    }
    for shards in [1usize, 2, 4, 8] {
        let engine = ShardedEngine::build(db.clone(), scoring.clone(), shards);
        same(
            &engine.run_batch_on(&jobs, THREADS),
            &format!("shards={shards}"),
        );
    }

    let esa_engine =
        ShardedEngine::build_with_backend(db.clone(), scoring.clone(), 1, IndexBackend::Esa);
    for (job, want) in jobs.iter().zip(&serial) {
        let via_tree = tree_engine.run_one(&job.query, &job.params);
        let via_esa = esa_engine.run_one(&job.query, &job.params);
        assert_eq!(via_tree.hits, want.hits, "tree run_one: query {}", job.id);
        assert_eq!(via_esa.hits, want.hits, "esa run_one: query {}", job.id);
    }

    for backend in [IndexBackend::Tree, IndexBackend::Esa] {
        let dir = scratch_dir(backend.as_str());
        build_index_artifact(&db, &dir, 4, 2048, backend).expect("artifact written");
        let loaded = load_sharded_engine(&dir, scoring.clone()).expect("artifact loads");
        same(
            &loaded.run_batch_on(&jobs, THREADS),
            &format!("{} artifact", backend.as_str()),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    let dir = scratch_dir("protein-disk");
    let manifest = build_index_artifact(&db, &dir, 1, 2048, IndexBackend::Tree).expect("written");
    let disk = open_artifact_engine(&dir, &manifest, db.clone(), scoring.clone(), 1 << 20)
        .expect("artifact opens");
    let before = disk.pool_stats();
    let outcomes = disk.run_batch_on(&jobs, THREADS);
    same(&outcomes, "disk-resident artifact");
    assert!(disk.pool_stats().since(&before).total().requests > 0);
    std::fs::remove_dir_all(&dir).ok();

    // A queue a quarter of the batch deep: a full queue is answered by
    // completing the oldest ticket and resubmitting.
    let generation = IndexCatalog::new("protein", one_shard(&db, &scoring)).current();
    let serving = ServingEngine::new(ServingConfig {
        workers: THREADS,
        queue_capacity: jobs.len() / 4,
    })
    .expect("valid serving config");
    let mut tickets = std::collections::VecDeque::new();
    let mut served = Vec::new();
    for job in &jobs {
        loop {
            match serving.try_submit(Arc::clone(&generation), job.clone(), None) {
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
        serving.snapshot().served as usize,
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
