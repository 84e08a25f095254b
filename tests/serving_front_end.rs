//! The serving front end's admission-control contract: a full queue
//! *rejects* new work with backpressure instead of blocking the caller,
//! admitted work is always served exactly once, per-query latency is
//! captured for the tail percentiles, degenerate configurations are
//! rejected at construction, and an [`IndexCatalog`] hot-swaps index
//! generations under live traffic without rejecting, blocking, or
//! corrupting in-flight queries — each query runs on the generation
//! pinned at its admission.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use oasis::prelude::*;

/// A test executor whose queries block until the test releases them —
/// making "the worker is busy and the queue is full" a deterministic
/// state instead of a race against real search work.
struct GateExecutor {
    started: mpsc::Sender<String>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl QueryExecutor for GateExecutor {
    fn execute(&self, job: &BatchQuery) -> SearchOutcome {
        self.started.send(job.id.clone()).expect("test listening");
        self.release
            .lock()
            .expect("gate poisoned")
            .recv()
            .expect("test releases every admitted job");
        SearchOutcome {
            hits: Vec::new(),
            stats: SearchStats::default(),
            pool_delta: PoolStatsSnapshot::default(),
        }
    }
}

fn job(id: &str) -> BatchQuery {
    BatchQuery::named(id, vec![0, 1, 2], OasisParams::with_min_score(1))
}

/// Untraced, unhooked submission pinned to `catalog`'s current generation.
fn submit<E: QueryExecutor + 'static>(
    serving: &ServingEngine,
    catalog: &IndexCatalog<E>,
    job: BatchQuery,
) -> Result<QueryTicket, AdmissionError> {
    serving.try_submit(catalog.current(), job, QueryTrace::disabled(), None)
}

#[test]
fn full_admission_queue_rejects_instead_of_blocking() {
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let catalog = IndexCatalog::new(
        "gated",
        GateExecutor {
            started: started_tx,
            release: Mutex::new(release_rx),
        },
    );
    let serving = ServingEngine::new(ServingConfig {
        workers: 1,
        queue_capacity: 2,
    })
    .expect("valid serving config");

    // First job is picked up by the (single) worker and parks on the gate.
    let a = submit(&serving, &catalog, job("a")).expect("a admitted");
    assert_eq!(started_rx.recv().expect("worker started"), "a");
    assert!(a.try_take().is_none(), "a is still executing");

    // Two more fill the bounded queue to capacity…
    let b = submit(&serving, &catalog, job("b")).expect("b admitted");
    let c = submit(&serving, &catalog, job("c")).expect("c admitted");
    assert_eq!(serving.snapshot().queue_depth, 2);

    // …and the next submission is rejected immediately — no blocking.
    let err = submit(&serving, &catalog, job("d")).unwrap_err();
    assert_eq!(err, AdmissionError::QueueFull { capacity: 2 });
    assert_eq!(serving.snapshot().rejected, 1);

    // Release the gate: every admitted job completes exactly once.
    for _ in 0..3 {
        release_tx.send(()).expect("worker listening");
    }
    let mut ids: Vec<String> = [a, b, c]
        .into_iter()
        .map(|t| t.wait().expect("admitted work is served").id)
        .collect();
    ids.sort();
    assert_eq!(ids, ["a", "b", "c"]);
    let snap = serving.snapshot();
    assert_eq!(snap.served, 3);
    assert_eq!(snap.rejected, 1);
    assert_eq!(snap.total.count, 3);
    assert!(snap.total.max >= snap.total.quantile(0.50));
}

#[test]
fn degenerate_serving_config_is_rejected_at_construction() {
    // Zero workers would strand every admitted query; zero capacity would
    // reject every submission. Both used to construct silently; now they
    // fail with a clear diagnostic before any thread spawns.
    let err = ServingEngine::new(ServingConfig {
        workers: 0,
        queue_capacity: 4,
    })
    .err()
    .expect("zero workers rejected");
    assert_eq!(err, ServingConfigError::ZeroWorkers);
    assert!(err.to_string().contains("workers"), "{err}");

    let err = ServingEngine::new(ServingConfig {
        workers: 2,
        queue_capacity: 0,
    })
    .err()
    .expect("zero capacity rejected");
    assert_eq!(err, ServingConfigError::ZeroQueueCapacity);
    assert!(err.to_string().contains("queue_capacity"), "{err}");
}

#[test]
fn hot_swap_serves_new_generation_and_drains_old_one() {
    // A query admitted on generation 0 must pin it across a publish;
    // queries submitted after the publish run on generation 1 without
    // waiting for the old one; and the old generation is dropped the
    // moment its last in-flight query completes.
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    enum Gen {
        Gated {
            started: mpsc::Sender<String>,
            release: Mutex<mpsc::Receiver<()>>,
        },
        Instant,
    }
    impl QueryExecutor for Gen {
        fn execute(&self, job: &BatchQuery) -> SearchOutcome {
            if let Gen::Gated { started, release } = self {
                started.send(job.id.clone()).expect("test listening");
                release
                    .lock()
                    .expect("gate poisoned")
                    .recv()
                    .expect("test releases");
            }
            SearchOutcome {
                hits: Vec::new(),
                stats: SearchStats::default(),
                pool_delta: PoolStatsSnapshot::default(),
            }
        }
    }
    let catalog = IndexCatalog::new(
        "gated-gen0",
        Gen::Gated {
            started: started_tx,
            release: Mutex::new(release_rx),
        },
    );
    let serving = ServingEngine::new(ServingConfig {
        workers: 2,
        queue_capacity: 8,
    })
    .expect("valid serving config");

    // Park one query inside generation 0.
    let parked = submit(&serving, &catalog, job("parked")).expect("admitted");
    assert_eq!(started_rx.recv().expect("started"), "parked");

    // Swap generations while it is in flight.
    let new_id = catalog.publish("instant-gen1", Gen::Instant);
    assert_eq!(new_id, Ok(1));
    assert_eq!(catalog.current().label(), "instant-gen1");

    // New work is admitted and served by generation 1 immediately — the
    // parked query still holds the other worker, so completion proves the
    // swap neither blocked nor rejected.
    let after = submit(&serving, &catalog, job("after-swap")).expect("admitted");
    assert_eq!(after.wait().expect("served").id, "after-swap");

    // Generation 0 is still pinned by the parked query…
    let pinned = catalog.retired_in_flight();
    assert_eq!(pinned.len(), 1);
    assert_eq!(pinned[0].label, "gated-gen0");

    // …and is dropped once that query completes.
    release_tx.send(()).expect("worker listening");
    assert_eq!(parked.wait().expect("drained").id, "parked");
    assert!(catalog.retired_in_flight().is_empty());
    assert_eq!(serving.snapshot().rejected, 0);
}

#[test]
fn hot_swap_under_concurrent_traffic_is_lossless_and_correct() {
    // Continuous submissions across repeated generation swaps: nothing is
    // rejected (capacity covers the offered load), nothing blocks, and
    // every result is byte-identical to a reference engine — whichever
    // generation served it.
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, s) in ["AGTACGCCTAG", "TACCG", "GGTAGG", "GATTACA", "TACGTACG"]
        .iter()
        .enumerate()
    {
        b.push_str(format!("s{i}"), s).unwrap();
    }
    let db = Arc::new(b.finish());
    let reference = ShardedEngine::build(db.clone(), Scoring::unit_dna(), 1);
    let catalog = IndexCatalog::new(
        "gen0",
        ShardedEngine::build(db.clone(), Scoring::unit_dna(), 1),
    );
    let serving = ServingEngine::new(ServingConfig {
        workers: 2,
        queue_capacity: 256,
    })
    .expect("valid serving config");

    let alpha = Alphabet::dna();
    let texts = ["TACG", "GATT", "GGTAGG", "CC", "TACCG"];
    let submitted: Vec<(String, QueryTicket)> = std::thread::scope(|scope| {
        // Publish fresh generations (different shard counts — results must
        // not change) while the main thread keeps submitting.
        let swapper = {
            let (catalog, db) = (&catalog, db.clone());
            scope.spawn(move || {
                for k in [2usize, 3, 4] {
                    let generation = ShardedEngine::build(db.clone(), Scoring::unit_dna(), k);
                    catalog
                        .publish(format!("{k}-shards"), generation)
                        .expect("publish");
                    std::thread::yield_now();
                }
            })
        };
        let mut tickets = Vec::new();
        for round in 0..20 {
            for t in texts {
                let id = format!("{t}#{round}");
                let ticket = submit(
                    &serving,
                    &catalog,
                    BatchQuery::named(
                        id.clone(),
                        alpha.encode_str(t).unwrap(),
                        OasisParams::with_min_score(2),
                    ),
                )
                .expect("capacity covers the offered load — no rejects");
                tickets.push((t.to_string(), ticket));
            }
        }
        swapper.join().expect("swapper finished");
        tickets
    });

    for (text, ticket) in submitted {
        let served = ticket.wait().expect("admitted work is always served");
        let want = reference.run_one(
            &alpha.encode_str(&text).unwrap(),
            &OasisParams::with_min_score(2),
        );
        assert_eq!(served.outcome.hits, want.hits, "query {text}");
    }
    let snap = serving.snapshot();
    assert_eq!(snap.rejected, 0, "no backpressure under swaps");
    assert_eq!(snap.served, 100);
    // Once everything drained, no retired generation stays pinned.
    assert!(catalog.retired_in_flight().is_empty());
    assert_eq!(catalog.generations_published(), 4);
}

#[test]
fn serving_real_engine_matches_direct_execution() {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, s) in ["AGTACGCCTAG", "TACCG", "GGTAGG", "GATTACA"]
        .iter()
        .enumerate()
    {
        b.push_str(format!("s{i}"), s).unwrap();
    }
    let db = Arc::new(b.finish());
    let engine = ShardedEngine::build(db.clone(), Scoring::unit_dna(), 1);
    let single = IndexCatalog::new(
        "single",
        ShardedEngine::build(db.clone(), Scoring::unit_dna(), 1),
    );
    let serving = ServingEngine::new(ServingConfig {
        workers: 2,
        queue_capacity: 8,
    })
    .expect("valid serving config");
    let alpha = Alphabet::dna();
    let jobs: Vec<BatchQuery> = ["TACG", "GATT", "GGTAGG"]
        .iter()
        .map(|t| {
            BatchQuery::named(
                t.to_string(),
                alpha.encode_str(t).unwrap(),
                OasisParams::with_min_score(2),
            )
        })
        .collect();
    let tickets: Vec<QueryTicket> = jobs
        .iter()
        .map(|j| submit(&serving, &single, j.clone()).expect("capacity is ample"))
        .collect();
    for (ticket, job) in tickets.into_iter().zip(&jobs) {
        let served = ticket.wait().expect("served");
        let direct = engine.run_batch(std::slice::from_ref(job));
        assert_eq!(served.outcome.hits, direct[0].hits, "query {}", job.id);
        assert!(served.total >= served.service);
    }
    // The sharded engine serves through the same front end.
    let sharded = IndexCatalog::new("sharded", ShardedEngine::build(db, Scoring::unit_dna(), 3));
    for job in &jobs {
        let served = submit(&serving, &sharded, job.clone())
            .expect("capacity is ample")
            .wait()
            .expect("served");
        let direct = engine.run_batch(std::slice::from_ref(job));
        assert_eq!(served.outcome.hits, direct[0].hits, "sharded {}", job.id);
    }
}
