//! Generation tracking and atomic hot-swap of index generations.
//!
//! A production search service cannot stop the world to pick up a freshly
//! built (or freshly loaded) index. [`IndexCatalog`] makes the index
//! behind a running [`crate::ServingEngine`] *replaceable*: it holds the
//! current [`Generation`] behind an `RwLock<Arc<_>>`, and every query pins
//! the generation current at its admission by cloning that `Arc`
//! ([`IndexCatalog::current`]) and submitting it along with the job.
//! [`IndexCatalog::publish`] swaps the pointer — an O(1) critical section
//! that never waits for queries — so:
//!
//! * queries already admitted run on, and answer from, the generation
//!   they pinned (their `Arc` keeps it alive);
//! * every query admitted after the swap pins the new generation;
//! * the old generation is dropped exactly when its last pinned query
//!   completes: the catalog keeps no reference to a retired generation.
//!
//! A generation wraps any [`crate::QueryExecutor`] (a
//! [`crate::ShardedEngine`] or a test double):
//!
//! ```
//! use std::sync::Arc;
//! use oasis_align::Scoring;
//! use oasis_bioseq::{Alphabet, DatabaseBuilder};
//! use oasis_core::OasisParams;
//! use oasis_engine::{BatchQuery, IndexCatalog, ServingConfig, ServingEngine, ShardedEngine};
//!
//! let mut b = DatabaseBuilder::new(Alphabet::dna());
//! b.push_str("s0", "AGTACGCCTAG").unwrap();
//! let db = Arc::new(b.finish());
//! let gen0 = ShardedEngine::build(db.clone(), Scoring::unit_dna(), 2);
//! let catalog = IndexCatalog::new("boot", gen0);
//! let serving = ServingEngine::new(ServingConfig { workers: 2, queue_capacity: 8 }).unwrap();
//!
//! // Admission pins the current generation; the query runs on it.
//! let query = Alphabet::dna().encode_str("TACG").unwrap();
//! let job = BatchQuery::new(query, OasisParams::with_min_score(2));
//! let ticket = serving.try_submit(catalog.current(), job, None).unwrap();
//!
//! // … meanwhile, without stopping admission: build (or load) a new
//! // generation and swap it in. Pinned queries finish on the old one.
//! let gen1 = ShardedEngine::build(db.clone(), Scoring::unit_dna(), 4);
//! catalog.publish("rebuilt with 4 shards", gen1).unwrap();
//! assert_eq!(catalog.current().id(), 1);
//! assert!(!ticket.wait().unwrap().outcome.hits.is_empty());
//! ```
//!
//! During teardown, [`begin_shutdown`](IndexCatalog::begin_shutdown)
//! closes the catalog to further publishes: a background compaction (or a
//! remote reload) that loses the race against shutdown gets a typed
//! [`PublishError::ShuttingDown`] instead of silently swapping an index
//! into a server that is already draining.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use oasis_obs::sync::RwLock;

/// One catalogued index generation: an executor plus the identity it was
/// published under. Handed out pinned (`Arc`) by [`IndexCatalog::current`];
/// only the catalog creates generations, so ids are unique per catalog.
pub struct Generation<E: ?Sized> {
    id: u64,
    label: String,
    executor: E,
}

impl<E: ?Sized> Generation<E> {
    /// Monotonic generation number (0 is the generation the catalog was
    /// created with).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The label supplied at publication (a human-readable provenance
    /// note, e.g. `"loaded from ./index-v2"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The executor queries pinned to this generation run on.
    pub fn executor(&self) -> &E {
        &self.executor
    }
}

/// Why a publish was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishError {
    /// [`IndexCatalog::begin_shutdown`] was called: the catalog no longer
    /// accepts new generations. Whatever the caller built stays
    /// unpublished — for a compaction, this means the WAL must **not** be
    /// truncated, since no serving generation pins the merged artifact.
    ShuttingDown,
}

impl std::fmt::Display for PublishError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PublishError::ShuttingDown => {
                write!(f, "catalog is shutting down; generation not published")
            }
        }
    }
}

impl std::error::Error for PublishError {}

/// An atomically swappable registry of index generations (see the module
/// docs for the hot-swap semantics).
pub struct IndexCatalog<E> {
    current: RwLock<Arc<Generation<E>>>,
    next_id: AtomicU64,
    /// Set by [`begin_shutdown`](IndexCatalog::begin_shutdown), checked
    /// under the `current` write lock so a publish and a shutdown cannot
    /// interleave.
    shutting_down: AtomicBool,
}

impl<E> IndexCatalog<E> {
    /// A catalog whose generation 0 is `executor`.
    pub fn new(label: impl Into<String>, executor: E) -> Self {
        IndexCatalog {
            current: RwLock::new(Arc::new(Generation {
                id: 0,
                label: label.into(),
                executor,
            })),
            next_id: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
        }
    }

    /// Atomically make `executor` the serving generation. Queries already
    /// running keep the generation they started on; every later query runs
    /// on the new one. Returns the new generation's id, or a typed
    /// [`PublishError::ShuttingDown`] when the catalog has been closed by
    /// [`begin_shutdown`](IndexCatalog::begin_shutdown) — the generation
    /// is then dropped, never swapped in.
    pub fn publish(&self, label: impl Into<String>, executor: E) -> Result<u64, PublishError> {
        let mut current = self.current.write();
        if self.shutting_down.load(Ordering::Relaxed) {
            return Err(PublishError::ShuttingDown);
        }
        // The id is allocated only after the shutdown check (and under
        // the same lock), so ids stay dense and
        // [`generations_published`](IndexCatalog::generations_published)
        // counts exactly the generations that actually served.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let fresh = Arc::new(Generation {
            id,
            label: label.into(),
            executor,
        });
        let retired = std::mem::replace(&mut *current, fresh);
        // Unlock first: the retired generation drops here unless queries
        // still pin it (the last of them drops it then), and freeing an
        // index must not stall admissions.
        drop(current);
        drop(retired);
        Ok(id)
    }

    /// Close the catalog to further publishes. Queries keep executing on
    /// the current generation (shutdown of *admission* is the serving
    /// engine's job); only generation swaps are refused from here on.
    /// Taken under the `current` write lock so a publish already past its
    /// own shutdown check completes before the flag is visible — there is
    /// no window where a publish half-succeeds.
    pub fn begin_shutdown(&self) {
        let _current = self.current.write();
        self.shutting_down.store(true, Ordering::Relaxed);
    }

    /// Has [`begin_shutdown`](IndexCatalog::begin_shutdown) been called?
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }

    /// Pin the generation new queries are admitted on (cheap: one `Arc`
    /// clone under a read lock). The caller's clone keeps the generation
    /// alive for as long as it holds it, independent of later publishes.
    pub fn current(&self) -> Arc<Generation<E>> {
        self.current.read().clone()
    }

    /// Total generations ever published (including generation 0).
    pub fn generations_published(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    /// A stand-in executor carrying its generation's marker.
    struct Marker(u64);

    #[test]
    fn publish_switches_new_queries() {
        let catalog = IndexCatalog::new("gen0", Marker(7));
        let gen0 = catalog.current();
        assert_eq!(gen0.executor().0, 7);
        assert_eq!((gen0.id(), gen0.label()), (0, "gen0"));
        let id = catalog.publish("gen1", Marker(9)).unwrap();
        assert_eq!(id, 1);
        let gen1 = catalog.current();
        assert_eq!(gen1.executor().0, 9);
        assert_eq!(catalog.generations_published(), 2);
        // The id, label and executor come from one pinned generation.
        assert_eq!((gen1.id(), gen1.label(), gen1.executor().0), (1, "gen1", 9));
        // A generation pinned before the publish still answers from it.
        assert_eq!(gen0.executor().0, 7);
    }

    #[test]
    fn retired_generation_lives_until_last_query_completes() {
        struct Gate {
            started: Arc<Barrier>,
            release: Arc<Barrier>,
        }
        enum Either {
            Gated(Gate),
            Instant,
        }
        impl Either {
            /// Stands in for a query: a gated generation parks it.
            fn run(&self) {
                if let Either::Gated(g) = self {
                    g.started.wait();
                    g.release.wait();
                }
            }
        }

        let (started, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
        let catalog = Arc::new(IndexCatalog::new(
            "gated",
            Either::Gated(Gate {
                started: Arc::clone(&started),
                release: Arc::clone(&release),
            }),
        ));
        // A query pins generation 0 and parks inside it.
        let pinned = catalog.current();
        let retired = Arc::downgrade(&pinned);
        let worker = std::thread::spawn(move || pinned.executor().run());
        started.wait();
        // Swap generations while the query is in flight.
        catalog.publish("instant", Either::Instant).unwrap();
        // New queries run (on the new generation) without blocking…
        catalog.current().executor().run();
        // …while the old generation is still pinned by the parked query.
        assert!(retired.upgrade().is_some());
        // Release it: the old generation must drop with the last query.
        release.wait();
        oasis_obs::sync::join(worker).unwrap();
        assert!(retired.upgrade().is_none());
    }

    #[test]
    fn publish_racing_shutdown_is_a_typed_error_with_dense_ids() {
        let catalog = IndexCatalog::new("gen0", Marker(7));
        assert!(!catalog.is_shutting_down());
        catalog.publish("gen1", Marker(9)).unwrap();
        catalog.begin_shutdown();
        assert!(catalog.is_shutting_down());
        // The losing publish is refused, not silently dropped or swapped.
        assert_eq!(
            catalog.publish("too late", Marker(11)),
            Err(PublishError::ShuttingDown)
        );
        // The refusal consumed no id: accounting stays exact.
        assert_eq!(catalog.generations_published(), 2);
        assert_eq!(catalog.current().id(), 1);
        // Queries still run on the current generation while draining.
        assert_eq!(catalog.current().executor().0, 9);
    }
}
