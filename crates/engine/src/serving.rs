//! The non-blocking serving front end: bounded admission, worker threads,
//! completion tickets, and per-query latency capture.
//!
//! A production search service cannot run every arriving query at once —
//! it needs *admission control*. [`ServingEngine`] is a bounded submission
//! queue plus a worker pool. It owns no index: every submission carries
//! the pinned [`Generation`] it runs on (handed out by
//! [`crate::IndexCatalog::current`]), whose executor is a
//! [`crate::ShardedEngine`], a served index wrapping one, or a test
//! double. [`ServingEngine::try_submit`]
//! never blocks, returning either a [`QueryTicket`] — a completion handle
//! the caller can wait on — or [`AdmissionError::QueueFull`], the
//! backpressure signal that tells the caller to retry later instead of
//! silently piling work up.
//!
//! Every served query's latency is captured (queue wait, service time, and
//! the submit-to-completion total) into log-bucketed
//! [`oasis_obs::Histogram`]s — fixed memory no matter how long the engine
//! lives, every sample counted — and [`ServingEngine::snapshot`], the
//! engine's one read API, folds them with the served/rejected counters
//! and the queue depth into the torn-free [`ServingSnapshot`] behind the
//! `Metrics` wire frame. A query submitted with an enabled
//! [`oasis_obs::QueryTrace`] carries it through the queue and worker,
//! coming back out with `queue_wait`/`execute` stage spans and the
//! driver's work counters recorded.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::catalog::Generation;
use crate::{BatchQuery, SearchOutcome, ShardedEngine};
use oasis_obs::trace::stage;
use oasis_obs::{Histogram, HistogramSnapshot, QueryTrace};

/// Anything that can run one query to completion. Implemented by the
/// engine; it is the seam that lets tests substitute a double.
pub trait QueryExecutor: Send + Sync {
    /// Execute `job` (respecting its [`BatchQuery::limit`]) and return the
    /// full outcome.
    fn execute(&self, job: &BatchQuery) -> SearchOutcome;
}

impl QueryExecutor for ShardedEngine {
    fn execute(&self, job: &BatchQuery) -> SearchOutcome {
        self.run_job(job)
    }
}

/// Configuration for a [`ServingEngine`].
#[derive(Debug, Clone, Copy)]
pub struct ServingConfig {
    /// Worker threads executing queries (min 1).
    pub workers: usize,
    /// Maximum number of admitted-but-unstarted queries; submissions
    /// beyond it are rejected with [`AdmissionError::QueueFull`] (min 1).
    pub queue_capacity: usize,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_capacity: 64,
        }
    }
}

impl ServingConfig {
    /// Reject degenerate configurations: zero workers would strand every
    /// admitted query, zero capacity would reject every submission — an
    /// engine that can never admit or serve anything deserves an error at
    /// construction, not silence at runtime.
    pub fn validate(&self) -> Result<(), ServingConfigError> {
        if self.workers == 0 {
            return Err(ServingConfigError::ZeroWorkers);
        }
        if self.queue_capacity == 0 {
            return Err(ServingConfigError::ZeroQueueCapacity);
        }
        Ok(())
    }
}

/// Why a [`ServingConfig`] was rejected at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingConfigError {
    /// `workers == 0`: admitted queries would wait forever.
    ZeroWorkers,
    /// `queue_capacity == 0`: every submission would be rejected.
    ZeroQueueCapacity,
}

impl std::fmt::Display for ServingConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingConfigError::ZeroWorkers => {
                write!(f, "serving config: workers must be at least 1")
            }
            ServingConfigError::ZeroQueueCapacity => {
                write!(f, "serving config: queue_capacity must be at least 1")
            }
        }
    }
}

impl std::error::Error for ServingConfigError {}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded queue is at capacity — backpressure; retry after some
    /// in-flight query completes.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
    /// The engine is shutting down and accepts no further work.
    ShuttingDown,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} queries queued)")
            }
            AdmissionError::ShuttingDown => write!(f, "serving engine is shutting down"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Everything one served query produced, including its latency breakdown.
#[derive(Debug, Clone)]
pub struct ServedOutcome {
    /// The job's caller-assigned id.
    pub id: String,
    /// The search result.
    pub outcome: SearchOutcome,
    /// Time spent waiting in the admission queue.
    pub queue_wait: Duration,
    /// Time spent executing the search.
    pub service: Duration,
    /// Submit-to-completion latency (`queue_wait + service`).
    pub total: Duration,
    /// The query's trace, with admission/execution spans and driver
    /// counters recorded (disabled and empty unless submitted with an
    /// enabled trace).
    pub trace: QueryTrace,
}

/// Completion handle for one admitted query.
///
/// The result arrives exactly once; [`wait`](QueryTicket::wait) blocks for
/// it, [`try_take`](QueryTicket::try_take) polls without blocking. `wait`
/// returns `None` only when the query itself panicked (e.g. it was encoded
/// with the wrong alphabet) — the worker survives and keeps serving, but
/// there is no outcome to deliver.
#[derive(Debug)]
pub struct QueryTicket {
    rx: mpsc::Receiver<ServedOutcome>,
}

impl QueryTicket {
    /// Block until the query completes.
    pub fn wait(self) -> Option<ServedOutcome> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll: `Some` once the query has completed.
    pub fn try_take(&self) -> Option<ServedOutcome> {
        self.rx.try_recv().ok()
    }
}

/// A completion-notification hook, invoked exactly once per admitted
/// query — after the outcome has been sent into the ticket (or, if the
/// query panicked, after the sender is dropped so the ticket resolves to
/// `None`). The hook runs on the worker thread with no engine lock held;
/// it exists so an event loop can learn a ticket is ready without ever
/// blocking on it (push a token onto a completion queue, wake a poller).
/// Keep it cheap and never let it block.
pub type CompletionHook = Box<dyn FnOnce() + Send + 'static>;

/// One admitted query waiting for a worker.
struct Submission {
    /// The generation pinned at admission; the query runs on it.
    generation: Arc<Generation<dyn QueryExecutor>>,
    job: BatchQuery,
    tx: mpsc::Sender<ServedOutcome>,
    submitted: Instant,
    notify: Option<CompletionHook>,
    /// Travels with the query; disabled (and free) unless the caller
    /// passed an enabled trace.
    trace: QueryTrace,
}

/// A torn-free view of a serving engine at one instant.
///
/// Every latency figure *and* the served count come from the same merged
/// histogram reads, so a scrape can never pair a count from one moment
/// with percentiles from another. Because histogram cells only grow,
/// `served` is monotonically non-decreasing across consecutive snapshots.
#[derive(Debug, Clone)]
pub struct ServingSnapshot {
    /// Queries executed to completion (the total histogram's count).
    pub served: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Queries waiting in the admission queue at snapshot time.
    pub queue_depth: usize,
    /// The configured queue capacity.
    pub queue_capacity: usize,
    /// Admission-queue wait per served query, in microseconds.
    pub queue_wait: HistogramSnapshot,
    /// Executor service time per served query, in microseconds.
    pub service: HistogramSnapshot,
    /// Submit-to-completion latency per served query, in microseconds.
    pub total: HistogramSnapshot,
}

struct Shared {
    queue: Mutex<VecDeque<Submission>>,
    /// Signalled when work is enqueued or shutdown begins.
    wake: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
    rejected: AtomicU64,
    /// Admission-queue wait per served query (µs). Log-bucketed and
    /// fixed-memory: the bounded replacement for the old sample ring.
    queue_wait: Histogram,
    /// Executor service time per served query (µs).
    service: Histogram,
    /// Submit-to-completion latency per served query (µs). Its count *is*
    /// the served counter — one source of truth for scrape consistency.
    total: Histogram,
}

/// The non-blocking serving front end: a bounded queue of submissions,
/// each pinned to the [`Generation`] it runs on.
///
/// Dropping the engine stops admission, lets the workers drain every
/// already-admitted query (admitted work is never abandoned), and joins
/// the worker threads.
pub struct ServingEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServingEngine {
    /// Spin up the worker pool. A degenerate `config` (zero workers or
    /// zero queue capacity) is rejected with a clear error instead of
    /// yielding an engine that can never serve.
    pub fn new(config: ServingConfig) -> Result<Self, ServingConfigError> {
        config.validate()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            capacity: config.queue_capacity,
            shutdown: AtomicBool::new(false),
            rejected: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            service: Histogram::new(),
            total: Histogram::new(),
        });
        let workers = (0..config.workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Ok(ServingEngine { shared, workers })
    }

    /// Submit `job` to run on `generation` without blocking: admitted
    /// work returns a [`QueryTicket`]; a full queue rejects with
    /// backpressure instead of making the caller wait.
    ///
    /// The submission holds `generation` until the query has executed, so
    /// a publish after admission never changes what the query runs on.
    /// An enabled `trace` gets the `queue_wait` and `execute` stage spans
    /// plus the driver's work counters, and comes back in
    /// [`ServedOutcome::trace`]; [`QueryTrace::disabled`] opts out at zero
    /// cost. A `notify` hook fires once the ticket is resolvable — the
    /// nonblocking completion path: the caller polls the ticket with
    /// [`QueryTicket::try_take`] only after the hook has fired, so it never
    /// parks a thread per in-flight query.
    pub fn try_submit<E: QueryExecutor + 'static>(
        &self,
        generation: Arc<Generation<E>>,
        job: BatchQuery,
        trace: QueryTrace,
        notify: Option<CompletionHook>,
    ) -> Result<QueryTicket, AdmissionError> {
        let (tx, rx) = mpsc::channel();
        {
            // Poisoning is recovered from throughout this module: worker
            // panics are already confined by `catch_unwind`, and the data
            // under these locks (a queue of submissions, a ring of
            // samples) stays structurally valid across a panic — so a
            // poisoned lock must not take the serving path down with it.
            let mut queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            // The shutdown flag only flips while this lock is held, so
            // checking it here is race-free: if it is still false, any
            // subsequent shutdown() happens after our push and the workers
            // will drain this submission before exiting. A check outside
            // the lock could admit work after the last worker has left.
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(AdmissionError::ShuttingDown);
            }
            if queue.len() >= self.shared.capacity {
                self.shared.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(AdmissionError::QueueFull {
                    capacity: self.shared.capacity,
                });
            }
            queue.push_back(Submission {
                generation,
                job,
                tx,
                submitted: Instant::now(),
                notify,
                trace,
            });
        }
        self.shared.wake.notify_one();
        Ok(QueryTicket { rx })
    }

    /// One consistent view of counters and latency histograms — the
    /// engine's only read API, and what the `Metrics` wire frame is built
    /// from: the served count and the total-latency percentiles come
    /// from the *same* histogram merge, so a scrape can never observe
    /// them torn.
    pub fn snapshot(&self) -> ServingSnapshot {
        let total = self.shared.total.snapshot();
        ServingSnapshot {
            served: total.count,
            rejected: self.shared.rejected.load(Ordering::Relaxed),
            queue_depth: self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            queue_capacity: self.shared.capacity,
            queue_wait: self.shared.queue_wait.snapshot(),
            service: self.shared.service.snapshot(),
            total,
        }
    }

    /// Begin a graceful shutdown: admission stops immediately
    /// ([`try_submit`](ServingEngine::try_submit) returns
    /// [`AdmissionError::ShuttingDown`]), while already-admitted queries
    /// are still drained and served. Workers exit once the queue is empty;
    /// dropping the engine then joins them without further waiting.
    pub fn shutdown(&self) {
        // Flip the flag under the queue lock — see `Drop` for why storing
        // outside it could let a worker park past the notification.
        {
            let _queue = self
                .shared
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.wake.notify_all();
    }
}

impl Drop for ServingEngine {
    fn drop(&mut self) {
        // The flag must flip while the queue mutex is held: a worker that
        // just observed `shutdown == false` under the lock is then either
        // still holding it (it will park *before* we can store) or already
        // parked in `wait` (it will receive the notification). Storing
        // without the lock could slip into the gap between a worker's
        // check and its park — the notification would find no waiter and
        // the join below would deadlock.
        self.shutdown();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let Submission {
            generation,
            job,
            tx,
            submitted,
            notify,
            mut trace,
        } = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(s) = queue.pop_front() {
                    break s;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return; // queue drained and no more work will arrive
                }
                queue = shared
                    .wake
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let started = Instant::now();
        // A panicking query (e.g. one encoded with the wrong alphabet)
        // must not kill the worker: later admitted work would never run
        // and its tickets would wait forever. Catch the unwind, drop the
        // ticket sender (the waiter sees `None`), and keep serving.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            generation.executor().execute(&job)
        }));
        let finished = Instant::now();
        // Unpin before the ticket resolves: once a caller sees the
        // outcome, the generation no longer counts as in flight.
        drop(generation);
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(_) => {
                drop(tx); // resolves the ticket with `None`
                if let Some(notify) = notify {
                    notify();
                }
                continue;
            }
        };
        trace.record_span(stage::QUEUE_WAIT, submitted, started);
        trace.record_span(stage::EXECUTE, started, finished);
        trace.record_search(
            outcome.stats.nodes_expanded,
            outcome.stats.nodes_enqueued,
            outcome.stats.columns_expanded,
            outcome.stats.nodes_pruned,
            outcome.stats.hits_emitted,
        );
        let served = ServedOutcome {
            id: job.id,
            outcome,
            queue_wait: started - submitted,
            service: finished - started,
            total: finished - submitted,
            trace,
        };
        shared.queue_wait.record_duration(served.queue_wait);
        shared.service.record_duration(served.service);
        shared.total.record_duration(served.total);
        // The caller may have dropped its ticket — that only means nobody
        // is listening; the work itself is still accounted.
        let _ = tx.send(served);
        // The hook fires strictly after the send: a notified poller's
        // `try_take` is guaranteed to find the outcome.
        if let Some(notify) = notify {
            notify();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_align::Scoring;
    use oasis_bioseq::{Alphabet, DatabaseBuilder, SequenceDatabase};
    use oasis_core::OasisParams;

    fn dna_db(seqs: &[&str]) -> Arc<SequenceDatabase> {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        Arc::new(b.finish())
    }

    fn engine(db: &Arc<SequenceDatabase>) -> ShardedEngine {
        ShardedEngine::build(db.clone(), Scoring::unit_dna(), 1)
    }

    /// Pin `executor` as a fresh catalog's generation 0.
    fn pinned<E: QueryExecutor>(executor: E) -> Arc<Generation<E>> {
        crate::IndexCatalog::new("test", executor).current()
    }

    /// Untraced, unhooked submission onto `generation`.
    fn submit<E: QueryExecutor + 'static>(
        serving: &ServingEngine,
        generation: &Arc<Generation<E>>,
        job: BatchQuery,
    ) -> Result<QueryTicket, AdmissionError> {
        serving.try_submit(Arc::clone(generation), job, QueryTrace::disabled(), None)
    }

    fn job(alpha: &Alphabet, text: &str) -> BatchQuery {
        BatchQuery::named(
            text.to_string(),
            alpha.encode_str(text).unwrap(),
            OasisParams::with_min_score(2),
        )
    }

    #[test]
    fn serves_queries_with_correct_results_and_latency() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG"]);
        let reference = engine(&db);
        let generation = pinned(engine(&db));
        let serving = ServingEngine::new(ServingConfig {
            workers: 2,
            queue_capacity: 8,
        })
        .expect("valid serving config");
        let alpha = Alphabet::dna();
        let tickets: Vec<QueryTicket> = ["TACG", "GGTA", "CC"]
            .iter()
            .map(|t| submit(&serving, &generation, job(&alpha, t)).expect("admitted"))
            .collect();
        for ticket in tickets {
            let served = ticket.wait().expect("completed");
            let want = reference.run_job(&job(&alpha, &served.id));
            assert_eq!(served.outcome.hits, want.hits, "query {}", served.id);
            assert!(served.total >= served.service);
        }
        let snap = serving.snapshot();
        assert_eq!(snap.served, 3);
        assert_eq!(snap.rejected, 0);
        assert_eq!(snap.total.count, 3);
        assert!(snap.total.max >= snap.total.quantile(0.50));
    }

    #[test]
    fn degenerate_config_rejected_at_construction() {
        for (config, want) in [
            (
                ServingConfig {
                    workers: 0,
                    queue_capacity: 4,
                },
                ServingConfigError::ZeroWorkers,
            ),
            (
                ServingConfig {
                    workers: 2,
                    queue_capacity: 0,
                },
                ServingConfigError::ZeroQueueCapacity,
            ),
        ] {
            assert_eq!(config.validate(), Err(want));
            let err = ServingEngine::new(config).err().expect("rejected");
            assert_eq!(err, want);
            assert!(err.to_string().contains("at least 1"), "{err}");
        }
        assert!(ServingConfig::default().validate().is_ok());
    }

    #[test]
    fn panicking_query_resolves_ticket_and_worker_survives() {
        struct Bomb;
        impl QueryExecutor for Bomb {
            fn execute(&self, job: &BatchQuery) -> SearchOutcome {
                if job.id == "boom" {
                    panic!("injected query panic");
                }
                SearchOutcome {
                    hits: Vec::new(),
                    stats: Default::default(),
                    pool_delta: Default::default(),
                }
            }
        }
        // Suppress the expected panic backtrace noise from the worker.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let generation = pinned(Bomb);
        let serving = ServingEngine::new(ServingConfig {
            workers: 1,
            queue_capacity: 4,
        })
        .expect("valid serving config");
        let params = OasisParams::with_min_score(1);
        let bad = submit(
            &serving,
            &generation,
            BatchQuery::named("boom", vec![0], params),
        )
        .expect("admitted");
        let good = submit(
            &serving,
            &generation,
            BatchQuery::named("fine", vec![0], params),
        )
        .expect("admitted");
        // The panicked query resolves with no outcome…
        assert!(bad.wait().is_none());
        // …and the same (sole) worker still serves what follows.
        assert_eq!(good.wait().expect("worker survived").id, "fine");
        assert_eq!(serving.snapshot().served, 1);
        drop(serving);
        std::panic::set_hook(prev_hook);
    }

    /// A trivial executor for stress tests: no real search, no blocking.
    struct Noop;
    impl QueryExecutor for Noop {
        fn execute(&self, _job: &BatchQuery) -> SearchOutcome {
            SearchOutcome {
                hits: Vec::new(),
                stats: Default::default(),
                pool_delta: Default::default(),
            }
        }
    }

    #[test]
    fn long_run_latency_capture_is_bounded_and_exact() {
        // The old sample ring forgot everything past its window; the
        // histogram counts every query in fixed memory. Serve well past
        // the old 4096-sample window and check nothing was lost.
        const N: usize = 20_000;
        let generation = pinned(Noop);
        let serving = ServingEngine::new(ServingConfig {
            workers: 4,
            queue_capacity: N,
        })
        .expect("valid serving config");
        let params = OasisParams::with_min_score(1);
        let tickets: Vec<QueryTicket> = (0..N)
            .map(|i| {
                submit(
                    &serving,
                    &generation,
                    BatchQuery::named(format!("q{i}"), vec![0], params),
                )
                .expect("capacity is ample")
            })
            .collect();
        for t in tickets {
            assert!(t.wait().is_some());
        }
        let snap = serving.snapshot();
        assert_eq!(snap.served, N as u64, "every served query is counted");
        assert_eq!(snap.total.count, N as u64);
        // Torn-free by construction: served IS the total histogram count.
        assert_eq!(snap.served, snap.total.count);
    }

    #[test]
    fn served_count_never_decreases_across_scrapes() {
        let generation = pinned(Noop);
        let serving = Arc::new(
            ServingEngine::new(ServingConfig {
                workers: 2,
                queue_capacity: 1024,
            })
            .expect("valid serving config"),
        );
        let submitter = {
            let serving = Arc::clone(&serving);
            std::thread::spawn(move || {
                let params = OasisParams::with_min_score(1);
                let mut tickets = Vec::new();
                for i in 0..2000 {
                    loop {
                        match submit(
                            &serving,
                            &generation,
                            BatchQuery::named(format!("q{i}"), vec![0], params),
                        ) {
                            Ok(t) => break tickets.push(t),
                            // Backpressure: retry until admitted.
                            Err(_) => std::thread::yield_now(),
                        }
                    }
                }
                for t in tickets {
                    let _ = t.wait();
                }
            })
        };
        // Scrape concurrently with serving: the regression this guards is
        // a torn read where a later scrape reports fewer served queries.
        let mut last = 0u64;
        for _ in 0..500 {
            let snap = serving.snapshot();
            assert!(
                snap.served >= last,
                "served went backwards: {} -> {}",
                last,
                snap.served
            );
            assert_eq!(snap.served, snap.total.count);
            last = snap.served;
        }
        submitter.join().expect("submitter thread");
        assert_eq!(serving.snapshot().served, 2000);
    }

    #[test]
    fn traced_submission_records_stages_and_counters() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG"]);
        let generation = pinned(engine(&db));
        let serving = ServingEngine::new(ServingConfig {
            workers: 1,
            queue_capacity: 4,
        })
        .expect("valid serving config");
        let alpha = Alphabet::dna();
        let trace = QueryTrace::enabled(7, 4);
        let ticket = serving
            .try_submit(
                Arc::clone(&generation),
                job(&alpha, "TACG"),
                trace,
                Some(Box::new(|| {})),
            )
            .expect("admitted");
        let served = ticket.wait().expect("completed");
        let trace = &served.trace;
        assert!(trace.is_enabled());
        let names: Vec<&str> = trace.spans().iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(names, vec!["queue_wait", "execute"]);
        // Spans are ordered and contiguous: execute starts where the
        // queue wait ended.
        let spans = trace.spans();
        assert!(spans[1].start_us >= spans[0].start_us + spans[0].dur_us);
        assert_eq!(trace.counters.hits, served.outcome.stats.hits_emitted);
        assert_eq!(
            trace.counters.nodes_expanded,
            served.outcome.stats.nodes_expanded
        );
        // An untraced submission stays disabled and recordless.
        let plain = submit(&serving, &generation, job(&alpha, "GGTA"))
            .expect("admitted")
            .wait()
            .expect("completed");
        assert!(!plain.trace.is_enabled());
        assert!(plain.trace.spans().is_empty());
    }

    #[test]
    fn shutdown_stops_admission_but_serves_admitted_work() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG"]);
        let alpha = Alphabet::dna();
        let generation = pinned(engine(&db));
        let serving = ServingEngine::new(ServingConfig {
            workers: 1,
            queue_capacity: 4,
        })
        .expect("valid serving config");
        let admitted = submit(&serving, &generation, job(&alpha, "TACG")).expect("admitted");
        serving.shutdown();
        // Admission closed…
        assert_eq!(
            submit(&serving, &generation, job(&alpha, "CC")).unwrap_err(),
            AdmissionError::ShuttingDown
        );
        // …but already-admitted work is still served.
        assert_eq!(admitted.wait().expect("drained").id, "TACG");
        assert_eq!(serving.snapshot().served, 1);
    }

    #[test]
    fn drop_drains_admitted_work() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG"]);
        let alpha = Alphabet::dna();
        let ticket;
        {
            let generation = pinned(engine(&db));
            let serving = ServingEngine::new(ServingConfig {
                workers: 1,
                queue_capacity: 4,
            })
            .expect("valid serving config");
            ticket = submit(&serving, &generation, job(&alpha, "TACG")).expect("admitted");
            // `serving` drops here: shutdown must still serve the query.
        }
        assert!(ticket.wait().is_some());
    }
}
