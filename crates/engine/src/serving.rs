//! The non-blocking serving front end: bounded admission, worker threads,
//! streaming query tickets, cancellation, and per-query latency capture.
//!
//! A production search service cannot run every arriving query at once —
//! it needs *admission control*. [`ServingEngine`] is a bounded submission
//! queue plus a worker pool. It owns no index: every submission carries
//! the pinned [`Generation`] it runs on (handed out by
//! [`crate::IndexCatalog::current`]), whose executor is a
//! [`crate::ShardedEngine`], a served index wrapping one, or a test
//! double. [`ServingEngine::try_submit`] never blocks, returning either a
//! [`QueryTicket`] or [`AdmissionError::QueueFull`], the backpressure
//! signal that tells the caller to retry later instead of silently piling
//! work up.
//!
//! Execution is a *stream*, the paper's online property kept end to end.
//! The worker runs [`QueryExecutor::stream`], which for the engine steps
//! a [`crate::ShardedSession`] in bounded batches of `STEP_BATCH`
//! driver steps and hands each hit to a [`HitSink`] the moment the k-way
//! merge releases it. The sink appends it to a buffer the ticket shares,
//! so a reader sees hits long before the search ends:
//! [`QueryTicket::poll`] takes whatever arrived, never blocking, and
//! hands each hit over exactly once, so the buffer holds only the hits
//! not yet taken; [`QueryTicket::wait`] builds the whole answer from its
//! own poll for in-process callers. An optional [`ReadyHook`] fires
//! whenever the ticket goes from nothing-to-take to something-to-take,
//! which is how a connection's writer learns to poll without parking on
//! any one query.
//!
//! Dropping a ticket cancels its query: the worker checks the flag
//! between step batches (and before starting a queued query), so a search
//! nobody will read frees its worker within one batch. A cancelled search
//! is not counted as served.
//!
//! Every served query's latency is captured (queue wait, service time, and
//! the submit-to-completion total) into log-bucketed
//! [`oasis_obs::Histogram`]s — fixed memory no matter how long the engine
//! lives, every sample counted — and [`ServingEngine::snapshot`], the
//! engine's one read API, folds them with the served/rejected counters
//! and the queue depth into the torn-free [`ServingSnapshot`] behind the
//! `Metrics` wire frame. A completed query's [`ServedOutcome`] carries
//! its queue wait, service time and the driver's work counters, from
//! which a caller builds its own per-query record (the server's
//! [`oasis_obs::QueryTrace`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::catalog::Generation;
use crate::shard::SessionPoll;
use crate::{BatchQuery, SearchOutcome, ShardedEngine};
use oasis_core::{Hit, SearchStats};
use oasis_obs::sync::{self, Condvar, Deque, Mutex};
use oasis_obs::{Histogram, HistogramSnapshot};

/// Driver steps the worker runs between cancellation checks. One step
/// pops and expands one frontier node (about 1.3 µs for the benchmark's
/// short protein queries on a 2-core x86-64 VM), so a batch is under a
/// tenth of a millisecond:
/// a cancelled search frees its worker that soon, and the check (one
/// relaxed atomic load) costs nothing measurable at this spacing.
const STEP_BATCH: usize = 64;

/// Anything that can run one query as a stream of hits. Implemented by
/// the engine; it is the seam that lets tests substitute a double.
pub trait QueryExecutor: Send + Sync {
    /// Run `job` (respecting its [`BatchQuery::limit`]), handing every hit
    /// to `sink` in the canonical order as soon as it is known, and return
    /// the search's accounting. Between bounded batches of work an
    /// implementation checks [`HitSink::is_cancelled`] and, once it is
    /// set, returns early: nobody will read the rest.
    fn stream(&self, job: &BatchQuery, sink: &mut HitSink<'_>) -> SearchStats;
}

impl QueryExecutor for ShardedEngine {
    fn stream(&self, job: &BatchQuery, sink: &mut HitSink<'_>) -> SearchStats {
        let mut session = self.session(&job.query, &job.params);
        let mut left = job.limit.unwrap_or(usize::MAX);
        while left > 0 && !sink.is_cancelled() {
            match session.poll(STEP_BATCH) {
                SessionPoll::Hit(hit) => {
                    sink.emit(hit);
                    left -= 1;
                }
                SessionPoll::Pending => {}
                SessionPoll::Done => break,
            }
        }
        session.finish()
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
    /// The search result: every hit the stream carried, in order, from
    /// [`QueryTicket::wait`] (a [`StreamEnd::Done`] carries none: `poll`
    /// handed them over).
    pub outcome: SearchOutcome,
    /// Time spent waiting in the admission queue.
    pub queue_wait: Duration,
    /// Time spent executing the search.
    pub service: Duration,
    /// Submit-to-completion latency (`queue_wait + service`).
    pub total: Duration,
}

/// How a streamed query ended, as [`QueryTicket::poll`] reports it once
/// every hit has been taken.
#[derive(Debug)]
pub enum StreamEnd {
    /// The search completed. `outcome.hits` is empty: `poll` has already
    /// handed every hit over, in order.
    Done(Box<ServedOutcome>),
    /// The query panicked (e.g. it was encoded with the wrong alphabet).
    /// The hits taken before it are a valid prefix of the answer; the
    /// worker survives and keeps serving.
    Failed,
}

/// The buffer one query's worker and its ticket share.
#[derive(Debug)]
struct Stream {
    state: Mutex<StreamState>,
    /// Signalled when the stream ends (for [`QueryTicket::wait`]).
    ended: Condvar,
    /// Set when the ticket is dropped: nobody will read the rest. A bare
    /// stop signal — no data is published through it.
    cancelled: AtomicBool,
}

#[derive(Debug, Default)]
struct StreamState {
    /// The hits the reader has not taken yet, in merge order.
    hits: Vec<Hit>,
    end: Option<StreamEnd>,
}

impl Stream {
    fn end(&self, end: StreamEnd) {
        self.state.lock().end = Some(end);
        self.ended.notify_all();
    }
}

/// Where an executor hands its hits: appends each one to the buffer its
/// query's [`QueryTicket`] reads, waking the reader when the buffer goes
/// from empty to non-empty, and reports whether the ticket was dropped.
pub struct HitSink<'a> {
    stream: &'a Stream,
    ready: Option<&'a (dyn Fn() + Send)>,
}

impl HitSink<'_> {
    /// Publish the next hit of the stream to the ticket.
    pub fn emit(&mut self, hit: Hit) {
        let was_empty = {
            let mut state = self.stream.state.lock();
            state.hits.push(hit);
            state.hits.len() == 1
        };
        // Only the first hit after the reader caught up wakes it; later
        // ones coalesce into the batch it takes next.
        if was_empty {
            if let Some(ready) = self.ready {
                ready();
            }
        }
    }

    /// Has the ticket been dropped? An executor checks this between
    /// bounded batches of work and stops once it is set.
    pub fn is_cancelled(&self) -> bool {
        self.stream.cancelled.load(Ordering::Relaxed)
    }
}

/// The reading end of one admitted query's hit stream.
///
/// [`poll`](QueryTicket::poll) takes the hits that arrived so far without
/// blocking; [`wait`](QueryTicket::wait) blocks for the whole answer.
/// Dropping the ticket cancels the query: the worker stops it at its next
/// step-batch boundary, or skips it if it has not started.
#[derive(Debug)]
pub struct QueryTicket {
    stream: Arc<Stream>,
}

impl QueryTicket {
    /// Block until the query ends and return its whole answer, built from
    /// one [`poll`](QueryTicket::poll); `None` only when the query itself
    /// panicked.
    pub fn wait(self) -> Option<ServedOutcome> {
        let mut state = self.stream.state.lock();
        while state.end.is_none() {
            state = self.stream.ended.wait(state);
        }
        drop(state);
        let mut hits = Vec::new();
        match self.poll(&mut hits) {
            Some(StreamEnd::Done(mut served)) => {
                served.outcome.hits = hits;
                Some(*served)
            }
            _ => None,
        }
    }

    /// Non-blocking: move the hits not yet taken into `out` (each hit is
    /// handed over once), and once the query has ended (and so every hit
    /// is taken), return how it ended. The end is returned once; later
    /// polls answer `None`.
    pub fn poll(&self, out: &mut Vec<Hit>) -> Option<StreamEnd> {
        let mut state = self.stream.state.lock();
        out.append(&mut state.hits);
        state.end.take()
    }

    /// Has the query ended? Takes nothing.
    pub fn is_finished(&self) -> bool {
        self.stream.state.lock().end.is_some()
    }
}

impl Drop for QueryTicket {
    fn drop(&mut self) {
        self.stream.cancelled.store(true, Ordering::Relaxed);
    }
}

/// A readiness hook, invoked on the worker thread (with no engine lock
/// held) each time its query's ticket goes from nothing-to-take to
/// something-to-take: the first hit after the reader caught up, and the
/// end of the stream. It exists so a reader serving several tickets (a
/// connection's writer) can learn one is worth polling without ever
/// blocking on it. Keep it cheap and never let
/// it block.
pub type ReadyHook = Box<dyn Fn() + Send + 'static>;

/// One admitted query waiting for a worker.
struct Submission {
    /// The generation pinned at admission; the query runs on it.
    generation: Arc<Generation<dyn QueryExecutor>>,
    job: BatchQuery,
    stream: Arc<Stream>,
    submitted: Instant,
    ready: Option<ReadyHook>,
}

/// A torn-free view of a serving engine at one instant.
///
/// Every latency figure *and* the served count come from the same merged
/// histogram reads, so a scrape can never pair a count from one moment
/// with percentiles from another. Because histogram cells only grow,
/// `served` is monotonically non-decreasing across consecutive snapshots.
#[derive(Debug, Clone)]
pub struct ServingSnapshot {
    /// Queries executed to completion (the total histogram's count); a
    /// panicked or cancelled query is not served.
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
    queue: Mutex<Deque<Submission>>,
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
/// already-admitted query whose ticket is still held (only a dropped
/// ticket abandons its query), and joins the worker threads.
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
            queue: Mutex::new(Deque::new()),
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
    /// A `ready` hook fires whenever the ticket has something new to
    /// take — the nonblocking path: the caller polls the ticket with
    /// [`QueryTicket::poll`] after the hook fired, so it never parks a
    /// thread per in-flight query.
    pub fn try_submit<E: QueryExecutor + 'static>(
        &self,
        generation: Arc<Generation<E>>,
        job: BatchQuery,
        ready: Option<ReadyHook>,
    ) -> Result<QueryTicket, AdmissionError> {
        let stream = Arc::new(Stream {
            state: Mutex::new(StreamState::default()),
            ended: Condvar::new(),
            cancelled: AtomicBool::new(false),
        });
        {
            let mut queue = self.shared.queue.lock();
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
                stream: Arc::clone(&stream),
                submitted: Instant::now(),
                ready,
            });
        }
        self.shared.wake.notify_one();
        Ok(QueryTicket { stream })
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
            queue_depth: self.shared.queue.lock().len(),
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
            let _queue = self.shared.queue.lock();
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
            let _ = sync::join(worker);
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let Submission {
            generation,
            job,
            stream,
            submitted,
            ready,
        } = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(s) = queue.pop_front() {
                    break s;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return; // queue drained and no more work will arrive
                }
                queue = shared.wake.wait(queue);
            }
        };
        if stream.cancelled.load(Ordering::Relaxed) {
            continue; // its ticket is gone before the search began
        }
        let started = Instant::now();
        // A panicking query (e.g. one encoded with the wrong alphabet)
        // must not kill the worker: later admitted work would never run
        // and its tickets would wait forever. Catch the unwind, end the
        // stream as failed, and keep serving.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = HitSink {
                stream: &stream,
                ready: ready.as_deref(),
            };
            generation.executor().stream(&job, &mut sink)
        }));
        let finished = Instant::now();
        // Unpin before the ticket resolves: once a caller sees the
        // outcome, the generation no longer counts as in flight.
        drop(generation);
        let end = match result {
            // Nobody will read a cancelled search: it is not served.
            Ok(_) if stream.cancelled.load(Ordering::Relaxed) => continue,
            Ok(stats) => {
                let served = ServedOutcome {
                    id: job.id,
                    outcome: SearchOutcome {
                        hits: Vec::new(), // handed over through `poll`
                        stats,
                    },
                    queue_wait: started - submitted,
                    service: finished - started,
                    total: finished - submitted,
                };
                shared.queue_wait.record_duration(served.queue_wait);
                shared.service.record_duration(served.service);
                shared.total.record_duration(served.total);
                StreamEnd::Done(Box::new(served))
            }
            Err(_) => StreamEnd::Failed,
        };
        stream.end(end);
        // The hook fires strictly after the end is stored: a notified
        // poller is guaranteed to find it.
        if let Some(ready) = ready {
            ready();
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

    /// Unhooked submission onto `generation`.
    fn submit<E: QueryExecutor + 'static>(
        serving: &ServingEngine,
        generation: &Arc<Generation<E>>,
        job: BatchQuery,
    ) -> Result<QueryTicket, AdmissionError> {
        serving.try_submit(Arc::clone(generation), job, None)
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
    fn poll_hands_each_hit_over_once_and_the_stream_keeps_none() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG", "TACGTACG"]);
        let alpha = Alphabet::dna();
        let want = engine(&db).run_job(&job(&alpha, "TACG")).hits;
        assert!(want.len() > 1, "the query needs several hits");
        let generation = pinned(engine(&db));
        let serving = ServingEngine::new(ServingConfig {
            workers: 1,
            queue_capacity: 4,
        })
        .expect("valid serving config");
        let ticket = submit(&serving, &generation, job(&alpha, "TACG")).expect("admitted");
        let mut taken = Vec::new();
        let served = loop {
            let end = ticket.poll(&mut taken);
            assert!(
                ticket.stream.state.lock().hits.is_empty(),
                "a taken hit stays"
            );
            match end {
                Some(StreamEnd::Done(served)) => break served,
                Some(StreamEnd::Failed) => panic!("the search failed"),
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(taken, want, "every hit once, in canonical order");
        assert!(served.outcome.hits.is_empty());
        assert!(ticket.poll(&mut taken).is_none() && taken.len() == want.len());
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
            fn stream(&self, job: &BatchQuery, _sink: &mut HitSink<'_>) -> SearchStats {
                if job.id == "boom" {
                    panic!("injected query panic");
                }
                Default::default()
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
        fn stream(&self, _job: &BatchQuery, _sink: &mut HitSink<'_>) -> SearchStats {
            Default::default()
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
        sync::join(submitter).expect("submitter thread");
        assert_eq!(serving.snapshot().served, 2000);
    }

    /// Emits one hit, then parks until its ticket is dropped — it only
    /// ever returns through the cancel path.
    struct HitThenPark {
        parked: std::sync::mpsc::Sender<()>,
    }
    impl QueryExecutor for HitThenPark {
        fn stream(&self, job: &BatchQuery, sink: &mut HitSink<'_>) -> SearchStats {
            if job.id != "park" {
                return Default::default();
            }
            sink.emit(Hit {
                seq: 0,
                score: 7,
                t_start: 0,
                t_len: 1,
                q_end: 1,
            });
            self.parked.send(()).ok();
            while !sink.is_cancelled() {
                sync::sleep(Duration::from_millis(1));
            }
            Default::default()
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test code: the test thread holds no lock while it waits for the executor"
    )]
    fn hits_reach_the_ticket_before_the_search_ends_and_a_drop_cancels_it() {
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let generation = pinned(HitThenPark { parked: parked_tx });
        let serving = ServingEngine::new(ServingConfig {
            workers: 1,
            queue_capacity: 4,
        })
        .expect("valid serving config");
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let ready_tx = Mutex::new(ready_tx);
        let params = oasis_core::OasisParams::with_min_score(1);
        let parked = serving
            .try_submit(
                Arc::clone(&generation),
                BatchQuery::named("park", vec![0], params),
                Some(Box::new(move || {
                    ready_tx.lock().send(()).ok();
                })),
            )
            .expect("admitted");
        parked_rx.recv().expect("the executor parked");
        ready_rx.recv().expect("the first hit woke the reader");
        // The hit is readable while the search is still running.
        let mut hits = Vec::new();
        assert!(parked.poll(&mut hits).is_none());
        assert_eq!(hits.len(), 1);
        assert!(!parked.is_finished());
        // Dropping the ticket frees the (only) worker: the next query
        // completes, and the cancelled one is not counted as served.
        drop(parked);
        let next = submit(
            &serving,
            &generation,
            BatchQuery::named("next", vec![0], params),
        )
        .expect("admitted");
        assert_eq!(next.wait().expect("served").id, "next");
        assert_eq!(serving.snapshot().served, 1);
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
