//! The `oasis serve` daemon: an event-driven TCP front end over a
//! shared [`ServingEngine`].
//!
//! One event loop owns every socket. The listener and all client
//! streams run in nonblocking mode; each tick the loop accepts what is
//! pending, pulls bytes from every readable connection into its
//! [`Conn`] state machine, dispatches the complete frames, polls
//! in-flight query tickets, and flushes whatever responses are ready.
//! When nothing moves it parks on a [`Completions`] waker, which engine
//! workers poke through a per-query completion hook
//! ([`ServingEngine::try_submit`]) — the loop never blocks on a ticket,
//! so thousands of connections cost one thread plus the engine's worker
//! pool, not a thread per socket.
//!
//! Connections are **pipelined**: a client may send several requests
//! back-to-back before reading, and responses return strictly in
//! request order even when the engine completes them out of order (the
//! per-connection queue in [`Conn`] is the ordering mechanism). A
//! connection may have at most `MAX_PIPELINE` requests in flight;
//! beyond that the loop stops reading its socket and the TCP window
//! applies the backpressure. Across connections, the engine's bounded
//! admission queue still answers [`ErrorCode::Busy`] *on the wire*
//! instead of blocking, and `max_conns` bounds the accept side: a
//! connection over the limit is greeted with a terminal `Busy` error
//! frame and closed.
//!
//! In front of admission sits a bounded LRU [`ResultCache`] keyed on
//! `(generation, query bytes, score params)`. Generations are
//! immutable — every reload, append, and compaction publishes a *new*
//! generation id — so a cached result can never go stale: a hot swap
//! changes the key. Cache hits stream the same hit frames a fresh
//! execution would, with `service_us = 0`.
//!
//! Admin frames (`Metrics`, `TraceDump`, `Reload`, `Append`) are handled
//! inline on the loop thread; a reload's artifact load briefly stalls
//! the loop, which is acceptable for rare admin operations and keeps
//! every catalog publish serialized with dispatch.
//!
//! ## Generational consistency
//!
//! Served indexes live in an [`IndexCatalog`] of [`ServedIndex`]
//! generations, so the admin `reload` request (and every append or
//! compaction) can hot-swap a new generation under live traffic. Each
//! search is pinned to the generation current when it is *admitted*:
//! the query is encoded with that generation's alphabet, its E-value
//! becomes a `minScore` against that generation's database, the engine
//! executes it on that generation, and its hit names, `Done.generation`,
//! cache key and trace counters all come from the same pinned `Arc`. A
//! swap that lands while the request waits in the queue therefore
//! changes nothing about its answer — one answer, one index version.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or a client [`Frame::Shutdown`] request)
//! stops the accept loop, closes engine admission, and wakes the event
//! loop. Already-admitted queries still drain — their connections
//! stream full responses — and then every connection is closed with a
//! terminal [`ErrorCode::ShuttingDown`] frame, so clients can tell a
//! graceful drain from a crash. [`OasisServer::run`] returns once every
//! connection has drained (or a grace period expires for peers that
//! stopped reading).
//!
//! [`Completions`]: crate::reactor::Completions
//! [`Conn`]: crate::conn::Conn
//! [`ServingEngine::try_submit`]: oasis_engine::ServingEngine::try_submit

use std::collections::{BTreeMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use oasis_align::{background_dna, background_protein, KarlinParams, Score, Scoring};
use oasis_bioseq::{parse_fasta, AlphabetKind, SequenceDatabase, UnknownResiduePolicy};
use oasis_core::{Hit, OasisParams};
use oasis_engine::{
    open_artifact_engine, AdmissionError, BatchQuery, CacheKey, IndexCatalog, LiveIndex,
    LiveIndexError, LiveIndexOptions, PublishError, QueryExecutor, ResultCache, SearchOutcome,
    ServingConfig, ServingConfigError, ServingEngine,
};
use oasis_obs::trace::stage;
use oasis_obs::{Counter, Histogram, HistogramSnapshot, QueryTrace, SlowLog};
use oasis_storage::{pending_records, read_manifest, replay_wal, ArtifactError, IndexManifest};

use crate::conn::{Conn, WaitingSearch};
use crate::frame::{
    write_frame, AppendDone, ErrorCode, ErrorFrame, Frame, GenerationServed, Hello, MetricsReport,
    ReloadDone, RemoteHit, ScoreRule, SearchDone, SearchRequest, StageSummary, TraceDump,
    TraceEntry, TraceSpan, PROTOCOL_VERSION,
};
use crate::reactor::{Completions, Slab};
use crate::NetError;

/// Park timeout while connections are open: bounds how fast the loop
/// notices new socket bytes (completions and shutdown wake it sooner).
const BUSY_TICK: Duration = Duration::from_millis(1);
/// Park timeout with no connections: bounds accept latency only.
const IDLE_TICK: Duration = Duration::from_millis(10);
/// How long a draining shutdown waits for peers that stopped reading
/// before force-closing their connections.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Slow-query ring capacity: enough to hold a burst worth diagnosing,
/// small enough that a pathological `--slow-ms 0` stays bounded.
const SLOWLOG_CAPACITY: usize = 64;
/// Accept-poll cadence of the plain-text metrics listener thread.
const METRICS_POLL: Duration = Duration::from_millis(25);
/// Rows of the per-generation served table the server keeps: the most
/// recent generations that answered a search. Every append publishes a
/// generation, so an unbounded table would grow for the server's whole
/// life (and past what one `Metrics` frame can encode).
pub const PER_GENERATION_ROWS: usize = 64;

/// One publishable index generation: a query executor plus the database
/// it serves. The database rides along because the wire protocol names
/// hits (remote clients hold no database) and encodes query text with
/// the serving alphabet — both must stay consistent with the executor.
pub struct ServedIndex {
    db: Arc<SequenceDatabase>,
    executor: Arc<dyn QueryExecutor>,
}

impl ServedIndex {
    /// A served generation over `executor`, which must search exactly
    /// `db`.
    pub fn new(db: Arc<SequenceDatabase>, executor: Arc<dyn QueryExecutor>) -> Self {
        ServedIndex { db, executor }
    }

    /// Load the artifact directory `dir` into a served generation, opened
    /// by [`open_artifact_engine`] — the same policy as the local
    /// `search --index` path (a buffer pool of `pool_bytes` serves a
    /// disk-resident shard).
    pub fn from_artifact(
        dir: &Path,
        scoring: Scoring,
        pool_bytes: usize,
    ) -> Result<Self, ArtifactError> {
        let manifest = read_manifest(dir)?;
        let db = Arc::new(manifest.load_database(dir)?);
        Self::from_artifact_parts(dir, &manifest, db, scoring, pool_bytes)
    }

    /// [`from_artifact`](ServedIndex::from_artifact) with the manifest and
    /// database already loaded (lets callers inspect them first).
    pub fn from_artifact_parts(
        dir: &Path,
        manifest: &IndexManifest,
        db: Arc<SequenceDatabase>,
        scoring: Scoring,
        pool_bytes: usize,
    ) -> Result<Self, ArtifactError> {
        if db.alphabet_kind() != scoring.matrix.kind() {
            return Err(ArtifactError::Corrupt(format!(
                "artifact alphabet {:?} does not match the serving scoring's {:?} matrix",
                db.alphabet_kind(),
                scoring.matrix.kind()
            )));
        }
        let engine = open_artifact_engine(dir, manifest, db.clone(), scoring, pool_bytes)?;
        Ok(ServedIndex::new(db, Arc::new(engine)))
    }

    /// The database this generation serves.
    pub fn db(&self) -> &Arc<SequenceDatabase> {
        &self.db
    }
}

impl QueryExecutor for ServedIndex {
    fn execute(&self, job: &BatchQuery) -> SearchOutcome {
        self.executor.execute(job)
    }
}

/// Configuration for an [`OasisServer`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Engine worker threads executing queries (`0` = available
    /// parallelism).
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it answer
    /// [`ErrorCode::Busy`].
    pub queue_capacity: usize,
    /// Buffer-pool bytes for generations that `reload` opens
    /// disk-resident (single-shard artifacts).
    pub pool_bytes: usize,
    /// Background compaction trigger: when the live delta reaches this
    /// many pending sequences after an append, a compaction is spawned
    /// off-thread. `0` disables automatic compaction (appends still
    /// work; the WAL and delta just grow until an offline compaction).
    pub compact_after: usize,
    /// Maximum simultaneously open client connections; a connection
    /// beyond the limit is greeted with a terminal [`ErrorCode::Busy`]
    /// frame and closed. `0` = unlimited.
    pub max_conns: usize,
    /// Result-cache capacity, in entries. `0` disables the cache.
    pub cache_entries: usize,
    /// Bind a plain-text metrics listener here (`None` = no listener).
    /// It answers every connection with one Prometheus scrape body over
    /// minimal HTTP/1.0 — `curl http://addr/metrics` works; so does a
    /// bare TCP read.
    pub metrics_addr: Option<SocketAddr>,
    /// Slow-query threshold in milliseconds. `Some(ms)` enables
    /// per-query tracing: every search carries a [`QueryTrace`] through
    /// the pipeline, and queries whose admission-to-flush time reaches
    /// the threshold land in the slow-query ring (`Some(0)` logs every
    /// query). `None` disables tracing entirely — searches carry a
    /// disabled trace that never allocates.
    pub slow_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            pool_bytes: 64 << 20,
            compact_after: 256,
            max_conns: 1024,
            cache_entries: 512,
            metrics_addr: None,
            slow_ms: None,
        }
    }
}

/// Why an [`OasisServer`] could not be constructed.
#[derive(Debug)]
pub enum ServerError {
    /// The listening socket could not be bound.
    Io(std::io::Error),
    /// The derived [`ServingConfig`] was degenerate.
    Config(ServingConfigError),
    /// Live ingestion could not be enabled (artifact/WAL problem).
    Live(LiveIndexError),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server bind failed: {e}"),
            ServerError::Config(e) => write!(f, "{e}"),
            ServerError::Live(e) => write!(f, "live ingestion: {e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// State shared between the event loop, engine workers (via completion
/// hooks), and [`ServerHandle`]s.
struct Shared {
    /// The served generations; searches pin the current one at admission.
    catalog: IndexCatalog<ServedIndex>,
    serving: ServingEngine,
    scoring: Scoring,
    karlin: Option<KarlinParams>,
    pool_bytes: usize,
    shutting_down: AtomicBool,
    next_token: AtomicU64,
    /// Artifact directory live ingestion appends into (None = appends
    /// are refused; set via [`OasisServer::set_live_dir`]).
    live_dir: Mutex<Option<PathBuf>>,
    /// The live-ingestion state, opened lazily on the first append (or
    /// eagerly at startup when the WAL holds unreplayed records).
    live: Mutex<Option<Arc<LiveIndex>>>,
    /// Delta size that triggers a background compaction (0 = never).
    compact_after: usize,
    /// Background compaction threads not yet seen to finish; finished
    /// ones are dropped at the next spawn, the rest joined in `run`.
    compactions: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// The bounded LRU result cache (capacity 0 = disabled).
    cache: ResultCache,
    /// Completion queue + waker the event loop parks on; engine workers
    /// push finished query tokens here via the completion hook.
    completions: Arc<Completions>,
    /// When the server was bound (metrics uptime).
    started: Instant,
    /// Connections accepted over the server's lifetime.
    accepted: AtomicU64,
    /// Deepest per-connection pipeline observed.
    pipelined_peak: AtomicU64,
    /// Searches answered per generation (executions and cache hits), for
    /// the [`PER_GENERATION_ROWS`] most recent generations.
    per_gen: Mutex<BTreeMap<u64, u64>>,
    /// Open-connection bound (`usize::MAX` = unlimited).
    max_conns: usize,
    /// Connections open right now; the event loop publishes its count
    /// each tick so the metrics listener thread can report it too.
    open_conns: AtomicU64,
    /// Loop-side time to name hits and build response frames, per
    /// completed search (µs).
    resolve_hist: Histogram,
    /// Time to encode and hand a traced response to the kernel (µs);
    /// samples only while tracing is enabled (`slow_ms` set).
    flush_hist: Histogram,
    /// Slow-query threshold, microseconds (`None` = tracing off).
    slow_threshold_us: Option<u64>,
    /// The bounded slow-query ring, dumped by `TraceDumpRequest`.
    slowlog: SlowLog,
    /// WAL fsyncs performed (one per acknowledged append).
    wal_fsyncs: Counter,
}

impl Shared {
    /// Take ownership of every in-flight compaction handle. The lock
    /// guard lives only inside this call, so the caller can join the
    /// handles without holding it.
    fn drain_compactions(&self) -> Vec<std::thread::JoinHandle<()>> {
        std::mem::take(
            &mut *self
                .compactions
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        // Close the catalog first: a background compaction that loses
        // this race gets a typed publish refusal and leaves the WAL
        // intact, so shutdown never strands an unreplayable append.
        self.catalog.begin_shutdown();
        self.serving.shutdown();
        // Wake the event loop so an idle server notices immediately.
        self.completions.wake();
    }

    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Record a pipeline depth; metrics report the high-water mark.
    fn note_pipeline_depth(&self, depth: usize) {
        self.pipelined_peak
            .fetch_max(depth as u64, Ordering::Relaxed);
    }

    /// Count one answered search against `generation`, keeping only the
    /// most recent [`PER_GENERATION_ROWS`] generations.
    fn bump_generation(&self, generation: u64) {
        let mut per_gen = self.per_gen.lock().unwrap_or_else(PoisonError::into_inner);
        *per_gen.entry(generation).or_insert(0) += 1;
        while per_gen.len() > PER_GENERATION_ROWS {
            per_gen.pop_first();
        }
    }

    fn per_generation_snapshot(&self) -> Vec<GenerationServed> {
        self.per_gen
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(&generation, &served)| GenerationServed { generation, served })
            .collect()
    }

    /// The live index if one is already open (never opens one).
    fn live_peek(&self) -> Option<Arc<LiveIndex>> {
        self.live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The live index, opening it on first use. `Ok(None)` means no
    /// live directory is configured (appends are refused).
    fn live_open(&self) -> Result<Option<Arc<LiveIndex>>, LiveIndexError> {
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(index) = live.as_ref() {
            return Ok(Some(Arc::clone(index)));
        }
        let dir = self
            .live_dir
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let Some(dir) = dir else { return Ok(None) };
        let index = Arc::new(LiveIndex::open(
            &dir,
            self.scoring.clone(),
            LiveIndexOptions::default(),
        )?);
        *live = Some(Arc::clone(&index));
        Ok(Some(index))
    }
}

/// The network daemon: accepts connections and serves the wire protocol
/// over a shared serving engine. See the module docs for semantics.
pub struct OasisServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    /// Where the plain-text metrics listener bound (None = not enabled).
    metrics_addr: Option<SocketAddr>,
    /// The metrics listener thread, joined when `run` returns.
    metrics_thread: Option<std::thread::JoinHandle<()>>,
}

/// A cloneable handle for initiating shutdown from outside
/// [`OasisServer::run`] (tests, signal handlers, the CLI).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin a graceful shutdown: stop accepting, close admission, wake
    /// the event loop, drain admitted work, close streams with a
    /// terminal frame.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }
}

impl OasisServer {
    /// Bind `addr` (port `0` picks an ephemeral port — see
    /// [`local_addr`](OasisServer::local_addr)) and assemble the serving
    /// stack over generation 0 = `index`. `scoring` is fixed for the
    /// server's lifetime; reloaded generations must match its alphabet.
    pub fn bind(
        addr: impl ToSocketAddrs,
        index: ServedIndex,
        scoring: Scoring,
        config: ServerConfig,
    ) -> Result<OasisServer, ServerError> {
        let listener = TcpListener::bind(addr).map_err(ServerError::Io)?;
        let local_addr = listener.local_addr().map_err(ServerError::Io)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let freqs: Vec<f64> = match scoring.matrix.kind() {
            AlphabetKind::Dna => background_dna().to_vec(),
            AlphabetKind::Protein => background_protein().to_vec(),
        };
        let karlin = KarlinParams::estimate(&scoring.matrix, &freqs).ok();
        let serving = ServingEngine::new(ServingConfig {
            workers,
            queue_capacity: config.queue_capacity,
        })
        .map_err(ServerError::Config)?;
        let shared = Arc::new(Shared {
            catalog: IndexCatalog::new("boot", index),
            serving,
            scoring,
            karlin,
            pool_bytes: config.pool_bytes,
            shutting_down: AtomicBool::new(false),
            next_token: AtomicU64::new(0),
            live_dir: Mutex::new(None),
            live: Mutex::new(None),
            compact_after: config.compact_after,
            compactions: Mutex::new(Vec::new()),
            cache: ResultCache::new(config.cache_entries),
            completions: Arc::new(Completions::new()),
            started: Instant::now(),
            accepted: AtomicU64::new(0),
            pipelined_peak: AtomicU64::new(0),
            per_gen: Mutex::new(BTreeMap::new()),
            max_conns: if config.max_conns == 0 {
                usize::MAX
            } else {
                config.max_conns
            },
            open_conns: AtomicU64::new(0),
            resolve_hist: Histogram::new(),
            flush_hist: Histogram::new(),
            slow_threshold_us: config.slow_ms.map(|ms| ms.saturating_mul(1000)),
            slowlog: SlowLog::new(SLOWLOG_CAPACITY),
            wal_fsyncs: Counter::new(),
        });
        let (metrics_addr, metrics_thread) = match config.metrics_addr {
            Some(addr) => {
                let metrics_listener = TcpListener::bind(addr).map_err(ServerError::Io)?;
                let bound = metrics_listener.local_addr().map_err(ServerError::Io)?;
                let thread_shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || {
                    run_metrics_listener(metrics_listener, &thread_shared);
                });
                (Some(bound), Some(handle))
            }
            None => (None, None),
        };
        Ok(OasisServer {
            listener,
            local_addr,
            shared,
            metrics_addr,
            metrics_thread,
        })
    }

    /// Enable live ingestion: `Append` requests durably log into `dir`'s
    /// write-ahead log and serve from the layered (base + delta) index.
    ///
    /// If the WAL already holds records no compaction has folded (the
    /// server was killed between an append and its compaction), the live
    /// index opens *now* and its replayed snapshot is published before
    /// any connection is accepted — a restart never silently serves
    /// without acknowledged appends. A WAL that cannot be replayed (I/O
    /// error, bad magic, out-of-order records) is an error for the same
    /// reason.
    pub fn set_live_dir(&self, dir: impl Into<PathBuf>) -> Result<(), ServerError> {
        let dir = dir.into();
        let pending = wal_has_pending(&dir).map_err(ServerError::Live)?;
        *self
            .shared
            .live_dir
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(dir);
        if pending {
            let live =
                self.shared
                    .live_open()
                    .map_err(ServerError::Live)?
                    .ok_or(ServerError::Live(LiveIndexError::Publish(
                        PublishError::ShuttingDown,
                    )))?;
            if live.stats().delta_seqs > 0 {
                self.shared
                    .catalog
                    .publish("live-replay", live_generation(live.snapshot()))
                    .map_err(|e| ServerError::Live(LiveIndexError::Publish(e)))?;
            }
        }
        Ok(())
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Where the plain-text metrics listener bound (resolves `:0`), or
    /// `None` when [`ServerConfig::metrics_addr`] was not set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Run the event loop until shutdown, then drain every connection
    /// (in-flight responses complete first) and return.
    pub fn run(mut self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let metrics_thread = self.metrics_thread.take();
        let shared = &self.shared;
        let mut conns: Slab<Conn> = Slab::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let mut progress = false;
            let shutting = shared.is_shutting_down();
            if shutting && drain_deadline.is_none() {
                drain_deadline = Some(Instant::now() + DRAIN_GRACE);
            }
            if !shutting {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _peer)) => {
                            progress = true;
                            shared.accepted.fetch_add(1, Ordering::Relaxed);
                            if conns.len() >= shared.max_conns {
                                refuse_over_capacity(stream, shared.max_conns);
                                continue;
                            }
                            let Ok(mut conn) = Conn::new(stream) else {
                                continue; // stillborn socket
                            };
                            // Server-first handshake: protocol version +
                            // serving generation, queued like any response.
                            conn.push_ready(vec![hello_frame(shared)]);
                            conns.insert(conn);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        // Transient accept failure (e.g. EMFILE): retry
                        // next tick rather than spinning here.
                        Err(_) => break,
                    }
                }
            }
            let notified: HashSet<u64> = shared.completions.drain().into_iter().collect();
            if !notified.is_empty() {
                progress = true;
            }
            shared
                .open_conns
                .store(conns.len() as u64, Ordering::Relaxed);
            for id in conns.ids() {
                let Some(conn) = conns.get_mut(id) else {
                    continue;
                };
                match service_conn(shared, conn, &notified, shutting) {
                    ConnFate::Keep(moved) => progress |= moved,
                    ConnFate::Close => {
                        conns.remove(id);
                        progress = true;
                    }
                }
            }
            if shutting {
                if conns.is_empty() {
                    break;
                }
                if drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    // Peers that stopped reading their terminal frames:
                    // force-close rather than wedge shutdown.
                    for id in conns.ids() {
                        conns.remove(id);
                    }
                    break;
                }
            }
            if !progress {
                let tick = if conns.is_empty() {
                    IDLE_TICK
                } else {
                    BUSY_TICK
                };
                shared.completions.wait_timeout(tick);
            }
        }
        self.shared.open_conns.store(0, Ordering::Relaxed);
        // The metrics listener polls the shutdown flag (set before the
        // loop above exited), so this join is bounded by one poll tick.
        if let Some(thread) = metrics_thread {
            let _ = thread.join();
        }
        // Background compactions abort cleanly (their publish is refused
        // once shutdown began) — but they must finish before the process
        // may exit, or a truncation could be torn mid-write.
        for compaction in self.shared.drain_compactions() {
            let _ = compaction.join();
        }
        Ok(())
    }
}

/// Does `dir`'s WAL hold records no compaction has folded yet? A log that
/// cannot be read is an error, never "nothing pending".
fn wal_has_pending(dir: &Path) -> Result<bool, LiveIndexError> {
    let Some(replay) = replay_wal(dir).map_err(LiveIndexError::Wal)? else {
        return Ok(false);
    };
    let lineage = read_manifest(dir)
        .map_err(LiveIndexError::Artifact)?
        .lineage;
    Ok(!pending_records(replay.records, lineage.as_ref()).is_empty())
}

/// The accept-side connection limit was hit: greet the stream with a
/// terminal `Busy` frame (best-effort, bounded) and drop it.
fn refuse_over_capacity(stream: TcpStream, max_conns: usize) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_frame(
        &mut stream,
        &Frame::Error(ErrorFrame::new(
            ErrorCode::Busy,
            format!("connection limit reached ({max_conns} open); retry later"),
        )),
    );
}

fn hello_frame(shared: &Shared) -> Frame {
    let current = shared.catalog.current();
    let db = current.executor().db();
    Frame::Hello(Hello {
        protocol: PROTOCOL_VERSION,
        generation: current.id(),
        generation_label: current.label().to_string(),
        alphabet: db.alphabet_kind(),
        num_seqs: db.num_sequences(),
        total_residues: db.total_residues(),
    })
}

fn error_frames(code: ErrorCode, message: impl Into<String>) -> Vec<Frame> {
    vec![Frame::Error(ErrorFrame::new(code, message))]
}

/// What one tick did to a connection.
enum ConnFate {
    /// Still alive; the flag reports whether anything moved.
    Keep(bool),
    /// Remove and drop the connection.
    Close,
}

/// What dispatching one request frame decided.
enum Action {
    /// The response is fully known already.
    Reply(Vec<Frame>),
    /// The response is known *and* carries a query trace (a traced
    /// cache hit) that must flow through the flush span and slow log.
    ReplyTraced(Vec<Frame>, Box<QueryTrace>),
    /// A search was admitted; poll it to completion.
    Wait(Box<WaitingSearch>),
    /// Answer, then close the connection (protocol misuse).
    ReplyClose(Vec<Frame>),
}

/// Service one connection for one tick: ingest bytes, dispatch frames,
/// poll in-flight searches, flush responses, decide its fate.
fn service_conn(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    notified: &HashSet<u64>,
    shutting: bool,
) -> ConnFate {
    let mut progress = false;
    if !notified.is_empty() && conn.mark_notified(notified) {
        progress = true;
    }
    let event = conn.read_frames(conn.read_budget());
    progress |= event.progress;
    for frame in event.frames {
        if conn.closing {
            break; // a terminal reply is already queued; drop the rest
        }
        match dispatch(shared, frame) {
            Action::Reply(frames) => conn.push_ready(frames),
            Action::ReplyTraced(frames, trace) => conn.push_ready_traced(frames, trace),
            Action::Wait(waiting) => conn.push_waiting(*waiting),
            Action::ReplyClose(frames) => {
                conn.push_ready(frames);
                conn.closing = true;
            }
        }
        progress = true;
    }
    shared.note_pipeline_depth(conn.pending.len());
    if let Some(fatal) = event.fatal {
        match fatal {
            // The peer is gone; nothing to answer.
            NetError::Io(_) => return ConnFate::Close,
            // Framing violation: typed error after any pending
            // responses, then close — the stream position is no longer
            // trustworthy.
            other => {
                if !conn.closing {
                    conn.push_ready(error_frames(ErrorCode::Malformed, other.to_string()));
                    conn.closing = true;
                }
                progress = true;
            }
        }
    }
    if conn.has_waiting() {
        let now = Instant::now();
        progress |= conn.poll_waiting(|waiting| resolve_waiting(shared, waiting, now));
    }
    if shutting && !conn.term_queued && !conn.has_waiting() {
        // In-flight work has drained: close with the typed terminal
        // frame (after any still-unflushed responses), so clients can
        // tell a graceful drain from a crash.
        conn.push_ready(error_frames(
            ErrorCode::ShuttingDown,
            "server is shutting down",
        ));
        conn.term_queued = true;
        conn.closing = true;
        progress = true;
    }
    let mut finished_traces: Vec<QueryTrace> = Vec::new();
    match conn.flush(&mut finished_traces) {
        Ok(wrote) => progress |= wrote,
        Err(_) => return ConnFate::Close, // client gone mid-response
    }
    deposit_traces(shared, finished_traces);
    if conn.is_drained() && (conn.closing || conn.peer_eof) {
        return ConnFate::Close;
    }
    ConnFate::Keep(progress)
}

/// Decide how to answer one client frame. Runs on the event loop, so it
/// must not block on engine work — searches are admitted with a
/// completion hook and polled later.
fn dispatch(shared: &Arc<Shared>, frame: Frame) -> Action {
    match frame {
        Frame::Search(req) => dispatch_search(shared, req),
        Frame::MetricsRequest => Action::Reply(vec![Frame::Metrics(metrics_report(shared))]),
        Frame::TraceDumpRequest => Action::Reply(vec![trace_dump_frame(shared)]),
        Frame::Reload(reload) => Action::Reply(handle_reload(shared, &reload.path)),
        Frame::Append(append) => Action::Reply(handle_append(shared, &append.fasta)),
        Frame::Shutdown => {
            shared.begin_shutdown();
            // The ack flushes first; the loop's shutdown pass then adds
            // the terminal frame and closes this stream too.
            Action::Reply(vec![Frame::ShutdownAck])
        }
        other => {
            // A client sending server-side frames is out of sync;
            // answer with a typed error and drop the connection.
            Action::ReplyClose(error_frames(
                ErrorCode::Malformed,
                format!("unexpected {} frame from a client", other.kind()),
            ))
        }
    }
}

/// Admit one search: pin the current generation, resolve the request's
/// parameters against it, consult the result cache, and either answer
/// immediately (cache hit, parameter error, admission refusal) or hand
/// back the in-flight state the loop will poll.
fn dispatch_search(shared: &Arc<Shared>, req: SearchRequest) -> Action {
    // Encode with the pinned generation's alphabet and derive minScore
    // against its database (the serving alphabet is authoritative, like
    // the artifact alphabet on the local --index path). The query then
    // executes on, and is answered from, this same generation.
    let pinned = shared.catalog.current();
    let generation = pinned.id();
    let db = pinned.executor().db();
    let encoded = match db.alphabet().encode_str(&req.query) {
        Ok(encoded) => encoded,
        Err(e) => return Action::Reply(error_frames(ErrorCode::Malformed, format!("query: {e}"))),
    };
    let min_score: Score = match req.rule {
        ScoreRule::MinScore(s) if s >= 1 => s,
        ScoreRule::MinScore(s) => {
            return Action::Reply(error_frames(
                ErrorCode::Malformed,
                format!("minScore must be at least 1 (got {s})"),
            ))
        }
        ScoreRule::Evalue(e) if e.is_finite() && e > 0.0 => match &shared.karlin {
            Some(karlin) => {
                karlin.min_score_for_evalue(encoded.len() as u64, db.total_residues(), e)
            }
            None => {
                return Action::Reply(error_frames(
                    ErrorCode::Internal,
                    "Karlin-Altschul statistics unavailable for the serving matrix; \
                     use an explicit minScore",
                ))
            }
        },
        ScoreRule::Evalue(e) => {
            return Action::Reply(error_frames(
                ErrorCode::Malformed,
                format!("E-value must be finite and positive (got {e})"),
            ))
        }
    };

    let query_len = encoded.len() as u32;
    let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
    let key = CacheKey {
        generation,
        query: encoded.clone(),
        min_score,
        all_occurrences: req.all_occurrences,
        limit: req.top,
    };
    if let Some(cached) = shared.cache.get(&key) {
        // The key's generation is the pinned one, so `db` is exactly the
        // database the cached hits came from. Cache hits report zero
        // service time.
        shared.bump_generation(generation);
        let mut frames = hit_frames(db, &cached);
        frames.push(Frame::Done(SearchDone {
            hits: cached.len() as u32,
            min_score,
            generation,
            service_us: 0,
            total_us: 0,
        }));
        if shared.slow_threshold_us.is_some() {
            // A traced cache hit still gets a record: no queue/execute
            // spans (nothing executed), flush span stamped on the way
            // out, cache_hit set so the slow log tells the paths apart.
            let mut trace = QueryTrace::enabled(token, query_len);
            trace.counters.cache_hit = true;
            trace.counters.generation = generation;
            trace.counters.hits = cached.len() as u64;
            return Action::ReplyTraced(frames, Box::new(trace));
        }
        return Action::Reply(frames);
    }

    let mut params = OasisParams::with_min_score(min_score);
    if req.all_occurrences {
        params = params.all_occurrences();
    }
    let mut job = BatchQuery::named(token.to_string(), encoded, params);
    if let Some(top) = req.top {
        job = job.with_limit(top as usize);
    }
    let submitted = Instant::now();
    let completions = Arc::clone(&shared.completions);
    let notify = Box::new(move || completions.push(token));
    let trace = if shared.slow_threshold_us.is_some() {
        QueryTrace::enabled(token, query_len)
    } else {
        QueryTrace::disabled()
    };
    let admitted = shared
        .serving
        .try_submit(Arc::clone(&pinned), job, trace, Some(notify));
    let ticket = match admitted {
        Ok(ticket) => ticket,
        Err(AdmissionError::QueueFull { capacity }) => {
            return Action::Reply(error_frames(
                ErrorCode::Busy,
                format!("admission queue full ({capacity} queries queued); retry later"),
            ))
        }
        Err(AdmissionError::ShuttingDown) => {
            return Action::Reply(error_frames(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            ))
        }
    };
    Action::Wait(Box::new(WaitingSearch {
        token,
        ticket,
        notified: false,
        deadline: req
            .deadline_ms
            .map(|ms| submitted + Duration::from_millis(ms as u64)),
        deadline_ms: req.deadline_ms,
        submitted,
        cache_key: Some(key),
        min_score,
        generation: pinned,
        fsyncs_at_submit: shared.wal_fsyncs.get(),
    }))
}

/// Poll one in-flight search: `Some((frames, trace))` once it
/// completed, died, or blew its deadline; `None` while still executing.
/// The trace rides back only for traced completions — it still needs
/// its flush span before it can be judged slow.
fn resolve_waiting(
    shared: &Arc<Shared>,
    waiting: &mut WaitingSearch,
    now: Instant,
) -> Option<(Vec<Frame>, Option<Box<QueryTrace>>)> {
    if let Some(served) = waiting.ticket.try_take() {
        let resolve_start = Instant::now();
        // The query executed on the generation pinned at admission; its
        // names, id and cache key all come from that generation.
        let generation = waiting.generation.id();
        if let Some(key) = waiting.cache_key.take() {
            shared.cache.insert(key, served.outcome.hits.clone());
        }
        shared.bump_generation(generation);
        let mut frames = hit_frames(waiting.generation.executor().db(), &served.outcome.hits);
        frames.push(Frame::Done(SearchDone {
            hits: served.outcome.hits.len() as u32,
            min_score: waiting.min_score,
            generation,
            service_us: served.service.as_micros() as u64,
            total_us: served.total.as_micros() as u64,
        }));
        let resolve_end = Instant::now();
        shared
            .resolve_hist
            .record_duration(resolve_end.saturating_duration_since(resolve_start));
        let mut trace = served.trace;
        let trace = if trace.is_enabled() {
            trace.counters.generation = generation;
            trace.counters.wal_fsyncs = shared
                .wal_fsyncs
                .get()
                .saturating_sub(waiting.fsyncs_at_submit);
            trace.record_span(stage::RESOLVE, resolve_start, resolve_end);
            Some(Box::new(trace))
        } else {
            None
        };
        return Some((frames, trace));
    }
    if waiting.notified {
        // The completion hook fired but the ticket is empty: the query
        // panicked (the hook runs strictly after the outcome send).
        return Some((
            error_frames(ErrorCode::Internal, "query execution failed"),
            None,
        ));
    }
    if let Some(deadline) = waiting.deadline {
        if now >= deadline {
            // The query keeps running (admitted work is never
            // cancelled); its outcome is simply never read.
            let ms = waiting.deadline_ms.unwrap_or(0);
            return Some((
                error_frames(
                    ErrorCode::DeadlineExceeded,
                    format!(
                        "deadline of {ms} ms elapsed ({:?} in)",
                        waiting.submitted.elapsed()
                    ),
                ),
                None,
            ));
        }
    }
    None
}

/// Hit frames for `hits`, named against `db`.
fn hit_frames(db: &Arc<SequenceDatabase>, hits: &[Hit]) -> Vec<Frame> {
    hits.iter()
        .map(|hit| {
            Frame::Hit(RemoteHit {
                seq: hit.seq,
                score: hit.score,
                t_start: hit.t_start,
                t_len: hit.t_len,
                q_end: hit.q_end,
                name: db.name(hit.seq).to_string(),
            })
        })
        .collect()
}

/// One stage row of the `Metrics` frame, read from a histogram
/// snapshot (one consistent merge per row).
fn stage_summary(name: &str, snap: &HistogramSnapshot) -> StageSummary {
    StageSummary {
        stage: name.to_string(),
        count: snap.count,
        p50_us: snap.quantile(0.50),
        p95_us: snap.quantile(0.95),
        p99_us: snap.quantile(0.99),
        max_us: snap.max,
        sum_us: snap.sum,
    }
}

/// Build the admin snapshot: the `Metrics` frame and the
/// `--metrics-addr` scrape both render this one report. The served count
/// and the total-latency percentiles come from one histogram merge
/// ([`ServingEngine::snapshot`]), so a report never pairs a count with
/// percentiles from another moment.
fn metrics_report(shared: &Shared) -> MetricsReport {
    let snap = shared.serving.snapshot();
    let current = shared.catalog.current();
    // Live-ingestion counters come from the already-open live index; a
    // report never forces one open (all zeros until the first append or
    // WAL replay).
    let live = shared.live_peek().map(|l| l.stats()).unwrap_or_default();
    let cache = shared.cache.stats();
    let stages = vec![
        stage_summary(stage::QUEUE_WAIT, &snap.queue_wait),
        stage_summary(stage::EXECUTE, &snap.service),
        stage_summary(stage::RESOLVE, &shared.resolve_hist.snapshot()),
        stage_summary(stage::FRAME_FLUSH, &shared.flush_hist.snapshot()),
    ];
    MetricsReport {
        served: snap.served,
        rejected: snap.rejected,
        queue_depth: snap.queue_depth.min(u32::MAX as usize) as u32,
        queue_capacity: snap.queue_capacity.min(u32::MAX as usize) as u32,
        p50_us: snap.total.quantile(0.50),
        p95_us: snap.total.quantile(0.95),
        p99_us: snap.total.quantile(0.99),
        max_us: snap.total.max,
        generation: current.id(),
        generation_label: current.label().to_string(),
        delta_seqs: live.delta_seqs,
        delta_residues: live.delta_residues,
        wal_bytes: live.wal_bytes,
        compactions: live.compactions,
        last_compaction_us: live.last_compaction_micros,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
        cache_evictions: cache.evictions,
        cache_entries: cache.entries,
        cache_capacity: cache.capacity,
        connections_open: shared
            .open_conns
            .load(Ordering::Relaxed)
            .min(u32::MAX as u64) as u32,
        connections_accepted: shared.accepted.load(Ordering::Relaxed),
        pipelined_peak: shared
            .pipelined_peak
            .load(Ordering::Relaxed)
            .min(u32::MAX as u64) as u32,
        uptime_us: shared.started.elapsed().as_micros() as u64,
        per_generation: shared.per_generation_snapshot(),
        stages,
    }
}

/// Answer a `TraceDumpRequest`: the slow-query ring, oldest first.
fn trace_dump_frame(shared: &Shared) -> Frame {
    let snap = shared.slowlog.snapshot();
    let entries = snap
        .entries
        .into_iter()
        .map(|rec| TraceEntry {
            id: rec.id,
            query_len: rec.query_len,
            total_us: rec.total_us,
            generation: rec.counters.generation,
            cache_hit: rec.counters.cache_hit,
            nodes_expanded: rec.counters.nodes_expanded,
            nodes_enqueued: rec.counters.nodes_enqueued,
            columns_expanded: rec.counters.columns_expanded,
            nodes_pruned: rec.counters.nodes_pruned,
            hits: rec.counters.hits,
            wal_fsyncs: rec.counters.wal_fsyncs,
            spans: rec
                .spans
                .into_iter()
                .map(|span| TraceSpan {
                    stage: span.stage,
                    start_us: span.start_us,
                    dur_us: span.dur_us,
                })
                .collect(),
        })
        .collect();
    Frame::TraceDump(TraceDump {
        threshold_us: shared.slow_threshold_us.unwrap_or(u64::MAX),
        capacity: snap.capacity.min(u32::MAX as usize) as u32,
        dropped: snap.dropped,
        entries,
    })
}

/// File flushed traces: stamp per-stage histograms and retain the ones
/// that crossed the slow threshold in the ring. Traces only exist when
/// tracing is enabled, so the disabled path pays one `is_empty` check.
fn deposit_traces(shared: &Shared, traces: Vec<QueryTrace>) {
    for trace in traces {
        let record = trace.finish();
        for span in &record.spans {
            if span.stage == stage::FRAME_FLUSH {
                shared.flush_hist.record(span.dur_us);
            }
        }
        if shared
            .slow_threshold_us
            .is_some_and(|threshold| record.total_us >= threshold)
        {
            shared.slowlog.push(record);
        }
    }
}

/// The `--metrics-addr` thread: accept, answer one Prometheus scrape
/// over minimal HTTP/1.0, close. Nonblocking accept polled against the
/// shutdown flag so `run` can join this thread promptly.
fn run_metrics_listener(listener: TcpListener, shared: &Shared) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shared.is_shutting_down() {
        match listener.accept() {
            Ok((stream, _peer)) => serve_metrics_scrape(stream, shared),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(METRICS_POLL);
            }
            Err(_) => std::thread::sleep(METRICS_POLL),
        }
    }
}

/// Answer one metrics connection. The request is drained best-effort
/// (curl sends a GET; a bare TCP client may send nothing) and the
/// response is a complete HTTP/1.0 exchange, so any line-oriented tool
/// can consume it.
fn serve_metrics_scrape(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut request = [0u8; 4096];
    let _ = stream.read(&mut request);
    let body = metrics_report(shared).to_prometheus();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

fn handle_reload(shared: &Arc<Shared>, path: &str) -> Vec<Frame> {
    match ServedIndex::from_artifact(Path::new(path), shared.scoring.clone(), shared.pool_bytes) {
        Ok(index) => match shared.catalog.publish(path, index) {
            Ok(generation) => {
                eprintln!("oasis-net: published generation {generation} from {path}");
                vec![Frame::Reloaded(ReloadDone {
                    generation,
                    label: path.to_string(),
                })]
            }
            Err(e @ PublishError::ShuttingDown) => {
                error_frames(ErrorCode::ShuttingDown, format!("reload {path}: {e}"))
            }
        },
        Err(e) => error_frames(ErrorCode::Internal, format!("reload {path}: {e}")),
    }
}

/// Run one append request: parse, WAL-log, fold into the live snapshot,
/// publish the layered generation, and maybe kick a background
/// compaction.
fn handle_append(shared: &Arc<Shared>, fasta: &str) -> Vec<Frame> {
    if shared.is_shutting_down() {
        return error_frames(ErrorCode::ShuttingDown, "server is shutting down");
    }
    let live = match shared.live_open() {
        Ok(Some(live)) => live,
        Ok(None) => {
            return error_frames(
                ErrorCode::Malformed,
                "this server has no live-ingestion directory (append unsupported)",
            )
        }
        Err(e) => return error_frames(ErrorCode::Internal, format!("append: {e}")),
    };
    // The serving alphabet is authoritative for parsing, exactly as on
    // the search path.
    let alphabet = live.snapshot().db().alphabet().clone();
    // Database FASTA skips unknown residues, matching the local append
    // and `load_db` paths (queries use Reject; appends are database).
    let seqs = match parse_fasta(fasta.as_bytes(), &alphabet, UnknownResiduePolicy::Skip) {
        Ok(seqs) if seqs.is_empty() => {
            return error_frames(ErrorCode::Malformed, "append: no sequences in FASTA")
        }
        Ok(seqs) => seqs,
        Err(e) => return error_frames(ErrorCode::Malformed, format!("append: {e}")),
    };
    let receipt = match live.append(seqs) {
        Ok(receipt) => receipt,
        Err(e) => return error_frames(ErrorCode::Internal, format!("append: {e}")),
    };
    // One durable append = one WAL fsync; traces report how many landed
    // while a query was in flight.
    shared.wal_fsyncs.inc();
    // Publish the fresh layered snapshot so queries (and hit naming) see
    // the appended sequences.
    let label = format!("live-append+{}", receipt.stats.appended_seqs);
    let generation = match shared
        .catalog
        .publish(label, live_generation(live.snapshot()))
    {
        Ok(generation) => generation,
        Err(e @ PublishError::ShuttingDown) => {
            // The append is durable (WAL + delta); only the publication
            // lost the race. The restart replays it.
            return error_frames(ErrorCode::ShuttingDown, format!("append: {e}"));
        }
    };
    maybe_spawn_compaction(shared, &live);
    vec![Frame::Appended(AppendDone {
        appended_seqs: receipt.appended_seqs,
        appended_residues: receipt.appended_residues,
        delta_seqs: receipt.stats.delta_seqs,
        delta_residues: receipt.stats.delta_residues,
        wal_bytes: receipt.stats.wal_bytes,
        generation,
    })]
}

/// Spawn a background compaction when the delta crossed the configured
/// threshold and none is already running. The thread folds the delta
/// into a fresh base artifact and publishes the compacted snapshot; a
/// publish refused by shutdown aborts without touching the WAL.
fn maybe_spawn_compaction(shared: &Arc<Shared>, live: &Arc<LiveIndex>) {
    if shared.compact_after == 0
        || (live.stats().delta_seqs as usize) < shared.compact_after
        || live.is_compacting()
    {
        return;
    }
    let thread_shared = Arc::clone(shared);
    let live = Arc::clone(live);
    let handle = std::thread::spawn(move || {
        let catalog_shared = thread_shared;
        let result = live.compact(move |snapshot| {
            catalog_shared
                .catalog
                .publish("live-compaction", live_generation(snapshot))
        });
        match result {
            Ok(report) if report.folded_seqs > 0 => eprintln!(
                "oasis-net: compaction folded {} sequence(s) in {} us (generation {})",
                report.folded_seqs,
                report.micros,
                report.generation.unwrap_or(0)
            ),
            Ok(_) => {}
            Err(e) => eprintln!("oasis-net: compaction aborted: {e}"),
        }
    });
    let mut compactions = shared
        .compactions
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    // An exited thread needs no join; keeping its handle would keep one
    // dead thread per compaction for the server's whole life.
    compactions.retain(|h| !h.is_finished());
    compactions.push(handle);
}

/// A served generation over a live-index snapshot. The snapshot's
/// database is the concatenated (base + delta) one, so delta hits are
/// named like any other hit.
fn live_generation(snapshot: Arc<oasis_engine::ShardedEngine>) -> ServedIndex {
    ServedIndex::new(snapshot.db_shared(), snapshot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use oasis_bioseq::{Alphabet, DatabaseBuilder};
    use oasis_engine::{build_index_artifact, IndexBackend};

    #[test]
    fn finished_compaction_threads_are_not_retained() {
        let dir = std::env::temp_dir().join(format!(
            "oasis-net-compaction-handles-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        b.push_str("s0", "AGTACGCCTAG").unwrap();
        b.push_str("s1", "GATTACA").unwrap();
        build_index_artifact(&b.finish(), &dir, 1, 64, IndexBackend::Tree).unwrap();
        let scoring = Scoring::unit_dna();
        let index = ServedIndex::from_artifact(&dir, scoring.clone(), 1 << 20).unwrap();
        let config = ServerConfig {
            compact_after: 1,
            ..ServerConfig::default()
        };
        let server = OasisServer::bind("127.0.0.1:0", index, scoring, config).unwrap();
        server.set_live_dir(&dir).unwrap();
        let addr = server.local_addr();
        let shared = Arc::clone(&server.shared);
        let runner = std::thread::spawn(move || server.run());

        let all_exited = || {
            shared
                .compactions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .iter()
                .all(|h| h.is_finished())
        };
        let mut client = Client::connect(addr).unwrap();
        const ROUNDS: u64 = 5;
        for round in 0..ROUNDS {
            // Each append crosses `compact_after` and spawns a compaction;
            // let its thread exit before the next one is spawned.
            client.append(format!(">a{round}\nACGTTGCA\n")).unwrap();
            let deadline = Instant::now() + Duration::from_secs(60);
            while !all_exited() {
                assert!(Instant::now() < deadline, "compaction {round} never ended");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        assert_eq!(client.metrics().unwrap().compactions, ROUNDS);
        let retained = shared
            .compactions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        assert!(retained <= 1, "{retained} compaction handles retained");
        client.shutdown_server().unwrap();
        runner.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
