//! The `oasis serve` daemon: a threaded TCP front end over a shared
//! [`ServingEngine`] (architecture: `docs/SERVING.md`).
//!
//! [`OasisServer::run`] is a blocking accept loop. Each connection gets a
//! reader thread, which blocks in [`read_frame`], and a writer thread,
//! which dispatches the requests and writes the responses (see
//! [`Conn`]). The writer parks on the connection's [`Waker`] with no
//! timeout except the nearest search deadline; the reader and each
//! search's readiness hook ([`ServingEngine::try_submit`]) wake it. So a
//! search's first hit goes out at once, and nothing waits on a timer.
//!
//! Hits are streamed **online**, in the engine's canonical order as the
//! workers' k-way merge releases them; `Done` carries the counts a whole
//! answer would. An expired deadline, or a connection that is reset (or
//! whose writes fail), drops the search's ticket, which cancels it. A
//! peer that only half-closes still gets its responses. Hits sent before
//! a terminal `Error` are a valid prefix of the answer. Connections are
//! **pipelined** (responses in request order; at most `MAX_PIPELINE` in
//! flight, then TCP backpressure), the bounded admission queue answers
//! [`ErrorCode::Busy`] on the wire, and a connection over `max_conns`
//! (or one whose threads could not be spawned) gets a terminal `Busy`.
//!
//! Every search executes: there is no result cache, so a repeated query
//! runs again on the generation current at its admission.
//!
//! Every search response has one [`QueryTrace`], born at admission and
//! kept by the connection's writer until its last byte is written. The
//! writer records its own stages as they happen and, once the search is
//! done, the worker's `queue_wait`/`execute` from the [`ServedOutcome`].
//! Each finished trace feeds the writer-side stage histograms; an
//! answered search at or over [`ServerConfig::slow_ms`] is kept in the
//! slow-query ring.
//!
//! Admin frames run on the requesting connection's writer. One admin
//! lock serializes `Reload`, `Append` and the compaction spawn, so
//! generations publish in WAL order. Artifacts are opened only by
//! [`ServedIndex::from_artifact`], at boot and on `Reload`.
//!
//! ## Generational consistency
//!
//! Served indexes live in an [`IndexCatalog`] of [`ServedIndex`]
//! generations, so the admin `reload` request (and every append or
//! compaction) can hot-swap a new generation under live traffic. A
//! generation opened from an artifact is a snapshot of that directory's
//! [`LiveIndex`] and carries it: `Append` logs into the WAL of the
//! directory the *current* generation serves, a reload replays the new
//! directory's pending WAL and makes it the append target, and `Metrics`
//! reports the current generation's lineage and WAL. A reload answers
//! `Busy` while a background compaction runs, so an older directory's
//! compaction never publishes over it. Each search is pinned to the generation current when it is *admitted*:
//! the query is encoded with that generation's alphabet, its E-value
//! becomes a `minScore` against that generation's database, the engine
//! executes it on that generation, and its hit names, `Done.generation`
//! and trace counters all come from the same pinned `Arc`. A
//! swap that lands while the request waits in the queue therefore
//! changes nothing about its answer — one answer, one index version.
//!
//! ## Shutdown
//!
//! [`ServerHandle::shutdown`] (or a [`Frame::Shutdown`] request) closes
//! admission, wakes every writer, and releases the blocking accepts with
//! one loopback connect each. Admitted queries drain, then each
//! connection gets a terminal [`ErrorCode::ShuttingDown`]. `run` returns
//! once every connection has drained (peers that stopped reading are
//! force-closed after a grace period) and every thread is joined.
//!
//! [`Waker`]: crate::conn::Waker
//! [`Conn`]: crate::conn::Conn
//! [`read_frame`]: crate::frame::read_frame
//! [`ServingEngine::try_submit`]: oasis_engine::ServingEngine::try_submit
//! [`ServedOutcome`]: oasis_engine::ServedOutcome

use std::io::{self, ErrorKind, Read};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oasis_align::{KarlinParams, Scoring};
use oasis_bioseq::{parse_fasta, SequenceDatabase, UnknownResiduePolicy};
use oasis_core::{Hit, SearchStats};
use oasis_engine::{
    open_artifact_engine, AdmissionError, BatchQuery, HitSink, IndexCatalog, LiveIndex,
    LiveIndexError, LiveIndexOptions, PublishError, QueryExecutor, ServingConfig,
    ServingConfigError, ServingEngine, ShardedEngine, StreamEnd,
};
use oasis_obs::sync::{self, Mutex, OrderedMap};
use oasis_obs::trace::stage;
use oasis_obs::{Counter, Histogram, HistogramSnapshot, QueryTrace, SlowLog};
use oasis_storage::{read_manifest, ArtifactError};

use crate::conn::{
    read_requests, Advance, Conn, Pending, ReadEnd, Registry, StreamingSearch, Waker,
};
use crate::frame::{
    write_frame, AppendDone, ErrorCode, ErrorFrame, Frame, GenerationServed, Hello, MetricsReport,
    ReloadDone, RemoteHit, SearchDone, SearchRequest, StageSummary, TraceDump, TraceEntry,
    TraceSpan, PROTOCOL_VERSION,
};

/// How long a draining shutdown waits for peers that stopped reading
/// before force-closing their connections.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// Slow-query ring capacity: enough to hold a burst worth diagnosing,
/// small enough that a pathological `--slow-ms 0` stays bounded.
const SLOWLOG_CAPACITY: usize = 64;
/// Stack of a connection's reader thread: it only decodes frames.
const READER_STACK: usize = 256 << 10;
/// Stack of a connection's writer thread, which also runs admin work
/// (an artifact load, an append's delta rebuild), and of a compaction.
const WRITER_STACK: usize = 2 << 20;
/// Rows of the per-generation served table the server keeps: the most
/// recent generations that answered a search. Every append publishes a
/// generation, so an unbounded table would grow for the server's whole
/// life (and past what one `Metrics` frame can encode).
pub const PER_GENERATION_ROWS: usize = 64;

/// One publishable index generation: a query executor plus the database
/// it serves. The database rides along because the wire protocol names
/// hits (remote clients hold no database) and encodes query text with
/// the serving alphabet — both must stay consistent with the executor.
/// A generation opened from an artifact also carries that directory's
/// [`LiveIndex`], which appends and compactions go through.
pub struct ServedIndex {
    db: Arc<SequenceDatabase>,
    executor: Arc<dyn QueryExecutor>,
    live: Option<Arc<LiveIndex>>,
}

impl ServedIndex {
    /// A served generation over `executor`, which must search exactly
    /// `db`. It has no live index, so appends to it are refused.
    pub fn new(db: Arc<SequenceDatabase>, executor: Arc<dyn QueryExecutor>) -> Self {
        ServedIndex {
            db,
            executor,
            live: None,
        }
    }

    /// Open the artifact directory `dir` as a served generation: the base
    /// opens once by [`open_artifact_engine`] — the same policy as the
    /// local `search --index` path (a buffer pool of `pool_bytes` serves a
    /// disk-resident shard) — and the directory's [`LiveIndex`] adopts it,
    /// replaying any appends pending in its WAL. The generation serves
    /// that live index's snapshot.
    pub fn from_artifact(
        dir: &Path,
        scoring: Scoring,
        pool_bytes: usize,
    ) -> Result<Self, LiveIndexError> {
        let manifest = read_manifest(dir)?;
        let db = Arc::new(manifest.load_database(dir)?);
        if db.alphabet_kind() != scoring.matrix.kind() {
            return Err(LiveIndexError::Artifact(ArtifactError::Corrupt(format!(
                "artifact alphabet {:?} does not match the serving scoring's {:?} matrix",
                db.alphabet_kind(),
                scoring.matrix.kind()
            ))));
        }
        let engine = open_artifact_engine(dir, &manifest, db, scoring, pool_bytes)?;
        let live = LiveIndex::adopt(dir, &manifest, engine, LiveIndexOptions::default())?;
        let snapshot = live.snapshot();
        Ok(ServedIndex::live(Arc::new(live), snapshot))
    }

    /// A generation serving `snapshot`, a snapshot of `live`. The
    /// snapshot's database is the concatenated (base + delta) one, so
    /// delta hits are named like any other hit.
    fn live(live: Arc<LiveIndex>, snapshot: Arc<ShardedEngine>) -> Self {
        ServedIndex {
            db: snapshot.db_shared(),
            executor: snapshot,
            live: Some(live),
        }
    }

    /// The database this generation serves.
    pub fn db(&self) -> &Arc<SequenceDatabase> {
        &self.db
    }
}

impl QueryExecutor for ServedIndex {
    fn stream(&self, job: &BatchQuery, sink: &mut HitSink<'_>) -> SearchStats {
        self.executor.stream(job, sink)
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
    /// Bind a plain-text metrics listener here (`None` = no listener).
    /// It answers every connection with one Prometheus scrape body over
    /// minimal HTTP/1.0 — `curl http://addr/metrics` works; so does a
    /// bare TCP read.
    pub metrics_addr: Option<SocketAddr>,
    /// Slow-query threshold in milliseconds: an answered search whose
    /// admission-to-last-byte time reaches it lands in the slow-query
    /// ring (`0` logs every answered search).
    pub slow_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
            pool_bytes: 64 << 20,
            compact_after: 256,
            max_conns: 1024,
            metrics_addr: None,
            slow_ms: 250,
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
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "server bind failed: {e}"),
            ServerError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// State shared between the accept loop, the connection threads, engine
/// workers (via readiness hooks), and [`ServerHandle`]s.
struct Shared {
    /// The served generations; searches pin the current one at admission.
    catalog: IndexCatalog<ServedIndex>,
    serving: ServingEngine,
    scoring: Scoring,
    karlin: Option<KarlinParams>,
    pool_bytes: usize,
    shutting_down: AtomicBool,
    next_token: AtomicU64,
    /// Delta size that triggers a background compaction (0 = never).
    compact_after: usize,
    /// The admin lock, held across every `Reload` and `Append` so that
    /// generations publish in WAL order and no compaction can start
    /// during a reload. It guards the compaction threads not yet seen to
    /// finish (dropped at the next spawn, the rest joined in `run`).
    admin: Mutex<Vec<JoinHandle<()>>>,
    /// The open connections: the accept limit, metrics and shutdown.
    conns: Registry,
    /// Where the server and the metrics listener accept; shutdown
    /// connects to each once to release its blocking accept.
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    /// When the server was bound (metrics uptime).
    started: Instant,
    /// Connections accepted over the server's lifetime.
    accepted: AtomicU64,
    /// Deepest per-connection pipeline observed.
    pipelined_peak: AtomicU64,
    /// Searches answered per generation, for the [`PER_GENERATION_ROWS`]
    /// most recent generations.
    per_gen: Mutex<OrderedMap<u64, u64>>,
    /// Open-connection bound (`usize::MAX` = unlimited).
    max_conns: usize,
    /// Writer-side time to name hits and build response frames, summed
    /// over each streamed search's batches (µs).
    resolve_hist: Histogram,
    /// Admission to the first `Hit` frame handed to the socket, per
    /// streamed search that sent a hit (µs).
    first_hit_hist: Histogram,
    /// Time to encode and hand a search response to the kernel, summed
    /// over its batches (µs).
    flush_hist: Histogram,
    /// Slow-query threshold, microseconds.
    slow_us: u64,
    /// The bounded slow-query ring, dumped by `TraceDumpRequest`.
    slowlog: SlowLog,
    /// WAL fsyncs performed (one per appended sequence).
    wal_fsyncs: Counter,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::AcqRel) {
            return;
        }
        // Close the catalog first: a background compaction that loses
        // this race gets a typed publish refusal and leaves the WAL
        // intact, so shutdown never strands an unreplayable append.
        self.catalog.begin_shutdown();
        self.serving.shutdown();
        self.conns.shut_down();
        release_accept(self.local_addr);
        if let Some(addr) = self.metrics_addr {
            release_accept(addr);
        }
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
        let mut per_gen = self.per_gen.lock();
        *per_gen.entry(generation).or_insert(0) += 1;
        while per_gen.len() > PER_GENERATION_ROWS {
            per_gen.pop_first();
        }
    }

    fn per_generation_snapshot(&self) -> Vec<GenerationServed> {
        self.per_gen
            .lock()
            .iter()
            .map(|(&generation, &served)| GenerationServed { generation, served })
            .collect()
    }
}

/// End a blocking `accept` on `addr` with one loopback connection, which
/// the loop drops once it sees the shutdown flag.
fn release_accept(addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    sync::assert_unlocked("loopback connect");
    #[expect(
        clippy::disallowed_methods,
        reason = "checked by the assert_unlocked call above"
    )]
    let _ = TcpStream::connect((ip, addr.port()));
}

/// The network daemon: accepts connections and serves the wire protocol
/// over a shared serving engine. See the module docs for semantics.
pub struct OasisServer {
    listener: TcpListener,
    shared: Arc<Shared>,
    /// The metrics listener thread, joined when `run` returns.
    metrics_thread: Option<JoinHandle<()>>,
}

/// A cloneable handle for initiating shutdown from outside
/// [`OasisServer::run`] (tests, signal handlers, the CLI).
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// Begin a graceful shutdown: stop accepting, close admission, wake
    /// every connection, drain admitted work, close streams with a
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
        let karlin = KarlinParams::for_matrix(&scoring.matrix).ok();
        let serving = ServingEngine::new(ServingConfig {
            workers,
            queue_capacity: config.queue_capacity,
        })
        .map_err(ServerError::Config)?;
        let metrics_listener = config.metrics_addr.map(TcpListener::bind).transpose();
        let metrics_listener = metrics_listener.map_err(ServerError::Io)?;
        let metrics_addr = metrics_listener.as_ref().map(TcpListener::local_addr);
        let metrics_addr = metrics_addr.transpose().map_err(ServerError::Io)?;
        let shared = Arc::new(Shared {
            catalog: IndexCatalog::new("boot", index),
            serving,
            scoring,
            karlin,
            pool_bytes: config.pool_bytes,
            shutting_down: AtomicBool::new(false),
            next_token: AtomicU64::new(0),
            compact_after: config.compact_after,
            admin: Mutex::new(Vec::new()),
            conns: Registry::new(),
            local_addr,
            metrics_addr,
            started: Instant::now(),
            accepted: AtomicU64::new(0),
            pipelined_peak: AtomicU64::new(0),
            per_gen: Mutex::new(OrderedMap::new()),
            max_conns: if config.max_conns == 0 {
                usize::MAX
            } else {
                config.max_conns
            },
            resolve_hist: Histogram::new(),
            first_hit_hist: Histogram::new(),
            flush_hist: Histogram::new(),
            slow_us: config.slow_ms.saturating_mul(1000),
            slowlog: SlowLog::new(SLOWLOG_CAPACITY),
            wal_fsyncs: Counter::new(),
        });
        let metrics_thread = match metrics_listener {
            Some(listener) => {
                let shared = Arc::clone(&shared);
                let run = move || run_metrics_listener(listener, &shared);
                Some(spawn("oasis-metrics".into(), READER_STACK, run).map_err(ServerError::Io)?)
            }
            None => None,
        };
        Ok(OasisServer {
            listener,
            shared,
            metrics_thread,
        })
    }

    /// The bound address (resolves `:0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Where the plain-text metrics listener bound (resolves `:0`), or
    /// `None` when [`ServerConfig::metrics_addr`] was not set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.shared.metrics_addr
    }

    /// A shutdown handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: self.shared.clone(),
        }
    }

    /// Accept connections until shutdown, then drain every connection
    /// (in-flight responses complete first), join every thread the server
    /// started, and return. An accept failure that no closing connection
    /// can cure ends the server with that error.
    pub fn run(mut self) -> std::io::Result<()> {
        let metrics_thread = self.metrics_thread.take();
        let shared = &self.shared;
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        let mut failure = None;
        for stream in self.listener.incoming() {
            if shared.is_shutting_down() {
                break; // the loopback connect that released this accept
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(e) if retry_accept(shared, &e) => continue,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            let id = shared.accepted.fetch_add(1, Ordering::Relaxed);
            // An exited thread needs no join.
            threads.retain(|thread| !thread.is_finished());
            if let Some(thread) = spawn_connection(shared, id, stream) {
                threads.push(thread);
            }
        }
        shared.begin_shutdown();
        shared.conns.drain(DRAIN_GRACE);
        for thread in threads {
            let _ = sync::join(thread);
        }
        if let Some(thread) = metrics_thread {
            let _ = sync::join(thread);
        }
        // Background compactions abort cleanly (their publish is refused
        // once shutdown began) — but they must finish before the process
        // may exit, or a truncation could be torn mid-write.
        let compactions = std::mem::take(&mut *shared.admin.lock());
        for compaction in compactions {
            let _ = sync::join(compaction);
        }
        failure.map_or(Ok(()), Err)
    }
}

/// An accept failed. Retry a transient failure at once; otherwise
/// (typically out of descriptors) wait until a connection closes or
/// shutdown begins. False when no connection is open to free one.
fn retry_accept(shared: &Shared, e: &io::Error) -> bool {
    let transient = [ErrorKind::Interrupted, ErrorKind::ConnectionAborted];
    transient.contains(&e.kind()) || shared.conns.wait_for_leave()
}

/// Spawn a named server thread with a bounded stack.
fn spawn(
    name: String,
    stack: usize,
    f: impl FnOnce() + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name(name)
        .stack_size(stack)
        .spawn(f)
}

/// Register an accepted stream and start its writer thread, which starts
/// its reader. Over `max_conns`, or when a thread cannot be spawned, the
/// stream is refused instead.
fn spawn_connection(shared: &Arc<Shared>, id: u64, stream: TcpStream) -> Option<JoinHandle<()>> {
    // Best effort: a dead socket fails its first read or write anyway.
    let _ = stream.set_nodelay(true);
    let stream = Arc::new(stream);
    let waker = Arc::new(Waker::new());
    if !shared.conns.admit(id, &waker, &stream, shared.max_conns) {
        refuse(&stream, shared.max_conns);
        return None;
    }
    let (thread_shared, thread_stream) = (Arc::clone(shared), Arc::clone(&stream));
    let run = move || run_connection(&thread_shared, id, thread_stream, waker);
    let spawned = spawn(format!("oasis-conn-{id}"), WRITER_STACK, run);
    if spawned.is_err() {
        shared.conns.leave(id);
        refuse(&stream, shared.max_conns);
    }
    spawned.ok()
}

/// A connection's writer thread: start the reader, serve until the
/// connection ends, then stop the reader (a socket shutdown ends its
/// blocking read) and unregister.
fn run_connection(shared: &Arc<Shared>, id: u64, stream: Arc<TcpStream>, waker: Arc<Waker>) {
    let (reader_stream, reader_waker) = (Arc::clone(&stream), Arc::clone(&waker));
    let read = move || read_requests(&reader_stream, &reader_waker);
    match spawn(format!("oasis-read-{id}"), READER_STACK, read) {
        Ok(reader) => {
            // Dropping the connection drops its tickets, which cancels
            // any search still in flight.
            serve_connection(shared, Conn::new(Arc::clone(&stream)), &waker);
            waker.close();
            let _ = stream.shutdown(Shutdown::Both);
            let _ = sync::join(reader);
        }
        Err(_) => refuse(&stream, shared.max_conns),
    }
    shared.conns.leave(id);
}

/// Greet a stream the server will not serve (over the connection limit,
/// or no thread to serve it) with a terminal `Busy` frame, best-effort
/// and bounded, before it is dropped.
fn refuse(stream: &TcpStream, max_conns: usize) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_frame(
        &mut &*stream,
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

/// A connection's writer loop: greet, then repeatedly write what the
/// pipeline has, park on `waker`, and dispatch the requests the reader
/// posted, until the connection is done. Returning drops `conn`.
fn serve_connection(shared: &Arc<Shared>, mut conn: Conn, waker: &Arc<Waker>) {
    // Server-first handshake: protocol version + serving generation,
    // queued like any response.
    conn.pending
        .push_back(Pending::Ready(vec![hello_frame(shared)]));
    loop {
        if shared.is_shutting_down() && !conn.term_queued && !conn.has_streaming() {
            // In-flight work has drained: close with the typed terminal
            // frame (after any still-unwritten responses), so clients can
            // tell a graceful drain from a crash.
            let term = error_frames(ErrorCode::ShuttingDown, "server is shutting down");
            conn.pending.push_back(Pending::Ready(term));
            conn.term_queued = true;
            conn.closing = true;
        }
        let mut ended = Vec::new();
        let now = Instant::now();
        let advance =
            |search: &mut StreamingSearch, head| advance_stream(shared, search, head, now);
        if conn.flush(advance, &mut ended).is_err() {
            return; // client gone mid-response
        }
        deposit(shared, ended);
        if conn.pending.is_empty() && (conn.closing || conn.peer_eof) {
            return;
        }
        let (frames, read_end, closed) = waker.park(conn.pending.len(), conn.next_deadline());
        if closed {
            return;
        }
        for frame in frames {
            if conn.closing {
                break; // a terminal reply is already queued; drop the rest
            }
            dispatch(shared, waker, &mut conn, frame);
        }
        shared.note_pipeline_depth(conn.pending.len());
        match read_end {
            Some(ReadEnd::Eof) => conn.peer_eof = true,
            // The peer is gone; nothing to answer.
            Some(ReadEnd::Gone) => return,
            Some(ReadEnd::Malformed(e)) if !conn.closing => {
                let malformed = error_frames(ErrorCode::Malformed, e.to_string());
                conn.pending.push_back(Pending::Ready(malformed));
                conn.closing = true;
            }
            Some(ReadEnd::Malformed(_)) | None => {}
        }
    }
}

/// Decide how to answer one client frame. Runs on the connection's
/// writer, which must not block on engine work — searches are admitted
/// with a readiness hook that wakes `waker` and streamed as their hits
/// arrive.
fn dispatch(shared: &Arc<Shared>, waker: &Arc<Waker>, conn: &mut Conn, frame: Frame) {
    let entry = match frame {
        Frame::Search(req) => dispatch_search(shared, waker, req),
        Frame::MetricsRequest => Pending::Ready(vec![Frame::Metrics(metrics_report(shared))]),
        Frame::TraceDumpRequest => Pending::Ready(vec![trace_dump_frame(shared)]),
        Frame::Reload(reload) => Pending::Ready(handle_reload(shared, &reload.path)),
        Frame::Append(append) => Pending::Ready(handle_append(shared, &append.fasta)),
        Frame::Shutdown => {
            shared.begin_shutdown();
            // The ack is written first; the writer's shutdown pass then
            // adds the terminal frame and closes this stream too.
            Pending::Ready(vec![Frame::ShutdownAck])
        }
        other => {
            // A client sending server-side frames is out of sync;
            // answer with a typed error and drop the connection.
            conn.closing = true;
            Pending::Ready(error_frames(
                ErrorCode::Malformed,
                format!("unexpected {} frame from a client", other.kind()),
            ))
        }
    };
    conn.pending.push_back(entry);
}

/// Admit one search: pin the current generation, resolve the request's
/// parameters against it, and either answer at once (parameter error,
/// admission refusal) or hand back the in-flight state the writer will
/// poll.
fn dispatch_search(shared: &Arc<Shared>, waker: &Arc<Waker>, req: SearchRequest) -> Pending {
    // Encode with the pinned generation's alphabet and derive minScore
    // against its database (the serving alphabet is authoritative, like
    // the artifact alphabet on the local --index path). The query then
    // executes on, and is answered from, this same generation.
    let pinned = shared.catalog.current();
    let job = match req.resolve(pinned.executor().db(), shared.karlin.as_ref()) {
        Ok(job) => job,
        Err(refusal) => return Pending::Ready(vec![Frame::Error(refusal)]),
    };
    let min_score = job.params.min_score;

    let token = shared.next_token.fetch_add(1, Ordering::Relaxed);
    let mut trace = QueryTrace::new(token, job.query.len() as u32);
    trace.counters.generation = pinned.id();

    let waker = Arc::clone(waker);
    let ready = Box::new(move || waker.wake());
    let admitted = shared
        .serving
        .try_submit(Arc::clone(&pinned), job, Some(ready));
    let ticket = match admitted {
        Ok(ticket) => ticket,
        Err(AdmissionError::QueueFull { capacity }) => {
            return Pending::Ready(error_frames(
                ErrorCode::Busy,
                format!("admission queue full ({capacity} queries queued); retry later"),
            ))
        }
        Err(AdmissionError::ShuttingDown) => {
            return Pending::Ready(error_frames(
                ErrorCode::ShuttingDown,
                "server is shutting down",
            ))
        }
    };
    Pending::Streaming(Box::new(StreamingSearch {
        ticket,
        deadline: req
            .deadline_ms
            .map(|ms| trace.born() + Duration::from_millis(ms as u64)),
        deadline_ms: req.deadline_ms,
        min_score,
        generation: pinned,
        fsyncs_at_submit: shared.wal_fsyncs.get(),
        trace,
    }))
}

/// Advance one streaming search. The head of its connection's pipeline
/// takes the hits its worker released since the last pass and frames
/// them, named against the pinned generation; at the end of the stream it
/// frames `Done`, or the terminal error. An entry behind the head writes
/// nothing: its hits wait in its ticket. Any entry whose deadline passed
/// before its search ended answers
/// `DeadlineExceeded` (after the hits already sent, for a head) — and
/// dropping it drops its ticket, which cancels the search.
fn advance_stream(
    shared: &Shared,
    search: &mut StreamingSearch,
    head: bool,
    now: Instant,
) -> Advance {
    let expired = search.deadline.is_some_and(|deadline| now >= deadline);
    if !head {
        return if expired && !search.ticket.is_finished() {
            Advance::End(deadline_frames(search))
        } else {
            Advance::Idle
        };
    }
    let resolve_start = Instant::now();
    let mut hits = Vec::new();
    let end = search.ticket.poll(&mut hits);
    // The query executed on the generation pinned at admission; its
    // names and id come from that generation. `Done` counts the hits
    // framed here, batch by batch.
    let mut frames = hit_frames(search.generation.executor().db(), &hits);
    search.trace.counters.hits += hits.len() as u64;
    let advance = match end {
        Some(StreamEnd::Done(served)) => {
            let generation = search.generation.id();
            shared.bump_generation(generation);
            frames.push(Frame::Done(SearchDone {
                hits: search.trace.counters.hits as u32,
                min_score: search.min_score,
                generation,
                service_us: served.service.as_micros() as u64,
                total_us: served.total.as_micros() as u64,
            }));
            // The worker's stages, laid out from admission.
            let trace = &mut search.trace;
            let started = trace.born() + served.queue_wait;
            trace.record_span(stage::QUEUE_WAIT, trace.born(), started);
            trace.record_span(stage::EXECUTE, started, started + served.service);
            let stats = &served.outcome.stats;
            trace.record_search(
                stats.nodes_expanded,
                stats.nodes_enqueued,
                stats.columns_expanded,
                stats.nodes_pruned,
            );
            trace.counters.wal_fsyncs = shared
                .wal_fsyncs
                .get()
                .saturating_sub(search.fsyncs_at_submit);
            Advance::End(frames)
        }
        Some(StreamEnd::Failed) => {
            frames.extend(error_frames(ErrorCode::Internal, "query execution failed"));
            Advance::End(frames)
        }
        None if expired => {
            frames.extend(deadline_frames(search));
            Advance::End(frames)
        }
        None if frames.is_empty() => return Advance::Idle,
        None => Advance::Batch(frames),
    };
    let resolved = Instant::now();
    search
        .trace
        .record_span(stage::RESOLVE, resolve_start, resolved);
    advance
}

/// The terminal frame of a search whose deadline elapsed.
fn deadline_frames(search: &StreamingSearch) -> Vec<Frame> {
    let ms = search.deadline_ms.unwrap_or(0);
    error_frames(
        ErrorCode::DeadlineExceeded,
        format!(
            "deadline of {ms} ms elapsed ({:?} in)",
            search.trace.born().elapsed()
        ),
    )
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
    // Live-ingestion counters come from the serving generation's live
    // index (all zeros for a generation without one).
    let live = current
        .executor()
        .live
        .as_ref()
        .map(|l| l.stats())
        .unwrap_or_default();
    let stages = vec![
        stage_summary(stage::QUEUE_WAIT, &snap.queue_wait),
        stage_summary(stage::EXECUTE, &snap.service),
        stage_summary(stage::RESOLVE, &shared.resolve_hist.snapshot()),
        stage_summary(stage::FRAME_FLUSH, &shared.flush_hist.snapshot()),
        stage_summary(stage::FIRST_HIT, &shared.first_hit_hist.snapshot()),
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
        // Reserved until the next protocol version: there is no cache.
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
        cache_entries: 0,
        cache_capacity: 0,
        connections_open: shared.conns.open().min(u32::MAX as usize) as u32,
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
            cache_hit: false, // reserved: there is no cache
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
                    stage: span.stage.to_string(),
                    start_us: span.start.as_micros() as u64,
                    dur_us: span.dur.as_micros() as u64,
                })
                .collect(),
        })
        .collect();
    Frame::TraceDump(TraceDump {
        threshold_us: shared.slow_us,
        capacity: snap.capacity.min(u32::MAX as usize) as u32,
        dropped: snap.dropped,
        entries,
    })
}

/// File the search responses that finished writing: each trace's
/// writer-side spans feed the stage histograms (the engine keeps
/// `queue_wait` and `execute`), and an answered search whose total
/// reached the slow threshold is kept in the ring.
fn deposit(shared: &Shared, ended: Vec<QueryTrace>) {
    for trace in ended {
        let record = trace.finish();
        for span in &record.spans {
            let hist = match span.stage {
                stage::RESOLVE => &shared.resolve_hist,
                stage::FRAME_FLUSH => &shared.flush_hist,
                stage::FIRST_HIT => &shared.first_hit_hist,
                _ => continue,
            };
            hist.record_duration(span.dur);
        }
        // Only a `Done` gives a trace the worker's spans: an error is not
        // logged.
        let executed = record.spans.iter().any(|span| span.stage == stage::EXECUTE);
        if executed && record.total_us >= shared.slow_us {
            shared.slowlog.push(record);
        }
    }
}

/// The `--metrics-addr` thread: accept, answer one Prometheus scrape
/// over minimal HTTP/1.0, close. Shutdown releases its blocking accept
/// with one loopback connect, so `run` can join this thread promptly.
fn run_metrics_listener(listener: TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.is_shutting_down() {
            return;
        }
        match stream {
            Ok(stream) => serve_metrics_scrape(stream, shared),
            Err(e) if retry_accept(shared, &e) => {}
            Err(_) => return,
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
    let _ = sync::write_all(&mut stream, response.as_bytes());
}

/// Open the artifact at `path` and publish it, under the admin lock.
/// While a background compaction runs the answer is `Busy`: its publish
/// would otherwise land over the reloaded generation.
fn handle_reload(shared: &Arc<Shared>, path: &str) -> Vec<Frame> {
    let admin = shared.admin.lock();
    if admin.iter().any(|compaction| !compaction.is_finished()) {
        return error_frames(
            ErrorCode::Busy,
            format!("reload {path}: a background compaction is running; retry after it ends"),
        );
    }
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

/// Run one append request against the current generation's live index,
/// under the admin lock: parse, WAL-log, fold into the live snapshot,
/// publish the layered generation, and maybe kick a background
/// compaction.
fn handle_append(shared: &Arc<Shared>, fasta: &str) -> Vec<Frame> {
    let mut admin = shared.admin.lock();
    if shared.is_shutting_down() {
        return error_frames(ErrorCode::ShuttingDown, "server is shutting down");
    }
    let Some(live) = shared.catalog.current().executor().live.clone() else {
        return error_frames(
            ErrorCode::Malformed,
            "the serving generation has no live index (append unsupported)",
        );
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
    // The WAL fsyncs each appended sequence; traces report how many
    // landed while a query was in flight.
    shared.wal_fsyncs.add(receipt.appended_seqs.into());
    // Publish the fresh layered snapshot so queries (and hit naming) see
    // the appended sequences.
    let label = format!("live-append+{}", receipt.stats.appended_seqs);
    let generation = match shared
        .catalog
        .publish(label, ServedIndex::live(Arc::clone(&live), live.snapshot()))
    {
        Ok(generation) => generation,
        Err(e @ PublishError::ShuttingDown) => {
            // The append is durable (WAL + delta); only the publication
            // lost the race. The restart replays it.
            return error_frames(ErrorCode::ShuttingDown, format!("append: {e}"));
        }
    };
    maybe_spawn_compaction(shared, &mut admin, &live);
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
fn maybe_spawn_compaction(
    shared: &Arc<Shared>,
    compactions: &mut Vec<JoinHandle<()>>,
    live: &Arc<LiveIndex>,
) {
    if shared.compact_after == 0
        || (live.stats().delta_seqs as usize) < shared.compact_after
        || live.is_compacting()
    {
        return;
    }
    let thread_shared = Arc::clone(shared);
    let live = Arc::clone(live);
    let compact = move || {
        let served_live = Arc::clone(&live);
        let result = live.compact(move |snapshot| {
            thread_shared
                .catalog
                .publish("live-compaction", ServedIndex::live(served_live, snapshot))
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
    };
    // An exited thread needs no join; keeping its handle would keep one
    // dead thread per compaction for the server's whole life.
    compactions.retain(|h| !h.is_finished());
    match spawn("oasis-compaction".into(), WRITER_STACK, compact) {
        Ok(handle) => compactions.push(handle),
        // The delta stays served; the next append tries again.
        Err(e) => eprintln!("oasis-net: compaction not started: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use oasis_bioseq::{Alphabet, DatabaseBuilder};
    use oasis_engine::{build_index_artifact, IndexBackend};

    /// A server over a fresh two-sequence DNA artifact in a temp dir
    /// named after `tag`, running on its own thread.
    fn serve_artifact(
        tag: &str,
        config: ServerConfig,
    ) -> (
        SocketAddr,
        Arc<Shared>,
        JoinHandle<io::Result<()>>,
        std::path::PathBuf,
    ) {
        let dir = std::env::temp_dir().join(format!("oasis-net-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        b.push_str("s0", "AGTACGCCTAG").unwrap();
        b.push_str("s1", "GATTACA").unwrap();
        build_index_artifact(&b.finish(), &dir, 1, 64, IndexBackend::Tree).unwrap();
        let scoring = Scoring::unit_dna();
        let index = ServedIndex::from_artifact(&dir, scoring.clone(), 1 << 20).unwrap();
        let server = OasisServer::bind("127.0.0.1:0", index, scoring, config).unwrap();
        let (addr, shared) = (server.local_addr(), Arc::clone(&server.shared));
        (addr, shared, std::thread::spawn(move || server.run()), dir)
    }

    #[test]
    fn a_multi_sequence_append_counts_one_fsync_per_sequence() {
        let config = ServerConfig {
            compact_after: 0,
            ..ServerConfig::default()
        };
        let (addr, shared, runner, dir) = serve_artifact("append-fsyncs", config);
        let mut client = Client::connect(addr).unwrap();
        let done = client.append(">a\nACGT\n>b\nGGCA\n>c\nTTAG\n").unwrap();
        assert_eq!(done.appended_seqs, 3);
        // The WAL syncs each sequence it logs.
        assert_eq!(shared.wal_fsyncs.get(), 3);
        client.shutdown_server().unwrap();
        sync::join(runner).unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn finished_compaction_threads_are_not_retained() {
        let config = ServerConfig {
            compact_after: 1,
            ..ServerConfig::default()
        };
        let (addr, shared, runner, dir) = serve_artifact("compaction-handles", config);

        let all_exited = || shared.admin.lock().iter().all(|h| h.is_finished());
        let mut client = Client::connect(addr).unwrap();
        const ROUNDS: u64 = 5;
        for round in 0..ROUNDS {
            // Each append crosses `compact_after` and spawns a compaction;
            // let its thread exit before the next one is spawned.
            client.append(format!(">a{round}\nACGTTGCA\n")).unwrap();
            let deadline = Instant::now() + Duration::from_secs(60);
            while !all_exited() {
                assert!(Instant::now() < deadline, "compaction {round} never ended");
                sync::sleep(Duration::from_millis(5));
            }
        }
        assert_eq!(client.metrics().unwrap().compactions, ROUNDS);
        let retained = shared.admin.lock().len();
        assert!(retained <= 1, "{retained} compaction handles retained");
        client.shutdown_server().unwrap();
        sync::join(runner).unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
}
