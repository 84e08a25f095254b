//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message on an OASIS connection is one **frame**:
//!
//! ```text
//! +----------------+-----------+----------------------+
//! | payload length | frame type|       payload        |
//! |   u32 (LE)     |    u8     | `length` bytes       |
//! +----------------+-----------+----------------------+
//! ```
//!
//! All integers are little-endian, matching the index-artifact format.
//! Strings are UTF-8, length-prefixed (`u16` for identifiers and names,
//! `u32` for query text). A declared payload length above
//! [`MAX_FRAME_BYTES`] is rejected before any allocation, so a hostile or
//! corrupt length prefix cannot balloon memory. Decoders are strict:
//! truncated payloads, trailing bytes, unknown enum tags, and invalid
//! UTF-8 all surface as [`NetError::Protocol`] — never a panic (the
//! round-trip and rejection properties are pinned in `tests/wire.rs`).
//!
//! Version negotiation is server-first: the server opens every connection
//! with a [`Hello`] frame carrying [`PROTOCOL_MAGIC`], its
//! [`PROTOCOL_VERSION`], and the identity of the index generation it is
//! serving. A client that cannot speak that version disconnects; a server
//! never needs to guess what the client speaks because every subsequent
//! request frame is versioned by the handshake. The complete spec lives in
//! `docs/PROTOCOL.md`.

use std::io::{Read, Write};

use oasis_align::Score;
use oasis_bioseq::AlphabetKind;
use oasis_core::Hit;

use crate::NetError;

/// Magic bytes opening every [`Hello`] frame — proves the peer is an
/// OASIS server before anything else is interpreted.
pub const PROTOCOL_MAGIC: &[u8; 8] = b"OASISNT1";
/// Current wire-protocol version (see `docs/PROTOCOL.md` for history).
/// Version 2 added live ingestion (the `Append`/`Appended` admin frames).
/// Version 3 added request pipelining, the `MetricsRequest`/`Metrics`
/// admin frames (types 14 and 15), and the connection-limit backpressure
/// rule. Version 4 added observability: the per-stage latency rows of the
/// `Metrics` payload and the `TraceDumpRequest`/`TraceDump` slow-query
/// admin frames (types 16 and 17). Version 5 made `Metrics` the only
/// admin snapshot: it gained the max latency, the serving generation and
/// the delta/WAL/compaction columns, and frame types 6 and 7 are retired.
pub const PROTOCOL_VERSION: u32 = 5;
/// Upper bound on a frame's declared payload length. Anything larger is
/// rejected as malformed before allocation.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

/// Frame header: payload length (u32) + frame type (u8).
pub(crate) const HEADER_LEN: usize = 5;

// Frame type bytes. Gaps are reserved: 6 and 7 are retired (never
// reused), the rest are free for future frames.
const TY_HELLO: u8 = 1;
const TY_SEARCH: u8 = 2;
const TY_HIT: u8 = 3;
const TY_DONE: u8 = 4;
const TY_ERROR: u8 = 5;
const TY_RELOAD: u8 = 8;
const TY_RELOADED: u8 = 9;
const TY_SHUTDOWN: u8 = 10;
const TY_SHUTDOWN_ACK: u8 = 11;
const TY_APPEND: u8 = 12;
const TY_APPENDED: u8 = 13;
const TY_METRICS_REQUEST: u8 = 14;
const TY_METRICS: u8 = 15;
const TY_TRACE_DUMP_REQUEST: u8 = 16;
const TY_TRACE_DUMP: u8 = 17;

/// The server-first handshake: protocol + index-generation version and
/// enough database geometry for a client to mirror the local CLI
/// (alphabet for parsing query FASTA, residue totals for E-value math).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The protocol version the server speaks ([`PROTOCOL_VERSION`]).
    pub protocol: u32,
    /// Monotonic id of the index generation currently serving.
    pub generation: u64,
    /// Human-readable provenance label of that generation.
    pub generation_label: String,
    /// Alphabet of the serving database.
    pub alphabet: AlphabetKind,
    /// Number of sequences in the serving database.
    pub num_seqs: u32,
    /// Total residue count of the serving database.
    pub total_residues: u64,
}

/// How the server derives `minScore` for a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoreRule {
    /// An explicit score threshold (must be ≥ 1).
    MinScore(Score),
    /// An E-value threshold, converted per query length via the paper's
    /// Equation 3 against the serving database.
    Evalue(f64),
}

/// A search request: the full parameter surface of a local
/// `oasis search`, addressed to whatever index generation is serving.
///
/// The query travels as residue *text*; the server encodes it with the
/// serving database's alphabet (which is authoritative, exactly as the
/// artifact's alphabet is for the local `--index` path).
#[derive(Debug, Clone, PartialEq)]
pub struct SearchRequest {
    /// Caller-assigned identifier, echoed in diagnostics.
    pub id: String,
    /// The query as residue text.
    pub query: String,
    /// How `minScore` is derived.
    pub rule: ScoreRule,
    /// Report every occurrence instead of each sequence's best alignment.
    pub all_occurrences: bool,
    /// Stop after this many hits (the online top-k abort).
    pub top: Option<u32>,
    /// Submit-to-completion deadline in milliseconds; past it the server
    /// answers [`ErrorCode::DeadlineExceeded`] instead of hits.
    pub deadline_ms: Option<u32>,
}

impl SearchRequest {
    /// A request for `query` with the default E-value threshold (10.0),
    /// no top-k limit, and no deadline.
    pub fn new(query: impl Into<String>) -> Self {
        SearchRequest {
            id: String::new(),
            query: query.into(),
            rule: ScoreRule::Evalue(10.0),
            all_occurrences: false,
            top: None,
            deadline_ms: None,
        }
    }

    /// Set the caller-assigned id.
    pub fn with_id(mut self, id: impl Into<String>) -> Self {
        self.id = id.into();
        self
    }

    /// Use an explicit `minScore` threshold.
    pub fn with_min_score(mut self, min_score: Score) -> Self {
        self.rule = ScoreRule::MinScore(min_score);
        self
    }

    /// Use an E-value threshold (Equation 3 against the serving database).
    pub fn with_evalue(mut self, evalue: f64) -> Self {
        self.rule = ScoreRule::Evalue(evalue);
        self
    }

    /// Abort after `top` hits.
    pub fn with_top(mut self, top: u32) -> Self {
        self.top = Some(top);
        self
    }

    /// Fail with [`ErrorCode::DeadlineExceeded`] after `ms` milliseconds.
    pub fn with_deadline_ms(mut self, ms: u32) -> Self {
        self.deadline_ms = Some(ms);
        self
    }
}

/// One streamed hit. The sequence *name* rides along so remote clients
/// can render results without holding the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteHit {
    /// The database sequence id.
    pub seq: u32,
    /// The alignment score.
    pub score: Score,
    /// Global text position where the matched window starts.
    pub t_start: u32,
    /// Length of the matched target window.
    pub t_len: u32,
    /// One past the last aligned query position.
    pub q_end: u32,
    /// The database sequence's name.
    pub name: String,
}

impl RemoteHit {
    /// The wire hit as a core [`Hit`] (drops the name).
    pub fn hit(&self) -> Hit {
        Hit {
            seq: self.seq,
            score: self.score,
            t_start: self.t_start,
            t_len: self.t_len,
            q_end: self.q_end,
        }
    }
}

/// Terminal frame of a successful search response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchDone {
    /// Hits streamed before this frame.
    pub hits: u32,
    /// The `minScore` the server actually used (after any E-value
    /// conversion).
    pub min_score: Score,
    /// Id of the index generation that executed the query.
    pub generation: u64,
    /// Pure execution time, in microseconds.
    pub service_us: u64,
    /// Submit-to-completion time (queue wait + execution), microseconds.
    pub total_us: u64,
}

/// Typed error category carried by an [`ErrorFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The admission queue is full — backpressure
    /// (`AdmissionError::QueueFull` on the wire); retry later.
    Busy,
    /// The server is shutting down and accepts no further work. Also the
    /// terminal frame a draining server closes idle streams with.
    ShuttingDown,
    /// The request (or a frame) could not be understood: bad frame
    /// layout, unknown residues, invalid parameters.
    Malformed,
    /// The request's deadline elapsed before the query completed.
    DeadlineExceeded,
    /// The server failed internally (e.g. a reload that cannot load).
    Internal,
}

impl ErrorCode {
    fn to_u16(self) -> u16 {
        match self {
            ErrorCode::Busy => 1,
            ErrorCode::ShuttingDown => 2,
            ErrorCode::Malformed => 3,
            ErrorCode::DeadlineExceeded => 4,
            ErrorCode::Internal => 5,
        }
    }

    fn from_u16(code: u16) -> Option<Self> {
        Some(match code {
            1 => ErrorCode::Busy,
            2 => ErrorCode::ShuttingDown,
            3 => ErrorCode::Malformed,
            4 => ErrorCode::DeadlineExceeded,
            5 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Busy => "busy",
            ErrorCode::ShuttingDown => "shutting down",
            ErrorCode::Malformed => "malformed",
            ErrorCode::DeadlineExceeded => "deadline exceeded",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// A typed error response. Terminal for the request that provoked it;
/// the connection itself stays usable unless the error says otherwise:
/// [`ErrorCode::ShuttingDown`] always closes it, and
/// [`ErrorCode::Malformed`] closes it when the *framing* was broken (the
/// stream position is no longer trustworthy) but not when a well-formed
/// request merely carried bad parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// The error category.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorFrame {
    /// Build an error frame.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ErrorFrame {
            code,
            message: message.into(),
        }
    }
}

/// Per-generation serving volume: one row of [`MetricsReport`]. QPS is
/// derived client-side as `served / (uptime_us / 1e6)` so the wire
/// carries exact counters, never a lossy rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenerationServed {
    /// Id of the index generation.
    pub generation: u64,
    /// Queries that generation executed to completion (cache hits it
    /// answered included).
    pub served: u64,
}

/// The one admin snapshot (the admin `metrics` response, also rendered
/// for the `--metrics-addr` scrape): admission-queue state, latency
/// tails, the serving generation, live-ingestion state, result-cache
/// counters, connection and pipelining gauges, and per-generation and
/// per-stage rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReport {
    /// Queries executed to completion by the engine; also the sample
    /// count of the latency percentiles below (one histogram merge).
    pub served: u64,
    /// Submissions rejected by admission control.
    pub rejected: u64,
    /// Queries waiting in the admission queue right now.
    pub queue_depth: u32,
    /// The configured admission-queue capacity.
    pub queue_capacity: u32,
    /// Median submit-to-completion latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Worst observed latency, microseconds.
    pub max_us: u64,
    /// Id of the index generation currently serving.
    pub generation: u64,
    /// That generation's label.
    pub generation_label: String,
    /// Sequences in the live delta (appended, not yet compacted). Zero
    /// when the server has no live-ingestion state.
    pub delta_seqs: u32,
    /// Residues in the live delta (terminators excluded).
    pub delta_residues: u64,
    /// Bytes in the append write-ahead log.
    pub wal_bytes: u64,
    /// Compactions completed over the serving artifact's lifetime.
    pub compactions: u64,
    /// Wall-clock duration of the most recent compaction, microseconds
    /// (zero when none has run).
    pub last_compaction_us: u64,
    /// Result-cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Result-cache lookups that missed.
    pub cache_misses: u64,
    /// Entries evicted to keep the cache within its bound.
    pub cache_evictions: u64,
    /// Entries resident in the cache right now.
    pub cache_entries: u32,
    /// The configured cache capacity (entries; 0 = cache disabled).
    pub cache_capacity: u32,
    /// Connections open right now.
    pub connections_open: u32,
    /// Connections accepted over the server's lifetime.
    pub connections_accepted: u64,
    /// Peak pipelined (in-flight) requests observed on one connection.
    pub pipelined_peak: u32,
    /// Microseconds since the server started (the QPS denominator).
    pub uptime_us: u64,
    /// Serving volume per index generation, ascending by generation id.
    pub per_generation: Vec<GenerationServed>,
    /// Per-stage latency summaries (queue wait, execute, resolve, …), in
    /// the server's canonical stage order. Added in protocol version 4.
    pub stages: Vec<StageSummary>,
}

impl MetricsReport {
    /// Render this report as a Prometheus text-exposition scrape body
    /// (format 0.0.4). The server's `--metrics-addr` listener and the
    /// CLI's `admin metrics --prom` both render through here, so the
    /// two outputs are byte-identical for the same report.
    pub fn to_prometheus(&self) -> String {
        let mut w = oasis_obs::PromWriter::new();
        w.header(
            "oasis_queries_served_total",
            "counter",
            "Queries executed to completion.",
        );
        w.sample("oasis_queries_served_total", self.served);
        w.header(
            "oasis_queries_rejected_total",
            "counter",
            "Submissions rejected by admission control.",
        );
        w.sample("oasis_queries_rejected_total", self.rejected);
        w.header(
            "oasis_queue_depth",
            "gauge",
            "Queries waiting in the admission queue.",
        );
        w.sample("oasis_queue_depth", u64::from(self.queue_depth));
        w.header(
            "oasis_queue_capacity",
            "gauge",
            "Configured admission-queue capacity.",
        );
        w.sample("oasis_queue_capacity", u64::from(self.queue_capacity));
        w.header(
            "oasis_query_latency_us",
            "summary",
            "Submit-to-completion latency, microseconds.",
        );
        for (q, v) in [
            ("0.5", self.p50_us),
            ("0.95", self.p95_us),
            ("0.99", self.p99_us),
        ] {
            w.labeled("oasis_query_latency_us", "quantile", q, v);
        }
        w.sample("oasis_query_latency_us_count", self.served);
        w.header(
            "oasis_stage_latency_us",
            "summary",
            "Per-stage latency, microseconds.",
        );
        for stage in &self.stages {
            for (q, v) in [
                ("0.5", stage.p50_us),
                ("0.95", stage.p95_us),
                ("0.99", stage.p99_us),
            ] {
                w.labeled2(
                    "oasis_stage_latency_us",
                    "stage",
                    &stage.stage,
                    "quantile",
                    q,
                    v,
                );
            }
            w.labeled(
                "oasis_stage_latency_us_sum",
                "stage",
                &stage.stage,
                stage.sum_us,
            );
            w.labeled(
                "oasis_stage_latency_us_count",
                "stage",
                &stage.stage,
                stage.count,
            );
            w.labeled(
                "oasis_stage_latency_us_max",
                "stage",
                &stage.stage,
                stage.max_us,
            );
        }
        w.header(
            "oasis_cache_hits_total",
            "counter",
            "Result-cache lookups answered from the cache.",
        );
        w.sample("oasis_cache_hits_total", self.cache_hits);
        w.header(
            "oasis_cache_misses_total",
            "counter",
            "Result-cache lookups that missed.",
        );
        w.sample("oasis_cache_misses_total", self.cache_misses);
        w.header(
            "oasis_cache_evictions_total",
            "counter",
            "Result-cache entries evicted by the LRU bound.",
        );
        w.sample("oasis_cache_evictions_total", self.cache_evictions);
        w.header("oasis_cache_entries", "gauge", "Resident cache entries.");
        w.sample("oasis_cache_entries", u64::from(self.cache_entries));
        w.header(
            "oasis_cache_capacity",
            "gauge",
            "Configured cache capacity, entries.",
        );
        w.sample("oasis_cache_capacity", u64::from(self.cache_capacity));
        w.header(
            "oasis_connections_open",
            "gauge",
            "Open client connections.",
        );
        w.sample("oasis_connections_open", u64::from(self.connections_open));
        w.header(
            "oasis_connections_accepted_total",
            "counter",
            "Connections accepted over the server's lifetime.",
        );
        w.sample(
            "oasis_connections_accepted_total",
            self.connections_accepted,
        );
        w.header(
            "oasis_pipelined_peak",
            "gauge",
            "Deepest per-connection request pipeline observed.",
        );
        w.sample("oasis_pipelined_peak", u64::from(self.pipelined_peak));
        w.header(
            "oasis_uptime_us",
            "counter",
            "Microseconds since the server started.",
        );
        w.sample("oasis_uptime_us", self.uptime_us);
        w.header(
            "oasis_generation_served_total",
            "counter",
            "Searches answered per index generation.",
        );
        for row in &self.per_generation {
            w.labeled(
                "oasis_generation_served_total",
                "generation",
                &row.generation.to_string(),
                row.served,
            );
        }
        w.finish()
    }
}

/// The pre-version-5 name of [`MetricsReport`]. Kept only because the
/// repository benchmark (`perfbench/`) still names it; it goes with the
/// benchmark change of ROADMAP item 8.
pub type StatsReport = MetricsReport;

/// Latency summary of one pipeline stage: one row of
/// [`MetricsReport::stages`], read from that stage's histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSummary {
    /// Stage name (the taxonomy of `docs/OBSERVABILITY.md`).
    pub stage: String,
    /// Samples recorded for this stage.
    pub count: u64,
    /// Median stage latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile stage latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile stage latency, microseconds.
    pub p99_us: u64,
    /// Worst observed stage latency, microseconds.
    pub max_us: u64,
    /// Sum of all recorded stage latencies, microseconds.
    pub sum_us: u64,
}

/// One span of a dumped slow-query trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Stage name.
    pub stage: String,
    /// Microseconds from query admission to stage start.
    pub start_us: u64,
    /// Stage duration, microseconds.
    pub dur_us: u64,
}

/// One retained slow query: its identity, totals, work counters, and the
/// full stage-span breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// The server token that named the query.
    pub id: u64,
    /// Query length in residues.
    pub query_len: u32,
    /// Admission-to-flush wall time, microseconds.
    pub total_us: u64,
    /// Index generation the query executed against.
    pub generation: u64,
    /// Whether the result came from the result cache.
    pub cache_hit: bool,
    /// Suffix-tree nodes expanded.
    pub nodes_expanded: u64,
    /// Nodes pushed onto the best-first frontier.
    pub nodes_enqueued: u64,
    /// DP columns computed by the expand kernel.
    pub columns_expanded: u64,
    /// Child nodes computed and pruned as unviable (cells skipped).
    pub nodes_pruned: u64,
    /// Hits emitted.
    pub hits: u64,
    /// WAL fsyncs the server performed while this query was in flight.
    pub wal_fsyncs: u64,
    /// Stage spans, in pipeline order.
    pub spans: Vec<TraceSpan>,
}

/// The slow-query log dump (the admin `slowlog` response).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDump {
    /// Slow threshold in effect, microseconds (`u64::MAX` when tracing
    /// is disabled).
    pub threshold_us: u64,
    /// The ring's fixed capacity.
    pub capacity: u32,
    /// Slow queries evicted from the ring to keep it bounded.
    pub dropped: u64,
    /// Retained slow queries, oldest first.
    pub entries: Vec<TraceEntry>,
}

/// Admin request: durably append the sequences of a FASTA document to
/// the serving index. The text travels whole; the server parses it with
/// the serving database's alphabet, WAL-logs each sequence, and folds
/// them into the live query snapshot before acknowledging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppendRequest {
    /// The sequences to append, as FASTA text.
    pub fasta: String,
}

/// Successful append: what landed and where ingestion stands now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendDone {
    /// Sequences appended by this request.
    pub appended_seqs: u32,
    /// Residues appended by this request (terminators excluded).
    pub appended_residues: u64,
    /// Sequences now pending in the delta.
    pub delta_seqs: u32,
    /// Residues now pending in the delta.
    pub delta_residues: u64,
    /// Bytes in the append write-ahead log.
    pub wal_bytes: u64,
    /// Id of the generation serving the appended sequences.
    pub generation: u64,
}

/// Admin request: load the index artifact at `path` (a directory on the
/// *server's* filesystem) and publish it as a fresh generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadRequest {
    /// Artifact directory path, server-side.
    pub path: String,
}

/// Successful reload: the freshly published generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadDone {
    /// Id of the generation just published.
    pub generation: u64,
    /// Its label (the artifact path it was loaded from).
    pub label: String,
}

/// Every frame of the protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Server → client, once per connection, first.
    Hello(Hello),
    /// Client → server: run a search.
    Search(SearchRequest),
    /// Server → client: one streamed hit of the current search.
    Hit(RemoteHit),
    /// Server → client: the current search completed.
    Done(SearchDone),
    /// Server → client: typed failure.
    Error(ErrorFrame),
    /// Client → server: hot-swap in the artifact at this path.
    Reload(ReloadRequest),
    /// Server → client: the reload succeeded.
    Reloaded(ReloadDone),
    /// Client → server: begin a graceful server shutdown.
    Shutdown,
    /// Server → client: shutdown initiated.
    ShutdownAck,
    /// Client → server: durably append FASTA sequences to the live index.
    Append(AppendRequest),
    /// Server → client: the append is durable and serving.
    Appended(AppendDone),
    /// Client → server: report front-door metrics.
    MetricsRequest,
    /// Server → client: the metrics.
    Metrics(MetricsReport),
    /// Client → server: dump the slow-query log.
    TraceDumpRequest,
    /// Server → client: the retained slow-query traces.
    TraceDump(TraceDump),
}

impl Frame {
    /// This frame's kind, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Frame::Hello(_) => "Hello",
            Frame::Search(_) => "Search",
            Frame::Hit(_) => "Hit",
            Frame::Done(_) => "Done",
            Frame::Error(_) => "Error",
            Frame::Reload(_) => "Reload",
            Frame::Reloaded(_) => "Reloaded",
            Frame::Shutdown => "Shutdown",
            Frame::ShutdownAck => "ShutdownAck",
            Frame::Append(_) => "Append",
            Frame::Appended(_) => "Appended",
            Frame::MetricsRequest => "MetricsRequest",
            Frame::Metrics(_) => "Metrics",
            Frame::TraceDumpRequest => "TraceDumpRequest",
            Frame::TraceDump(_) => "TraceDump",
        }
    }

    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello(_) => TY_HELLO,
            Frame::Search(_) => TY_SEARCH,
            Frame::Hit(_) => TY_HIT,
            Frame::Done(_) => TY_DONE,
            Frame::Error(_) => TY_ERROR,
            Frame::Reload(_) => TY_RELOAD,
            Frame::Reloaded(_) => TY_RELOADED,
            Frame::Shutdown => TY_SHUTDOWN,
            Frame::ShutdownAck => TY_SHUTDOWN_ACK,
            Frame::Append(_) => TY_APPEND,
            Frame::Appended(_) => TY_APPENDED,
            Frame::MetricsRequest => TY_METRICS_REQUEST,
            Frame::Metrics(_) => TY_METRICS,
            Frame::TraceDumpRequest => TY_TRACE_DUMP_REQUEST,
            Frame::TraceDump(_) => TY_TRACE_DUMP,
        }
    }

    /// Encode the complete frame (header + payload) into bytes.
    pub fn encode(&self) -> Result<Vec<u8>, NetError> {
        let mut w = Writer::default();
        match self {
            Frame::Hello(h) => {
                w.bytes(PROTOCOL_MAGIC);
                w.u32(h.protocol);
                w.u64(h.generation);
                w.str16(&h.generation_label)?;
                w.u8(match h.alphabet {
                    AlphabetKind::Dna => 0,
                    AlphabetKind::Protein => 1,
                });
                w.u32(h.num_seqs);
                w.u64(h.total_residues);
            }
            Frame::Search(s) => {
                w.str16(&s.id)?;
                w.str32(&s.query)?;
                match s.rule {
                    ScoreRule::MinScore(min) => {
                        w.u8(0);
                        w.i32(min);
                    }
                    ScoreRule::Evalue(e) => {
                        w.u8(1);
                        w.u64(e.to_bits());
                    }
                }
                w.u8(s.all_occurrences as u8);
                w.opt_u32(s.top);
                w.opt_u32(s.deadline_ms);
            }
            Frame::Hit(h) => {
                w.u32(h.seq);
                w.i32(h.score);
                w.u32(h.t_start);
                w.u32(h.t_len);
                w.u32(h.q_end);
                w.str16(&h.name)?;
            }
            Frame::Done(d) => {
                w.u32(d.hits);
                w.i32(d.min_score);
                w.u64(d.generation);
                w.u64(d.service_us);
                w.u64(d.total_us);
            }
            Frame::Error(e) => {
                w.u16(e.code.to_u16());
                w.str16(&e.message)?;
            }
            Frame::Shutdown
            | Frame::ShutdownAck
            | Frame::MetricsRequest
            | Frame::TraceDumpRequest => {}
            Frame::Reload(r) => w.str16(&r.path)?,
            Frame::Append(a) => w.str32(&a.fasta)?,
            Frame::Appended(a) => {
                w.u32(a.appended_seqs);
                w.u64(a.appended_residues);
                w.u32(a.delta_seqs);
                w.u64(a.delta_residues);
                w.u64(a.wal_bytes);
                w.u64(a.generation);
            }
            Frame::Reloaded(r) => {
                w.u64(r.generation);
                w.str16(&r.label)?;
            }
            Frame::Metrics(m) => {
                w.u64(m.served);
                w.u64(m.rejected);
                w.u32(m.queue_depth);
                w.u32(m.queue_capacity);
                w.u64(m.p50_us);
                w.u64(m.p95_us);
                w.u64(m.p99_us);
                w.u64(m.max_us);
                w.u64(m.generation);
                w.str16(&m.generation_label)?;
                w.u32(m.delta_seqs);
                w.u64(m.delta_residues);
                w.u64(m.wal_bytes);
                w.u64(m.compactions);
                w.u64(m.last_compaction_us);
                w.u64(m.cache_hits);
                w.u64(m.cache_misses);
                w.u64(m.cache_evictions);
                w.u32(m.cache_entries);
                w.u32(m.cache_capacity);
                w.u32(m.connections_open);
                w.u64(m.connections_accepted);
                w.u32(m.pipelined_peak);
                w.u64(m.uptime_us);
                let rows = u16::try_from(m.per_generation.len()).map_err(|_| {
                    NetError::Protocol(format!(
                        "metrics frame has {} per-generation rows > 65535",
                        m.per_generation.len()
                    ))
                })?;
                w.u16(rows);
                for row in &m.per_generation {
                    w.u64(row.generation);
                    w.u64(row.served);
                }
                let stages = u16::try_from(m.stages.len()).map_err(|_| {
                    NetError::Protocol(format!(
                        "metrics frame has {} stage rows > 65535",
                        m.stages.len()
                    ))
                })?;
                w.u16(stages);
                for s in &m.stages {
                    w.str16(&s.stage)?;
                    w.u64(s.count);
                    w.u64(s.p50_us);
                    w.u64(s.p95_us);
                    w.u64(s.p99_us);
                    w.u64(s.max_us);
                    w.u64(s.sum_us);
                }
            }
            Frame::TraceDump(t) => {
                w.u64(t.threshold_us);
                w.u32(t.capacity);
                w.u64(t.dropped);
                let entries = u16::try_from(t.entries.len()).map_err(|_| {
                    NetError::Protocol(format!(
                        "trace dump has {} entries > 65535",
                        t.entries.len()
                    ))
                })?;
                w.u16(entries);
                for e in &t.entries {
                    w.u64(e.id);
                    w.u32(e.query_len);
                    w.u64(e.total_us);
                    w.u64(e.generation);
                    w.u8(e.cache_hit as u8);
                    w.u64(e.nodes_expanded);
                    w.u64(e.nodes_enqueued);
                    w.u64(e.columns_expanded);
                    w.u64(e.nodes_pruned);
                    w.u64(e.hits);
                    w.u64(e.wal_fsyncs);
                    let spans = u8::try_from(e.spans.len()).map_err(|_| {
                        NetError::Protocol(format!("trace entry has {} spans > 255", e.spans.len()))
                    })?;
                    w.u8(spans);
                    for s in &e.spans {
                        w.str16(&s.stage)?;
                        w.u64(s.start_us);
                        w.u64(s.dur_us);
                    }
                }
            }
        }
        let payload = w.buf;
        if payload.len() as u64 > MAX_FRAME_BYTES as u64 {
            return Err(NetError::Protocol(format!(
                "{} frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte limit",
                self.kind(),
                payload.len()
            )));
        }
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.push(self.type_byte());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Decode a frame from its type byte and payload.
    pub fn decode(frame_type: u8, payload: &[u8]) -> Result<Frame, NetError> {
        let mut r = Reader::new(payload);
        let frame = match frame_type {
            TY_HELLO => {
                let magic = r.take(8)?;
                if magic != PROTOCOL_MAGIC {
                    return Err(NetError::Protocol(
                        "hello frame has bad magic — not an OASIS server".to_string(),
                    ));
                }
                Frame::Hello(Hello {
                    protocol: r.u32()?,
                    generation: r.u64()?,
                    generation_label: r.str16()?,
                    alphabet: match r.u8()? {
                        0 => AlphabetKind::Dna,
                        1 => AlphabetKind::Protein,
                        other => {
                            return Err(NetError::Protocol(format!(
                                "hello frame has unknown alphabet tag {other}"
                            )))
                        }
                    },
                    num_seqs: r.u32()?,
                    total_residues: r.u64()?,
                })
            }
            TY_SEARCH => {
                let id = r.str16()?;
                let query = r.str32()?;
                let rule = match r.u8()? {
                    0 => ScoreRule::MinScore(r.i32()?),
                    1 => {
                        let e = f64::from_bits(r.u64()?);
                        if !e.is_finite() {
                            return Err(NetError::Protocol(
                                "search frame has a non-finite E-value".to_string(),
                            ));
                        }
                        ScoreRule::Evalue(e)
                    }
                    other => {
                        return Err(NetError::Protocol(format!(
                            "search frame has unknown score-rule tag {other}"
                        )))
                    }
                };
                Frame::Search(SearchRequest {
                    id,
                    query,
                    rule,
                    all_occurrences: r.bool()?,
                    top: r.opt_u32()?,
                    deadline_ms: r.opt_u32()?,
                })
            }
            TY_HIT => Frame::Hit(RemoteHit {
                seq: r.u32()?,
                score: r.i32()?,
                t_start: r.u32()?,
                t_len: r.u32()?,
                q_end: r.u32()?,
                name: r.str16()?,
            }),
            TY_DONE => Frame::Done(SearchDone {
                hits: r.u32()?,
                min_score: r.i32()?,
                generation: r.u64()?,
                service_us: r.u64()?,
                total_us: r.u64()?,
            }),
            TY_ERROR => {
                let raw = r.u16()?;
                let code = ErrorCode::from_u16(raw).ok_or_else(|| {
                    NetError::Protocol(format!("error frame has unknown code {raw}"))
                })?;
                Frame::Error(ErrorFrame {
                    code,
                    message: r.str16()?,
                })
            }
            TY_RELOAD => Frame::Reload(ReloadRequest { path: r.str16()? }),
            TY_APPEND => Frame::Append(AppendRequest { fasta: r.str32()? }),
            TY_APPENDED => Frame::Appended(AppendDone {
                appended_seqs: r.u32()?,
                appended_residues: r.u64()?,
                delta_seqs: r.u32()?,
                delta_residues: r.u64()?,
                wal_bytes: r.u64()?,
                generation: r.u64()?,
            }),
            TY_RELOADED => Frame::Reloaded(ReloadDone {
                generation: r.u64()?,
                label: r.str16()?,
            }),
            TY_SHUTDOWN => Frame::Shutdown,
            TY_SHUTDOWN_ACK => Frame::ShutdownAck,
            TY_METRICS_REQUEST => Frame::MetricsRequest,
            // Struct-literal fields evaluate in the order written, which
            // is the wire order.
            TY_METRICS => Frame::Metrics(MetricsReport {
                served: r.u64()?,
                rejected: r.u64()?,
                queue_depth: r.u32()?,
                queue_capacity: r.u32()?,
                p50_us: r.u64()?,
                p95_us: r.u64()?,
                p99_us: r.u64()?,
                max_us: r.u64()?,
                generation: r.u64()?,
                generation_label: r.str16()?,
                delta_seqs: r.u32()?,
                delta_residues: r.u64()?,
                wal_bytes: r.u64()?,
                compactions: r.u64()?,
                last_compaction_us: r.u64()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
                cache_evictions: r.u64()?,
                cache_entries: r.u32()?,
                cache_capacity: r.u32()?,
                connections_open: r.u32()?,
                connections_accepted: r.u64()?,
                pipelined_peak: r.u32()?,
                uptime_us: r.u64()?,
                per_generation: {
                    let rows = r.u16()? as usize;
                    let mut per_generation = Vec::with_capacity(rows.min(1024));
                    for _ in 0..rows {
                        per_generation.push(GenerationServed {
                            generation: r.u64()?,
                            served: r.u64()?,
                        });
                    }
                    per_generation
                },
                stages: {
                    let rows = r.u16()? as usize;
                    let mut stages = Vec::with_capacity(rows.min(1024));
                    for _ in 0..rows {
                        stages.push(StageSummary {
                            stage: r.str16()?,
                            count: r.u64()?,
                            p50_us: r.u64()?,
                            p95_us: r.u64()?,
                            p99_us: r.u64()?,
                            max_us: r.u64()?,
                            sum_us: r.u64()?,
                        });
                    }
                    stages
                },
            }),
            TY_TRACE_DUMP_REQUEST => Frame::TraceDumpRequest,
            TY_TRACE_DUMP => {
                let threshold_us = r.u64()?;
                let capacity = r.u32()?;
                let dropped = r.u64()?;
                let count = r.u16()? as usize;
                let mut entries = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let id = r.u64()?;
                    let query_len = r.u32()?;
                    let total_us = r.u64()?;
                    let generation = r.u64()?;
                    let cache_hit = r.bool()?;
                    let nodes_expanded = r.u64()?;
                    let nodes_enqueued = r.u64()?;
                    let columns_expanded = r.u64()?;
                    let nodes_pruned = r.u64()?;
                    let hits = r.u64()?;
                    let wal_fsyncs = r.u64()?;
                    let span_count = r.u8()? as usize;
                    let mut spans = Vec::with_capacity(span_count);
                    for _ in 0..span_count {
                        spans.push(TraceSpan {
                            stage: r.str16()?,
                            start_us: r.u64()?,
                            dur_us: r.u64()?,
                        });
                    }
                    entries.push(TraceEntry {
                        id,
                        query_len,
                        total_us,
                        generation,
                        cache_hit,
                        nodes_expanded,
                        nodes_enqueued,
                        columns_expanded,
                        nodes_pruned,
                        hits,
                        wal_fsyncs,
                        spans,
                    });
                }
                Frame::TraceDump(TraceDump {
                    threshold_us,
                    capacity,
                    dropped,
                    entries,
                })
            }
            other => {
                return Err(NetError::Protocol(format!(
                    "unknown frame type {other:#04x}"
                )))
            }
        };
        r.finish()?;
        Ok(frame)
    }
}

/// Parse and validate a frame header: `(frame_type, payload_len)`.
pub(crate) fn decode_header(header: [u8; HEADER_LEN]) -> Result<(u8, u32), NetError> {
    let (len_bytes, rest) = header.split_first_chunk::<4>().unwrap_or((&[0; 4], &[]));
    let len = u32::from_le_bytes(*len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(NetError::Protocol(format!(
            "declared frame length {len} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )));
    }
    Ok((rest.first().copied().unwrap_or_default(), len))
}

/// Read exactly one frame from `r`.
///
/// An end-of-stream before the first header byte surfaces as
/// [`std::io::ErrorKind::UnexpectedEof`] inside [`NetError::Io`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, NetError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (frame_type, len) = decode_header(header)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Frame::decode(frame_type, &payload)
}

/// Encode `frame` and write it to `w` (the caller flushes).
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> Result<(), NetError> {
    let bytes = frame.encode()?;
    w.write_all(&bytes)?;
    Ok(())
}

/// Payload writer: little-endian scalars and length-prefixed strings.
#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn str16(&mut self, s: &str) -> Result<(), NetError> {
        let len = u16::try_from(s.len()).map_err(|_| {
            NetError::Protocol(format!("string field of {} bytes > 65535", s.len()))
        })?;
        self.u16(len);
        self.bytes(s.as_bytes());
        Ok(())
    }

    fn str32(&mut self, s: &str) -> Result<(), NetError> {
        let len = u32::try_from(s.len())
            .map_err(|_| NetError::Protocol("string field exceeds u32".to_string()))?;
        self.u32(len);
        self.bytes(s.as_bytes());
        Ok(())
    }

    /// `u8` presence flag + value (0-flag carries no value bytes).
    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                self.u32(v);
            }
        }
    }
}

/// Bounds-checked payload reader.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], NetError> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        let slice = end
            .and_then(|e| self.buf.get(self.at..e))
            .ok_or_else(|| NetError::Protocol("frame payload is truncated".to_string()))?;
        self.at = self.at.saturating_add(n);
        Ok(slice)
    }

    /// `take`, as a fixed-size array (the checked spelling of
    /// `take(N)?.try_into().unwrap()`).
    fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        self.take(N)?
            .first_chunk::<N>()
            .copied()
            .ok_or_else(|| NetError::Protocol("frame payload is truncated".to_string()))
    }

    fn u8(&mut self) -> Result<u8, NetError> {
        Ok(self.array::<1>()?[0])
    }

    fn bool(&mut self) -> Result<bool, NetError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(NetError::Protocol(format!(
                "frame has invalid boolean tag {other}"
            ))),
        }
    }

    fn u16(&mut self) -> Result<u16, NetError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, NetError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, NetError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn i32(&mut self) -> Result<i32, NetError> {
        Ok(i32::from_le_bytes(self.array()?))
    }

    fn str_of(&mut self, len: usize) -> Result<String, NetError> {
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| NetError::Protocol("frame string field is not UTF-8".to_string()))
    }

    fn str16(&mut self) -> Result<String, NetError> {
        let len = self.u16()? as usize;
        self.str_of(len)
    }

    fn str32(&mut self) -> Result<String, NetError> {
        let len = self.u32()? as usize;
        self.str_of(len)
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, NetError> {
        Ok(if self.bool()? {
            Some(self.u32()?)
        } else {
            None
        })
    }

    /// The whole payload must have been consumed: trailing bytes mean the
    /// peer and we disagree about the frame layout.
    fn finish(self) -> Result<(), NetError> {
        if self.at != self.buf.len() {
            return Err(NetError::Protocol(format!(
                "frame payload has {} trailing byte(s)",
                self.buf.len() - self.at
            )));
        }
        Ok(())
    }
}
