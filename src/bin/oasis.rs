//! `oasis` — command-line local-alignment search over FASTA databases.
//!
//! ```text
//! oasis makedb <db.fasta> <db.oasisdb>
//! oasis index  <db> <index.oasis> [--dna|--protein] [--block-size N]
//! oasis index  build <db> --out <dir> [--shards N] [--block-size N]
//! oasis index  inspect <dir> [--json]
//! oasis index  append <fasta> --index <dir> [--compact]
//! oasis search <db> <index.oasis> <QUERY> [options]
//! oasis search <db> <index.oasis> --queries <queries.fasta> [options]
//! oasis search --index <dir> <QUERY> [options]
//! oasis serve  --index <dir> --addr <host:port> [options]
//! oasis query  --remote <host:port> <QUERY> [options]
//! oasis admin  --remote <host:port> metrics|slowlog|reload <dir>|append <fasta>|shutdown
//! oasis info   <index.oasis>
//! ```
//!
//! `makedb` converts FASTA to the fast binary database format; `index`
//! builds the generalized suffix tree and writes the paper's §3.4 disk
//! representation; `index build` persists a complete **index artifact** —
//! database plus N balanced shard trees, checksummed and atomically
//! written — that `search --index` later *loads* instead of rebuilding;
//! `search` runs the exact online OASIS search through the one engine,
//! `ShardedEngine`. A bare index file, or a single-shard tree artifact,
//! opens as one disk-resident shard read through the buffer pool;
//! `--shards N` (or a multi-shard or ESA artifact) serves N balanced
//! in-memory shards whose merged results are byte-identical. A single
//! query streams hits as they are proven optimal, and a `--queries`
//! FASTA batch executes concurrently across worker threads against the
//! shared index; `info` prints index geometry and `index inspect` prints
//! an artifact's manifest without loading any trees.
//!
//! The network trio makes the serving stack an actual service: `serve`
//! exposes an index artifact over the versioned wire protocol of
//! `oasis-net` through one event-driven readiness loop (pipelined
//! connections, bounded admission with `Busy` backpressure, a bounded
//! LRU result cache, per-request deadlines, hot `reload` of a new index
//! generation), `query --remote` streams hits from such a server with
//! stdout byte-identical to a local `search`, and `admin` issues
//! metrics/slowlog/reload/append/shutdown requests (`admin metrics` is
//! the one admin snapshot, printed as one table).

use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

use oasis::prelude::*;
use oasis::storage::FileDevice;

const USAGE: &str = "\
oasis — online and accurate local-alignment search (VLDB'03 reproduction)

USAGE:
  oasis makedb <db.fasta> <db.oasisdb> [--dna|--protein]
  oasis index  <db.fasta|db.oasisdb> <index.oasis> [--dna|--protein] [--block-size N]
  oasis index  build <db.fasta|db.oasisdb> --out <dir> [--dna|--protein]
               [--shards N] [--block-size N] [--backend tree|esa]
  oasis search <db.fasta|db.oasisdb> <index.oasis> <QUERY> [--dna|--protein]
               [--evalue E | --min-score S] [--top K] [--pool-mb M]
               [--matrix unit|blosum62|pam30] [--gap G] [--shards N]
  oasis search <db.fasta|db.oasisdb> <index.oasis> --queries <queries.fasta>
               [--threads N] [other search options]
  oasis search --index <dir> <QUERY> [other search options]
  oasis search --index <dir> --queries <queries.fasta> [other search options]
  oasis index  inspect <dir> [--json]
  oasis index  append <fasta> --index <dir> [--compact] [--shards N]
               [--block-size N] [--backend tree|esa]
  oasis serve  --index <dir> --addr <host:port> [--workers N] [--queue N]
               [--pool-mb M] [--matrix unit|blosum62|pam30] [--gap G]
               [--compact-after N] [--max-conns N] [--cache-entries N]
               [--metrics-addr <host:port>] [--slow-ms N]
  oasis query  --remote <host:port> <QUERY> [--evalue E | --min-score S]
               [--top K] [--deadline-ms D] [--timeout-ms T]
  oasis query  --remote <host:port> --queries <queries.fasta> [same options]
  oasis admin  --remote <host:port> metrics [--prom]
  oasis admin  --remote <host:port> slowlog
  oasis admin  --remote <host:port> reload <dir>
  oasis admin  --remote <host:port> append <queries.fasta>
  oasis admin  --remote <host:port> shutdown
               (admin also accepts [--timeout-ms T])
  oasis info   <index.oasis> [--block-size N]
  oasis lint   [--json] [--root <DIR>]

Database arguments accept FASTA or the binary .oasisdb format written by
`makedb` (detected by magic). Residues outside the alphabet are skipped
while parsing database FASTA. With --queries, every record of the FASTA
file is searched as its own query (ids from the record names) and the
batch runs concurrently over the shared index (--threads, default: all
cores); query records with residues outside the alphabet are rejected,
exactly like a positional QUERY. With --shards N the database is split
into N balanced in-memory shard indexes and every query fans out across
them (the on-disk index is not opened); merged results are
byte-identical to the single-index search.

`index build` persists a complete artifact directory (database + N
balanced shard indexes, per-section checksums, atomic temp-file+rename
writes). `--backend esa` indexes each shard with an enhanced suffix
array instead of a suffix tree — a packed SA/LCP/LUT payload that loads
without any tree reconstruction and produces byte-identical hits.
`search --index <dir>` loads it — no FASTA parsing, no tree
construction, no --shards (the artifact fixes the shard layout; its
alphabet is authoritative): one tree-image shard serves disk-resident
through the buffer pool (--pool-mb applies), anything else (several
shards, or any packed-esa shard) reconstitutes the in-memory fan-out
engine. Results are byte-identical to a freshly built index.
`index inspect` prints an artifact's manifest — version, shard table
with backend kinds, per-section encoded sizes and checksums, delta
lineage and WAL state — without loading any indexes (`--json` emits the
same facts machine-readably). `index append` WAL-logs new FASTA
sequences next to an artifact: later `search --index`/`serve` runs
replay them into a layered (base + delta) index with results
byte-identical to a full rebuild, and `--compact` (or a server's
background compaction) folds them into a fresh base artifact. `serve`
exposes an artifact over TCP (the oasis-net wire protocol) through one
event-driven readiness loop: connections are pipelined (several
requests in flight per stream, responses in request order), bounded
admission answers Busy backpressure instead of queueing unboundedly,
--max-conns (default 1024; 0 unlimited) caps concurrent connections, a
bounded LRU result cache (--cache-entries, default 512; 0 disables)
answers repeated queries without re-running the traversal, requests
may carry deadlines, and `admin reload` hot-swaps a freshly loaded
artifact generation under live traffic. `query --remote` runs a search
against such a server; its stdout is byte-identical to a local
`search` over the same index (the scoring is fixed server-side at
`serve` time). With port 0, `serve` prints the actual listening address
on stdout. `admin append` durably appends FASTA sequences to the
serving index over the wire: they are WAL-logged server-side and
answering queries before the call returns, and once the delta reaches
--compact-after sequences (default 256; 0 disables) a background
compaction folds them into a fresh base generation with zero downtime.
`admin metrics` prints the server's one admin snapshot as one aligned
table — serving generation, served/rejected counts, queue depth, exact
histogram latency tails, per-stage timing summaries
(queue_wait/execute/resolve/frame_flush), the live delta, WAL size and
compactions, cache hit/miss/eviction counters, connection and pipeline
gauges, uptime and per-generation served counts. `admin metrics
--prom` emits the same snapshot as a Prometheus text-exposition body,
byte-identical to what `serve --metrics-addr <host:port>` answers on
every connection (curl its /metrics or read the socket raw; with port
0 the resolved address prints as a `metrics on <addr>` stdout line). `serve --slow-ms N`
(default 250; 0 logs every query) traces each query through the
pipeline and retains queries slower than N milliseconds in a bounded
slow-query ring; `admin slowlog` dumps it with full stage spans and
work counters (nodes expanded/pruned, DP columns, cache hit,
generation, WAL fsyncs in flight). Remote commands bound connection
setup with --timeout-ms (default 10000; 0 waits forever; given
explicitly, it also bounds every response wait). See
docs/OBSERVABILITY.md for the full metric and stage taxonomy.

`lint` runs the workspace invariant checker (oasis-lint) over this
repository's own sources — serving-path panic-freedom, lock discipline,
wire-spec and artifact-manifest drift — and exits non-zero on findings;
see docs/LINTS.md for the rules and the escape syntax.

Defaults: --protein, --matrix pam30, --gap -10, --evalue 10, --pool-mb 64,
--shards 1 for `index build`, --block-size 2048 for `index`/`index build`
(search/info read the block size from the index header unless overridden),
--queue 64 and --workers = all cores for `serve`.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("makedb") => cmd_makedb(&args[1..]),
        Some("index") => cmd_index(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("admin") => cmd_admin(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("lint") => return cmd_lint(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Flags {
    positional: Vec<String>,
    alphabet: Alphabet,
    block_size: Option<usize>,
    evalue: Option<f64>,
    min_score: Option<i32>,
    top: Option<usize>,
    pool_mb: Option<usize>,
    matrix: String,
    gap: i32,
    queries: Option<String>,
    threads: Option<usize>,
    shards: Option<usize>,
    out: Option<String>,
    index: Option<String>,
    addr: Option<String>,
    remote: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    deadline_ms: Option<u32>,
    backend: Option<String>,
    compact_after: Option<usize>,
    max_conns: Option<usize>,
    cache_entries: Option<usize>,
    timeout_ms: Option<u64>,
    metrics_addr: Option<String>,
    slow_ms: Option<u64>,
    json: bool,
    compact: bool,
    prom: bool,
}

impl Flags {
    /// The buffer-pool budget in bytes (`--pool-mb`, default 64 MB).
    fn pool_bytes(&self) -> usize {
        self.pool_mb.unwrap_or(64) * 1024 * 1024
    }

    /// The `--backend` selection for `index build` (default: tree).
    fn index_backend(&self) -> Result<oasis::engine::IndexBackend, String> {
        match self.backend.as_deref() {
            None | Some("tree") => Ok(oasis::engine::IndexBackend::Tree),
            Some("esa") => Ok(oasis::engine::IndexBackend::Esa),
            Some(other) => Err(format!("unknown backend {other} (tree|esa)")),
        }
    }

    /// Shape overrides for opening a live (layered) index: unlike `index
    /// build`, an absent flag inherits the artifact's recorded shape
    /// rather than falling back to a CLI default.
    fn live_options(&self) -> Result<oasis::engine::LiveIndexOptions, String> {
        let backend = match self.backend.as_deref() {
            None => None,
            Some(_) => Some(self.index_backend()?),
        };
        Ok(oasis::engine::LiveIndexOptions {
            shards: self.shards,
            block_size: self.block_size,
            backend,
        })
    }

    /// Apply `--threads` (the batch worker count) to an opened engine.
    fn with_threads(&self, engine: ShardedEngine) -> ShardedEngine {
        match self.threads {
            Some(threads) => engine.with_threads(threads),
            None => engine,
        }
    }

    /// `--pool-mb` only sizes the buffer pool behind a disk-resident
    /// index; multi-shard backends are in-memory and never touch a pool.
    /// Passing it there deserves a warning, not silence.
    fn warn_pool_mb_ignored(&self) {
        if self.pool_mb.is_some() {
            eprintln!(
                "warning: --pool-mb is ignored: multi-shard indexes are served \
                 in-memory and do not use the buffer pool"
            );
        }
    }
}

/// The argument after flag `name`.
fn value(it: &mut std::slice::Iter<'_, String>, name: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{name} requires a value"))
}

/// The argument after flag `name`, parsed as a `T`.
fn parsed<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    name: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value(it, name)?.parse().map_err(|e| format!("{name}: {e}"))
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        positional: Vec::new(),
        alphabet: Alphabet::protein(),
        block_size: None,
        evalue: None,
        min_score: None,
        top: None,
        pool_mb: None,
        matrix: "pam30".to_string(),
        gap: -10,
        queries: None,
        threads: None,
        shards: None,
        out: None,
        index: None,
        addr: None,
        remote: None,
        workers: None,
        queue: None,
        deadline_ms: None,
        backend: None,
        compact_after: None,
        max_conns: None,
        cache_entries: None,
        timeout_ms: None,
        metrics_addr: None,
        slow_ms: None,
        json: false,
        compact: false,
        prom: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dna" => f.alphabet = Alphabet::dna(),
            "--protein" => f.alphabet = Alphabet::protein(),
            "--block-size" => f.block_size = Some(parsed(&mut it, "--block-size")?),
            "--evalue" => f.evalue = Some(parsed(&mut it, "--evalue")?),
            "--min-score" => f.min_score = Some(parsed(&mut it, "--min-score")?),
            "--top" => f.top = Some(parsed(&mut it, "--top")?),
            "--pool-mb" => f.pool_mb = Some(parsed(&mut it, "--pool-mb")?),
            "--matrix" => f.matrix = value(&mut it, "--matrix")?,
            "--gap" => f.gap = parsed(&mut it, "--gap")?,
            "--queries" => f.queries = Some(value(&mut it, "--queries")?),
            "--threads" => f.threads = Some(parsed(&mut it, "--threads")?),
            "--shards" => f.shards = Some(parsed(&mut it, "--shards")?),
            "--out" => f.out = Some(value(&mut it, "--out")?),
            "--index" => f.index = Some(value(&mut it, "--index")?),
            "--addr" => f.addr = Some(value(&mut it, "--addr")?),
            "--remote" => f.remote = Some(value(&mut it, "--remote")?),
            "--workers" => f.workers = Some(parsed(&mut it, "--workers")?),
            "--queue" => f.queue = Some(parsed(&mut it, "--queue")?),
            "--backend" => f.backend = Some(value(&mut it, "--backend")?),
            "--compact-after" => f.compact_after = Some(parsed(&mut it, "--compact-after")?),
            "--max-conns" => f.max_conns = Some(parsed(&mut it, "--max-conns")?),
            "--cache-entries" => f.cache_entries = Some(parsed(&mut it, "--cache-entries")?),
            "--timeout-ms" => f.timeout_ms = Some(parsed(&mut it, "--timeout-ms")?),
            "--metrics-addr" => f.metrics_addr = Some(value(&mut it, "--metrics-addr")?),
            "--slow-ms" => f.slow_ms = Some(parsed(&mut it, "--slow-ms")?),
            "--json" => f.json = true,
            "--compact" => f.compact = true,
            "--prom" => f.prom = true,
            "--deadline-ms" => f.deadline_ms = Some(parsed(&mut it, "--deadline-ms")?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => f.positional.push(other.to_string()),
        }
    }
    Ok(f)
}

fn load_db(path: &str, alphabet: &Alphabet) -> Result<SequenceDatabase, String> {
    // Binary databases are detected by magic; anything else parses as FASTA.
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(b"OASISDB1") {
        return oasis::bioseq::read_database(&bytes[..]).map_err(|e| format!("{path}: {e}"));
    }
    let seqs = parse_fasta(
        BufReader::new(&bytes[..]),
        alphabet,
        UnknownResiduePolicy::Skip,
    )
    .map_err(|e| format!("{path}: {e}"))?;
    let mut b = DatabaseBuilder::new(alphabet.clone());
    for s in seqs {
        b.push(s).map_err(|e| e.to_string())?;
    }
    Ok(b.finish())
}

fn cmd_makedb(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let [fasta_path, out_path] = flags.positional.as_slice() else {
        return Err("usage: oasis makedb <db.fasta> <db.oasisdb> [--dna|--protein]".to_string());
    };
    let db = load_db(fasta_path, &flags.alphabet)?;
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(out_path).map_err(|e| format!("{out_path}: {e}"))?,
    );
    oasis::bioseq::write_database(&mut out, &db).map_err(|e| format!("{out_path}: {e}"))?;
    use std::io::Write;
    out.flush().map_err(|e| format!("{out_path}: {e}"))?;
    eprintln!(
        "wrote {out_path}: {} sequences / {} residues",
        db.num_sequences(),
        db.total_residues()
    );
    Ok(())
}

fn scoring_from(flags: &Flags) -> Result<Scoring, String> {
    let kind = flags.alphabet.kind();
    let matrix = match flags.matrix.as_str() {
        "unit" => SubstitutionMatrix::unit(kind),
        "blosum62" => SubstitutionMatrix::blosum62(),
        "pam30" => SubstitutionMatrix::pam30(),
        other => return Err(format!("unknown matrix {other} (unit|blosum62|pam30)")),
    };
    if matrix.kind() != kind {
        return Err(format!(
            "matrix {} is a protein matrix; use --protein or --matrix unit",
            flags.matrix
        ));
    }
    if flags.gap >= 0 {
        return Err("--gap must be negative".to_string());
    }
    Ok(Scoring::new(matrix, GapModel::linear(flags.gap)))
}

fn cmd_index(args: &[String]) -> Result<(), String> {
    // `oasis index build …` is the artifact path, `oasis index inspect …`
    // prints an artifact manifest; anything else is the legacy
    // single-file tree image.
    if args.first().map(String::as_str) == Some("build") {
        return cmd_index_build(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("inspect") {
        return cmd_index_inspect(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("append") {
        return cmd_index_append(&args[1..]);
    }
    let flags = parse_flags(args)?;
    let [db_path, index_path] = flags.positional.as_slice() else {
        return Err("usage: oasis index <db.fasta> <index.oasis> [...]".to_string());
    };
    let db = load_db(db_path, &flags.alphabet)?;
    eprintln!(
        "parsed {} sequences / {} residues",
        db.num_sequences(),
        db.total_residues()
    );
    let start = std::time::Instant::now();
    let tree = SuffixTree::build(&db);
    eprintln!("suffix tree built in {:.2?}", start.elapsed());
    let block_size = flags.block_size.unwrap_or(2048);
    let stats = oasis::storage::DiskTreeBuilder::with_block_size(block_size)
        .write_file(&tree, index_path)
        .map_err(|e| format!("{index_path}: {e}"))?;
    eprintln!(
        "wrote {index_path}: {:.2} MB ({:.1} bytes/symbol, {} byte blocks)",
        stats.total_bytes as f64 / 1e6,
        stats.bytes_per_symbol(),
        block_size
    );
    Ok(())
}

/// Build the whole index — N balanced shard trees over the database —
/// and persist it as an artifact directory that `search --index` loads
/// instead of rebuilding.
fn cmd_index_build(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let [db_path] = flags.positional.as_slice() else {
        return Err(
            "usage: oasis index build <db.fasta|db.oasisdb> --out <dir> [--shards N] [...]"
                .to_string(),
        );
    };
    let out = flags
        .out
        .as_deref()
        .ok_or("index build requires --out <dir>")?;
    let shards = flags.shards.unwrap_or(1);
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let db = load_db(db_path, &flags.alphabet)?;
    eprintln!(
        "parsed {} sequences / {} residues",
        db.num_sequences(),
        db.total_residues()
    );
    let block_size = flags.block_size.unwrap_or(2048);
    let backend = flags.index_backend()?;
    let start = std::time::Instant::now();
    let manifest = oasis::engine::build_index_artifact(
        &db,
        std::path::Path::new(out),
        shards,
        block_size,
        backend,
    )
    .map_err(|e| format!("{out}: {e}"))?;
    eprintln!(
        "wrote artifact {out}: {} {} shard(s), {:.2} MB total ({} byte blocks) in {:.2?}",
        manifest.shards.len(),
        backend.as_str(),
        manifest.total_bytes() as f64 / 1e6,
        block_size,
        start.elapsed()
    );
    Ok(())
}

/// Durably append FASTA sequences to an index artifact — the local twin
/// of `oasis admin --remote append`. The base artifact on disk is not
/// rewritten: the sequences land in the checksummed write-ahead log next
/// to it, every later `search --index`/`serve` replays them into the
/// layered (base + delta) index, and `--compact` folds them into a fresh
/// base generation immediately.
fn cmd_index_append(args: &[String]) -> Result<(), String> {
    let mut flags = parse_flags(args)?;
    let [fasta_path] = flags.positional.as_slice() else {
        return Err(
            "usage: oasis index append <fasta> --index <dir> [--compact] [--shards N] \
             [--block-size N] [--backend tree|esa]"
                .to_string(),
        );
    };
    let fasta_path = fasta_path.clone();
    let dir = flags
        .index
        .clone()
        .ok_or("index append requires --index <dir>")?;
    let path = std::path::Path::new(&dir);
    // The artifact's alphabet is authoritative (as on every other
    // artifact path); the scoring only shapes the in-process snapshot
    // the append validates the layered merge with.
    let manifest = oasis::storage::read_manifest(path).map_err(|e| format!("{dir}: {e}"))?;
    let db = manifest
        .load_database(path)
        .map_err(|e| format!("{dir}: {e}"))?;
    flags.alphabet = db.alphabet().clone();
    let scoring = scoring_from(&flags)?;
    let live = oasis::engine::LiveIndex::open(path, scoring, flags.live_options()?)
        .map_err(|e| format!("{dir}: {e}"))?;
    let bytes = std::fs::read(&fasta_path).map_err(|e| format!("{fasta_path}: {e}"))?;
    let seqs = parse_fasta(
        BufReader::new(&bytes[..]),
        &flags.alphabet,
        UnknownResiduePolicy::Skip,
    )
    .map_err(|e| format!("{fasta_path}: {e}"))?;
    if seqs.is_empty() {
        return Err(format!("{fasta_path}: no sequences to append"));
    }
    let receipt = live.append(seqs).map_err(|e| format!("{dir}: {e}"))?;
    eprintln!(
        "appended {} sequence(s) / {} residues: delta now {} sequence(s) / {} residues, \
         wal {} bytes",
        receipt.appended_seqs,
        receipt.appended_residues,
        receipt.stats.delta_seqs,
        receipt.stats.delta_residues,
        receipt.stats.wal_bytes
    );
    if flags.compact {
        // No catalog to publish into offline — fold, rewrite the
        // artifact, and truncate the WAL in place.
        let report = live.compact(|_| Ok(0)).map_err(|e| format!("{dir}: {e}"))?;
        eprintln!(
            "compacted: folded {} sequence(s) / {} residues into the base in {:.2?}",
            report.folded_seqs,
            report.folded_residues,
            std::time::Duration::from_micros(report.micros)
        );
    }
    Ok(())
}

/// Block size for opening `index_path`: an explicit `--block-size` wins,
/// otherwise the size recorded in the index header is used.
fn index_block_size(index_path: &str, explicit: Option<usize>) -> Result<usize, String> {
    if let Some(bs) = explicit {
        return Ok(bs);
    }
    let mut prefix = [0u8; 12];
    let mut f = std::fs::File::open(index_path).map_err(|e| format!("{index_path}: {e}"))?;
    std::io::Read::read_exact(&mut f, &mut prefix).map_err(|e| format!("{index_path}: {e}"))?;
    oasis::storage::header_block_size(&prefix).map_err(|e| format!("{index_path}: {e}"))
}

/// How `minScore` is derived for each query of a run: a fixed
/// `--min-score`, or Karlin-Altschul statistics (estimated once — the
/// matrix and background are the same for every query) converting the
/// E-value threshold per query length via the paper's Equation 3.
enum MinScoreRule {
    Fixed(Score),
    Evalue { karlin: KarlinParams, evalue: f64 },
}

/// The validated score flags: `--min-score` (at least 1) or `--evalue`
/// (finite and positive, default 10). The local rule and the remote
/// request both go through here, so a bad flag fails with the same
/// wording on either path; `query --remote` checks it before connecting.
fn score_rule(flags: &Flags) -> Result<ScoreRule, String> {
    match (flags.min_score, flags.evalue.unwrap_or(10.0)) {
        // `OasisParams` asserts minScore >= 1; turn a bad flag into a
        // clean error instead of a panic on the serving path.
        (Some(s), _) if s < 1 => Err(format!("--min-score must be at least 1 (got {s})")),
        (Some(s), _) => Ok(ScoreRule::MinScore(s)),
        (None, e) if !(e.is_finite() && e > 0.0) => {
            Err(format!("E-value must be finite and positive (got {e})"))
        }
        (None, e) => Ok(ScoreRule::Evalue(e)),
    }
}

impl MinScoreRule {
    fn from_flags(flags: &Flags, scoring: &Scoring) -> Result<Self, String> {
        let evalue = match score_rule(flags)? {
            ScoreRule::MinScore(s) => return Ok(MinScoreRule::Fixed(s)),
            ScoreRule::Evalue(e) => e,
        };
        let freqs: Vec<f64> = match flags.alphabet.kind() {
            oasis::bioseq::AlphabetKind::Dna => oasis::align::background_dna().to_vec(),
            oasis::bioseq::AlphabetKind::Protein => oasis::align::background_protein().to_vec(),
        };
        let karlin = KarlinParams::estimate(&scoring.matrix, &freqs).map_err(|e| e.to_string())?;
        Ok(MinScoreRule::Evalue { karlin, evalue })
    }

    fn min_score(&self, db: &SequenceDatabase, query_len: usize) -> Score {
        match self {
            MinScoreRule::Fixed(s) => *s,
            MinScoreRule::Evalue { karlin, evalue } => {
                karlin.min_score_for_evalue(query_len as u64, db.total_residues(), *evalue)
            }
        }
    }
}

/// Report a run's buffer-pool traffic on stderr — the per-query (or
/// per-batch) delta the engine attributes through `PoolDeltaScope`, i.e.
/// the paper's Figure 8 hit-ratio metric.
fn report_pool(delta: &PoolStatsSnapshot) {
    let total = delta.total();
    match total.hit_ratio() {
        // An idle pool has no ratio — claiming "100%" here would let pure
        // in-memory runs report a perfect hit rate they never earned.
        None => eprintln!("buffer pool: no requests, hit ratio n/a"),
        Some(ratio) => eprintln!(
            "buffer pool: {} requests, {:.1}% hit ratio",
            total.requests,
            100.0 * ratio
        ),
    }
}

/// The append WAL next to an artifact, summarized against the
/// manifest's compaction floor: records a compaction already folded are
/// dead weight awaiting truncation, so only records past
/// `lineage.folded_through` count as pending. A plain (never-compacted)
/// artifact has no floor — its whole log is pending.
struct WalSummary {
    bytes: u64,
    records: usize,
    pending_seqs: usize,
    pending_residues: u64,
    torn_tail: bool,
}

fn wal_summary(
    dir: &std::path::Path,
    manifest: &oasis::storage::IndexManifest,
) -> Result<Option<WalSummary>, String> {
    let Some(replay) = oasis::storage::replay_wal(dir).map_err(|e| e.to_string())? else {
        return Ok(None);
    };
    let records = replay.records.len();
    let pending = oasis::storage::pending_records(replay.records, manifest.lineage.as_ref());
    Ok(Some(WalSummary {
        bytes: replay.bytes,
        records,
        pending_seqs: pending.len(),
        pending_residues: pending.iter().map(|r| r.codes.len() as u64).sum(),
        torn_tail: replay.torn_tail,
    }))
}

/// Load an index artifact directory into a ready engine. The artifact is
/// self-contained: the database (names, alphabet) comes from its
/// checksummed sections, so no FASTA path is needed — and the artifact's
/// alphabet overrides `--dna`/`--protein`. The engine policy is
/// `open_artifact_engine`'s: a single tree shard is opened disk-resident
/// through the buffer pool (`--pool-mb` applies); anything else
/// reconstitutes the in-memory fan-out engine.
fn open_artifact(flags: &mut Flags, dir: &str) -> Result<Arc<ShardedEngine>, String> {
    let path = std::path::Path::new(dir);
    let start = std::time::Instant::now();
    let manifest = oasis::storage::read_manifest(path).map_err(|e| format!("{dir}: {e}"))?;
    let db = Arc::new(
        manifest
            .load_database(path)
            .map_err(|e| format!("{dir}: {e}"))?,
    );
    flags.alphabet = db.alphabet().clone();
    let scoring = scoring_from(flags)?;
    // A pending append WAL means sequences were durably added since the
    // artifact was written: serve the layered index (base shards + the
    // replayed delta) so `search --index` sees every appended sequence,
    // byte-identically to a full rebuild over the concatenated database.
    if wal_summary(path, &manifest)?.is_some_and(|w| w.pending_seqs > 0) {
        flags.warn_pool_mb_ignored();
        if flags.threads.is_some() {
            eprintln!("warning: --threads is ignored on a live (layered) index snapshot");
        }
        let live = oasis::engine::LiveIndex::open(
            path,
            scoring,
            oasis::engine::LiveIndexOptions::default(),
        )
        .map_err(|e| format!("{dir}: {e}"))?;
        eprintln!(
            "index artifact: {} base shard(s) + live delta of {} sequence(s) replayed \
             from the wal (loaded in {:.2?})",
            manifest.shards.len(),
            live.stats().delta_seqs,
            start.elapsed()
        );
        return Ok(live.snapshot());
    }
    let engine =
        oasis::engine::open_artifact_engine(path, &manifest, db, scoring, flags.pool_bytes())
            .map_err(|e| format!("{dir}: {e}"))?;
    if oasis::engine::opens_disk_resident(&manifest) {
        eprintln!(
            "index artifact: 1 shard, disk-resident through the buffer pool (loaded in {:.2?})",
            start.elapsed()
        );
    } else {
        flags.warn_pool_mb_ignored();
        let all_tree = manifest
            .shards
            .iter()
            .all(|s| s.kind == oasis::storage::SectionKind::TreeImage);
        let kind = if all_tree { "tree" } else { "esa" };
        eprintln!(
            "index artifact: {} {kind} shard(s), in-memory fan-out (loaded in {:.2?})",
            engine.num_shards(),
            start.elapsed()
        );
    }
    Ok(Arc::new(flags.with_threads(engine)))
}

/// Load the database and open the engine for the legacy
/// `<db> <index.oasis>` invocation shape: the disk index behind the
/// buffer pool (default), or balanced in-memory shard indexes fanned out
/// per query (`--shards N`; the disk index is not opened). Results are
/// byte-identical either way; only the storage/parallelism shape differs.
fn open_legacy(flags: &Flags, db_path: &str, index_path: &str) -> Result<ShardedEngine, String> {
    let db = Arc::new(load_db(db_path, &flags.alphabet)?);
    let scoring = scoring_from(flags)?;
    let engine = match flags.shards {
        None => {
            let block_size = index_block_size(index_path, flags.block_size)?;
            let device = FileDevice::open(index_path, block_size)
                .map_err(|e| format!("{index_path}: {e}"))?;
            let tree = DiskSuffixTree::open(device, flags.pool_bytes())
                .map_err(|e| format!("{index_path}: {e}"))?;
            ShardedEngine::disk_resident(db, tree, scoring)
                .map_err(|e| format!("{index_path}: {e}"))?
        }
        Some(0) => return Err("--shards must be at least 1".to_string()),
        Some(n) => {
            flags.warn_pool_mb_ignored();
            let engine = ShardedEngine::build(db, scoring, n);
            eprintln!(
                "sharded: {} balanced in-memory shard(s); disk index not opened",
                engine.num_shards()
            );
            engine
        }
    };
    Ok(flags.with_threads(engine))
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let mut flags = parse_flags(args)?;
    if let Some(dir) = flags.index.clone() {
        if flags.shards.is_some() {
            return Err(
                "--shards cannot be combined with --index (the artifact fixes the shard layout)"
                    .to_string(),
            );
        }
        if flags.block_size.is_some() {
            return Err(
                "--block-size cannot be combined with --index (the artifact records its block size)"
                    .to_string(),
            );
        }
        let engine = open_artifact(&mut flags, &dir)?;
        return match (flags.positional.as_slice(), &flags.queries) {
            ([query_text], None) => search_single(&flags, &engine, query_text),
            ([], Some(queries_path)) => search_batch(&flags, &engine, queries_path),
            _ => Err("usage: oasis search --index <dir> <QUERY> [...]\n\
                 or:    oasis search --index <dir> --queries <queries.fasta> [...]"
                .to_string()),
        };
    }
    match (flags.positional.as_slice(), &flags.queries) {
        ([db_path, index_path, query_text], None) => search_single(
            &flags,
            &open_legacy(&flags, db_path, index_path)?,
            query_text,
        ),
        ([db_path, index_path], Some(queries_path)) => search_batch(
            &flags,
            &open_legacy(&flags, db_path, index_path)?,
            queries_path,
        ),
        _ => Err("usage: oasis search <db> <index.oasis> <QUERY> [...]\n\
             or:    oasis search <db> <index.oasis> --queries <queries.fasta> [...]"
            .to_string()),
    }
}

/// The single-query stdout line for one hit. One format, shared by the
/// local and remote paths: `query --remote` promises stdout
/// byte-identical to a local `search`, so the literal must never fork.
fn hit_line(name: &str, hit: &Hit) -> String {
    format!(
        "{:<30} score={:<5} window={}..{} q_end={}",
        name,
        hit.score,
        hit.t_start,
        hit.t_start + hit.t_len,
        hit.q_end
    )
}

/// The batch-mode per-query header line (shared local/remote, as above).
fn batch_header_line(id: &str, residues: usize, min_score: Score, hits: usize) -> String {
    format!("# query {id} ({residues} residues, minScore {min_score}): {hits} hits")
}

/// The batch-mode per-hit line (shared local/remote, as above).
fn batch_hit_line(id: &str, name: &str, hit: &Hit) -> String {
    format!(
        "{}\t{}\tscore={}\twindow={}..{}\tq_end={}",
        id,
        name,
        hit.score,
        hit.t_start,
        hit.t_start + hit.t_len,
        hit.q_end
    )
}

/// Stream hits from an engine session to stdout, stopping at `limit`
/// (checked before each hit is pulled, so `--top 0` prints none).
fn print_hits(db: &SequenceDatabase, hits: impl Iterator<Item = Hit>, limit: usize) -> usize {
    let mut shown = 0usize;
    for hit in hits.take(limit) {
        println!("{}", hit_line(db.name(hit.seq), &hit));
        shown += 1;
    }
    shown
}

/// One query: stream hits online (respecting `--top`) through an engine
/// session, then close the session for the per-query accounting — on the
/// drained *and* the `--top` early-exit path alike, so the pool hit ratio
/// is never silently discarded.
fn search_single(flags: &Flags, engine: &ShardedEngine, query_text: &str) -> Result<(), String> {
    if query_text.is_empty() {
        return Err("query is empty — nothing to search".to_string());
    }
    let query = flags
        .alphabet
        .encode_str(query_text)
        .map_err(|e| e.to_string())?;
    let scoring = scoring_from(flags)?;
    let db = engine.db();
    let min_score = MinScoreRule::from_flags(flags, &scoring)?.min_score(db, query.len());
    eprintln!("minScore = {min_score}");

    let params = OasisParams::with_min_score(min_score);
    let limit = flags.top.unwrap_or(usize::MAX);
    let start = std::time::Instant::now();
    let mut session = engine.session(&query, &params);
    let shown = print_hits(db, session.by_ref(), limit);
    let (_, delta) = session.finish();
    eprintln!("{shown} hits in {:.2?}", start.elapsed());
    report_pool(&delta);
    Ok(())
}

/// A FASTA of queries: run the whole batch concurrently over the shared
/// index and print per-query results keyed by record name.
fn search_batch(flags: &Flags, engine: &ShardedEngine, queries_path: &str) -> Result<(), String> {
    let scoring = scoring_from(flags)?;
    let db = engine.db();

    let bytes = std::fs::read(queries_path).map_err(|e| format!("{queries_path}: {e}"))?;
    // Queries use Reject, matching the positional-QUERY path (encode_str):
    // silently skipping residues would search a different sequence.
    let records = parse_fasta(
        BufReader::new(&bytes[..]),
        &flags.alphabet,
        UnknownResiduePolicy::Reject,
    )
    .map_err(|e| format!("{queries_path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{queries_path}: no query records"));
    }
    let rule = MinScoreRule::from_flags(flags, &scoring)?;
    let jobs: Vec<BatchQuery> = records
        .into_iter()
        .map(|seq| {
            let (name, codes) = seq.into_parts();
            let min = rule.min_score(db, codes.len());
            let mut job = BatchQuery::named(name, codes, OasisParams::with_min_score(min));
            if let Some(top) = flags.top {
                // Top-k abort per query: the engine stops each search as
                // soon as its k best hits are proven, like the single-query
                // streaming path.
                job = job.with_limit(top);
            }
            job
        })
        .collect();

    eprintln!(
        "{} queries on {} thread(s)",
        jobs.len(),
        engine.threads().min(jobs.len())
    );
    let start = std::time::Instant::now();
    let outcomes = engine.run_batch(&jobs);
    let elapsed = start.elapsed();

    let mut total_hits = 0usize;
    for (job, outcome) in jobs.iter().zip(&outcomes) {
        println!(
            "{}",
            batch_header_line(
                &job.id,
                job.query.len(),
                job.params.min_score,
                outcome.hits.len()
            )
        );
        // `--top` was already enforced inside the engine (BatchQuery::limit),
        // so every returned hit is printed.
        for hit in &outcome.hits {
            println!("{}", batch_hit_line(&job.id, db.name(hit.seq), hit));
        }
        total_hits += outcome.hits.len();
    }
    let qps = outcomes.len() as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "{} hits across {} queries in {:.2?} ({qps:.1} queries/sec)",
        total_hits,
        outcomes.len(),
        elapsed
    );
    // Fold the per-query pool deltas into the batch's traffic, matching
    // the single-query path's report.
    let mut pool = PoolStatsSnapshot::default();
    for outcome in &outcomes {
        pool.merge(&outcome.pool_delta);
    }
    report_pool(&pool);
    Ok(())
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let [index_path] = flags.positional.as_slice() else {
        return Err("usage: oasis info <index.oasis> [--block-size N]".to_string());
    };
    let block_size = index_block_size(index_path, flags.block_size)?;
    let device =
        FileDevice::open(index_path, block_size).map_err(|e| format!("{index_path}: {e}"))?;
    let tree = DiskSuffixTree::open(device, 1 << 20).map_err(|e| format!("{index_path}: {e}"))?;
    println!("index:          {index_path}");
    println!("text length:    {}", tree.text_len());
    println!("internal nodes: {}", SuffixTreeAccess::num_internal(&tree));
    Ok(())
}

/// Minimal JSON string escaping for the hand-rolled `--json` output.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The machine-readable `index inspect --json` document. Hand-rolled
/// (the workspace takes no serialization dependency); the shape is
/// pinned by `tests/cli_search.rs`.
fn inspect_json(
    dir: &str,
    manifest: &oasis::storage::IndexManifest,
    wal: Option<&WalSummary>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"artifact\": {},\n", json_str(dir)));
    out.push_str(&format!("  \"version\": {},\n", manifest.version));
    out.push_str(&format!("  \"block_size\": {},\n", manifest.block_size));
    out.push_str(&format!("  \"sequences\": {},\n", manifest.num_seqs));
    out.push_str(&format!("  \"text_length\": {},\n", manifest.text_len));
    out.push_str(&format!("  \"total_bytes\": {},\n", manifest.total_bytes()));
    out.push_str(&format!(
        "  \"database\": {{\"file\": {}, \"bytes\": {}, \"checksum\": \"{:016x}\"}},\n",
        json_str(&manifest.database.file),
        manifest.database.bytes,
        manifest.database.checksum
    ));
    let index_bytes: u64 = manifest.shards.iter().map(|s| s.section.bytes).sum();
    out.push_str(&format!("  \"index_bytes\": {index_bytes},\n"));
    out.push_str("  \"shards\": [\n");
    for (i, shard) in manifest.shards.iter().enumerate() {
        let comma = if i + 1 < manifest.shards.len() {
            ","
        } else {
            ""
        };
        out.push_str(&format!(
            "    {{\"seq_lo\": {}, \"seq_hi\": {}, \"kind\": {}, \"file\": {}, \
             \"bytes\": {}, \"checksum\": \"{:016x}\"}}{comma}\n",
            shard.seq_lo,
            shard.seq_hi,
            json_str(shard.kind.as_str()),
            json_str(&shard.section.file),
            shard.section.bytes,
            shard.section.checksum
        ));
    }
    out.push_str("  ],\n");
    match &manifest.lineage {
        None => out.push_str("  \"lineage\": null,\n"),
        Some(l) => out.push_str(&format!(
            "  \"lineage\": {{\"compactions\": {}, \"appended_seqs\": {}, \
             \"folded_through\": {}}},\n",
            l.compactions, l.appended_seqs, l.folded_through
        )),
    }
    match wal {
        None => out.push_str("  \"wal\": null\n"),
        Some(w) => out.push_str(&format!(
            "  \"wal\": {{\"bytes\": {}, \"records\": {}, \"pending_seqs\": {}, \
             \"pending_residues\": {}, \"torn_tail\": {}}}\n",
            w.bytes, w.records, w.pending_seqs, w.pending_residues, w.torn_tail
        )),
    }
    out.push('}');
    out
}

/// Print an artifact's manifest — version, geometry, shard boundary
/// table, per-section sizes and checksums, delta lineage and WAL state —
/// without loading any trees. `--json` emits the same facts as a single
/// machine-readable document.
fn cmd_index_inspect(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let [dir] = flags.positional.as_slice() else {
        return Err("usage: oasis index inspect <dir> [--json]".to_string());
    };
    let path = std::path::Path::new(dir);
    let manifest = oasis::storage::read_manifest(path).map_err(|e| format!("{dir}: {e}"))?;
    let wal = wal_summary(path, &manifest)?;
    if flags.json {
        println!("{}", inspect_json(dir, &manifest, wal.as_ref()));
        return Ok(());
    }
    println!("artifact:      {dir}");
    println!("version:       {}", manifest.version);
    println!("block size:    {}", manifest.block_size);
    println!("sequences:     {}", manifest.num_seqs);
    println!("text length:   {}", manifest.text_len);
    println!(
        "total bytes:   {} ({:.2} MB)",
        manifest.total_bytes(),
        manifest.total_bytes() as f64 / 1e6
    );
    println!(
        "database:      {}  {} bytes  checksum {:016x}",
        manifest.database.file, manifest.database.bytes, manifest.database.checksum
    );
    println!("shards:        {}", manifest.shards.len());
    // Encoded index bytes per indexed symbol makes the packed-ESA space
    // savings visible without loading or decoding anything.
    let index_bytes: u64 = manifest.shards.iter().map(|s| s.section.bytes).sum();
    println!(
        "index bytes:   {} ({:.2} bytes/symbol)",
        index_bytes,
        index_bytes as f64 / f64::from(manifest.text_len.max(1))
    );
    for (i, shard) in manifest.shards.iter().enumerate() {
        println!(
            "  shard {i:04}   seqs {}..={}  {:<10}  {}  {} bytes  checksum {:016x}",
            shard.seq_lo,
            shard.seq_hi,
            shard.kind.as_str(),
            shard.section.file,
            shard.section.bytes,
            shard.section.checksum
        );
    }
    match &manifest.lineage {
        None => println!("lineage:       none (never compacted)"),
        Some(l) => println!(
            "lineage:       {} compaction(s), {} sequence(s) ever appended, folded through seq {}",
            l.compactions, l.appended_seqs, l.folded_through
        ),
    }
    match &wal {
        None => println!("wal:           none"),
        Some(w) => println!(
            "wal:           {} bytes, {} record(s), {} pending sequence(s) / {} residues{}",
            w.bytes,
            w.records,
            w.pending_seqs,
            w.pending_residues,
            if w.torn_tail {
                " (torn tail discarded)"
            } else {
                ""
            }
        ),
    }
    Ok(())
}

/// Run the workspace invariant checker (`oasis-lint`, see
/// `docs/LINTS.md`). Exit status follows the standalone binary: 0 clean,
/// 1 findings, 2 usage or I/O error.
fn cmd_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut root: Option<std::path::PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(std::path::PathBuf::from(dir)),
                None => {
                    eprintln!("error: --root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("error: unknown lint argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|cwd| oasis::lint::find_root(&cwd))
    }) {
        Some(r) => r,
        None => {
            eprintln!(
                "error: could not find the workspace root (no Cargo.toml + crates/ above \
                 the cwd); pass --root"
            );
            return ExitCode::from(2);
        }
    };
    let ws = match oasis::lint::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("error: cannot load workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let diags = ws.lint();
    if json {
        println!("{}", oasis::lint::render_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        eprintln!(
            "oasis lint: clean — {} files, {} rules",
            ws.files.len(),
            oasis::lint::rules::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("oasis lint: {} finding(s)", diags.len());
        ExitCode::FAILURE
    }
}

/// Serve an index artifact over the oasis-net wire protocol.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut flags = parse_flags(args)?;
    let dir = flags.index.clone().ok_or("serve requires --index <dir>")?;
    let addr = flags
        .addr
        .clone()
        .ok_or("serve requires --addr <host:port>")?;
    if !flags.positional.is_empty() {
        return Err("usage: oasis serve --index <dir> --addr <host:port> [...]".to_string());
    }
    let path = std::path::Path::new(&dir);
    let manifest = oasis::storage::read_manifest(path).map_err(|e| format!("{dir}: {e}"))?;
    let db = Arc::new(
        manifest
            .load_database(path)
            .map_err(|e| format!("{dir}: {e}"))?,
    );
    // The artifact's alphabet is authoritative, exactly as on the local
    // `search --index` path; the scoring is fixed for the server's life.
    flags.alphabet = db.alphabet().clone();
    let scoring = scoring_from(&flags)?;
    if !oasis::engine::opens_disk_resident(&manifest) {
        flags.warn_pool_mb_ignored();
    }
    let served = oasis::net::ServedIndex::from_artifact_parts(
        path,
        &manifest,
        db.clone(),
        scoring.clone(),
        flags.pool_bytes(),
    )
    .map_err(|e| format!("{dir}: {e}"))?;
    let metrics_addr = match flags.metrics_addr.as_deref() {
        Some(spec) => {
            use std::net::ToSocketAddrs as _;
            Some(
                spec.to_socket_addrs()
                    .map_err(|e| format!("--metrics-addr {spec}: {e}"))?
                    .next()
                    .ok_or_else(|| format!("--metrics-addr {spec}: resolved to no address"))?,
            )
        }
        None => None,
    };
    let config = oasis::net::ServerConfig {
        workers: flags.workers.unwrap_or(0),
        queue_capacity: flags.queue.unwrap_or(64),
        pool_bytes: flags.pool_bytes(),
        compact_after: flags.compact_after.unwrap_or(256),
        max_conns: flags.max_conns.unwrap_or(1024),
        cache_entries: flags.cache_entries.unwrap_or(512),
        metrics_addr,
        // Tracing is on by default with a high-enough bar that only
        // genuinely slow queries are retained; --slow-ms 0 logs all.
        slow_ms: Some(flags.slow_ms.unwrap_or(250)),
    };
    let server = oasis::net::OasisServer::bind(addr.as_str(), served, scoring, config)
        .map_err(|e| e.to_string())?;
    // Live ingestion: `admin append` WAL-logs into the serving artifact's
    // directory, and a WAL left over from a previous run is replayed into
    // a layered generation before the first connection is accepted.
    server.set_live_dir(path).map_err(|e| e.to_string())?;
    eprintln!(
        "serving {dir}: {} sequences, {} shard(s), queue capacity {}, \
         live ingestion enabled ({})",
        db.num_sequences(),
        manifest.shards.len(),
        config.queue_capacity,
        match config.compact_after {
            0 => "background compaction off".to_string(),
            n => format!("compact after {n} delta sequences"),
        }
    );
    // Machine-readable: scripts resolve `--addr host:0` from this line.
    println!("listening on {}", server.local_addr());
    if let Some(maddr) = server.metrics_addr() {
        // Same contract for `--metrics-addr host:0`.
        println!("metrics on {maddr}");
    }
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| e.to_string())
}

/// Remote search request shared by the single-query and batch paths;
/// `rule` is the [`score_rule`] checked before connecting.
fn remote_request(
    flags: &Flags,
    rule: ScoreRule,
    id: &str,
    query_text: &str,
) -> Result<oasis::net::SearchRequest, String> {
    let mut req = oasis::net::SearchRequest::new(query_text).with_id(id);
    req.rule = rule;
    if let Some(top) = flags.top {
        req = req.with_top(u32::try_from(top).map_err(|_| "--top is out of range")?);
    }
    if let Some(ms) = flags.deadline_ms {
        req = req.with_deadline_ms(ms);
    }
    Ok(req)
}

/// Print one remote hit through the same formatter as the local path.
fn print_remote_hit(hit: &oasis::net::RemoteHit) {
    println!("{}", hit_line(&hit.name, &hit.hit()));
}

/// Connect to a remote server with the TCP connect and the Hello
/// handshake bounded by `--timeout-ms` (default 10 000 ms; 0 waits
/// forever). Once connected, response waits stay bounded only when the
/// flag was given explicitly — a search or reload may legitimately run
/// longer than any connection-setup budget.
fn connect_remote(flags: &Flags, addr: &str) -> Result<oasis::net::Client, String> {
    let ms = flags.timeout_ms.unwrap_or(10_000);
    let client = if ms == 0 {
        oasis::net::Client::connect(addr)
    } else {
        oasis::net::Client::connect_timeout(addr, std::time::Duration::from_millis(ms))
    }
    .map_err(|e| format!("{addr}: {e}"))?;
    if flags.timeout_ms.is_none() {
        client
            .set_read_timeout(None)
            .map_err(|e| format!("{addr}: {e}"))?;
    }
    Ok(client)
}

/// Run a search against a remote `oasis serve` daemon. Stdout is
/// byte-identical to the local `search` paths over the same index.
fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let addr = flags
        .remote
        .clone()
        .ok_or("query requires --remote <host:port>")?;
    let rule = score_rule(&flags)?;
    let mut client = connect_remote(&flags, addr.as_str())?;
    eprintln!(
        "connected: protocol v{}, generation {} ({}), {} sequences / {} residues",
        client.hello().protocol,
        client.hello().generation,
        client.hello().generation_label,
        client.hello().num_seqs,
        client.hello().total_residues
    );
    match (flags.positional.as_slice(), &flags.queries) {
        ([query_text], None) => query_single(&flags, rule, &mut client, query_text),
        ([], Some(queries_path)) => {
            let queries_path = queries_path.clone();
            query_batch(&flags, rule, &mut client, &queries_path)
        }
        _ => Err("usage: oasis query --remote <host:port> <QUERY> [...]\n\
             or:    oasis query --remote <host:port> --queries <queries.fasta> [...]"
            .to_string()),
    }
}

/// One remote query: stream hits online as frames arrive, mirroring the
/// local single-query output format exactly.
fn query_single(
    flags: &Flags,
    rule: ScoreRule,
    client: &mut oasis::net::Client,
    query_text: &str,
) -> Result<(), String> {
    if query_text.is_empty() {
        return Err("query is empty — nothing to search".to_string());
    }
    let req = remote_request(flags, rule, "q", query_text)?;
    let limit = flags.top.unwrap_or(usize::MAX);
    let start = std::time::Instant::now();
    let mut stream = client.search(req).map_err(|e| e.to_string())?;
    let mut shown = 0usize;
    while let Some(hit) = stream.next_hit().map_err(|e| e.to_string())? {
        // The server already enforced --top via the request's limit, but
        // respect it here too so the output contract matches print_hits.
        if shown < limit {
            print_remote_hit(&hit);
            shown += 1;
        }
    }
    let done = stream.finish().map_err(|e| e.to_string())?;
    eprintln!("minScore = {}", done.min_score);
    eprintln!(
        "{shown} hits in {:.2?} (server: generation {}, service {:.2?}, total {:.2?})",
        start.elapsed(),
        done.generation,
        std::time::Duration::from_micros(done.service_us),
        std::time::Duration::from_micros(done.total_us)
    );
    Ok(())
}

/// A FASTA of queries against a remote server, printed in exactly the
/// local batch format.
fn query_batch(
    flags: &Flags,
    rule: ScoreRule,
    client: &mut oasis::net::Client,
    queries_path: &str,
) -> Result<(), String> {
    // The serving alphabet comes from the handshake: parse the query
    // FASTA with it, rejecting unknown residues exactly like the local
    // batch path.
    let alphabet = match client.hello().alphabet {
        AlphabetKind::Dna => Alphabet::dna(),
        AlphabetKind::Protein => Alphabet::protein(),
    };
    let bytes = std::fs::read(queries_path).map_err(|e| format!("{queries_path}: {e}"))?;
    let records = parse_fasta(
        BufReader::new(&bytes[..]),
        &alphabet,
        UnknownResiduePolicy::Reject,
    )
    .map_err(|e| format!("{queries_path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{queries_path}: no query records"));
    }
    let start = std::time::Instant::now();
    let mut total_hits = 0usize;
    let num_queries = records.len();
    for seq in records {
        let (name, codes) = seq.into_parts();
        let text = alphabet.decode_all(&codes);
        let req = remote_request(flags, rule, &name, &text)?;
        let (hits, done) = client
            .search_collect(req)
            .map_err(|e| format!("query {name}: {e}"))?;
        println!(
            "{}",
            batch_header_line(&name, codes.len(), done.min_score, hits.len())
        );
        for hit in &hits {
            println!("{}", batch_hit_line(&name, &hit.name, &hit.hit()));
        }
        total_hits += hits.len();
    }
    let elapsed = start.elapsed();
    let qps = num_queries as f64 / elapsed.as_secs_f64().max(1e-9);
    eprintln!(
        "{total_hits} hits across {num_queries} queries in {elapsed:.2?} ({qps:.1} queries/sec)"
    );
    Ok(())
}

/// One aligned `label:   value` row of the `admin metrics` table
/// (labels padded to column 14).
fn admin_row(label: &str, value: impl std::fmt::Display) {
    println!("{:<14}{value}", format!("{label}:"));
}

/// Admin requests against a running server: metrics, slowlog, reload,
/// append, shutdown.
fn cmd_admin(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let addr = flags
        .remote
        .clone()
        .ok_or("admin requires --remote <host:port>")?;
    let mut client = connect_remote(&flags, addr.as_str())?;
    match flags
        .positional
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()
        .as_slice()
    {
        ["metrics"] => {
            let m = client.metrics().map_err(|e| e.to_string())?;
            if flags.prom {
                // The raw Prometheus scrape body, byte-identical to what
                // the server's --metrics-addr listener serves.
                print!("{}", m.to_prometheus());
                return Ok(());
            }
            let us = std::time::Duration::from_micros;
            admin_row(
                "generation",
                format_args!("{} ({})", m.generation, m.generation_label),
            );
            admin_row("served", m.served);
            admin_row("rejected", m.rejected);
            admin_row(
                "queue",
                format_args!("{}/{}", m.queue_depth, m.queue_capacity),
            );
            admin_row(
                "latency",
                format_args!(
                    "p50 {:.2?}  p95 {:.2?}  p99 {:.2?}  max {:.2?}",
                    us(m.p50_us),
                    us(m.p95_us),
                    us(m.p99_us),
                    us(m.max_us)
                ),
            );
            for s in &m.stages {
                admin_row(
                    &format!("· {}", s.stage),
                    format_args!(
                        "p50 {:.2?}  p95 {:.2?}  p99 {:.2?}  max {:.2?} ({} samples)",
                        us(s.p50_us),
                        us(s.p95_us),
                        us(s.p99_us),
                        us(s.max_us),
                        s.count
                    ),
                );
            }
            admin_row(
                "delta",
                format_args!(
                    "{} sequence(s) / {} residues",
                    m.delta_seqs, m.delta_residues
                ),
            );
            admin_row("wal", format_args!("{} bytes", m.wal_bytes));
            admin_row(
                "compactions",
                format_args!(
                    "{} (last took {:.2?})",
                    m.compactions,
                    us(m.last_compaction_us)
                ),
            );
            admin_row(
                "cache",
                format_args!(
                    "{} hits / {} misses / {} evictions ({}/{} entries)",
                    m.cache_hits,
                    m.cache_misses,
                    m.cache_evictions,
                    m.cache_entries,
                    m.cache_capacity
                ),
            );
            admin_row(
                "connections",
                format_args!(
                    "{} open / {} accepted",
                    m.connections_open, m.connections_accepted
                ),
            );
            admin_row("pipelined", format_args!("peak {}", m.pipelined_peak));
            admin_row("uptime", format_args!("{:.2?}", us(m.uptime_us)));
            for g in &m.per_generation {
                admin_row(
                    &format!("gen {}", g.generation),
                    format_args!("{} served", g.served),
                );
            }
            Ok(())
        }
        ["slowlog"] => {
            let dump = client.trace_dump().map_err(|e| e.to_string())?;
            let us = std::time::Duration::from_micros;
            if dump.threshold_us == u64::MAX {
                println!("slow-query tracing is disabled on this server");
                return Ok(());
            }
            println!(
                "slow-query log: threshold {:.2?}, {}/{} retained, {} dropped",
                us(dump.threshold_us),
                dump.entries.len(),
                dump.capacity,
                dump.dropped
            );
            for e in &dump.entries {
                println!(
                    "#{}  len {}  total {:.2?}  gen {}{}",
                    e.id,
                    e.query_len,
                    us(e.total_us),
                    e.generation,
                    if e.cache_hit { "  [cache hit]" } else { "" }
                );
                let spans: Vec<String> = e
                    .spans
                    .iter()
                    .map(|s| format!("{} +{:.2?} {:.2?}", s.stage, us(s.start_us), us(s.dur_us)))
                    .collect();
                if !spans.is_empty() {
                    println!("  stages: {}", spans.join(" | "));
                }
                println!(
                    "  work: {} expanded / {} enqueued / {} pruned, {} columns, \
                     {} hit(s), {} wal fsync(s)",
                    e.nodes_expanded,
                    e.nodes_enqueued,
                    e.nodes_pruned,
                    e.columns_expanded,
                    e.hits,
                    e.wal_fsyncs
                );
            }
            Ok(())
        }
        ["reload", dir] => {
            let done = client.reload(*dir).map_err(|e| e.to_string())?;
            println!("reloaded: generation {} ({})", done.generation, done.label);
            Ok(())
        }
        ["append", fasta_path] => {
            let fasta =
                std::fs::read_to_string(fasta_path).map_err(|e| format!("{fasta_path}: {e}"))?;
            let done = client.append(fasta).map_err(|e| e.to_string())?;
            println!(
                "appended: {} sequence(s) / {} residues (generation {}); \
                 delta {} sequence(s) / {} residues, wal {} bytes",
                done.appended_seqs,
                done.appended_residues,
                done.generation,
                done.delta_seqs,
                done.delta_residues,
                done.wal_bytes
            );
            Ok(())
        }
        ["shutdown"] => {
            client.shutdown_server().map_err(|e| e.to_string())?;
            println!("server is shutting down");
            Ok(())
        }
        _ => Err("usage: oasis admin --remote <host:port> \
                  metrics [--prom]|slowlog|reload <dir>|append <fasta>|shutdown"
            .to_string()),
    }
}
