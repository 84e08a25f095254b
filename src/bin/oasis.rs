//! `oasis` — command-line local-alignment search over FASTA databases.
//!
//! ```text
//! oasis index  build <db.fasta> --out <dir> [--shards N] [--block-size N]
//! oasis index  inspect <dir> [--json]
//! oasis index  append <fasta> --index <dir> [--compact]
//! oasis search --index <dir> <QUERY> [options]
//! oasis search --index <dir> --queries <queries.fasta> [options]
//! oasis serve  --index <dir> --addr <host:port> [options]
//! oasis query  --remote <host:port> <QUERY> [options]
//! oasis admin  --remote <host:port> metrics|slowlog|reload <dir>|append <fasta>|shutdown
//! ```
//!
//! The one on-disk index is the **index artifact** directory: `index
//! build` persists the database plus N balanced shard indexes,
//! checksummed and atomically written, and `search --index` and `serve`
//! *load* it instead of rebuilding. `search` runs the exact online OASIS
//! search through the one engine, `ShardedEngine`: a single-shard tree
//! artifact opens as one disk-resident shard read through the buffer pool
//! (the paper's §3.4 disk mode); a multi-shard or ESA artifact serves its
//! shards in memory, with merged results byte-identical. A single query
//! streams hits as they are proven optimal, and a `--queries` FASTA batch
//! executes concurrently across worker threads against the shared index.
//! `index inspect` prints an artifact's manifest without loading any
//! trees, and `index append` WAL-logs new sequences next to it.
//!
//! The network trio makes the serving stack an actual service: `serve`
//! exposes an index artifact over the versioned wire protocol of
//! `oasis-net` with a blocking reader and writer thread per connection
//! (pipelined connections, bounded admission with `Busy` backpressure,
//! per-request deadlines, hot `reload` of a new index generation; every
//! search executes, with no result cache), `query --remote` streams hits
//! from such a server with stdout byte-identical to a local `search`,
//! and `admin` issues metrics/slowlog/reload/append/shutdown requests
//! (`admin metrics` is the one admin snapshot, printed as one table).

use std::io::BufReader;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use oasis::prelude::*;

const USAGE: &str = "\
oasis — online and accurate local-alignment search (VLDB'03 reproduction)

USAGE:
  oasis index  build <db.fasta> --out <dir> [--dna|--protein]
               [--shards N] [--block-size N] [--backend tree|esa]
  oasis search --index <dir> <QUERY> [--evalue E | --min-score S] [--top K]
               [--pool-mb M] [--matrix unit|blosum62|pam30] [--gap G]
  oasis search --index <dir> --queries <queries.fasta> [--threads N]
               [other search options]
  oasis index  inspect <dir> [--json]
  oasis index  append <fasta> --index <dir> [--compact] [--shards N]
               [--block-size N] [--backend tree|esa]
  oasis serve  --index <dir> --addr <host:port> [--workers N] [--queue N]
               [--pool-mb M] [--matrix unit|blosum62|pam30] [--gap G]
               [--compact-after N] [--max-conns N]
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

`index build` persists a complete artifact directory (database + N
balanced shard indexes, per-section checksums, atomic temp-file+rename
writes) from a FASTA database; residues outside the alphabet are
skipped. `--shards` is at least 1 and `--block-size` at least 64 and a
multiple of 16. `--backend esa` indexes each shard with an enhanced suffix
array instead of a suffix tree — a packed SA/LCP/LUT payload that loads
without any tree reconstruction and produces byte-identical hits.
`search --index <dir>` loads it — no FASTA parsing, no tree
construction, no --shards (the artifact fixes the shard layout; its
alphabet is authoritative): one tree-image shard serves disk-resident
through the buffer pool (--pool-mb applies), anything else (several
shards, or any packed-esa shard) reconstitutes the in-memory fan-out
engine. Results are byte-identical to a freshly built index. With
--queries, every record of the FASTA file is searched as its own query
(ids from the record names) and the batch runs concurrently over the
shared index (--threads, default: all cores); query records with
residues outside the alphabet are rejected, exactly like a positional
QUERY. `index inspect` prints an artifact's manifest — version, shard
table with backend kinds, per-section encoded sizes and checksums, delta
lineage and WAL state — without loading any indexes (`--json` emits the
same facts machine-readably). `index append` WAL-logs new FASTA
sequences next to an artifact: later `search --index`/`serve` runs
replay them into a layered (base + delta) index with results
byte-identical to a full rebuild, and `--compact` (or a server's
background compaction) folds them into a fresh base artifact. `serve`
exposes an artifact over TCP (the oasis-net wire protocol) with a
blocking reader and writer thread per connection: connections are
pipelined (several requests in flight per stream, responses in request
order), bounded admission answers Busy backpressure instead of
queueing unboundedly, --max-conns (default 1024; 0 unlimited) caps
concurrent connections, every search executes (a repeated query runs
again; there is no result cache), requests may carry deadlines, and
`admin reload` hot-swaps a freshly loaded artifact generation under
live traffic, replaying its pending WAL and making it the append target
(Busy while a background compaction runs). `query --remote` runs a
search against such a server; its stdout is byte-identical to a local
`search` over the same index (the scoring is fixed server-side at
`serve` time). With port 0, `serve`
prints the actual listening address on stdout. `admin append` durably appends FASTA sequences to the
serving index over the wire: they are WAL-logged server-side and
answering queries before the call returns, and once the delta reaches
--compact-after sequences (default 256; 0 disables) a background
compaction folds them into a fresh base generation with zero downtime.
`admin metrics` prints the server's one admin snapshot as one aligned
table — serving generation, served/rejected counts, queue depth, exact
histogram latency tails, per-stage timing summaries
(queue_wait/execute/resolve/frame_flush/first_hit), the live delta, WAL size and
compactions, connection and pipeline gauges, uptime and per-generation
served counts. `admin metrics --prom` emits the same snapshot as a
Prometheus text-exposition body, byte-identical to what `serve
--metrics-addr <host:port>` answers on every connection (curl its
/metrics or read the socket raw; with port
0 the resolved address prints as a `metrics on <addr>` stdout line). `serve --slow-ms N`
(default 250; 0 logs every query) traces each query through the
pipeline and retains queries slower than N milliseconds in a bounded
slow-query ring; `admin slowlog` dumps it with full stage spans and
work counters (nodes expanded/pruned, DP columns, hits, generation,
WAL fsyncs in flight). Remote commands bound connection
setup with --timeout-ms (default 10000; 0 waits forever; given
explicitly, it also bounds every response wait). See
docs/OBSERVABILITY.md for the full metric and stage taxonomy.

Defaults: --protein for `index build`, --matrix unit on a DNA index and
pam30 on a protein one, --gap -10, --evalue 10, --pool-mb 64, --shards 1
and --block-size 2048 for `index build`, --queue 64 and --workers = all
cores for `serve`.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("index") => cmd_index(&args[1..]),
        Some("search") => cmd_search(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("admin") => cmd_admin(&args[1..]),
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
    matrix: Option<String>,
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

    /// Check the index-shape flags `index build` and `index append`
    /// share before either reads a FASTA, opens an artifact or writes
    /// the WAL: `--shards` at least 1, and `--block-size` at least 64 and
    /// a multiple of 16 (the storage layout's rule).
    fn check_shape(&self) -> Result<(), String> {
        if self.shards == Some(0) {
            return Err("--shards must be at least 1".to_string());
        }
        match self.block_size {
            Some(bs) if bs < 64 || !bs.is_multiple_of(16) => Err(format!(
                "--block-size must be at least 64 and a multiple of 16 (got {bs})"
            )),
            _ => Ok(()),
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
        matrix: None,
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
            "--matrix" => f.matrix = Some(value(&mut it, "--matrix")?),
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
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
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

/// The scoring under the artifact's alphabet (`flags.alphabet`):
/// `--matrix`, by default `unit` for DNA and `pam30` for protein.
fn scoring_from(flags: &Flags) -> Result<Scoring, String> {
    let kind = flags.alphabet.kind();
    let name = flags.matrix.as_deref().unwrap_or(match kind {
        AlphabetKind::Dna => "unit",
        AlphabetKind::Protein => "pam30",
    });
    let matrix = match name {
        "unit" => SubstitutionMatrix::unit(kind),
        "blosum62" => SubstitutionMatrix::blosum62(),
        "pam30" => SubstitutionMatrix::pam30(),
        other => return Err(format!("unknown matrix {other} (unit|blosum62|pam30)")),
    };
    if matrix.kind() != kind {
        return Err(format!(
            "matrix {name} is a protein matrix and the index is DNA; use --matrix unit"
        ));
    }
    if flags.gap >= 0 {
        return Err("--gap must be negative".to_string());
    }
    Ok(Scoring::new(matrix, GapModel::linear(flags.gap)))
}

fn cmd_index(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("build") => cmd_index_build(&args[1..]),
        Some("inspect") => cmd_index_inspect(&args[1..]),
        Some("append") => cmd_index_append(&args[1..]),
        _ => Err("usage: oasis index build|inspect|append ...".to_string()),
    }
}

/// Build the whole index — N balanced shard trees over the database —
/// and persist it as an artifact directory that `search --index` loads
/// instead of rebuilding.
fn cmd_index_build(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let [db_path] = flags.positional.as_slice() else {
        return Err(
            "usage: oasis index build <db.fasta> --out <dir> [--shards N] [...]".to_string(),
        );
    };
    let out = flags
        .out
        .as_deref()
        .ok_or("index build requires --out <dir>")?;
    flags.check_shape()?;
    let backend = flags.index_backend()?;
    let db = load_db(db_path, &flags.alphabet)?;
    eprintln!(
        "parsed {} sequences / {} residues",
        db.num_sequences(),
        db.total_residues()
    );
    let (shards, block_size) = (flags.shards.unwrap_or(1), flags.block_size.unwrap_or(2048));
    let start = std::time::Instant::now();
    let manifest =
        oasis::engine::build_index_artifact(&db, Path::new(out), shards, block_size, backend)
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
    flags.check_shape()?;
    let options = flags.live_options()?;
    // The artifact's alphabet is authoritative (as on every other
    // artifact path); the scoring only shapes the in-process snapshot
    // the append validates the layered merge with.
    let live = Artifact::read(&mut flags, &dir)?.open_live(&flags, options)?;
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

/// The validated score flags: `--min-score` (at least 1) or `--evalue`
/// (finite and positive, default 10). The local and the remote search
/// both go through here, so a bad flag fails with the same wording on
/// either path, before an index is opened or a server is connected.
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

/// Report a run's buffer-pool traffic on stderr — the pool counters'
/// change across the query (or the batch), i.e. the paper's Figure 8
/// hit-ratio metric.
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

/// An index artifact directory read for searching, appending or serving:
/// its manifest and the scoring. The artifact is self-contained, so no
/// FASTA path is needed, and its alphabet overrides `--dna`/`--protein`:
/// the scoring is derived under it.
struct Artifact<'a> {
    dir: &'a str,
    manifest: oasis::storage::IndexManifest,
    scoring: Scoring,
}

impl<'a> Artifact<'a> {
    fn read(flags: &mut Flags, dir: &'a str) -> Result<Self, String> {
        let manifest = read_manifest(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
        let kind = manifest
            .alphabet_kind(Path::new(dir))
            .map_err(|e| format!("{dir}: {e}"))?;
        flags.alphabet = Alphabet::of_kind(kind);
        Ok(Artifact {
            dir,
            manifest,
            scoring: scoring_from(flags)?,
        })
    }

    fn path(&self) -> &Path {
        Path::new(self.dir)
    }

    /// `--pool-mb` only sizes the buffer pool behind a disk-resident
    /// index; multi-shard backends are in-memory and never touch a pool.
    /// Passing it there deserves a warning, not silence.
    fn warn_pool_mb_ignored(&self, flags: &Flags) {
        if flags.pool_mb.is_some() && !opens_disk_resident(&self.manifest) {
            eprintln!(
                "warning: --pool-mb is ignored: multi-shard indexes are served \
                 in-memory and do not use the buffer pool"
            );
        }
    }

    /// Open the artifact's live index: the base by `open_artifact_engine`'s
    /// policy (a single tree shard disk-resident through a buffer pool of
    /// `--pool-mb`, anything else in memory), adopted by the directory's
    /// `LiveIndex`, which replays any appends pending in the WAL.
    fn open_live(&self, flags: &Flags, options: LiveIndexOptions) -> Result<LiveIndex, String> {
        self.warn_pool_mb_ignored(flags);
        let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", self.dir);
        let db = self
            .manifest
            .load_database(self.path())
            .map_err(|e| fail(&e))?;
        let engine = open_artifact_engine(
            self.path(),
            &self.manifest,
            Arc::new(db),
            self.scoring.clone(),
            flags.pool_bytes(),
        )
        .map_err(|e| fail(&e))?;
        LiveIndex::adopt(self.path(), &self.manifest, engine, options).map_err(|e| fail(&e))
    }
}

/// Open the artifact in `dir` for `search --index`: its live index's
/// snapshot, which sees every durably appended sequence byte-identically
/// to a full rebuild over the concatenated database.
fn open_search_engine(flags: &mut Flags, dir: &str) -> Result<Arc<ShardedEngine>, String> {
    let start = std::time::Instant::now();
    let artifact = Artifact::read(flags, dir)?;
    let live = artifact.open_live(flags, LiveIndexOptions::default())?;
    let manifest = &artifact.manifest;
    let layout = if opens_disk_resident(manifest) {
        "1 shard, disk-resident through the buffer pool".to_string()
    } else {
        let all_tree = manifest
            .shards
            .iter()
            .all(|s| s.kind == oasis::storage::SectionKind::TreeImage);
        let kind = if all_tree { "tree" } else { "esa" };
        format!(
            "{} {kind} shard(s), in-memory fan-out",
            manifest.shards.len()
        )
    };
    let delta = match live.stats().delta_seqs {
        0 => String::new(),
        n => format!(" + live delta of {n} sequence(s) replayed from the wal"),
    };
    eprintln!(
        "index artifact: {layout}{delta} (loaded in {:.2?})",
        start.elapsed()
    );
    Ok(live.snapshot())
}

fn cmd_search(args: &[String]) -> Result<(), String> {
    let mut flags = parse_flags(args)?;
    let dir = flags
        .index
        .clone()
        .ok_or("search requires --index <dir> (build one with `oasis index build`)")?;
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
    let rule = score_rule(&flags)?;
    let engine = open_search_engine(&mut flags, &dir)?;
    // Estimated once for the run, as the server does at bind.
    let karlin = KarlinParams::for_matrix(&engine.scoring().matrix).ok();
    let karlin = karlin.as_ref();
    match (flags.positional.as_slice(), &flags.queries) {
        ([query_text], None) => search_single(&flags, rule, karlin, &engine, query_text),
        ([], Some(path)) => search_batch(&flags, rule, karlin, &engine, path),
        _ => Err("usage: oasis search --index <dir> <QUERY> [...]\n\
             or:    oasis search --index <dir> --queries <queries.fasta> [...]"
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

/// The job of one local query: the request `query --remote` would send,
/// resolved by the server's own
/// [`SearchRequest::resolve`](oasis::net::SearchRequest::resolve), so the
/// two paths cannot derive different jobs.
fn local_job(
    flags: &Flags,
    rule: ScoreRule,
    karlin: Option<&KarlinParams>,
    engine: &ShardedEngine,
    id: &str,
    query_text: &str,
) -> Result<BatchQuery, String> {
    search_request(flags, rule, id, query_text)?
        .resolve(engine.db(), karlin)
        .map_err(|refusal| refusal.message)
}

/// One query: stream hits online (respecting `--top`) through an engine
/// session, then report the pool traffic it caused — on the drained *and*
/// the `--top` early-exit path alike.
fn search_single(
    flags: &Flags,
    rule: ScoreRule,
    karlin: Option<&KarlinParams>,
    engine: &ShardedEngine,
    query_text: &str,
) -> Result<(), String> {
    if query_text.is_empty() {
        return Err("query is empty — nothing to search".to_string());
    }
    let job = local_job(flags, rule, karlin, engine, "q", query_text)?;
    eprintln!("minScore = {}", job.params.min_score);

    let start = std::time::Instant::now();
    let pool_before = engine.pool_stats();
    let shown = print_hits(
        engine.db(),
        engine.session(&job.query, &job.params),
        job.limit.unwrap_or(usize::MAX),
    );
    eprintln!("{shown} hits in {:.2?}", start.elapsed());
    report_pool(&engine.pool_stats().since(&pool_before));
    Ok(())
}

/// A FASTA of queries: run the whole batch concurrently over the shared
/// index and print per-query results keyed by record name.
fn search_batch(
    flags: &Flags,
    rule: ScoreRule,
    karlin: Option<&KarlinParams>,
    engine: &ShardedEngine,
    queries_path: &str,
) -> Result<(), String> {
    let db = engine.db();
    let bytes = std::fs::read(queries_path).map_err(|e| format!("{queries_path}: {e}"))?;
    // Queries use Reject, matching the positional-QUERY path (encode_str):
    // silently skipping residues would search a different sequence.
    let records = parse_fasta(
        BufReader::new(&bytes[..]),
        db.alphabet(),
        UnknownResiduePolicy::Reject,
    )
    .map_err(|e| format!("{queries_path}: {e}"))?;
    if records.is_empty() {
        return Err(format!("{queries_path}: no query records"));
    }
    let jobs = records
        .iter()
        .map(|seq| {
            let text = db.alphabet().decode_all(seq.codes());
            local_job(flags, rule, karlin, engine, seq.name(), &text)
        })
        .collect::<Result<Vec<_>, _>>()?;

    let threads = match flags.threads {
        Some(threads) => threads.max(1),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    eprintln!(
        "{} queries on {} thread(s)",
        jobs.len(),
        threads.min(jobs.len())
    );
    let start = std::time::Instant::now();
    let pool_before = engine.pool_stats();
    let outcomes = engine.run_batch_on(&jobs, threads);
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
    report_pool(&engine.pool_stats().since(&pool_before));
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
    out.push_str(&format!(
        "  \"version\": {},\n",
        oasis::storage::ARTIFACT_VERSION
    ));
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
    println!("version:       {}", oasis::storage::ARTIFACT_VERSION);
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
    // Opened by the same policy as the local `search --index` path; the
    // scoring is fixed for the server's life. `admin append` WAL-logs
    // into the directory the current generation serves.
    let artifact = Artifact::read(&mut flags, &dir)?;
    artifact.warn_pool_mb_ignored(&flags);
    let served = ServedIndex::from_artifact(
        artifact.path(),
        artifact.scoring.clone(),
        flags.pool_bytes(),
    )
    .map_err(|e| format!("{dir}: {e}"))?;
    let num_seqs = served.db().num_sequences();
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
    // The server's defaults, overridden by the flags given.
    let defaults = oasis::net::ServerConfig::default();
    let config = oasis::net::ServerConfig {
        workers: flags.workers.unwrap_or(defaults.workers),
        queue_capacity: flags.queue.unwrap_or(defaults.queue_capacity),
        pool_bytes: flags.pool_bytes(),
        compact_after: flags.compact_after.unwrap_or(defaults.compact_after),
        max_conns: flags.max_conns.unwrap_or(defaults.max_conns),
        metrics_addr,
        slow_ms: flags.slow_ms.unwrap_or(defaults.slow_ms),
    };
    let server = oasis::net::OasisServer::bind(addr.as_str(), served, artifact.scoring, config)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "serving {dir}: {} sequences, {} shard(s), queue capacity {}, \
         live ingestion enabled ({})",
        num_seqs,
        artifact.manifest.shards.len(),
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

/// The search request a set of flags describes, shared by the local and
/// remote paths, single and batch; `rule` is the [`score_rule`] checked
/// before any index is opened or server connected.
fn search_request(
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
    let req = search_request(flags, rule, "q", query_text)?;
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
        let req = search_request(flags, rule, &name, &text)?;
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
                    "#{}  len {}  total {:.2?}  gen {}",
                    e.id,
                    e.query_len,
                    us(e.total_us),
                    e.generation
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
