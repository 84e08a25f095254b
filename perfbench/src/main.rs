//! Benchmark harness for the oasis server.
//!
//! ```text
//! oasis-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                 --oasis <oasis binary> --work <scratch dir> --ledger <dir>
//!                 [--spans <file>]
//! ```
//!
//! Generates seeded inputs, runs `oasis index build` + `oasis serve` as
//! child processes, drives one workload over loopback TCP, checks every
//! answer against the library's in-process answer, and prints one JSON
//! object as its last stdout line. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` makes a separate traced pass plus in-process
//! layer probes and prints the per-layer metrics. See README.md.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_align::{background_protein, KarlinParams, Score, Scoring};
use oasis_bioseq::SequenceDatabase;
use oasis_core::{Hit, OasisParams, SearchStats};
use oasis_engine::{BatchQuery, ShardedEngine};
use oasis_net::{MetricsReport, SearchRequest, StatsReport};

use oasis_perfbench::inputs;
use oasis_perfbench::oracle;
use oasis_perfbench::spans::Tracer;
use oasis_perfbench::stats::{self, median};
use oasis_perfbench::steal::{self, StealLog};

mod load;
mod probe;
mod server;

use load::{ms, AppendSample, QuerySample};

/// Set-ups of the set-up database per untraced run; `setup_s` is their
/// median.
const SETUP_REPEATS: usize = 5;
/// Appends sent back to back, closed loop, after the query phase of
/// `short_uncached` (they give `append_ack_p50_ms` there). Sent at a low
/// rate instead, each would wait for the idle server's event loop to
/// wake, which varied with the host's load more than anything the server
/// does.
const BURST_APPENDS: usize = 120;
/// The rate of the open-loop appends beside the queries (`ingest_mixed`).
const INGEST_APPEND_HZ: f64 = 20.0;
/// Fewest timed queries: p95 needs ten samples beyond it.
const MIN_TIMED: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    ShortUncached,
    IngestMixed,
}

/// How a query's minScore is chosen.
#[derive(Debug, Clone, Copy)]
enum Rule {
    Evalue(f64),
    MinScore(Score),
}

/// One workload's fixed shape; operation counts scale with `--seconds`.
#[derive(Debug, Clone, Copy)]
struct Config {
    kind: Kind,
    rule: Rule,
    /// Timed queries per requested second.
    queries_per_second: f64,
    /// Untimed queries before the timed phase.
    warmup: usize,
    /// Timed appends per requested second (`ingest_mixed`).
    appends_per_second: f64,
    /// `--compact-after` for the server.
    compact_after: Option<u32>,
}

fn config(name: &str) -> Option<Config> {
    let short = Config {
        kind: Kind::ShortUncached,
        rule: Rule::Evalue(10.0),
        queries_per_second: 100.0,
        warmup: 20,
        appends_per_second: 0.0,
        compact_after: None,
    };
    Some(match name {
        "short_uncached" => short,
        "ingest_mixed" => Config {
            kind: Kind::IngestMixed,
            rule: Rule::MinScore(30),
            queries_per_second: 100.0,
            appends_per_second: 40.0,
            compact_after: Some(50),
            ..short
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    oasis: PathBuf,
    work: PathBuf,
    ledger: PathBuf,
    spans: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut map: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| {
        map.get(k)
            .cloned()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let num = |k: &str, default: u64| -> Result<u64, String> {
        map.get(k).map_or(Ok(default), |v| {
            v.parse().map_err(|e| format!("--{k}: {e}"))
        })
    };
    let args = Args {
        workload: get("workload")?,
        seed: num("seed", inputs::DEFAULT_SEED)?,
        seconds: num("seconds", 10)?.max(1),
        trace: match map.get("trace").map(String::as_str) {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
        oasis: PathBuf::from(get("oasis")?),
        work: PathBuf::from(get("work")?),
        ledger: PathBuf::from(get("ledger")?),
        spans: map.get("spans").map(PathBuf::from),
    };
    let known = [
        "workload", "seed", "seconds", "trace", "oasis", "work", "ledger", "spans",
    ];
    if let Some(k) = map.keys().find(|k| !known.contains(&k.as_str())) {
        return Err(format!("unknown flag --{k}"));
    }
    Ok(args)
}

/// Everything generated from the seed, plus the oracle's answers.
struct Inputs {
    db: Arc<SequenceDatabase>,
    scoring: Scoring,
    /// The artifact the server serves, built once, untimed.
    artifact: PathBuf,
    /// The set-up database and its FASTA (`setup_s`).
    setup_db: Arc<SequenceDatabase>,
    setup_fasta: PathBuf,
    /// Distinct queries with their minScore and oracle answer.
    distinct: Vec<Oracle>,
    /// Timed stream, as indices into `distinct`.
    timed: Vec<usize>,
    /// Warm-up stream, as indices into `distinct`.
    warmup: Vec<usize>,
    /// Sequences appended during the run, with their FASTA records.
    appends: Vec<(String, Vec<u8>)>,
    append_fasta: Vec<String>,
}

struct Oracle {
    query: Vec<u8>,
    min_score: Score,
    request: SearchRequest,
    hits: Vec<Hit>,
    stats: SearchStats,
}

fn make_inputs(cfg: &Config, args: &Args) -> Result<Inputs, String> {
    let workload = inputs::database();
    let db = workload.db.clone();
    let scoring = Scoring::pam30_protein();
    let fasta = args.work.join("db.fa");
    std::fs::write(&fasta, inputs::fasta(&db)).map_err(|e| e.to_string())?;
    let artifact = args.work.join("artifact");
    server::build(&args.oasis, &fasta, &artifact)?;
    let setup_db = oasis_workloads::generate_protein(&inputs::setup_database_spec()).db;
    let setup_fasta = args.work.join("setup.fa");
    std::fs::write(&setup_fasta, inputs::fasta(&setup_db)).map_err(|e| e.to_string())?;

    let timed_count =
        ((cfg.queries_per_second * args.seconds as f64).ceil() as usize).max(MIN_TIMED);
    let mut seen = HashSet::new();
    let qseed = inputs::Rng::new(args.seed, 2).next_u64();
    let n = cfg.warmup + timed_count;
    let queries = inputs::distinct_queries(&workload, n, qseed, &mut seen);
    let (timed, warmup) = ((cfg.warmup..n).collect(), (0..cfg.warmup).collect());
    let karlin = KarlinParams::estimate(&scoring.matrix, &background_protein())
        .map_err(|e| format!("PAM30 statistics: {e:?}"))?;
    let alphabet = db.alphabet().clone();
    let jobs: Vec<(Vec<u8>, Score, SearchRequest)> = queries
        .into_iter()
        .map(|q| {
            let text = alphabet.decode_all(&q);
            let (min_score, request) = match cfg.rule {
                Rule::Evalue(e) => (
                    karlin.min_score_for_evalue(q.len() as u64, db.total_residues(), e),
                    SearchRequest::new(text).with_evalue(e),
                ),
                Rule::MinScore(s) => (s, SearchRequest::new(text).with_min_score(s)),
            };
            (q, min_score, request)
        })
        .collect();
    // The oracle: the library's in-process answer, before anything is
    // timed. Hits are identical for any shard count; one shard is fastest.
    let engine = ShardedEngine::build(db.clone(), scoring.clone(), 1);
    let batch: Vec<BatchQuery> = jobs
        .iter()
        .map(|(q, s, _)| BatchQuery::new(q.clone(), OasisParams::with_min_score(*s)))
        .collect();
    let outcomes = engine.run_batch(&batch);
    let distinct = jobs
        .into_iter()
        .zip(outcomes)
        .map(|((query, min_score, request), out)| Oracle {
            query,
            min_score,
            request,
            hits: out.hits,
            stats: out.stats,
        })
        .collect();

    // The traced run needs a p95 of generator lag, so 200+ appends.
    let append_count = match cfg.kind {
        Kind::IngestMixed => {
            ((cfg.appends_per_second * args.seconds as f64).ceil() as usize).max(MIN_TIMED)
        }
        _ if args.trace => MIN_TIMED,
        _ => BURST_APPENDS,
    };
    let appends = inputs::appended_sequences(&db, append_count, args.seed, "appended_");
    let append_fasta = appends
        .iter()
        .map(|(name, codes)| {
            let mut s = String::new();
            inputs::push_record(&mut s, name, codes, &alphabet);
            s
        })
        .collect();
    Ok(Inputs {
        db,
        scoring,
        artifact,
        setup_db,
        setup_fasta,
        distinct,
        timed,
        warmup,
        appends,
        append_fasta,
    })
}

/// The server's flags for this workload (defaults otherwise).
fn serve_args(cfg: &Config) -> Vec<String> {
    match cfg.compact_after {
        Some(n) => vec!["--compact-after".to_string(), n.to_string()],
        None => Vec::new(),
    }
}

/// The timed phase against a server started on the artifact, then (on
/// `short_uncached`) the append burst.
struct Pass {
    queries: Vec<QuerySample>,
    /// The concurrent appends on `ingest_mixed`, the burst on
    /// `short_uncached`.
    appends: Vec<AppendSample>,
    /// When the timed query stream started and ended.
    query_span: (Instant, Instant),
    /// Admin reports at the start and end of the timed phase.
    metrics: (MetricsReport, MetricsReport),
    stats: (StatsReport, StatsReport),
    /// Admin `stats` once the appends are in.
    final_stats: StatsReport,
    /// Sequences a fresh connection is told the server holds at the end.
    served_seqs: usize,
    peak_rss_mb: f64,
    /// Artifact bytes: before the burst on `short_uncached`;
    /// the final artifact plus WAL on `ingest_mixed`.
    index_bytes: u64,
}

fn requests(inp: &Inputs, order: &[usize]) -> Vec<SearchRequest> {
    order
        .iter()
        .map(|&i| {
            let req = &inp.distinct[i].request;
            req.clone().with_id(i.to_string())
        })
        .collect()
}

fn run_pass(cfg: &Config, inp: &Inputs, args: &Args) -> Result<Pass, String> {
    let dir = args.work.join("served");
    server::copy_artifact(&inp.artifact, &dir)?;
    let log = args.work.join("serve.log");
    let srv = server::serve(&args.oasis, &dir, &serve_args(cfg), &log)?;
    let addr = srv.addr;
    let warm = requests(inp, &inp.warmup);
    for (s, &i) in load::closed_loop(addr, &warm)?.iter().zip(&inp.warmup) {
        if let Some(e) = &s.error {
            return Err(format!("warm-up query {i} failed: {e}"));
        }
    }
    let mut admin = srv.client()?;
    let m0 = admin.metrics().map_err(|e| e.to_string())?;
    let s0 = admin.stats().map_err(|e| e.to_string())?;
    let timed = requests(inp, &inp.timed);
    let start = Instant::now();
    let (queries, concurrent) = match cfg.kind {
        Kind::IngestMixed => std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                load::appends(addr, &inp.append_fasta, Some((INGEST_APPEND_HZ, start)))
            });
            let queries = load::closed_loop(addr, &timed);
            let appends = writer
                .join()
                .map_err(|_| "append thread panicked".to_string())?;
            Ok::<_, String>((queries?, appends?))
        })?,
        _ => (load::closed_loop(addr, &timed)?, Vec::new()),
    };
    let query_span = match (queries.first(), queries.last()) {
        (Some(a), Some(b)) => (a.send, b.done),
        _ => return Err("no timed queries".to_string()),
    };
    let m1 = admin.metrics().map_err(|e| e.to_string())?;
    let s1 = admin.stats().map_err(|e| e.to_string())?;
    let (appends, artifact_bytes) = match cfg.kind {
        Kind::IngestMixed => (concurrent, None),
        _ => {
            let bytes = server::dir_bytes(&dir)?;
            (load::appends(addr, &inp.append_fasta, None)?, Some(bytes))
        }
    };
    let final_stats = admin.stats().map_err(|e| e.to_string())?;
    drop(admin);
    let served_seqs = srv.client()?.hello().num_seqs as usize;
    let peak_rss_mb = srv.peak_rss_mb()?;
    srv.shutdown()?;
    let index_bytes = match artifact_bytes {
        Some(b) => b,
        None => server::dir_bytes(&dir)?,
    };
    Ok(Pass {
        queries,
        appends,
        query_span,
        metrics: (m0, m1),
        stats: (s0, s1),
        final_stats,
        served_seqs,
        peak_rss_mb,
        index_bytes,
    })
}

/// Check every timed response; returns the number that verified and the
/// first failure.
fn verify(cfg: &Config, inp: &Inputs, pass: &Pass) -> (usize, Option<String>) {
    let appended: HashMap<String, Vec<u8>> = inp.appends.iter().cloned().collect();
    let mut ok = 0;
    let mut first = None;
    for (k, (s, &i)) in pass.queries.iter().zip(&inp.timed).enumerate() {
        let o = &inp.distinct[i];
        let result = match &s.error {
            Some(e) => Err(e.clone()),
            None if s.done_hits as usize != s.hits.len() => Err(format!(
                "Done counts {} hits, {} arrived",
                s.done_hits,
                s.hits.len()
            )),
            None if cfg.kind == Kind::IngestMixed => oracle::check_ingest(
                &o.query,
                &s.hits,
                &o.hits,
                &inp.db,
                &appended,
                &inp.scoring,
                o.min_score,
            ),
            None => oracle::check_exact(&o.hits, &s.hits, &inp.db),
        };
        match result {
            Ok(()) => ok += 1,
            Err(e) => {
                first.get_or_insert(format!("timed query {k}: {e}"));
            }
        }
    }
    (ok, first)
}

/// The workload's own conditions, and the append stream's.
fn pass_problems(cfg: &Config, inp: &Inputs, pass: &Pass) -> Vec<String> {
    let mut problems = Vec::new();
    if let Some(e) = pass.appends.iter().find_map(|a| a.error.as_ref()) {
        problems.push(format!("append failed: {e}"));
    }
    match cfg.kind {
        // Every acknowledged append served, at least three compactions.
        Kind::IngestMixed => {
            problems.extend(generator_behind(&pass.appends, INGEST_APPEND_HZ));
            let acked = pass.appends.iter().filter(|a| a.error.is_none()).count();
            let want = inp.db.num_sequences() as usize + acked;
            if pass.served_seqs != want {
                problems.push(format!(
                    "serving {} sequences after {acked} acknowledged appends, want {want}",
                    pass.served_seqs
                ));
            }
            if pass.final_stats.compactions < 3 {
                problems.push(format!(
                    "{} compactions, want at least 3",
                    pass.final_stats.compactions
                ));
            }
        }
        Kind::ShortUncached => {}
    }
    problems
}

/// The open-loop generator fell behind its schedule when more than 5%
/// of its sends went out over one send interval late.
fn generator_behind(appends: &[AppendSample], hz: f64) -> Option<String> {
    let late = appends.iter().filter(|a| a.lag_ms() > 1e3 / hz).count();
    (late * 20 > appends.len()).then(|| {
        format!(
            "append generator fell behind: {late} of {} sends over {:.0} ms late",
            appends.len(),
            1e3 / hz
        )
    })
}

fn p(samples: &[f64], pct: f64, what: &str) -> Result<f64, String> {
    stats::percentile(samples, pct)
        .ok_or_else(|| format!("{what}: {} samples are too few for p{pct}", samples.len()))
}

/// Metric name → (value, unit), printed in insertion order.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self, correct: bool, attempted: usize, failed: usize) -> Result<String, String> {
        let mut body = Vec::new();
        for (name, value, unit) in &self.metrics {
            if !value.is_finite() {
                return Err(format!("{name} is not finite ({value})"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}

/// The timing-independent work counts of one run: what was sent, the
/// oracle's search work for it, and what the server itself reported
/// doing in the timed phase.
fn ledger(cfg: &Config, inp: &Inputs, pass: &Pass) -> BTreeMap<&'static str, u64> {
    let mut l = BTreeMap::new();
    let base = inp.db.num_sequences();
    let mut add = |k, v| *l.entry(k).or_insert(0) += v;
    add("queries", inp.timed.len() as u64);
    for &i in &inp.timed {
        let st = &inp.distinct[i].stats;
        add("columns", st.columns_expanded);
        add("nodes_expanded", st.nodes_expanded);
        add("nodes_enqueued", st.nodes_enqueued);
        add("nodes_pruned", st.nodes_pruned);
    }
    for s in &pass.queries {
        add(
            "base_hits",
            s.hits.iter().filter(|h| h.seq < base).count() as u64,
        );
        // On ingest_mixed the hits on appended sequences depend on
        // timing; elsewhere every hit the server counted is.
        if cfg.kind != Kind::IngestMixed {
            add("server_done_hits", u64::from(s.done_hits));
        }
    }
    add(
        "appends_acknowledged",
        pass.appends.iter().filter(|a| a.error.is_none()).count() as u64,
    );
    let (m0, m1) = &pass.metrics;
    add("server_served", m1.served - m0.served);
    add("server_cache_hits", m1.cache_hits - m0.cache_hits);
    add("server_cache_misses", m1.cache_misses - m0.cache_misses);
    l
}

/// Compare this run's counts with an earlier run of the same seed, or
/// record them. Returns a mismatch description.
fn check_ledger(
    args: &Args,
    counts: &BTreeMap<&'static str, u64>,
) -> Result<Option<String>, String> {
    let text: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    eprintln!("work ledger:\n{text}");
    std::fs::create_dir_all(&args.ledger).map_err(|e| e.to_string())?;
    // Keyed by the binaries too: a rebuilt program may do different work.
    let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    for bin in [&args.oasis, &me] {
        let bytes = std::fs::read(bin).map_err(|e| format!("{}: {e}", bin.display()))?;
        for b in bytes {
            fingerprint = (fingerprint ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    let path = args.ledger.join(format!(
        "{}-seed{}-s{}-t{}-{fingerprint:016x}.txt",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev != text => Ok(Some(format!(
            "work counts differ from an earlier run of this seed ({})",
            path.display()
        ))),
        Ok(_) => Ok(None),
        Err(_) => {
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
            Ok(None)
        }
    }
}

/// Log how long a phase of the run took.
fn phase(name: &str, since: Instant) {
    eprintln!("phase {name}: {:.2} s", since.elapsed().as_secs_f64());
}

/// `setup_s` samples: index build of the set-up database until the
/// server listens, each on a fresh directory, each server shut down.
/// Returns each set-up's start and end.
fn setups(inp: &Inputs, args: &Args) -> Result<Vec<(Instant, Instant)>, String> {
    let mut spans = Vec::with_capacity(SETUP_REPEATS);
    for r in 0..SETUP_REPEATS {
        let index = args.work.join(format!("setup-{r}"));
        let log = args.work.join(format!("setup-{r}.log"));
        let t0 = Instant::now();
        let (srv, _) = server::start(&args.oasis, &inp.setup_fasta, &index, &[], &log)?;
        spans.push((t0, Instant::now()));
        srv.shutdown()?;
        let _ = std::fs::remove_dir_all(&index);
    }
    Ok(spans)
}

fn run(args: &Args) -> Result<String, String> {
    let cfg = config(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload {:?} (short_uncached|ingest_mixed)",
            args.workload
        )
    })?;
    std::fs::create_dir_all(&args.work).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let inp = make_inputs(&cfg, args)?;
    phase("inputs, oracle and artifact", t0);
    let sampler = steal::Sampler::start()?;
    let t0 = Instant::now();
    let setup = if args.trace {
        Vec::new()
    } else {
        setups(&inp, args)?
    };
    phase("set-ups", t0);
    // Span timestamps count from here, before anything they cover.
    let tracer = Tracer::new();
    let t0 = Instant::now();
    let pass = run_pass(&cfg, &inp, args)?;
    phase("timed pass", t0);

    let (verified, failure) = verify(&cfg, &inp, &pass);
    let attempted = pass.queries.len() + pass.appends.len();
    let ok = verified + pass.appends.iter().filter(|a| a.error.is_none()).count();
    let mut problems: Vec<String> = failure.into_iter().collect();
    problems.extend(pass_problems(&cfg, &inp, &pass));
    if let Some(m) = check_ledger(args, &ledger(&cfg, &inp, &pass))? {
        problems.push(m);
    }
    let report = if args.trace {
        per_layer(&inp, args, &pass, &sampler, tracer)?
    } else {
        let ok_share = ok as f64 / attempted as f64;
        let raw = end_to_end(&cfg, &inp, &setup, &pass, ok_share, &StealLog::default())?;
        eprintln!("unadjusted for steal: {}", raw.json(true, attempted, attempted - ok)?);
        end_to_end(&cfg, &inp, &setup, &pass, ok_share, &sampler.log())?
    };
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    let correct = problems.is_empty() && ok == attempted;
    report.json(correct, attempted, attempted - ok)
}

/// The part of `from..to` the machine's processes had the CPU for, by the
/// steal share of the sampled windows covering it.
fn kept(steal: &StealLog, from: Instant, to: Instant) -> f64 {
    1.0 - steal.share(from, to)
}

/// Timed query latencies, ms, and first-hit times of the queries with
/// hits, each adjusted for steal over its own interval.
fn latencies(pass: &Pass, steal: &StealLog) -> (Vec<f64>, Vec<f64>) {
    let mut lat = Vec::with_capacity(pass.queries.len());
    let mut first = Vec::with_capacity(pass.queries.len());
    for s in &pass.queries {
        let f = kept(steal, s.send, s.done);
        lat.push(s.latency_ms() * f);
        if let Some(t) = s.first_hit {
            first.push(ms(t - s.send) * f);
        }
    }
    (lat, first)
}

/// The end-to-end metrics, every timing adjusted for hypervisor steal
/// over its own interval. An empty `steal` log leaves them as measured.
fn end_to_end(
    cfg: &Config,
    inp: &Inputs,
    setup: &[(Instant, Instant)],
    pass: &Pass,
    ok_share: f64,
    steal: &StealLog,
) -> Result<Report, String> {
    let (lat, first) = latencies(pass, steal);
    let acks: Vec<f64> = pass
        .appends
        .iter()
        .filter(|a| a.error.is_none())
        .map(|a| a.ack_ms() * kept(steal, a.intended, a.acked))
        .collect();
    let (from, to) = pass.query_span;
    let throughput = lat.len() as f64 / ((to - from).as_secs_f64() * kept(steal, from, to));
    let setup_secs: Vec<f64> = setup
        .iter()
        .map(|&(a, b)| (b - a).as_secs_f64() * kept(steal, a, b))
        .collect();
    let residues = inp.db.total_residues() as f64;
    let bytes_per_residue = match cfg.kind {
        Kind::IngestMixed => {
            let appended: usize = pass
                .appends
                .iter()
                .zip(&inp.appends)
                .filter(|(sample, _)| sample.error.is_none())
                .map(|(_, (_, codes))| codes.len())
                .sum();
            pass.index_bytes as f64 / (residues + appended as f64)
        }
        _ => pass.index_bytes as f64 / residues,
    };

    let mut r = Report::default();
    r.put("setup_s", median(&setup_secs).expect("set-ups ran"), "s");
    r.put("throughput_qps", throughput, "1/s");
    r.put("query_p50_ms", p(&lat, 50.0, "query latency")?, "ms");
    r.put("query_p95_ms", p(&lat, 95.0, "query latency")?, "ms");
    r.put("query_n", lat.len() as f64, "count");
    r.put("first_hit_p50_ms", p(&first, 50.0, "first hit")?, "ms");
    r.put("ok_share", ok_share, "share");
    r.put("peak_rss_mb", pass.peak_rss_mb, "MiB");
    r.put("index_bytes_per_residue", bytes_per_residue, "bytes/residue");
    r.put("append_ack_p50_ms", p(&acks, 50.0, "append ack")?, "ms");
    Ok(r)
}

fn per_layer(
    inp: &Inputs,
    args: &Args,
    pass: &Pass,
    sampler: &steal::Sampler,
    mut tracer: Tracer,
) -> Result<Report, String> {
    // The load generators timestamp every operation in both modes; the
    // spans are built from those timestamps after the pass, so the timed
    // phase runs exactly as untraced. Span times are as measured, except
    // the two search times that explain `query_p50_ms` (service and
    // in-process run_one), which are adjusted for steal as it is;
    // `bench.steal_share` relates the others to the end-to-end figures.
    for (k, s) in pass.queries.iter().enumerate() {
        let req = tracer.record("net.request", s.send, s.done, None, k as u64);
        // The server reports how long it held the request (total) and how
        // long it executed (service); they end where the response ends.
        let end = s.done;
        let serving_start = end - Duration::from_micros(s.total_us);
        let serving = tracer.record("engine.serving", serving_start, end, Some(req), k as u64);
        let exec_start = end - Duration::from_micros(s.service_us.min(s.total_us));
        tracer.record("engine.execute", exec_start, end, Some(serving), k as u64);
    }
    for (k, a) in pass.appends.iter().enumerate() {
        tracer.record("net.append", a.intended, a.acked, None, k as u64);
    }
    let lag: Vec<f64> = pass.appends.iter().map(AppendSample::lag_ms).collect();

    // In-process probes, with no server running, over the timed queries.
    let probe_queries: Vec<(Vec<u8>, Score)> = inp
        .timed
        .iter()
        .map(|&i| (inp.distinct[i].query.clone(), inp.distinct[i].min_score))
        .collect();
    let t0 = Instant::now();
    let probes = probe::run(
        &probe::Subject {
            db: &inp.db,
            setup_db: &inp.setup_db,
            scoring: &inp.scoring,
            artifact: &inp.artifact,
        },
        &probe_queries,
        &inp.appends,
        &args.work,
        &mut tracer,
    )?;
    phase("probes", t0);
    let steal = sampler.log();
    let service: Vec<f64> = pass
        .queries
        .iter()
        .map(|s| s.service_us as f64 / 1e3 * kept(&steal, s.send, s.done))
        .collect();
    let run_one: Vec<f64> = probes
        .run_one
        .iter()
        .map(|&(a, b)| ms(b - a) * kept(&steal, a, b))
        .collect();

    let self_times = tracer.self_times_by_name();
    let self_ms = |name: &str| -> Vec<f64> {
        self_times
            .get(name)
            .map(|v| v.iter().map(|&ns| ns as f64 / 1e6).collect())
            .unwrap_or_default()
    };
    let (m0, m1) = &pass.metrics;
    let (s0, s1) = &pass.stats;
    let hits = m1.cache_hits - m0.cache_hits;
    let misses = m1.cache_misses - m0.cache_misses;
    let mut work = SearchStats::default();
    for &i in &inp.timed {
        let st = &inp.distinct[i].stats;
        work.nodes_expanded += st.nodes_expanded;
        work.nodes_enqueued += st.nodes_enqueued;
        work.nodes_pruned += st.nodes_pruned;
        work.columns_expanded += st.columns_expanded;
    }
    let n = pass.queries.len() as f64;
    let total_hits: usize = pass.queries.iter().map(|s| s.hits.len()).sum();

    let mut r = Report::default();
    r.put(
        "net.overhead_p50_ms",
        p(&self_ms("net.request"), 50.0, "net overhead")?,
        "ms",
    );
    r.put("net.hits_per_query", total_hits as f64 / n, "count");
    r.put("net.pipelined_peak", f64::from(m1.pipelined_peak), "count");
    r.put(
        "engine.serving.queue_wait_p50_ms",
        p(&self_ms("engine.serving"), 50.0, "queue wait")?,
        "ms",
    );
    r.put(
        "engine.serving.service_p50_ms",
        p(&service, 50.0, "service")?,
        "ms",
    );
    r.put(
        "engine.serving.rejected",
        (m1.rejected - m0.rejected) as f64,
        "count",
    );
    r.put(
        "engine.cache.hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        "ratio",
    );
    r.put(
        "engine.cache.evictions",
        (m1.cache_evictions - m0.cache_evictions) as f64,
        "count",
    );
    r.put(
        "engine.shard.run_one_p50_ms",
        p(&run_one, 50.0, "engine.shard.run_one")?,
        "ms",
    );
    r.put("engine.shard.fanout_ratio", probes.fanout_ratio, "ratio");
    r.put(
        "core.driver.nodes_expanded_per_query",
        work.nodes_expanded as f64 / n,
        "count",
    );
    r.put(
        "core.driver.nodes_enqueued_per_query",
        work.nodes_enqueued as f64 / n,
        "count",
    );
    let pruned_or_enqueued = (work.nodes_pruned + work.nodes_enqueued).max(1);
    r.put(
        "core.driver.prune_share",
        work.nodes_pruned as f64 / pruned_or_enqueued as f64,
        "ratio",
    );
    r.put("core.driver.ns_per_column", probes.ns_per_column, "ns");
    r.put(
        "core.expand.columns_per_query",
        work.columns_expanded as f64 / n,
        "count",
    );
    r.put("core.expand.cells_per_us", probes.cells_per_us, "cells/us");
    r.put("suffix.children_ns", probes.children_ns, "ns");
    r.put("storage.artifact.build_s", probes.build_s, "s");
    r.put("storage.artifact.load_s", probes.load_s, "s");
    r.put("storage.wal.append_p50_ms", probes.wal_append_p50_ms, "ms");
    r.put(
        "storage.wal.bytes_per_residue",
        probes.wal_bytes_per_residue,
        "bytes/residue",
    );
    r.put(
        "engine.layered.append_p50_ms",
        probes.layered_append_p50_ms,
        "ms",
    );
    r.put(
        "engine.layered.snapshot_p50_ms",
        probes.layered_append_p50_ms - probes.wal_append_p50_ms,
        "ms",
    );
    r.put(
        "engine.compactor.compaction_s",
        pass.final_stats.last_compaction_us as f64 / 1e6,
        "s",
    );
    r.put(
        "engine.compactor.compactions",
        pass.final_stats.compactions as f64,
        "count",
    );
    r.put(
        "engine.catalog.generations",
        (s1.generation - s0.generation) as f64,
        "count",
    );
    let (from, to) = pass.query_span;
    r.put("bench.steal_share", steal.share(from, to), "share");
    r.put(
        "bench.append_lag_p95_ms",
        p(&lag, 95.0, "append lag")?,
        "ms",
    );
    r.put("bench.samples", n, "count");

    if let Some(path) = &args.spans {
        std::fs::write(path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(r)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oasis-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("oasis-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
