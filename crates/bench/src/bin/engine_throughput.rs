//! Engine throughput and tail latency: queries/second of the concurrent
//! multi-query engine over the shared in-memory index (1 worker vs the
//! machine's available parallelism), the sharded fan-out engine at several
//! shard counts, and the serving front end's p50/p95/p99 submit-to-
//! completion latency — the serving metrics the ROADMAP's production goal
//! cares about (Kucherov's survey frames throughput over a fixed database
//! as *the* figure of merit for sequence-search services; tail latency is
//! what users of an *online* service actually feel).
//!
//! Also asserts the engines' defining property on every run: the
//! multi-threaded batch, every sharded configuration, and an engine
//! reconstituted from a persisted index artifact all return results
//! byte-identical to the serial single-index batch — and reports the
//! startup cost of a cold index build vs. loading that artifact, the
//! restart-time metric the index lifecycle exists to improve.

use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_bench::{banner, fmt_duration, mean_duration, print_table, Scale, Testbed};
use oasis_core::node::QueueEntry;
use oasis_core::{
    expand_reference, expand_with_rules, heuristic_vector, root_node, ExpandScratch, PruneRules,
    Status,
};
use oasis_engine::{
    AdmissionError, CompletionHook, IndexBackend, IndexCatalog, LatencySummary, QueryTicket,
    SearchOutcome, ServingConfig, ServingEngine, ShardedEngine,
};
use oasis_suffix::{EsaIndex, SuffixTreeAccess};
use oasis_workloads::{generate_queries, QuerySpec};

/// Which expand kernel the hot-path walk uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// The scalar Algorithm 3 transcription (`expand_reference`) — the
    /// kernel previous releases shipped.
    Reference,
    /// The production profile + two-pass + live-mask kernel.
    Fast,
}

/// One best-first query over `index` with an explicit kernel choice;
/// mirrors `OasisSearch` (first-report-wins per sequence). Returns the
/// reported `(sequence, score)` set so all four backend × kernel cells
/// can be asserted identical.
fn hot_path_query<T: SuffixTreeAccess + ?Sized>(
    index: &T,
    tb: &Testbed,
    query: &[u8],
    min_score: i32,
    kernel: Kernel,
    scratch: &mut ExpandScratch,
) -> Vec<(u32, i32)> {
    let h = heuristic_vector(query, &tb.scoring);
    let mut heap = BinaryHeap::new();
    if let Some(root) = root_node(query, &h, min_score) {
        heap.push(QueueEntry(root));
    }
    let mut columns = 0u64;
    let mut kids = Vec::new();
    let mut seq_no = 1u64;
    let mut reported = vec![false; tb.workload.db.num_sequences() as usize];
    let mut results = Vec::new();
    while let Some(QueueEntry(node)) = heap.pop() {
        match node.status {
            Status::Accepted => {
                let mut leaves = Vec::new();
                index.leaves_under(node.handle, &mut |p| leaves.push(p));
                leaves.sort_unstable();
                for p in leaves {
                    let s = tb.workload.db.seq_of_position(p);
                    if !reported[s as usize] {
                        reported[s as usize] = true;
                        results.push((s, node.gmax));
                    }
                }
            }
            Status::Viable => {
                index.children_into(node.handle, &mut kids);
                for &child in &kids {
                    let new = match kernel {
                        Kernel::Fast => expand_with_rules(
                            index,
                            &node,
                            child,
                            query,
                            &tb.scoring,
                            &h,
                            min_score,
                            seq_no,
                            scratch,
                            &mut columns,
                            PruneRules::default(),
                        ),
                        Kernel::Reference => expand_reference(
                            index,
                            &node,
                            child,
                            query,
                            &tb.scoring,
                            &h,
                            min_score,
                            seq_no,
                            scratch,
                            &mut columns,
                            PruneRules::default(),
                        ),
                    };
                    seq_no += 1;
                    if new.status != Status::Unviable {
                        heap.push(QueueEntry(new));
                    }
                }
            }
            Status::Unviable => unreachable!(),
        }
    }
    results.sort_unstable();
    results
}

/// Per-query samples for one backend × kernel cell over one query set.
fn hot_path_cell<T: SuffixTreeAccess + ?Sized>(
    index: &T,
    tb: &Testbed,
    queries: &[Vec<u8>],
    evalue: f64,
    kernel: Kernel,
) -> (Vec<Duration>, Vec<Vec<(u32, i32)>>) {
    let mut scratch = ExpandScratch::default();
    let mut samples = Vec::with_capacity(queries.len());
    let mut results = Vec::with_capacity(queries.len());
    for q in queries {
        let min = tb.min_score(q.len(), evalue);
        let start = Instant::now();
        let r = hot_path_query(index, tb, q, min, kernel, &mut scratch);
        samples.push(start.elapsed());
        results.push(r);
    }
    (samples, results)
}

/// All four backend × kernel cells over one query set, asserting every
/// cell reports result sets identical to the baseline cell.
fn hot_path_cells(
    tree: &oasis_suffix::SuffixTree,
    esa: &EsaIndex,
    tb: &Testbed,
    queries: &[Vec<u8>],
    evalue: f64,
) -> [(&'static str, Vec<Duration>); 4] {
    let (tr, tr_res) = hot_path_cell(tree, tb, queries, evalue, Kernel::Reference);
    let (tf, tf_res) = hot_path_cell(tree, tb, queries, evalue, Kernel::Fast);
    let (er, er_res) = hot_path_cell(esa, tb, queries, evalue, Kernel::Reference);
    let (ef, ef_res) = hot_path_cell(esa, tb, queries, evalue, Kernel::Fast);
    for (name, results) in [
        ("tree + fast kernel", &tf_res),
        ("esa + reference kernel", &er_res),
        ("esa + fast kernel", &ef_res),
    ] {
        assert_eq!(
            results, &tr_res,
            "{name}: hot-path results must match the baseline cell"
        );
    }
    [
        ("tree + reference kernel", tr),
        ("tree + fast kernel", tf),
        ("esa  + reference kernel", er),
        ("esa  + fast kernel", ef),
    ]
}

/// Print one backend × kernel latency table.
fn print_hot_table(title: &str, cells: &[(&'static str, Vec<Duration>); 4]) {
    let mut rows = Vec::new();
    for (name, samples) in cells {
        let l = LatencySummary::from_samples(samples);
        rows.push(vec![
            name.to_string(),
            fmt_duration(mean_duration(samples)),
            fmt_duration(l.p50),
            fmt_duration(l.p95),
            fmt_duration(l.p99),
        ]);
    }
    print_table(&[title, "mean", "p50", "p95", "p99"], &rows);
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// `"p50_us": 12.3, "p95_us": 45.6, "p99_us": 78.9, "max_us": 90.1` from a
/// sample set (hand-rolled JSON; the workspace carries no serializer).
fn json_latency(samples: &[Duration]) -> String {
    let l = LatencySummary::from_samples(samples);
    format!(
        "\"mean_us\": {:.1}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \
         \"max_us\": {:.1}",
        micros(mean_duration(samples)),
        micros(l.p50),
        micros(l.p95),
        micros(l.p99),
        micros(l.max)
    )
}

/// `"p50_us": …` from a histogram snapshot instead of raw samples.
fn json_hist(h: &oasis_obs::HistogramSnapshot) -> String {
    format!(
        "\"count\": {}, \"mean_us\": {}, \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \
         \"max_us\": {}",
        h.count,
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.95),
        h.quantile(0.99),
        h.max
    )
}

/// `--observability`: the tracing-overhead benchmark. The same query
/// stream runs through the serving front end in two configurations —
/// the plain `try_submit` path (a disabled trace rides along, every
/// recording call a no-op) and the fully traced path (a `QueryTrace`
/// per query collecting stage spans and work counters, exactly what
/// `oasis serve --slow-ms 0` does) — and the throughput delta between
/// them is the price of leaving tracing on. Alternating A/B rounds
/// cancel thermal and cache drift; the best round per mode is compared.
fn observability_bench(scale: Scale, json_path: Option<String>) {
    banner(
        "Observability overhead",
        "serving throughput with per-query tracing off vs on (E=20000)",
        scale,
    );
    let tb = Testbed::protein(scale);
    let jobs = tb.batch_jobs(20_000.0);
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let run = |traced: bool| -> (Duration, oasis_engine::ServingSnapshot) {
        let generation = IndexCatalog::new("bench", tb.engine_with_threads(1)).current();
        let serving = ServingEngine::new(ServingConfig {
            workers: hardware,
            queue_capacity: (jobs.len() / 4).max(4),
        })
        .expect("valid serving config");
        let start = Instant::now();
        let mut tickets: Vec<QueryTicket> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            loop {
                // The traced mode also carries a completion hook, like
                // the server's submissions.
                let (trace, notify): (_, Option<CompletionHook>) = if traced {
                    let trace = oasis_obs::QueryTrace::enabled(i as u64, job.query.len() as u32);
                    (trace, Some(Box::new(|| {})))
                } else {
                    (oasis_obs::QueryTrace::disabled(), None)
                };
                let admitted =
                    serving.try_submit(Arc::clone(&generation), job.clone(), trace, notify);
                match admitted {
                    Ok(ticket) => {
                        tickets.push(ticket);
                        break;
                    }
                    Err(AdmissionError::QueueFull { .. }) => {
                        let oldest = tickets.remove(0);
                        let _ = oldest.wait();
                    }
                    Err(e) => panic!("unexpected admission error: {e}"),
                }
            }
        }
        for ticket in tickets {
            let _ = ticket.wait();
        }
        (start.elapsed(), serving.snapshot())
    };

    // One untimed warmup, then measured rounds. The within-round order
    // flips each round so neither mode always runs on the warmer state,
    // and the best round per mode is compared (min is the standard
    // noise-rejecting statistic for same-work benchmarks).
    let _ = run(false);
    const ROUNDS: usize = 6;
    let mut off_best: Option<Duration> = None;
    let mut on_best: Option<Duration> = None;
    let mut traced_snapshot = None;
    for round in 0..ROUNDS {
        for traced in if round % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        } {
            let (wall, snap) = run(traced);
            assert_eq!(snap.served as usize, jobs.len(), "every job served");
            if traced {
                on_best = Some(on_best.map_or(wall, |b| b.min(wall)));
                traced_snapshot = Some(snap);
            } else {
                off_best = Some(off_best.map_or(wall, |b| b.min(wall)));
            }
        }
    }
    let off_wall = off_best.expect("rounds ran");
    let on_wall = on_best.expect("rounds ran");
    let snap = traced_snapshot.expect("rounds ran");

    let qps = |wall: Duration| jobs.len() as f64 / wall.as_secs_f64();
    let off_qps = qps(off_wall);
    let on_qps = qps(on_wall);
    let overhead_pct = (off_qps - on_qps) / off_qps * 100.0;

    print_table(
        &["tracing", "queries", "wall time", "queries/sec"],
        &[
            vec![
                "off".to_string(),
                jobs.len().to_string(),
                fmt_duration(off_wall),
                format!("{off_qps:.1}"),
            ],
            vec![
                "on".to_string(),
                jobs.len().to_string(),
                fmt_duration(on_wall),
                format!("{on_qps:.1}"),
            ],
        ],
    );
    println!("  tracing overhead: {overhead_pct:+.2}% of untraced throughput");

    // Per-stage breakdown from the traced run's histograms — what the
    // serving engine itself attributes to queueing vs execution.
    println!();
    let mut rows = Vec::new();
    for (name, h) in [
        ("queue_wait", &snap.queue_wait),
        ("execute", &snap.service),
        ("total", &snap.total),
    ] {
        rows.push(vec![
            name.to_string(),
            h.count.to_string(),
            format!("{}us", h.quantile(0.50)),
            format!("{}us", h.quantile(0.95)),
            format!("{}us", h.quantile(0.99)),
            format!("{}us", h.max),
        ]);
    }
    print_table(&["stage", "samples", "p50", "p95", "p99", "max"], &rows);

    if let Some(path) = &json_path {
        let json = format!(
            "{{\n  \"bench\": \"observability\",\n  \"scale\": \"{scale:?}\",\n  \
             \"queries\": {n},\n  \"rounds\": {ROUNDS},\n  \"workers\": {hardware},\n  \
             \"tracing_off\": {{ \"wall_seconds\": {ow:.4}, \"qps\": {oq:.1} }},\n  \
             \"tracing_on\": {{ \"wall_seconds\": {nw:.4}, \"qps\": {nq:.1} }},\n  \
             \"tracing_overhead_percent\": {overhead_pct:.2},\n  \"stages\": {{\n    \
             \"queue_wait\": {{ {qw} }},\n    \"execute\": {{ {ex} }},\n    \
             \"total\": {{ {tot} }}\n  }}\n}}\n",
            n = jobs.len(),
            ow = off_wall.as_secs_f64(),
            oq = off_qps,
            nw = on_wall.as_secs_f64(),
            nq = on_qps,
            qw = json_hist(&snap.queue_wait),
            ex = json_hist(&snap.service),
            tot = json_hist(&snap.total),
        );
        std::fs::write(path, json).expect("write --json output");
        println!("\nwrote {path}");
    }

    println!("\n(hardware parallelism here: {hardware} thread(s))");
    println!("shape: a trace is a small value riding the query through the");
    println!("pipeline — no global map, no locks — so the traced column should");
    println!("sit within a couple percent of the untraced one; the stage table");
    println!("is the breakdown the histograms buy at that price.");
}

/// `--live-ingestion`: the append-under-load serving benchmark. Query
/// QPS and submit-to-completion tails over the loopback wire, first
/// against an idle base artifact, then while an appender streams FASTA
/// batches through the WAL and background compactions fold and
/// republish the base — the cost live ingestion asks concurrent readers
/// to pay.
fn live_ingestion_bench(scale: Scale, json_path: Option<String>) {
    use oasis_net::{Client, OasisServer, SearchRequest, ServedIndex, ServerConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    banner(
        "Live ingestion: append under load",
        "query tails while the WAL absorbs appends and compactions republish",
        scale,
    );
    let tb = Testbed::protein(scale);
    let jobs = tb.batch_jobs(20_000.0);
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let clients = hardware.clamp(2, 4);
    let (baseline_ms, load_ms) = match scale {
        Scale::Tiny => (400u64, 900u64),
        Scale::Small => (900, 2_000),
        Scale::Medium => (1_500, 3_500),
    };

    let dir =
        std::env::temp_dir().join(format!("oasis-live-ingestion-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    oasis_engine::build_index_artifact(&tb.workload.db, &dir, 2, 2048, IndexBackend::Esa)
        .expect("base artifact");
    let index = ServedIndex::from_artifact(&dir, tb.scoring.clone(), 1 << 22).expect("base loads");
    let compact_after = 16usize;
    let server = OasisServer::bind(
        "127.0.0.1:0",
        index,
        tb.scoring.clone(),
        ServerConfig {
            workers: hardware,
            queue_capacity: 4096,
            compact_after,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    server.set_live_dir(&dir).expect("live dir");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    // Pre-render the wire requests once; workers cycle through them.
    let alphabet = tb.workload.db.alphabet().clone();
    let requests: Arc<Vec<(String, i32)>> = Arc::new(
        jobs.iter()
            .map(|job| (alphabet.decode_all(&job.query), job.params.min_score))
            .collect(),
    );

    // Run `clients` streaming connections for `millis`, collecting every
    // per-request submit-to-completion sample.
    let measure = |millis: u64| -> (Vec<Duration>, Duration) {
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now();
        let workers: Vec<_> = (0..clients)
            .map(|w| {
                let stop = stop.clone();
                let requests = requests.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("query client connects");
                    let mut samples = Vec::new();
                    let mut i = w; // stagger the starting query per client
                    while !stop.load(Ordering::Relaxed) {
                        let (text, min) = &requests[i % requests.len()];
                        i += 1;
                        let t0 = Instant::now();
                        client
                            .search_collect(SearchRequest::new(text.clone()).with_min_score(*min))
                            .expect("search under load");
                        samples.push(t0.elapsed());
                    }
                    samples
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(millis));
        stop.store(true, Ordering::Relaxed);
        let mut samples = Vec::new();
        for worker in workers {
            samples.extend(worker.join().expect("query worker"));
        }
        (samples, start.elapsed())
    };

    // Phase 1: the idle baseline — queries only, nothing mutating.
    let (base_samples, base_wall) = measure(baseline_ms);

    // Phase 2: the same traffic while an appender streams batches. Each
    // batch recycles base sequences under fresh names (content is
    // irrelevant to the serving cost; the fold and republish are not).
    let append_stop = Arc::new(AtomicBool::new(false));
    let appender = {
        let stop = append_stop.clone();
        let db = tb.workload.db.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("append client connects");
            let (mut appends, mut appended_seqs) = (0u64, 0u64);
            let mut n = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let mut fasta = String::new();
                for _ in 0..8 {
                    let id = (n % db.num_sequences() as usize) as u32;
                    let text = db.decode_range(db.seq_start(id), db.seq_terminator(id));
                    fasta.push_str(&format!(">live{n}\n{text}\n"));
                    n += 1;
                }
                let done = client.append(fasta).expect("append under load");
                appends += 1;
                appended_seqs += u64::from(done.appended_seqs);
                std::thread::sleep(Duration::from_millis(2));
            }
            (appends, appended_seqs)
        })
    };
    let (load_samples, load_wall) = measure(load_ms);
    append_stop.store(true, Ordering::Relaxed);
    let (appends, appended_seqs) = appender.join().expect("appender");

    let mut admin = Client::connect(addr).expect("admin connects");
    let stats = admin.stats().expect("stats");
    assert!(
        stats.compactions >= 1,
        "the load phase must overlap at least one background compaction \
         (appended {appended_seqs} sequences, compact_after {compact_after})"
    );
    admin.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("server run");
    std::fs::remove_dir_all(&dir).ok();

    let qps = |samples: &[Duration], wall: Duration| samples.len() as f64 / wall.as_secs_f64();
    let row = |phase: &str, samples: &[Duration], wall: Duration| {
        let l = LatencySummary::from_samples(samples);
        vec![
            phase.to_string(),
            samples.len().to_string(),
            fmt_duration(wall),
            format!("{:.1}", qps(samples, wall)),
            fmt_duration(l.p50),
            fmt_duration(l.p95),
            fmt_duration(l.p99),
            fmt_duration(l.max),
        ]
    };
    print_table(
        &[
            "phase",
            "queries",
            "wall",
            "queries/sec",
            "p50",
            "p95",
            "p99",
            "max",
        ],
        &[
            row("idle base (no appends)", &base_samples, base_wall),
            row("append + compaction load", &load_samples, load_wall),
        ],
    );
    let base_l = LatencySummary::from_samples(&base_samples);
    let load_l = LatencySummary::from_samples(&load_samples);
    let p99_inflation = load_l.p99.as_secs_f64() / base_l.p99.as_secs_f64().max(1e-12);
    println!(
        "\n  {appends} append batch(es), {appended_seqs} sequence(s), \
         {} background compaction(s) during the load phase",
        stats.compactions
    );
    println!(
        "  p99 under ingestion load: {:.2}x the idle baseline",
        p99_inflation
    );

    if let Some(path) = &json_path {
        let json = format!(
            "{{\n  \"bench\": \"live_ingestion\",\n  \"scale\": \"{scale:?}\",\n  \
             \"clients\": {clients},\n  \"compact_after\": {compact_after},\n  \
             \"baseline\": {{ \"queries\": {}, \"qps\": {:.1}, {} }},\n  \
             \"append_under_load\": {{ \"queries\": {}, \"qps\": {:.1}, {} }},\n  \
             \"append_batches\": {appends},\n  \"appended_seqs\": {appended_seqs},\n  \
             \"compactions\": {},\n  \"p99_inflation\": {p99_inflation:.2}\n}}\n",
            base_samples.len(),
            qps(&base_samples, base_wall),
            json_latency(&base_samples),
            load_samples.len(),
            qps(&load_samples, load_wall),
            json_latency(&load_samples),
            stats.compactions,
        );
        std::fs::write(path, json).expect("write --json output");
        println!("\nwrote {path}");
    }

    println!("\n(hardware parallelism here: {hardware} thread(s))");
    println!("shape: appends pay their WAL fsync on the append connection, never");
    println!("on a query; each publication (layered or compacted) is an O(1)");
    println!("catalog swap, so reader tails should track the baseline within a");
    println!("small constant rather than spiking with the fold.");
}

/// One thread-per-connection conversation for the in-bench baseline
/// server: blocking frame reads, the search executed inline on the
/// connection's own thread — the architecture the event loop replaced.
fn baseline_conn(
    stream: std::net::TcpStream,
    engine: Arc<oasis_engine::OasisEngine<oasis_suffix::SuffixTree>>,
    db: Arc<oasis_bioseq::SequenceDatabase>,
    hello: oasis_net::Frame,
) {
    use oasis_net::{read_frame, write_frame, Frame, RemoteHit, ScoreRule, SearchDone};
    use std::io::Write;

    stream.set_nodelay(true).ok();
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = std::io::BufWriter::new(stream);
    if write_frame(&mut writer, &hello).is_err() || writer.flush().is_err() {
        return;
    }
    loop {
        let req = match read_frame(&mut reader) {
            Ok(Frame::Search(req)) => req,
            // The bench clients only send Search; anything else (or a
            // closed socket) ends the conversation.
            Ok(_) | Err(_) => return,
        };
        let encoded = match db.alphabet().encode_str(&req.query) {
            Ok(e) => e,
            Err(_) => return,
        };
        let min = match req.rule {
            ScoreRule::MinScore(s) => s,
            ScoreRule::Evalue(_) => 1,
        };
        let t0 = Instant::now();
        let outcome = engine.run_one(&encoded, &oasis_core::OasisParams::with_min_score(min));
        let us = t0.elapsed().as_micros() as u64;
        for hit in &outcome.hits {
            let frame = Frame::Hit(RemoteHit {
                seq: hit.seq,
                score: hit.score,
                t_start: hit.t_start,
                t_len: hit.t_len,
                q_end: hit.q_end,
                name: db.name(hit.seq).to_string(),
            });
            if write_frame(&mut writer, &frame).is_err() {
                return;
            }
        }
        let done = Frame::Done(SearchDone {
            hits: outcome.hits.len() as u32,
            min_score: min,
            generation: 0,
            service_us: us,
            total_us: us,
        });
        if write_frame(&mut writer, &done).is_err() || writer.flush().is_err() {
            return;
        }
    }
}

/// `--many-conns`: the front-door scaling benchmark. An in-bench
/// thread-per-connection baseline server (the architecture the event
/// loop replaced) serves C closed-loop clients; the event-driven
/// `OasisServer` then serves 4×C clients over the same repeated-query
/// regime. The claims under test: the readiness loop sustains 4× the
/// baseline's connection count at equal-or-better p99, and the result
/// cache converts the repetition into hits (hit rate > 0).
fn many_conns_bench(scale: Scale, json_path: Option<String>) {
    use oasis_net::{Client, Hello, OasisServer, SearchRequest, ServedIndex, ServerConfig};
    use std::net::SocketAddr;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    banner(
        "Front door: many connections",
        "event loop at 4x the connections of a thread-per-connection baseline",
        scale,
    );
    let tb = Testbed::protein(scale);
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (base_conns, millis) = match scale {
        Scale::Tiny => (4usize, 500u64),
        Scale::Small => (8, 1_500),
        Scale::Medium => (16, 3_000),
    };
    let evt_conns = base_conns * 4;

    // The repeated-query regime: a small fixed rotation, well inside the
    // default cache capacity, so every client replays queries the server
    // has already answered — the workload the result cache exists for.
    let alphabet = tb.workload.db.alphabet().clone();
    let jobs = tb.batch_jobs(20_000.0);
    let requests: Arc<Vec<(String, i32)>> = Arc::new(
        jobs.iter()
            .take(32)
            .map(|job| (alphabet.decode_all(&job.query), job.params.min_score))
            .collect(),
    );

    // `conns` closed-loop clients against `addr` for `millis`, all
    // connected before the window opens (a barrier holds them at the
    // line), collecting every per-request latency sample.
    let measure = |addr: SocketAddr, conns: usize, millis: u64| -> (Vec<Duration>, Duration) {
        let stop = Arc::new(AtomicBool::new(false));
        let barrier = Arc::new(Barrier::new(conns + 1));
        let workers: Vec<_> = (0..conns)
            .map(|w| {
                let stop = stop.clone();
                let barrier = barrier.clone();
                let requests = requests.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("bench client connects");
                    barrier.wait();
                    let mut samples = Vec::new();
                    let mut i = w; // stagger the rotation per client
                    while !stop.load(Ordering::Relaxed) {
                        let (text, min) = &requests[i % requests.len()];
                        i += 1;
                        let t0 = Instant::now();
                        client
                            .search_collect(SearchRequest::new(text.clone()).with_min_score(*min))
                            .expect("bench search");
                        samples.push(t0.elapsed());
                    }
                    samples
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(Duration::from_millis(millis));
        stop.store(true, Ordering::Relaxed);
        let mut samples = Vec::new();
        for worker in workers {
            samples.extend(worker.join().expect("bench client thread"));
        }
        (samples, start.elapsed())
    };

    // Phase 1: the thread-per-connection baseline, hand-rolled here
    // because the shipping server no longer works that way. Same wire
    // protocol, same shared read-only index; one OS thread per accepted
    // connection, the search executed inline on it.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("baseline binds");
    let base_addr = listener.local_addr().expect("baseline addr");
    let accept_stop = Arc::new(AtomicBool::new(false));
    let accept_thread = {
        let stop = accept_stop.clone();
        let engine = Arc::new(tb.engine_with_threads(1));
        let db = tb.workload.db.clone();
        let hello = oasis_net::Frame::Hello(Hello {
            protocol: oasis_net::PROTOCOL_VERSION,
            generation: 0,
            generation_label: "baseline".to_string(),
            alphabet: db.alphabet().kind(),
            num_seqs: db.num_sequences(),
            total_residues: db.total_residues(),
        });
        std::thread::spawn(move || {
            let mut conn_threads = Vec::new();
            for stream in listener.incoming() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let engine = engine.clone();
                let db = db.clone();
                let hello = hello.clone();
                conn_threads.push(std::thread::spawn(move || {
                    baseline_conn(stream, engine, db, hello);
                }));
            }
            for t in conn_threads {
                let _ = t.join();
            }
        })
    };

    // Reference answers for the identity check between the two servers,
    // collected over one warm pass of the rotation.
    let reference: Vec<Vec<oasis_core::Hit>> = {
        let mut client = Client::connect(base_addr).expect("baseline reference client");
        requests
            .iter()
            .map(|(text, min)| {
                let (hits, _done) = client
                    .search_collect(SearchRequest::new(text.clone()).with_min_score(*min))
                    .expect("baseline reference search");
                hits.iter().map(|h| h.hit()).collect()
            })
            .collect()
    };
    let (base_samples, base_wall) = measure(base_addr, base_conns, millis);
    accept_stop.store(true, Ordering::Relaxed);
    // incoming() is blocking; one throwaway connection unsticks it.
    let _ = std::net::TcpStream::connect(base_addr);
    accept_thread.join().expect("baseline accept thread");

    // Phase 2: the event-driven server at 4x the connections, defaults
    // for the cache, a queue deep enough that admission never rejects.
    let index = ServedIndex::new(tb.workload.db.clone(), Arc::new(tb.engine_with_threads(1)));
    let server = OasisServer::bind(
        "127.0.0.1:0",
        index,
        tb.scoring.clone(),
        ServerConfig {
            workers: hardware,
            queue_capacity: 4096,
            max_conns: 0,
            ..ServerConfig::default()
        },
    )
    .expect("event-loop server binds");
    let evt_addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    // Warm pass: proves byte-identity against the baseline's answers and
    // populates the result cache with the rotation.
    {
        let mut client = Client::connect(evt_addr).expect("event-loop warm client");
        for ((text, min), want) in requests.iter().zip(&reference) {
            let (hits, _done) = client
                .search_collect(SearchRequest::new(text.clone()).with_min_score(*min))
                .expect("event-loop warm search");
            let got: Vec<oasis_core::Hit> = hits.iter().map(|h| h.hit()).collect();
            assert_eq!(
                &got, want,
                "event-loop hits must be byte-identical to the baseline server's"
            );
        }
    }
    let (evt_samples, evt_wall) = measure(evt_addr, evt_conns, millis);

    let mut admin = Client::connect(evt_addr).expect("admin connects");
    let metrics = admin.metrics().expect("metrics");
    assert!(
        metrics.cache_hits > 0,
        "the repeated-query regime must produce result-cache hits"
    );
    admin.shutdown_server().expect("shutdown");
    runner.join().expect("server thread").expect("server run");

    let qps = |samples: &[Duration], wall: Duration| samples.len() as f64 / wall.as_secs_f64();
    let row = |arch: &str, conns: usize, samples: &[Duration], wall: Duration| {
        let l = LatencySummary::from_samples(samples);
        vec![
            arch.to_string(),
            conns.to_string(),
            samples.len().to_string(),
            format!("{:.1}", qps(samples, wall)),
            fmt_duration(l.p50),
            fmt_duration(l.p95),
            fmt_duration(l.p99),
            fmt_duration(l.max),
        ]
    };
    print_table(
        &[
            "architecture",
            "conns",
            "queries",
            "queries/sec",
            "p50",
            "p95",
            "p99",
            "max",
        ],
        &[
            row(
                "thread per connection",
                base_conns,
                &base_samples,
                base_wall,
            ),
            row("event loop (4x conns)", evt_conns, &evt_samples, evt_wall),
        ],
    );
    let base_l = LatencySummary::from_samples(&base_samples);
    let evt_l = LatencySummary::from_samples(&evt_samples);
    let p99_ratio = evt_l.p99.as_secs_f64() / base_l.p99.as_secs_f64().max(1e-12);
    let lookups = metrics.cache_hits + metrics.cache_misses;
    let hit_rate = metrics.cache_hits as f64 / (lookups as f64).max(1.0);
    println!(
        "\n  event-loop p99 at 4x the connections: {:.2}x the baseline p99 \
         ({})",
        p99_ratio,
        if p99_ratio <= 1.0 {
            "equal or better — claim holds"
        } else {
            "worse — claim FAILS at this scale"
        }
    );
    println!(
        "  result cache: {} hits / {} misses ({:.0}% hit rate), \
         pipelined peak {}",
        metrics.cache_hits,
        metrics.cache_misses,
        hit_rate * 100.0,
        metrics.pipelined_peak
    );

    if let Some(path) = &json_path {
        let json = format!(
            "{{\n  \"bench\": \"front_door_many_conns\",\n  \"scale\": \"{scale:?}\",\n  \
             \"window_ms\": {millis},\n  \
             \"baseline\": {{ \"architecture\": \"thread_per_connection\", \
             \"connections\": {base_conns}, \"queries\": {}, \"qps\": {:.1}, {} }},\n  \
             \"event_loop\": {{ \"architecture\": \"nonblocking_readiness_loop\", \
             \"connections\": {evt_conns}, \"queries\": {}, \"qps\": {:.1}, {} }},\n  \
             \"connection_ratio\": 4,\n  \"p99_ratio_event_over_baseline\": {p99_ratio:.3},\n  \
             \"p99_equal_or_better_at_4x_conns\": {},\n  \
             \"cache\": {{ \"hits\": {}, \"misses\": {}, \"evictions\": {}, \
             \"hit_rate\": {hit_rate:.3} }},\n  \"pipelined_peak\": {}\n}}\n",
            base_samples.len(),
            qps(&base_samples, base_wall),
            json_latency(&base_samples),
            evt_samples.len(),
            qps(&evt_samples, evt_wall),
            json_latency(&evt_samples),
            p99_ratio <= 1.0,
            metrics.cache_hits,
            metrics.cache_misses,
            metrics.cache_evictions,
            metrics.pipelined_peak,
        );
        std::fs::write(path, json).expect("write --json output");
        println!("\nwrote {path}");
    }

    println!("\n(hardware parallelism here: {hardware} thread(s))");
    println!("shape: the baseline pays one OS thread per connection and re-runs");
    println!("the index traversal for every repeated query; the readiness loop");
    println!("holds 4x the sockets on one thread, and the generation-keyed LRU");
    println!("answers the repetition from memory — so its tails should hold or");
    println!("improve even at quadruple the connection count.");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--json requires a path argument");
            std::process::exit(2);
        })
    });
    if args.iter().any(|a| a == "--observability") {
        observability_bench(Scale::from_env(), json_path);
        return;
    }
    if args.iter().any(|a| a == "--live-ingestion") {
        live_ingestion_bench(Scale::from_env(), json_path);
        return;
    }
    if args.iter().any(|a| a == "--many-conns") {
        many_conns_bench(Scale::from_env(), json_path);
        return;
    }
    let scale = Scale::from_env();
    banner(
        "Engine throughput + tail latency",
        "concurrent batch, sharded fan-out, and serving front end (E=20000)",
        scale,
    );
    let tb = Testbed::protein(scale);
    let jobs = tb.batch_jobs(20_000.0);
    let hardware = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut rows = Vec::new();
    let mut serial: Option<Vec<SearchOutcome>> = None;
    let mut thread_counts = vec![1usize, 2, 4];
    if !thread_counts.contains(&hardware) {
        thread_counts.push(hardware);
    }
    for threads in thread_counts {
        let start = Instant::now();
        let outcomes = tb.engine_with_threads(threads).run_batch(&jobs);
        let elapsed = start.elapsed();
        match &serial {
            None => serial = Some(outcomes.clone()),
            Some(want) => assert_identical(&outcomes, want, "parallel batch"),
        }
        let qps = jobs.len() as f64 / elapsed.as_secs_f64();
        rows.push(vec![
            threads.to_string(),
            jobs.len().to_string(),
            fmt_duration(elapsed),
            format!("{qps:.1}"),
        ]);
    }
    print_table(&["threads", "queries", "batch time", "queries/sec"], &rows);
    let serial = serial.expect("at least one thread count ran");

    // Sharded fan-out: same workload, K per-shard indexes, merged streams.
    println!();
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4, 8] {
        let engine = ShardedEngine::build(tb.workload.db.clone(), tb.scoring.clone(), shards)
            .with_threads(hardware);
        let start = Instant::now();
        let outcomes = engine.run_batch(&jobs);
        let elapsed = start.elapsed();
        assert_identical(&outcomes, &serial, "sharded batch");
        let qps = jobs.len() as f64 / elapsed.as_secs_f64();
        rows.push(vec![
            engine.num_shards().to_string(),
            fmt_duration(elapsed),
            format!("{qps:.1}"),
        ]);
    }
    print_table(&["shards", "batch time", "queries/sec"], &rows);

    // Index hot path: backend × kernel over two query regimes. The
    // baseline cell (suffix tree + scalar reference kernel) is what
    // previous releases shipped; the enhanced cell (packed ESA +
    // vectorized kernel) is this release's hot path. All cells of a
    // regime must report identical result sets — the speedup is pure
    // work elimination, never accuracy.
    //
    // Short queries are the paper's ProClass-like mix (mean ≈ 16), which
    // both kernels run through the same fused scalar loop — those cells
    // isolate the traversal backends. Long queries (128–512 symbols, the
    // full-sequence regime) are where the profile layout and live-mask
    // block skipping pay: the headline speedup is measured there.
    println!();
    let evalue = 20_000.0;
    let start = Instant::now();
    let esa = EsaIndex::build(&tb.workload.db);
    let esa_build_time = start.elapsed();
    let long_queries = {
        let count = (tb.queries.len() / 4).clamp(6, 24);
        let lengths = (0..count).map(|i| 128 + 64 * (i as u32 % 7)).collect();
        generate_queries(
            &tb.workload,
            &QuerySpec {
                lengths,
                mutation: 0.1,
                seed: 0xFACE,
            },
        )
    };
    let short_cells = hot_path_cells(&tb.tree, &esa, &tb, &tb.queries, evalue);
    let long_cells = hot_path_cells(&tb.tree, &esa, &tb, &long_queries, evalue);
    let speedup_of = |cells: &[(&'static str, Vec<Duration>); 4]| {
        mean_duration(&cells[0].1).as_secs_f64()
            / mean_duration(&cells[3].1).as_secs_f64().max(1e-12)
    };
    let short_speedup = speedup_of(&short_cells);
    let long_speedup = speedup_of(&long_cells);
    print_hot_table("index hot path (short queries)", &short_cells);
    println!("  short-query speedup (baseline -> enhanced): {short_speedup:.2}x");
    println!();
    print_hot_table("index hot path (long queries)", &long_cells);
    println!("  long-query speedup (baseline -> enhanced): {long_speedup:.2}x");

    // Engine-level per-query latency over each backend (production
    // kernel, single worker): what run_one costs end to end.
    let esa_arc = Arc::new(esa);
    let tree_engine = tb.engine_with_threads(1);
    let esa_engine =
        oasis_engine::OasisEngine::new(esa_arc.clone(), tb.workload.db.clone(), tb.scoring.clone())
            .with_threads(1);
    let mut tree_samples = Vec::with_capacity(tb.queries.len());
    let mut esa_samples = Vec::with_capacity(tb.queries.len());
    for (q, want) in tb.queries.iter().zip(&serial) {
        let params = oasis_core::OasisParams::with_min_score(tb.min_score(q.len(), evalue));
        let start = Instant::now();
        let via_tree = tree_engine.run_one(q, &params);
        tree_samples.push(start.elapsed());
        let start = Instant::now();
        let via_esa = esa_engine.run_one(q, &params);
        esa_samples.push(start.elapsed());
        assert_eq!(via_tree.hits, want.hits, "tree run_one vs serial batch");
        assert_eq!(via_esa.hits, want.hits, "esa run_one vs serial batch");
    }
    let engine_samples: [(&str, Vec<Duration>); 2] = [("tree", tree_samples), ("esa", esa_samples)];
    println!();
    let mut rows = Vec::new();
    for (name, samples) in &engine_samples {
        let l = LatencySummary::from_samples(samples);
        rows.push(vec![
            name.to_string(),
            fmt_duration(mean_duration(samples)),
            fmt_duration(l.p50),
            fmt_duration(l.p95),
            fmt_duration(l.p99),
        ]);
    }
    print_table(
        &["engine backend (run_one)", "mean", "p50", "p95", "p99"],
        &rows,
    );

    // Serving front end: non-blocking submission with a bounded queue;
    // full-queue rejections back off by completing the oldest in-flight
    // query first, so every job is eventually served exactly once.
    let generation = IndexCatalog::new("bench", tb.engine_with_threads(1)).current();
    let serving = ServingEngine::new(ServingConfig {
        workers: hardware,
        queue_capacity: (jobs.len() / 4).max(4),
    })
    .expect("valid serving config");
    let start = Instant::now();
    let mut tickets: Vec<QueryTicket> = Vec::new();
    let mut served = Vec::new();
    for job in &jobs {
        loop {
            match serving.try_submit(
                Arc::clone(&generation),
                job.clone(),
                oasis_obs::QueryTrace::disabled(),
                None,
            ) {
                Ok(ticket) => {
                    tickets.push(ticket);
                    break;
                }
                Err(AdmissionError::QueueFull { .. }) => {
                    // Backpressure: drain the oldest outstanding ticket.
                    let oldest = tickets.remove(0);
                    served.extend(oldest.wait());
                }
                Err(e) => panic!("unexpected admission error: {e}"),
            }
        }
    }
    for ticket in tickets {
        served.extend(ticket.wait());
    }
    let wall = start.elapsed();
    let stats = serving.stats();
    assert_eq!(stats.served as usize, jobs.len(), "every job served once");
    let by_id: HashMap<&str, &SearchOutcome> = jobs
        .iter()
        .zip(&serial)
        .map(|(job, outcome)| (job.id.as_str(), outcome))
        .collect();
    for outcome in &served {
        let want = by_id[outcome.id.as_str()];
        assert_eq!(
            outcome.outcome.hits, want.hits,
            "served results must be byte-identical to the serial batch"
        );
    }
    let latency = serving.latency_summary();
    println!();
    print_table(
        &[
            "served",
            "rejected",
            "wall time",
            "queries/sec",
            "p50",
            "p95",
            "p99",
            "max",
        ],
        &[vec![
            stats.served.to_string(),
            stats.rejected.to_string(),
            fmt_duration(wall),
            format!("{:.1}", stats.served as f64 / wall.as_secs_f64()),
            fmt_duration(latency.p50),
            fmt_duration(latency.p95),
            fmt_duration(latency.p99),
            fmt_duration(latency.max),
        ]],
    );

    // Index lifecycle: cold build vs persist vs artifact load. A restart
    // that loads the artifact skips suffix-array construction entirely,
    // so its startup should sit well below the cold build at every scale.
    let lifecycle_shards = 4usize;
    let dir = std::env::temp_dir().join(format!(
        "oasis-engine-throughput-artifact-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let cold = ShardedEngine::build(tb.workload.db.clone(), tb.scoring.clone(), lifecycle_shards);
    let cold_time = start.elapsed();
    // Persist the engine that was just built — serialization only, no
    // second index construction.
    let start = Instant::now();
    oasis_engine::persist_sharded_engine(&cold, &dir, 2048).expect("artifact persists");
    let persist_time = start.elapsed();
    let start = Instant::now();
    let loaded =
        oasis_engine::load_sharded_engine(&dir, tb.scoring.clone()).expect("artifact loads");
    let load_time = start.elapsed();
    std::fs::remove_dir_all(&dir).ok();
    assert_identical(
        &loaded.with_threads(hardware).run_batch(&jobs),
        &serial,
        "artifact-loaded engine",
    );
    drop(cold);

    // Same lifecycle through the packed-ESA section kind: the loaded
    // payload is served directly (no tree reconstitution), so its load
    // path must not cost more than decoding a tree image.
    let esa_dir = std::env::temp_dir().join(format!(
        "oasis-engine-throughput-esa-artifact-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&esa_dir);
    let start = Instant::now();
    let cold_esa = ShardedEngine::build_with_backend(
        tb.workload.db.clone(),
        tb.scoring.clone(),
        lifecycle_shards,
        IndexBackend::Esa,
    );
    let esa_cold_time = start.elapsed();
    let start = Instant::now();
    oasis_engine::persist_sharded_engine(&cold_esa, &esa_dir, 2048).expect("esa artifact persists");
    let esa_persist_time = start.elapsed();
    let start = Instant::now();
    let esa_loaded = oasis_engine::load_sharded_engine(&esa_dir, tb.scoring.clone())
        .expect("esa artifact loads");
    let esa_load_time = start.elapsed();
    std::fs::remove_dir_all(&esa_dir).ok();
    assert_identical(
        &esa_loaded.with_threads(hardware).run_batch(&jobs),
        &serial,
        "esa-artifact-loaded engine",
    );
    drop(cold_esa);
    println!();
    let speedup = |t: std::time::Duration| {
        format!(
            "{:.1}x",
            cold_time.as_secs_f64() / t.as_secs_f64().max(1e-9)
        )
    };
    print_table(
        &["startup path", "shards", "time", "vs cold build"],
        &[
            vec![
                "cold build (tree)".to_string(),
                lifecycle_shards.to_string(),
                fmt_duration(cold_time),
                "1.0x".to_string(),
            ],
            vec![
                "persist artifact (tree)".to_string(),
                lifecycle_shards.to_string(),
                fmt_duration(persist_time),
                speedup(persist_time),
            ],
            vec![
                "artifact load (tree)".to_string(),
                lifecycle_shards.to_string(),
                fmt_duration(load_time),
                speedup(load_time),
            ],
            vec![
                "cold build (esa)".to_string(),
                lifecycle_shards.to_string(),
                fmt_duration(esa_cold_time),
                speedup(esa_cold_time),
            ],
            vec![
                "persist artifact (esa)".to_string(),
                lifecycle_shards.to_string(),
                fmt_duration(esa_persist_time),
                speedup(esa_persist_time),
            ],
            vec![
                "artifact load (esa)".to_string(),
                lifecycle_shards.to_string(),
                fmt_duration(esa_load_time),
                speedup(esa_load_time),
            ],
        ],
    );

    // Network loopback: the same workload end-to-end over TCP through
    // `oasis serve`'s wire protocol — what a remote caller of the *online*
    // service actually feels. Framing + loopback transport should cost
    // microseconds over the in-process submit-to-completion tails.
    let loopback = {
        use oasis_net::{Client, OasisServer, SearchRequest, ServedIndex, ServerConfig};
        let index = ServedIndex::new(tb.workload.db.clone(), Arc::new(tb.engine_with_threads(1)));
        let server = OasisServer::bind(
            "127.0.0.1:0",
            index,
            tb.scoring.clone(),
            ServerConfig {
                workers: hardware,
                queue_capacity: jobs.len().max(4),
                ..ServerConfig::default()
            },
        )
        .expect("loopback server binds");
        let addr = server.local_addr();
        let handle = server.handle();
        let runner = std::thread::spawn(move || server.run());
        let alphabet = tb.workload.db.alphabet().clone();
        let mut client = Client::connect(addr).expect("loopback client connects");
        let mut samples = Vec::with_capacity(jobs.len());
        for (job, want) in jobs.iter().zip(&serial) {
            let request = SearchRequest::new(alphabet.decode_all(&job.query))
                .with_id(job.id.clone())
                .with_min_score(job.params.min_score);
            let start = Instant::now();
            let (hits, _done) = client.search_collect(request).expect("remote search");
            samples.push(start.elapsed());
            assert_eq!(hits.len(), want.hits.len(), "loopback: hit counts");
            for (got, local) in hits.iter().zip(&want.hits) {
                assert_eq!(
                    got.hit(),
                    *local,
                    "loopback hits must be byte-identical to the serial batch"
                );
            }
        }
        drop(client);
        handle.shutdown();
        runner.join().expect("server thread").expect("server run");
        oasis_engine::LatencySummary::from_samples(&samples)
    };
    println!();
    let row = |path: &str, l: &oasis_engine::LatencySummary| {
        vec![
            path.to_string(),
            l.count.to_string(),
            fmt_duration(l.p50),
            fmt_duration(l.p95),
            fmt_duration(l.p99),
            fmt_duration(l.max),
        ]
    };
    print_table(
        &["request path", "queries", "p50", "p95", "p99", "max"],
        &[
            row("in-process serving", &latency),
            row("loopback tcp (end-to-end)", &loopback),
        ],
    );

    if let Some(path) = &json_path {
        let hot_block = |cells: &[(&'static str, Vec<Duration>); 4], count: usize, speedup: f64| {
            let keys = [
                "tree_reference_kernel",
                "tree_fast_kernel",
                "esa_reference_kernel",
                "esa_fast_kernel",
            ];
            let body: Vec<String> = cells
                .iter()
                .zip(keys)
                .map(|((_, samples), key)| {
                    format!("    \"{key}\": {{ {} }}", json_latency(samples))
                })
                .collect();
            format!(
                "{{\n{},\n    \"queries\": {count},\n    \
                 \"speedup_baseline_to_enhanced\": {speedup:.2}\n  }}",
                body.join(",\n")
            )
        };
        let engine_json: Vec<String> = engine_samples
            .iter()
            .map(|(name, samples)| format!("    \"{name}\": {{ {} }}", json_latency(samples)))
            .collect();
        let snap = serving.snapshot();
        let serving_block = format!(
            "\"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"max_us\": {:.1}, \
             \"stages\": {{ \"queue_wait\": {{ {} }}, \"execute\": {{ {} }} }}",
            micros(latency.p50),
            micros(latency.p95),
            micros(latency.p99),
            micros(latency.max),
            json_hist(&snap.queue_wait),
            json_hist(&snap.service),
        );
        let json = format!(
            "{{\n  \"bench\": \"index_hot_path\",\n  \"scale\": \"{scale:?}\",\n  \
             \"evalue\": {evalue},\n  \
             \"baseline\": \"suffix tree + scalar reference kernel\",\n  \
             \"enhanced\": \"packed esa + vectorized kernel\",\n  \
             \"headline_speedup\": {long_speedup:.2},\n  \
             \"hot_path_short_queries\": {short_block},\n  \
             \"hot_path_long_queries\": {long_block},\n  \
             \"engine_run_one\": {{\n{engine_block}\n  }},\n  \
             \"serving_front_end\": {{ {serving_block} }},\n  \
             \"lifecycle_seconds\": {{\n    \
             \"tree_cold_build\": {tcb:.4},\n    \"tree_artifact_persist\": {tap:.4},\n    \
             \"tree_artifact_load\": {tal:.4},\n    \"esa_cold_build\": {ecb:.4},\n    \
             \"esa_artifact_persist\": {eap:.4},\n    \"esa_artifact_load\": {eal:.4},\n    \
             \"esa_standalone_build\": {esb:.4},\n    \
             \"esa_load_vs_tree_load\": {lvl:.2}\n  }}\n}}\n",
            short_block = hot_block(&short_cells, tb.queries.len(), short_speedup),
            long_block = hot_block(&long_cells, long_queries.len(), long_speedup),
            engine_block = engine_json.join(",\n"),
            tcb = cold_time.as_secs_f64(),
            tap = persist_time.as_secs_f64(),
            tal = load_time.as_secs_f64(),
            ecb = esa_cold_time.as_secs_f64(),
            eap = esa_persist_time.as_secs_f64(),
            eal = esa_load_time.as_secs_f64(),
            esb = esa_build_time.as_secs_f64(),
            lvl = esa_load_time.as_secs_f64() / load_time.as_secs_f64().max(1e-12),
        );
        std::fs::write(path, json).expect("write --json output");
        println!("\nwrote {path}");
    }

    println!("\n(hardware parallelism here: {hardware} thread(s))");
    println!("paper shape: the index is read-shared, so query throughput scales");
    println!("with workers until the memory system saturates; sharding trades a");
    println!("small merge overhead for independently owned index partitions; and");
    println!("the serving queue turns overload into rejections (p50/p95/p99");
    println!("above), not unbounded waits. Results stay byte-identical to serial");
    println!("execution at every thread and shard count (asserted) — including");
    println!("an engine reconstituted from the persisted index artifact, whose");
    println!("load-time startup sits below the cold build (table above) — and");
    println!("remote queries answered over the loopback tcp wire protocol, whose");
    println!("end-to-end tails bound the network serving overhead (last table).");
}

fn assert_identical(got: &[SearchOutcome], want: &[SearchOutcome], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: outcome count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(
            g.hits, w.hits,
            "{what}: hits must be byte-identical to the serial batch"
        );
        assert_eq!(
            g.stats.hits_emitted, w.stats.hits_emitted,
            "{what}: emitted-hit counts must agree"
        );
    }
}
