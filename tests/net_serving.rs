//! The network serving subsystem end to end, against the public API:
//!
//! * remote hits are byte-identical to the local engine's output —
//!   including hit order — for serial and concurrent clients;
//! * `Busy` backpressure surfaces on the wire when the admission queue
//!   is full, and the connection stays usable;
//! * per-request deadlines answer `DeadlineExceeded` without killing the
//!   worker;
//! * `reload` hot-swaps an index generation while clients are mid-stream
//!   without corrupting a single response;
//! * a search queued when a `reload` lands answers wholly from the
//!   generation it was admitted on (hits, names, `Done.generation`,
//!   cache entry, trace);
//! * the per-generation served table stays bounded under many appends;
//! * a WAL that cannot be replayed makes `set_live_dir` fail rather than
//!   serve the base without its appends;
//! * graceful shutdown stops admission, drains admitted work, and closes
//!   idle streams with the typed terminal frame;
//! * malformed bytes on the wire get a typed `Malformed` error, not a
//!   hung or poisoned server.

use std::path::PathBuf;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use oasis::prelude::*;

fn dna_db(seqs: &[&str]) -> Arc<SequenceDatabase> {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, s) in seqs.iter().enumerate() {
        b.push_str(format!("s{i}"), s).unwrap();
    }
    Arc::new(b.finish())
}

const SEQS: &[&str] = &[
    "AGTACGCCTAG",
    "TACCG",
    "GGTAGG",
    "CCCCCC",
    "GATTACA",
    "TACGTACG",
    "ACGTACGTGT",
];

const QUERIES: &[&str] = &["TACG", "GATT", "CC", "GGTAGG", "ACGT", "TAC"];

/// Start a server over a `ShardedEngine` for `db`; returns the address,
/// the shutdown handle, and the join handle of the accept loop.
fn start_server(
    db: &Arc<SequenceDatabase>,
    shards: usize,
    config: ServerConfig,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let scoring = Scoring::unit_dna();
    let engine = oasis::engine::ShardedEngine::build(db.clone(), scoring.clone(), shards);
    let index = ServedIndex::new(db.clone(), Arc::new(engine));
    let server = OasisServer::bind("127.0.0.1:0", index, scoring, config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

/// The local reference outcome for `query` at `min`.
fn local_hits(db: &Arc<SequenceDatabase>, query: &str, min: Score) -> Vec<Hit> {
    let engine = oasis::engine::ShardedEngine::build(db.clone(), Scoring::unit_dna(), 1);
    let encoded = Alphabet::dna().encode_str(query).unwrap();
    engine
        .run_one(&encoded, &OasisParams::with_min_score(min))
        .hits
}

fn assert_identical_response(
    db: &Arc<SequenceDatabase>,
    hits: &[RemoteHit],
    query: &str,
    min: Score,
) {
    let want = local_hits(db, query, min);
    assert_eq!(
        hits.len(),
        want.len(),
        "remote hit count for {query} at min {min}"
    );
    for (got, local) in hits.iter().zip(&want) {
        assert_eq!(got.hit(), *local, "hit mismatch for {query} at min {min}");
        assert_eq!(got.name, db.name(local.seq), "name mismatch for {query}");
    }
}

#[test]
fn remote_hits_byte_identical_to_local_for_serial_and_concurrent_clients() {
    let db = dna_db(SEQS);
    let (addr, handle, runner) = start_server(&db, 3, ServerConfig::default());

    // Serial: one client, every query, several thresholds, in order.
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.hello().protocol, PROTOCOL_VERSION);
    assert_eq!(client.hello().generation, 0);
    assert_eq!(client.hello().num_seqs, db.num_sequences());
    assert_eq!(client.hello().total_residues, db.total_residues());
    for query in QUERIES {
        for min in 1..=3 {
            let (hits, done) = client
                .search_collect(SearchRequest::new(*query).with_min_score(min))
                .expect("remote search");
            assert_eq!(done.hits as usize, hits.len());
            assert_eq!(done.min_score, min);
            assert_eq!(done.generation, 0);
            assert_identical_response(&db, &hits, query, min);
        }
    }
    // Top-k returns exactly the serial prefix.
    let (top2, _) = client
        .search_collect(SearchRequest::new("TACG").with_min_score(1).with_top(2))
        .expect("top-k search");
    let full = local_hits(&db, "TACG", 1);
    assert_eq!(top2.len(), 2.min(full.len()));
    for (got, want) in top2.iter().zip(&full) {
        assert_eq!(got.hit(), *want);
    }

    // Concurrent: four clients hammering their own connections.
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..3 {
                    for (qi, query) in QUERIES.iter().enumerate() {
                        let min = 1 + ((w + qi + round) % 3) as Score;
                        let (hits, _) = client
                            .search_collect(SearchRequest::new(*query).with_min_score(min))
                            .expect("remote search");
                        assert_identical_response(&db, &hits, query, min);
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("concurrent client");
    }

    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    drop(handle);
}

/// A gated executor: every query parks until the test releases it, and
/// signals the test when it starts executing.
struct Gate {
    started: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl QueryExecutor for Gate {
    fn execute(&self, _job: &oasis::engine::BatchQuery) -> oasis::engine::SearchOutcome {
        self.started.send(()).ok();
        self.release.lock().unwrap().recv().unwrap();
        oasis::engine::SearchOutcome {
            hits: Vec::new(),
            stats: SearchStats::default(),
            pool_delta: PoolStatsSnapshot::default(),
        }
    }
}

#[test]
fn busy_backpressure_surfaces_on_the_wire_when_the_queue_is_full() {
    let db = dna_db(&["ACGTACGT"]);
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let index = ServedIndex::new(
        db,
        Arc::new(Gate {
            started: started_tx,
            release: Mutex::new(release_rx),
        }),
    );
    let server = OasisServer::bind(
        "127.0.0.1:0",
        index,
        Scoring::unit_dna(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    // Client A's query occupies the single worker…
    let a = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect a");
        client
            .search_collect(SearchRequest::new("ACGT").with_min_score(1))
            .expect("a completes")
    });
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a reached the worker");
    // …client B's fills the queue (capacity 1)…
    let b = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect b");
        client
            .search_collect(SearchRequest::new("ACGT").with_min_score(1))
            .expect("b completes")
    });
    // Wait until B's submission is actually queued before C submits.
    let mut admin = Client::connect(addr).expect("connect admin");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while admin.metrics().expect("metrics").queue_depth < 1 {
        assert!(std::time::Instant::now() < deadline, "b never queued");
        std::thread::sleep(Duration::from_millis(10));
    }
    // …so client C must be rejected with Busy — not blocked, not hung.
    let mut c = Client::connect(addr).expect("connect c");
    match c.search_collect(SearchRequest::new("ACGT").with_min_score(1)) {
        Err(NetError::Remote(e)) => {
            assert_eq!(e.code, ErrorCode::Busy, "{e:?}");
            assert!(e.message.contains("queue full"), "{}", e.message);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    // The connection survives a Busy rejection: metrics still answer.
    let metrics = admin.metrics().expect("metrics after busy");
    assert!(metrics.rejected >= 1, "rejection counted: {metrics:?}");

    // Release both gated queries; A and B complete with clean responses.
    release_tx.send(()).unwrap();
    release_tx.send(()).unwrap();
    let (hits_a, _) = a.join().expect("a thread");
    let (hits_b, _) = b.join().expect("b thread");
    assert!(hits_a.is_empty() && hits_b.is_empty());
    // And C's connection is still usable for a successful retry (which
    // runs through the gate too, so pre-release it).
    release_tx.send(()).unwrap();
    let (hits_c, _) = c
        .search_collect(SearchRequest::new("ACGT").with_min_score(1))
        .expect("c retries fine");
    assert!(hits_c.is_empty());

    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

#[test]
fn deadline_exceeded_is_typed_and_the_server_keeps_serving() {
    let db = dna_db(&["ACGTACGT"]);
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let index = ServedIndex::new(
        db,
        Arc::new(Gate {
            started: started_tx,
            release: Mutex::new(release_rx),
        }),
    );
    let server = OasisServer::bind(
        "127.0.0.1:0",
        index,
        Scoring::unit_dna(),
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    match client.search_collect(
        SearchRequest::new("ACGT")
            .with_min_score(1)
            .with_deadline_ms(50),
    ) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::DeadlineExceeded, "{e:?}"),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("query reached the worker");
    // The abandoned query still completes server-side (admitted work is
    // never cancelled) and the same connection serves the next request.
    release_tx.send(()).unwrap();
    release_tx.send(()).unwrap(); // for the retry below
    let (hits, done) = client
        .search_collect(SearchRequest::new("ACGT").with_min_score(1))
        .expect("connection still serves");
    assert!(hits.is_empty());
    assert_eq!(done.hits, 0);

    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oasis-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn reload_hot_swaps_a_generation_under_live_streaming_clients() {
    let db = dna_db(SEQS);
    let dir_a = tmpdir("gen-a");
    let dir_b = tmpdir("gen-b");
    // Two artifacts over the same database with different shard layouts:
    // results must be byte-identical across the swap, so any corruption a
    // racing reload could cause is observable.
    oasis::engine::build_index_artifact(&db, &dir_a, 2, 64, oasis::engine::IndexBackend::Tree)
        .expect("artifact a");
    // Generation B uses the packed-ESA backend: the hot swap must also be
    // invisible across index substrates.
    oasis::engine::build_index_artifact(&db, &dir_b, 3, 64, oasis::engine::IndexBackend::Esa)
        .expect("artifact b");

    let scoring = Scoring::unit_dna();
    let index = ServedIndex::from_artifact(&dir_a, scoring.clone(), 1 << 20).expect("load a");
    let server = OasisServer::bind(
        "127.0.0.1:0",
        index,
        scoring,
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let generations_seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
    let clients: Vec<_> = (0..3)
        .map(|w| {
            let db = db.clone();
            let stop = stop.clone();
            let generations_seen = generations_seen.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut rounds = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || rounds < 10 {
                    for (qi, query) in QUERIES.iter().enumerate() {
                        let min = 1 + ((w + qi) % 3) as Score;
                        let (hits, done) = client
                            .search_collect(SearchRequest::new(*query).with_min_score(min))
                            .expect("remote search during reload");
                        // Mid-swap responses must stay exactly correct.
                        assert_identical_response(&db, &hits, query, min);
                        generations_seen.lock().unwrap().insert(done.generation);
                    }
                    rounds += 1;
                }
            })
        })
        .collect();

    // Let the clients run, then hot-swap generations twice mid-traffic.
    std::thread::sleep(Duration::from_millis(100));
    let mut admin = Client::connect(addr).expect("connect admin");
    let done = admin
        .reload(dir_b.to_string_lossy().to_string())
        .expect("reload to b");
    assert_eq!(done.generation, 1);
    std::thread::sleep(Duration::from_millis(100));
    let done = admin
        .reload(dir_a.to_string_lossy().to_string())
        .expect("reload back to a");
    assert_eq!(done.generation, 2);

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for client in clients {
        client.join().expect("streaming client");
    }
    // The swap really happened under traffic: responses were served by
    // more than one generation.
    assert!(
        generations_seen.lock().unwrap().len() >= 2,
        "expected responses from multiple generations, saw {:?}",
        generations_seen.lock().unwrap()
    );
    // A fresh client's handshake reports the latest generation.
    let client = Client::connect(addr).expect("connect post-swap");
    assert_eq!(client.hello().generation, 2);

    // Reloading garbage is a typed error, not a swap.
    let missing = tmpdir("gen-missing");
    match admin.reload(missing.to_string_lossy().to_string()) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::Internal, "{e:?}"),
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(admin.metrics().expect("metrics").generation, 2);

    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn graceful_shutdown_stops_admission_drains_work_and_sends_terminal_frames() {
    let db = dna_db(SEQS);
    let (addr, handle, runner) = start_server(&db, 2, ServerConfig::default());

    // An idle client sits connected; shutdown must close its stream with
    // the typed terminal frame rather than a bare EOF.
    let mut idle = Client::connect(addr).expect("connect idle");
    handle.shutdown();
    runner.join().expect("accept loop").expect("run ok");
    match idle.search_collect(SearchRequest::new("TACG").with_min_score(1)) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::ShuttingDown, "{e:?}"),
        // The terminal frame may already have been read as the response
        // to nothing; either way the error is the typed shutdown, or the
        // socket is gone entirely (server exited after the frame).
        Err(NetError::Io(_)) => {}
        other => panic!("expected ShuttingDown or EOF, got {other:?}"),
    }
    // New connections are refused or answered with the terminal frame.
    match Client::connect(addr) {
        Ok(_) => panic!("connect must fail after shutdown"),
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::ShuttingDown),
        Err(_) => {} // refused outright: listener is gone
    }
}

#[test]
fn malformed_bytes_get_a_typed_error_and_unknown_residues_are_rejected() {
    use std::io::Write;

    let db = dna_db(SEQS);
    let (addr, handle, runner) = start_server(&db, 1, ServerConfig::default());

    // Raw garbage after the handshake → typed Malformed error frame.
    {
        let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
        match oasis::net::read_frame(&mut stream).expect("hello") {
            oasis::net::Frame::Hello(h) => assert_eq!(h.protocol, PROTOCOL_VERSION),
            other => panic!("expected Hello, got {other:?}"),
        }
        // An absurd declared length: 5-byte header claiming 4 GB.
        stream
            .write_all(&[0xFF, 0xFF, 0xFF, 0xFF, 0x02])
            .expect("write garbage");
        match oasis::net::read_frame(&mut stream) {
            Ok(oasis::net::Frame::Error(e)) => assert_eq!(e.code, ErrorCode::Malformed, "{e:?}"),
            other => panic!("expected Malformed error frame, got {other:?}"),
        }
    }

    // A query with residues outside the serving alphabet → Malformed,
    // and the connection keeps serving.
    let mut client = Client::connect(addr).expect("connect");
    match client.search_collect(SearchRequest::new("TACX!").with_min_score(1)) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::Malformed, "{e:?}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
    // An invalid minScore → Malformed too.
    match client.search_collect(SearchRequest::new("TACG").with_min_score(0)) {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::Malformed, "{e:?}"),
        other => panic!("expected Malformed, got {other:?}"),
    }
    let (hits, _) = client
        .search_collect(SearchRequest::new("TACG").with_min_score(2))
        .expect("still serving");
    assert_identical_response(&db, &hits, "TACG", 2);

    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    drop(handle);
}

/// The base database plus named appended sequences, for reference
/// engines that must agree with the server's layered generations.
fn db_with_appended(extra: &[(&str, &str)]) -> Arc<SequenceDatabase> {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, s) in SEQS.iter().enumerate() {
        b.push_str(format!("s{i}"), s).unwrap();
    }
    for (name, s) in extra {
        b.push_str(name.to_string(), s).unwrap();
    }
    Arc::new(b.finish())
}

/// Start a live-ingestion server over a fresh artifact built from the
/// base database at `dir`.
fn start_live_server(
    dir: &PathBuf,
    compact_after: usize,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let db = dna_db(SEQS);
    oasis::engine::build_index_artifact(&db, dir, 2, 64, oasis::engine::IndexBackend::Tree)
        .expect("base artifact");
    let scoring = Scoring::unit_dna();
    let index = ServedIndex::from_artifact(dir, scoring.clone(), 1 << 20).expect("load base");
    let server = OasisServer::bind(
        "127.0.0.1:0",
        index,
        scoring,
        ServerConfig {
            workers: 2,
            queue_capacity: 64,
            compact_after,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    server.set_live_dir(dir).expect("live dir");
    let addr = server.local_addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run());
    (addr, handle, runner)
}

const ADD1: &[(&str, &str)] = &[("a0", "ACCGGA"), ("a1", "TTGACA")];
const ADD2: &[(&str, &str)] = &[("a2", "CGCGTT"), ("a3", "AGGATTAC")];

fn fasta_for(records: &[(&str, &str)]) -> String {
    records
        .iter()
        .map(|(name, s)| format!(">{name}\n{s}\n"))
        .collect()
}

#[test]
fn appends_and_background_compaction_publish_with_zero_downtime() {
    let dir = tmpdir("live-traffic");
    let (addr, _handle, runner) = start_live_server(&dir, 3);

    // The database each generation serves, keyed by the deterministic
    // publication order: 0 = base, 1 = base + ADD1, 2 = base + both
    // appends, 3 = the compacted base over the same content as 2.
    let db0 = dna_db(SEQS);
    let db1 = db_with_appended(ADD1);
    let db2 = db_with_appended(&[ADD1, ADD2].concat());

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let generations_seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
    let clients: Vec<_> = (0..3)
        .map(|w| {
            let (db0, db1, db2) = (db0.clone(), db1.clone(), db2.clone());
            let stop = stop.clone();
            let generations_seen = generations_seen.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut rounds = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) || rounds < 10 {
                    for (qi, query) in QUERIES.iter().enumerate() {
                        let min = 1 + ((w + qi) % 3) as Score;
                        // Zero downtime: not one failed or blocked query
                        // while appends and a compaction publish.
                        let (hits, done) = client
                            .search_collect(SearchRequest::new(*query).with_min_score(min))
                            .expect("remote search during live ingestion");
                        let reference = match done.generation {
                            0 => &db0,
                            1 => &db1,
                            _ => &db2,
                        };
                        assert_identical_response(reference, &hits, query, min);
                        generations_seen.lock().unwrap().insert(done.generation);
                    }
                    rounds += 1;
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(100));
    let mut admin = Client::connect(addr).expect("connect admin");

    // First append: below the compaction threshold, publishes the
    // layered (base + delta) generation.
    let done = admin.append(fasta_for(ADD1)).expect("append 1");
    assert_eq!(done.appended_seqs, 2);
    assert_eq!(done.delta_seqs, 2);
    assert_eq!(done.generation, 1);
    std::thread::sleep(Duration::from_millis(100));

    // Second append crosses the threshold and kicks the background
    // compaction, which publishes generation 3 when the fold lands.
    let done = admin.append(fasta_for(ADD2)).expect("append 2");
    assert_eq!(done.delta_seqs, 4);
    assert_eq!(done.generation, 2);

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let metrics = admin.metrics().expect("metrics during compaction");
        if metrics.compactions >= 1 {
            assert_eq!(metrics.delta_seqs, 0, "delta folded into the base");
            assert_eq!(metrics.generation, 3);
            assert_eq!(metrics.generation_label, "live-compaction");
            break;
        }
        assert!(std::time::Instant::now() < deadline, "compaction never ran");
        std::thread::sleep(Duration::from_millis(20));
    }

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for client in clients {
        client.join().expect("streaming client");
    }
    assert!(
        generations_seen.lock().unwrap().contains(&0),
        "traffic started on the base generation"
    );

    // A fresh handshake serves the compacted generation and its geometry.
    let client = Client::connect(addr).expect("connect post-compaction");
    assert_eq!(client.hello().generation, 3);
    assert_eq!(client.hello().num_seqs, db2.num_sequences());

    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");

    // The on-disk artifact is the compacted base: lineage recorded, log
    // truncated, nothing pending.
    let manifest = read_manifest(&dir).expect("manifest");
    assert_eq!(manifest.num_seqs, db2.num_sequences());
    let lineage = manifest.lineage.expect("lineage recorded");
    assert_eq!(lineage.compactions, 1);
    assert_eq!(lineage.appended_seqs, 4);
    assert_eq!(lineage.folded_through, 3);
    let replay = replay_wal(&dir).expect("replay").expect("wal exists");
    assert!(replay.records.is_empty(), "log truncated after publish");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn background_compaction_racing_admin_reload_keeps_every_generation_sound() {
    let dir = tmpdir("race-reload-live");
    let dir_b = tmpdir("race-reload-b");
    let (addr, _handle, runner) = start_live_server(&dir, 3);
    let db_base = dna_db(SEQS);
    oasis::engine::build_index_artifact(&db_base, &dir_b, 3, 64, oasis::engine::IndexBackend::Esa)
        .expect("artifact b");

    let mut admin = Client::connect(addr).expect("connect admin");
    // One append crosses the threshold: generation 1 publishes and the
    // background compaction starts folding…
    let extra = [ADD1, ADD2].concat();
    let done = admin.append(fasta_for(&extra)).expect("append");
    assert_eq!(done.generation, 1);
    // …while an admin reload races it into the catalog. Publication
    // order between generations 2 and 3 is whatever the race decides.
    let reloaded = admin
        .reload(dir_b.to_string_lossy().to_string())
        .expect("reload during compaction");
    assert!(reloaded.generation == 2 || reloaded.generation == 3);

    // The compaction completes regardless of who published last.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while admin.metrics().expect("metrics").compactions < 1 {
        assert!(std::time::Instant::now() < deadline, "compaction never ran");
        std::thread::sleep(Duration::from_millis(20));
    }

    // Whichever generation won the race serves; its responses must be
    // byte-identical to the database that generation indexes.
    let metrics = admin.metrics().expect("metrics after race");
    assert_eq!(metrics.generation, 3, "both publications landed");
    let db_full = db_with_appended(&extra);
    let reference = if metrics.generation_label == "live-compaction" {
        &db_full
    } else {
        &db_base // the reload's artifact has only the base sequences
    };
    let mut client = Client::connect(addr).expect("connect");
    for query in QUERIES {
        let (hits, _) = client
            .search_collect(SearchRequest::new(*query).with_min_score(2))
            .expect("search after race");
        assert_identical_response(reference, &hits, query, 2);
    }

    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");

    // The live directory's fold completed independently of the catalog
    // race: lineage recorded, WAL truncated.
    let manifest = read_manifest(&dir).expect("manifest");
    assert_eq!(manifest.num_seqs, db_full.num_sequences());
    assert_eq!(manifest.lineage.expect("lineage").compactions, 1);
    assert!(replay_wal(&dir)
        .expect("replay")
        .expect("wal exists")
        .records
        .is_empty());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn background_compaction_racing_shutdown_loses_nothing() {
    let dir = tmpdir("race-shutdown");
    let (addr, handle, runner) = start_live_server(&dir, 3);

    let mut admin = Client::connect(addr).expect("connect admin");
    let extra = [ADD1, ADD2].concat();
    let done = admin.append(fasta_for(&extra)).expect("append");
    assert_eq!(done.appended_seqs, 4);
    // Shut down immediately: the background compaction is somewhere
    // between freeze, fold, publish, and truncate. If its publish loses
    // the race to shutdown, compaction aborts and the WAL keeps the
    // records; if it wins, the fold landed and the WAL is truncated.
    // Either way `run()` joins the compaction thread before returning,
    // so no file operation is torn by process exit.
    handle.shutdown();
    runner.join().expect("accept loop").expect("run ok");

    let db_full = db_with_appended(&extra);
    let manifest = read_manifest(&dir).expect("manifest");
    let replay = replay_wal(&dir).expect("replay").expect("wal exists");
    assert!(!replay.torn_tail, "no write was torn by the shutdown");
    // Base sequences folded in plus records still pending in the log
    // must account for every acknowledged append, exactly once.
    let floor = manifest.lineage.as_ref().map(|l| l.folded_through);
    let pending = replay
        .records
        .iter()
        .filter(|r| floor.is_none_or(|f| r.seq_no > f))
        .count();
    assert_eq!(
        manifest.num_seqs as usize + pending,
        db_full.num_sequences() as usize,
        "folded + pending covers each append exactly once (manifest {}, pending {pending})",
        manifest.num_seqs
    );

    // A reopen — the restart after the shutdown — serves the full set,
    // byte-identical to a fresh build over everything.
    let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default())
        .expect("reopen after shutdown race");
    assert_eq!(
        manifest.num_seqs + live.stats().delta_seqs,
        db_full.num_sequences()
    );
    let snapshot = live.snapshot();
    let reference = oasis::engine::ShardedEngine::build(db_full.clone(), Scoring::unit_dna(), 1);
    for query in QUERIES {
        let encoded = Alphabet::dna().encode_str(query).unwrap();
        let params = OasisParams::with_min_score(1);
        assert_eq!(
            snapshot.run_one(&encoded, &params).hits,
            reference.run_one(&encoded, &params).hits,
            "query {query} after the shutdown race"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unreadable_wal_fails_set_live_dir_instead_of_serving_without_it() {
    // A log that does not replay may hold acknowledged appends: enabling
    // live ingestion over it must fail, not silently serve the base.
    let dir = tmpdir("bad-wal");
    let db = dna_db(SEQS);
    oasis::engine::build_index_artifact(&db, &dir, 2, 64, oasis::engine::IndexBackend::Tree)
        .expect("base artifact");
    std::fs::write(dir.join(WAL_FILE), b"NOTAWAL!\x00\x01\x02\x03").expect("write wal");
    let scoring = Scoring::unit_dna();
    let index = ServedIndex::from_artifact(&dir, scoring.clone(), 1 << 20).expect("load base");
    let server =
        OasisServer::bind("127.0.0.1:0", index, scoring, ServerConfig::default()).expect("bind");
    let err = server
        .set_live_dir(&dir)
        .expect_err("a WAL with a bad magic must not be skipped");
    assert!(err.to_string().contains("bad magic"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evalue_rule_matches_the_local_conversion() {
    // The server derives minScore from an E-value exactly like the local
    // CLI: same Karlin estimate, same database statistics.
    let db = dna_db(SEQS);
    let (addr, _handle, runner) = start_server(&db, 2, ServerConfig::default());

    let scoring = Scoring::unit_dna();
    let karlin = KarlinParams::estimate(&scoring.matrix, &oasis::align::background_dna())
        .expect("dna statistics");
    let mut client = Client::connect(addr).expect("connect");
    for (query, evalue) in [("TACGTACG", 1.0), ("GATTACA", 0.5)] {
        let encoded = Alphabet::dna().encode_str(query).unwrap();
        let want_min =
            karlin.min_score_for_evalue(encoded.len() as u64, db.total_residues(), evalue);
        let (hits, done) = client
            .search_collect(SearchRequest::new(query).with_evalue(evalue))
            .expect("evalue search");
        assert_eq!(done.min_score, want_min, "server-side Equation 3");
        if want_min >= 1 {
            assert_identical_response(&db, &hits, query, want_min);
        }
    }
    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

/// Read one full search response (hits then a terminal Done or Error)
/// from a raw pipelined stream.
fn read_response(
    stream: &mut std::net::TcpStream,
) -> Result<(Vec<RemoteHit>, SearchDone), ErrorFrame> {
    let mut hits = Vec::new();
    loop {
        match oasis::net::read_frame(stream).expect("response frame") {
            Frame::Hit(hit) => hits.push(hit),
            Frame::Done(done) => return Ok((hits, done)),
            Frame::Error(e) => return Err(e),
            other => panic!("unexpected {} frame in a search response", other.kind()),
        }
    }
}

#[test]
fn pipelined_requests_answer_in_order_and_survive_a_malformed_one() {
    use std::io::Write;

    let db = dna_db(SEQS);
    let (addr, _handle, runner) = start_server(&db, 2, ServerConfig::default());

    let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
    match oasis::net::read_frame(&mut stream).expect("hello") {
        Frame::Hello(h) => assert_eq!(h.protocol, PROTOCOL_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }

    // Three valid searches and one malformed request (minScore 0),
    // written back-to-back before reading a single response byte. The
    // malformed one sits mid-pipeline: the requests around it must
    // still answer, in request order.
    let requests = [
        ("TACG", 1),
        ("GATT", 2),
        ("ACGT", 0), // invalid threshold → typed Malformed
        ("GGTAGG", 1),
    ];
    let mut batch = Vec::new();
    for (query, min) in requests {
        oasis::net::write_frame(
            &mut batch,
            &Frame::Search(SearchRequest::new(query).with_min_score(min)),
        )
        .expect("encode request");
    }
    stream.write_all(&batch).expect("write pipeline");

    for (query, min) in requests {
        match read_response(&mut stream) {
            Ok((hits, done)) => {
                assert!(min >= 1, "malformed request must not get a Done frame");
                assert_eq!(
                    done.min_score, min,
                    "responses must come back in request order"
                );
                assert_eq!(done.hits as usize, hits.len());
                assert_identical_response(&db, &hits, query, min);
            }
            Err(e) => {
                assert_eq!(min, 0, "valid request {query} got an error: {e:?}");
                assert_eq!(e.code, ErrorCode::Malformed, "{e:?}");
            }
        }
    }

    // The connection survived the mid-pipeline error: it still serves.
    oasis::net::write_frame(
        &mut stream,
        &Frame::Search(SearchRequest::new("TAC").with_min_score(1)),
    )
    .expect("follow-up request");
    let (hits, _) = read_response(&mut stream).expect("follow-up response");
    assert_identical_response(&db, &hits, "TAC", 1);
    drop(stream);

    // A pipelined client and a plain client agree byte for byte.
    let mut client = Client::connect(addr).expect("connect");
    let (hits, _) = client
        .search_collect(SearchRequest::new("TACG").with_min_score(1))
        .expect("plain search");
    assert_identical_response(&db, &hits, "TACG", 1);

    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

#[test]
fn result_cache_hits_repeated_queries_but_never_serves_a_stale_generation() {
    let dir = tmpdir("cache-hot-swap");
    let (addr, _handle, runner) = start_live_server(&dir, 0);

    let mut client = Client::connect(addr).expect("connect");

    // Generation 0: the same query twice. The second run is answerable
    // from the cache; both must match the local reference exactly.
    let base = dna_db(SEQS);
    for _ in 0..2 {
        let (hits, done) = client
            .search_collect(SearchRequest::new("TACG").with_min_score(1))
            .expect("gen-0 search");
        assert_eq!(done.generation, 0);
        assert_identical_response(&base, &hits, "TACG", 1);
    }
    let warm = client.metrics().expect("metrics");
    assert!(
        warm.cache_hits >= 1,
        "repeated identical query must hit the cache (hits={}, misses={})",
        warm.cache_hits,
        warm.cache_misses
    );
    assert!(warm.cache_entries >= 1);

    // Hot-swap: append a sequence that adds hits for the same query. The
    // cached generation-0 entry must NOT answer for generation 1 — the
    // response has to include the appended match.
    client
        .append(fasta_for(&[("a0", "GGTACGGA")]))
        .expect("append");
    let swapped = db_with_appended(&[("a0", "GGTACGGA")]);
    assert!(
        local_hits(&swapped, "TACG", 1).len() > local_hits(&base, "TACG", 1).len(),
        "the appended sequence must add a TACG hit for this test to bite"
    );
    for _ in 0..2 {
        let (hits, done) = client
            .search_collect(SearchRequest::new("TACG").with_min_score(1))
            .expect("gen-1 search");
        assert_eq!(
            done.generation, 1,
            "post-append searches serve the new generation"
        );
        assert_identical_response(&swapped, &hits, "TACG", 1);
    }

    // The swap created fresh traffic for generation 1 and the repeat was
    // cacheable again under the new key.
    let after = client.metrics().expect("metrics after swap");
    assert!(
        after.cache_misses > warm.cache_misses,
        "gen-1 first run must miss"
    );
    assert!(after.cache_hits > warm.cache_hits, "gen-1 repeat must hit");
    assert!(
        after
            .per_generation
            .iter()
            .any(|g| g.generation == 1 && g.served >= 2),
        "per-generation counters must follow the swap: {:?}",
        after.per_generation
    );

    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Parks every query until the test releases it, then answers from a
/// real engine — so a parked worker still produces checkable hits.
struct ParkThenRun {
    started: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
    engine: oasis::engine::ShardedEngine,
}

impl QueryExecutor for ParkThenRun {
    fn execute(&self, job: &oasis::engine::BatchQuery) -> oasis::engine::SearchOutcome {
        self.started.send(()).ok();
        self.release.lock().unwrap().recv().unwrap();
        self.engine.run_job(job)
    }
}

#[test]
fn a_search_queued_across_a_reload_answers_from_its_admission_generation() {
    // Generation 0 and the reloaded generation 1 index the same residues
    // under different names, so every hit name says which generation
    // produced it.
    let db0 = dna_db(SEQS);
    let db1 = {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in SEQS.iter().enumerate() {
            b.push_str(format!("reloaded{i}"), s).unwrap();
        }
        Arc::new(b.finish())
    };
    let dir = tmpdir("admission-generation");
    oasis::engine::build_index_artifact(&db1, &dir, 2, 64, oasis::engine::IndexBackend::Tree)
        .expect("reload artifact");

    let scoring = Scoring::unit_dna();
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let index = ServedIndex::new(
        db0.clone(),
        Arc::new(ParkThenRun {
            started: started_tx,
            release: Mutex::new(release_rx),
            engine: oasis::engine::ShardedEngine::build(db0.clone(), scoring.clone(), 2),
        }),
    );
    let server = OasisServer::bind(
        "127.0.0.1:0",
        index,
        scoring,
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            slow_ms: Some(0),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let runner = std::thread::spawn(move || server.run());
    let search = |query: &'static str| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client
                .search_collect(SearchRequest::new(query).with_min_score(1))
                .expect("search completes")
        })
    };

    // A parks the single worker on generation 0…
    let a = search("GATT");
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("a reached the worker");
    // …B is admitted on generation 0 and waits in the queue…
    let b = search("TACG");
    let mut admin = Client::connect(addr).expect("connect admin");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while admin.metrics().expect("metrics").queue_depth < 1 {
        assert!(std::time::Instant::now() < deadline, "b never queued");
        std::thread::sleep(Duration::from_millis(10));
    }
    // …and a reload lands before B starts executing.
    let reloaded = admin
        .reload(dir.to_string_lossy().to_string())
        .expect("reload");
    assert_eq!(reloaded.generation, 1);
    release_tx.send(()).unwrap(); // A
    release_tx.send(()).unwrap(); // B, if it runs on generation 0's gate
    let (hits_a, done_a) = a.join().expect("a thread");
    let (hits_b, done_b) = b.join().expect("b thread");

    // B's whole answer comes from its admission generation: the Done
    // frame's id, every hit and every hit name.
    assert_eq!(done_a.generation, 0);
    assert_identical_response(&db0, &hits_a, "GATT", 1);
    assert_eq!(
        done_b.generation, 0,
        "B answers from its admission generation"
    );
    assert_identical_response(&db0, &hits_b, "TACG", 1);
    // Its trace counters name the same generation.
    let dump = admin.trace_dump().expect("trace dump");
    assert_eq!(dump.entries.len(), 2, "{:?}", dump.entries);
    assert!(dump
        .entries
        .iter()
        .all(|e| e.generation == 0 && !e.cache_hit));
    // Its result was cached under generation 0: both entries exist, and
    // the same query on generation 1 misses them.
    let cached = admin.metrics().expect("metrics");
    assert_eq!(cached.cache_entries, 2, "A and B are both cached");
    let (hits, done) = admin
        .search_collect(SearchRequest::new("TACG").with_min_score(1))
        .expect("search on generation 1");
    assert_eq!(done.generation, 1);
    assert_identical_response(&db1, &hits, "TACG", 1);
    let after = admin.metrics().expect("metrics");
    assert_eq!(after.cache_hits, cached.cache_hits);
    assert_eq!(after.cache_misses, cached.cache_misses + 1);

    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn per_generation_table_stays_bounded_across_many_appends() {
    // Every append publishes a generation; the served-per-generation
    // table keeps only the most recent ones, so the Metrics frame stays
    // encodable however long the server ingests.
    let dir = tmpdir("per-generation-cap");
    let (addr, _handle, runner) = start_live_server(&dir, 0);
    let mut client = Client::connect(addr).expect("connect");
    let appends = PER_GENERATION_ROWS + 8;
    for i in 0..appends {
        let done = client.append(format!(">p{i}\nACGTTGCA\n")).expect("append");
        let (_, searched) = client
            .search_collect(SearchRequest::new("TACG").with_min_score(1))
            .expect("search");
        assert_eq!(searched.generation, done.generation);
    }
    let metrics = client.metrics().expect("metrics round-trips");
    let rows: Vec<u64> = metrics
        .per_generation
        .iter()
        .map(|g| g.generation)
        .collect();
    assert_eq!(rows.len(), PER_GENERATION_ROWS, "{rows:?}");
    assert_eq!(rows.last(), Some(&(appends as u64)), "newest row kept");
    assert!(metrics.per_generation.iter().all(|g| g.served == 1));

    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    let _ = std::fs::remove_dir_all(&dir);
}
