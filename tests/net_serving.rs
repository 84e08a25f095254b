//! The network serving subsystem end to end, against the public API
//! (that remote hits equal the local engine's, for every history of
//! appends and reloads, is checked by `tests/model_oracle.rs`):
//!
//! * `Busy` backpressure surfaces on the wire when the admission queue
//!   is full, and the connection stays usable;
//! * hits stream online: the first `Hit` frame reaches the client while
//!   the search is still running, a pipelined connection streams only its
//!   head request and answers the rest in order after the head's `Done`,
//!   `Done.hits` counts the `Hit` frames sent, and a search that panics
//!   mid-stream sends its prefix, then `Error(Internal)`;
//! * there is no result cache: a repeated query executes every time and,
//!   after a reload, answers from the new generation;
//! * per-request deadlines answer `DeadlineExceeded` without killing the
//!   worker, and an expired deadline or a closed connection cancels its
//!   search, freeing the worker for other connections;
//! * `reload` hot-swaps an index generation while clients are mid-stream
//!   without corrupting a single response;
//! * a search queued when a `reload` lands answers wholly from the
//!   generation it was admitted on (hits, names, `Done.generation`,
//!   trace);
//! * the per-generation served table stays bounded under many appends;
//! * every generation opened from an artifact carries that directory's
//!   live index: a reload replays the new directory's pending WAL and
//!   makes it the append target, a fresh server's metrics report the
//!   artifact's lineage and WAL, and a WAL that cannot be replayed makes
//!   `ServedIndex::from_artifact` fail rather than serve the base without
//!   its appends;
//! * graceful shutdown stops admission, drains admitted work, and closes
//!   idle streams with the typed terminal frame;
//! * malformed bytes on the wire get a typed `Malformed` error, not a
//!   hung or poisoned server.

mod support;

use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use oasis::prelude::*;
use support::{dna_db, scratch_dir};

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

/// A gated executor: every query parks until the test releases it, and
/// signals the test when it starts executing.
struct Gate {
    started: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl QueryExecutor for Gate {
    fn stream(&self, _job: &BatchQuery, _sink: &mut HitSink<'_>) -> SearchStats {
        self.started.send(()).ok();
        self.release.lock().unwrap().recv().unwrap();
        Default::default()
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
    // The gate ignores cancellation, so the abandoned query still needs
    // its release; the same connection then serves the next request.
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

#[test]
fn reload_hot_swaps_a_generation_under_live_streaming_clients() {
    let db = dna_db(SEQS);
    let dir_a = scratch_dir("gen-a");
    let dir_b = scratch_dir("gen-b");
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
    let missing = scratch_dir("gen-missing");
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
    dir: &Path,
    compact_after: usize,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let db = dna_db(SEQS);
    oasis::engine::build_index_artifact(&db, dir, 2, 64, oasis::engine::IndexBackend::Tree)
        .expect("base artifact");
    serve_artifact(dir, compact_after)
}

/// Start a live-ingestion server over the existing artifact at `dir`.
fn serve_artifact(
    dir: &Path,
    compact_after: usize,
) -> (
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
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
    let dir = scratch_dir("live-traffic");
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
    let dir = scratch_dir("race-reload-live");
    let dir_b = scratch_dir("race-reload-b");
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
    // …while an admin reload races it. A reload answers `Busy` until the
    // compaction has ended, so the compaction's publish (generation 2)
    // can never land over the reloaded generation.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let reloaded = loop {
        match admin.reload(dir_b.to_string_lossy().to_string()) {
            Ok(reloaded) => break reloaded,
            Err(NetError::Remote(e)) if e.code == ErrorCode::Busy => {
                assert!(
                    std::time::Instant::now() < deadline,
                    "compaction never ended"
                );
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("reload during compaction: {e}"),
        }
    };
    assert_eq!(reloaded.generation, 3, "the compaction published first");

    // B serves: the reloaded generation is current, carries B's (empty)
    // lineage and WAL, and answers byte-identically to B's database.
    let metrics = admin.metrics().expect("metrics after race");
    assert_eq!(metrics.generation, 3);
    assert_eq!(metrics.generation_label, dir_b.to_string_lossy());
    assert_eq!((metrics.compactions, metrics.delta_seqs), (0, 0));
    let db_full = db_with_appended(&extra);
    let mut client = Client::connect(addr).expect("connect");
    for query in QUERIES {
        let (hits, _) = client
            .search_collect(SearchRequest::new(*query).with_min_score(2))
            .expect("search after race");
        assert_identical_response(&db_base, &hits, query, 2);
    }

    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");

    // A's artifact was compacted before the reload: lineage recorded,
    // WAL truncated.
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
    let dir = scratch_dir("race-shutdown");
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
fn unreadable_wal_fails_from_artifact_instead_of_serving_without_it() {
    // A log that does not replay may hold acknowledged appends: opening
    // the artifact over it must fail, not silently serve the base.
    let dir = scratch_dir("bad-wal");
    let db = dna_db(SEQS);
    oasis::engine::build_index_artifact(&db, &dir, 2, 64, oasis::engine::IndexBackend::Tree)
        .expect("base artifact");
    std::fs::write(dir.join(WAL_FILE), b"NOTAWAL!\x00\x01\x02\x03").expect("write wal");
    let Err(err) = ServedIndex::from_artifact(&dir, Scoring::unit_dna(), 1 << 20) else {
        panic!("a WAL with a bad magic must not be skipped");
    };
    assert!(err.to_string().contains("bad magic"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A DNA database of `(name, residues)` records.
fn named_db(records: &[(&str, &str)]) -> Arc<SequenceDatabase> {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (name, residues) in records {
        b.push_str(name.to_string(), residues).unwrap();
    }
    Arc::new(b.finish())
}

/// Artifact B of the reload tests: sequences that share no name with
/// the base, and hits of their own for `QUERIES`.
const B_SEQS: &[(&str, &str)] = &[("b0", "TTACGATTAC"), ("b1", "CCGGTACGTT")];

#[test]
fn append_after_reload_logs_into_the_reloaded_artifact() {
    let dir_a = scratch_dir("append-after-reload-a");
    let dir_b = scratch_dir("append-after-reload-b");
    let (addr, _handle, runner) = start_live_server(&dir_a, 0);
    let db_b = named_db(B_SEQS);
    oasis::engine::build_index_artifact(&db_b, &dir_b, 1, 64, oasis::engine::IndexBackend::Tree)
        .expect("artifact b");

    let mut admin = Client::connect(addr).expect("connect admin");
    admin
        .append(fasta_for(&[("a9", "GATTACA")]))
        .expect("append to a");
    let wal_a = std::fs::read(dir_a.join(WAL_FILE)).expect("a's wal");
    admin
        .reload(dir_b.to_string_lossy().to_string())
        .expect("reload b");
    let done = admin
        .append(fasta_for(&[("c0", "TACGGATT")]))
        .expect("append after reload");
    assert_eq!(done.delta_seqs, 1, "b's delta, not a's");

    // Hits equal a fresh build of B + the appended record: nothing of A.
    let want = named_db(&[B_SEQS, &[("c0", "TACGGATT")]].concat());
    let mut client = Client::connect(addr).expect("connect");
    for query in QUERIES {
        let (hits, _) = client
            .search_collect(SearchRequest::new(*query).with_min_score(2))
            .expect("search after append");
        assert_identical_response(&want, &hits, query, 2);
    }
    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");

    let logged = replay_wal(&dir_b).expect("replay b").expect("b's wal");
    let names: Vec<&str> = logged.records.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names, ["c0"], "the record is in b's wal");
    assert_eq!(
        std::fs::read(dir_a.join(WAL_FILE)).expect("a's wal"),
        wal_a,
        "a's wal is unchanged"
    );
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn reload_serves_the_pending_wal_of_the_reloaded_artifact() {
    let dir_a = scratch_dir("reload-pending-a");
    let dir_b = scratch_dir("reload-pending-b");
    let (addr, _handle, runner) = start_live_server(&dir_a, 0);
    oasis::engine::build_index_artifact(
        &named_db(B_SEQS),
        &dir_b,
        2,
        64,
        oasis::engine::IndexBackend::Tree,
    )
    .expect("artifact b");
    // `oasis index append d.fa --index B`, while the server serves A.
    let codes = Alphabet::dna().encode_str("GATTACAGG").unwrap();
    LiveIndex::open(&dir_b, Scoring::unit_dna(), LiveIndexOptions::default())
        .expect("open b")
        .append(vec![Sequence::from_codes("d0", codes)])
        .expect("append to b");

    let mut admin = Client::connect(addr).expect("connect admin");
    admin
        .reload(dir_b.to_string_lossy().to_string())
        .expect("reload b");
    let metrics = admin.metrics().expect("metrics");
    assert_eq!(metrics.delta_seqs, 1, "b's pending append replayed");
    let want = named_db(&[B_SEQS, &[("d0", "GATTACAGG")]].concat());
    let (hits, _) = admin
        .search_collect(SearchRequest::new("GATTACAGG").with_min_score(9))
        .expect("search the pending sequence");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].name, "d0");
    for query in QUERIES {
        let (hits, _) = admin
            .search_collect(SearchRequest::new(*query).with_min_score(2))
            .expect("search after reload");
        assert_identical_response(&want, &hits, query, 2);
    }
    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn fresh_server_metrics_carry_the_artifact_lineage_and_wal() {
    let dir = scratch_dir("fresh-metrics");
    oasis::engine::build_index_artifact(
        &dna_db(SEQS),
        &dir,
        2,
        64,
        oasis::engine::IndexBackend::Tree,
    )
    .expect("base artifact");
    // One compaction in the artifact's lineage; the truncated WAL keeps
    // only its 8-byte magic.
    let live =
        LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default()).expect("open");
    let codes = Alphabet::dna().encode_str("ACCGGA").unwrap();
    live.append(vec![Sequence::from_codes("a0", codes)])
        .expect("append");
    live.compact(|_| Ok(0)).expect("compact");
    drop(live);
    let wal_bytes = replay_wal(&dir).expect("replay").expect("wal").bytes;
    assert_eq!(wal_bytes, 8);

    let (addr, _handle, runner) = serve_artifact(&dir, 0);
    let mut admin = Client::connect(addr).expect("connect admin");
    let metrics = admin.metrics().expect("metrics");
    assert_eq!(metrics.compactions, 1);
    assert_eq!(metrics.wal_bytes, wal_bytes);
    assert_eq!(metrics.delta_seqs, 0);
    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    std::fs::remove_dir_all(&dir).ok();
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
fn a_repeated_query_executes_every_time_and_follows_a_reload() {
    let base = dna_db(SEQS);
    let config = ServerConfig {
        slow_ms: 0,
        ..ServerConfig::default()
    };
    let (addr, _handle, runner) = start_server(&base, 2, config);
    let mut client = bounded_client(addr);
    let request = || SearchRequest::new("TACG").with_min_score(1);

    // Each repeat is admitted, executed and traced again, and answers
    // exactly as the first run did.
    let served = client.metrics().expect("metrics").served;
    let mut answers = Vec::new();
    for _ in 0..3 {
        let (hits, done) = client.search_collect(request()).expect("gen-0 search");
        assert_eq!(done.generation, 0);
        assert_identical_response(&base, &hits, "TACG", 1);
        answers.push(hits);
    }
    assert!(answers.iter().all(|hits| *hits == answers[0]));
    assert_eq!(client.metrics().expect("metrics").served, served + 3);
    let dump = client.trace_dump().expect("trace dump");
    assert_eq!(dump.entries.len(), 3, "{:?}", dump.entries);
    for entry in &dump.entries {
        assert!(
            entry.spans.iter().any(|span| span.stage == "execute"),
            "{entry:?}"
        );
        assert!(!entry.cache_hit, "the reserved field stays false");
    }

    // A reload publishes an index with one more TACG match: the repeat
    // answers from it.
    let dir = scratch_dir("repeat-reload");
    let swapped = db_with_appended(&[("a0", "GGTACGGA")]);
    assert!(
        local_hits(&swapped, "TACG", 1).len() > answers[0].len(),
        "the reloaded index must add a TACG hit for this test to bite"
    );
    oasis::engine::build_index_artifact(&swapped, &dir, 2, 64, oasis::engine::IndexBackend::Tree)
        .expect("reload artifact");
    let reloaded = client
        .reload(dir.to_string_lossy().to_string())
        .expect("reload");
    assert_eq!(reloaded.generation, 1);
    let (hits, done) = client.search_collect(request()).expect("gen-1 search");
    assert_eq!(done.generation, 1);
    assert_identical_response(&swapped, &hits, "TACG", 1);

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
    fn stream(&self, job: &BatchQuery, sink: &mut HitSink<'_>) -> SearchStats {
        self.started.send(()).ok();
        self.release.lock().unwrap().recv().unwrap();
        self.engine.stream(job, sink)
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
    let dir = scratch_dir("admission-generation");
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
            slow_ms: 0,
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
    // Its trace counters name the same generation. Each trace holds
    // every stage in pipeline order, the worker's laid out back to back,
    // and counts the hits its Done frame reported (A took token 0, B 1).
    let dump = admin.trace_dump().expect("trace dump");
    assert_eq!(dump.entries.len(), 2, "{:?}", dump.entries);
    for entry in &dump.entries {
        assert_eq!(entry.generation, 0);
        let names: Vec<&str> = entry.spans.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(
            names,
            [
                "queue_wait",
                "execute",
                "resolve",
                "frame_flush",
                "first_hit"
            ]
        );
        let (queue_wait, execute) = (&entry.spans[0], &entry.spans[1]);
        assert!(execute.start_us >= queue_wait.start_us + queue_wait.dur_us);
        let done = if entry.id == 0 { &done_a } else { &done_b };
        assert_eq!(entry.hits, u64::from(done.hits), "entry {}", entry.id);
    }
    // The same query admitted after the reload answers from generation 1.
    let (hits, done) = admin
        .search_collect(SearchRequest::new("TACG").with_min_score(1))
        .expect("search on generation 1");
    assert_eq!(done.generation, 1);
    assert_identical_response(&db1, &hits, "TACG", 1);

    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_default_server_traces_every_search() {
    let db = dna_db(SEQS);
    let (addr, handle, runner) = start_server(&db, 2, ServerConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    let (hits, _) = client
        .search_collect(SearchRequest::new("TACG").with_min_score(2))
        .expect("search");
    assert_identical_response(&db, &hits, "TACG", 2);
    // The answer's writes were timed into its trace and filed.
    let metrics = client.metrics().expect("metrics");
    let flush = metrics
        .stages
        .iter()
        .find(|s| s.stage == "frame_flush")
        .expect("frame_flush row");
    assert!(flush.count >= 1, "{flush:?}");
    let dump = client.trace_dump().expect("trace dump");
    assert_eq!(dump.threshold_us, 250_000);
    handle.shutdown();
    runner.join().expect("accept loop").expect("run ok");
}

#[test]
fn per_generation_table_stays_bounded_across_many_appends() {
    // Every append publishes a generation; the served-per-generation
    // table keeps only the most recent ones, so the Metrics frame stays
    // encodable however long the server ingests.
    let dir = scratch_dir("per-generation-cap");
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

/// Start a server over `executor` (which searches `db`) with `workers`
/// engine workers.
fn start_with(
    db: &Arc<SequenceDatabase>,
    executor: Arc<dyn QueryExecutor>,
    workers: usize,
) -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let index = ServedIndex::new(db.clone(), executor);
    let server = OasisServer::bind(
        "127.0.0.1:0",
        index,
        Scoring::unit_dna(),
        ServerConfig {
            workers,
            queue_capacity: 16,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

/// A client whose reads fail after 30 s instead of hanging a broken test.
fn bounded_client(addr: std::net::SocketAddr) -> Client {
    let client = Client::connect(addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    client
}

/// Runs every query on a real engine, except `held`: that one emits its
/// first hit, signals `parked`, and waits for `release` before streaming
/// the rest.
struct HoldAfterFirstHit {
    engine: oasis::engine::ShardedEngine,
    held: Vec<u8>,
    parked: mpsc::Sender<()>,
    release: Mutex<mpsc::Receiver<()>>,
}

impl QueryExecutor for HoldAfterFirstHit {
    fn stream(&self, job: &BatchQuery, sink: &mut HitSink<'_>) -> SearchStats {
        if job.query != self.held {
            return self.engine.stream(job, sink);
        }
        let mut session = self.engine.session(&job.query, &job.params);
        if let Some(first) = session.next() {
            sink.emit(first);
            self.parked.send(()).ok();
            self.release.lock().unwrap().recv().unwrap();
        }
        for hit in session.by_ref() {
            sink.emit(hit);
        }
        session.finish()
    }
}

fn hold_after_first_hit(
    db: &Arc<SequenceDatabase>,
    held: &str,
) -> (Arc<HoldAfterFirstHit>, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (parked_tx, parked_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let executor = Arc::new(HoldAfterFirstHit {
        engine: oasis::engine::ShardedEngine::build(db.clone(), Scoring::unit_dna(), 2),
        held: Alphabet::dna().encode_str(held).unwrap(),
        parked: parked_tx,
        release: Mutex::new(release_rx),
    });
    (executor, parked_rx, release_tx)
}

#[test]
fn the_first_hit_reaches_the_client_before_the_search_ends() {
    let db = dna_db(SEQS);
    let want = local_hits(&db, "GATT", 1);
    assert!(want.len() >= 2, "the held query must stream several hits");
    let (executor, parked, release) = hold_after_first_hit(&db, "GATT");
    let (addr, runner) = start_with(&db, executor, 2);

    let mut client = bounded_client(addr);
    let mut stream = client
        .search(SearchRequest::new("GATT").with_min_score(1))
        .expect("search");
    // The executor holds the rest of the search until released: this read
    // can only succeed if the server streamed the hit it already has.
    let first = stream
        .next_hit()
        .expect("the first hit arrives while the search is held")
        .expect("a hit, not the end of the stream");
    parked
        .recv_timeout(Duration::from_secs(10))
        .expect("the executor is parked");
    assert_eq!(first.hit(), want[0]);
    release.send(()).unwrap();
    let mut hits = vec![first];
    while let Some(hit) = stream.next_hit().expect("the rest of the stream") {
        hits.push(hit);
    }
    // `Done.hits` counts the `Hit` frames sent: above over two batches or
    // more, here for a search that `top` stops after two hits.
    let done = stream.finish().expect("done");
    assert_eq!(done.hits as usize, hits.len());
    assert_identical_response(&db, &hits, "GATT", 1);
    assert!(local_hits(&db, "TACG", 1).len() > 2);
    let (hits, done) = client
        .search_collect(SearchRequest::new("TACG").with_min_score(1).with_top(2))
        .expect("top-2 search");
    assert_eq!((hits.len(), done.hits), (2, 2));

    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

#[test]
fn a_pipelined_connection_streams_its_head_and_answers_the_rest_in_order() {
    use std::io::Write;

    let db = dna_db(SEQS);
    let (executor, parked, release) = hold_after_first_hit(&db, "GATT");
    let (addr, runner) = start_with(&db, executor, 2);

    let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    match oasis::net::read_frame(&mut stream).expect("hello") {
        Frame::Hello(h) => assert_eq!(h.protocol, PROTOCOL_VERSION),
        other => panic!("expected Hello, got {other:?}"),
    }
    // Eight distinct requests back to back; the head is held after its
    // first hit while the other seven complete on the second worker.
    let requests = [
        ("GATT", 1),
        ("TACG", 1),
        ("CC", 1),
        ("GGTAGG", 2),
        ("ACGT", 1),
        ("TAC", 2),
        ("TACG", 2),
        ("ACGT", 2),
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
    parked
        .recv_timeout(Duration::from_secs(10))
        .expect("the head is parked");
    let mut admin = bounded_client(addr);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while admin.metrics().expect("metrics").served < 7 {
        assert!(
            std::time::Instant::now() < deadline,
            "requests 2-8 never completed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Requests 2-8 are complete and buffered. Their frames must still not
    // overtake the head: reading in order, the head's hits and Done come
    // first, then every other response in request order.
    release.send(()).unwrap();
    for (query, min) in requests {
        let (hits, done) = read_response(&mut stream).expect("search response");
        assert_eq!(
            done.min_score, min,
            "responses must come back in request order"
        );
        assert_eq!(done.hits as usize, hits.len());
        assert_identical_response(&db, &hits, query, min);
    }
    let metrics = admin.metrics().expect("metrics");
    assert_eq!(metrics.pipelined_peak, 8, "{metrics:?}");
    assert_eq!(metrics.served, 8);
    drop(stream);

    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

/// Runs every query on a real engine, except `failing`: that one emits
/// its first two hits and then panics.
struct TwoHitsThenPanic {
    engine: oasis::engine::ShardedEngine,
    failing: Vec<u8>,
}

impl QueryExecutor for TwoHitsThenPanic {
    fn stream(&self, job: &BatchQuery, sink: &mut HitSink<'_>) -> SearchStats {
        if job.query != self.failing {
            return self.engine.stream(job, sink);
        }
        for hit in self.engine.session(&job.query, &job.params).take(2) {
            sink.emit(hit);
        }
        panic!("injected mid-stream failure");
    }
}

#[test]
fn a_search_that_panics_mid_stream_sends_its_prefix_then_internal() {
    let db = dna_db(SEQS);
    let want = local_hits(&db, "GATT", 1);
    assert!(
        want.len() > 2,
        "the failing query must have more than two hits"
    );
    let executor = Arc::new(TwoHitsThenPanic {
        engine: oasis::engine::ShardedEngine::build(db.clone(), Scoring::unit_dna(), 2),
        failing: Alphabet::dna().encode_str("GATT").unwrap(),
    });
    // One worker: it must survive the panic to answer what follows.
    let (addr, runner) = start_with(&db, executor, 1);
    let mut client = bounded_client(addr);
    for round in 0..2 {
        let mut stream = client
            .search(SearchRequest::new("GATT").with_min_score(1))
            .expect("search");
        for want in &want[..2] {
            let hit = stream.next_hit().expect("hit frame").expect("a hit");
            assert_eq!(hit.hit(), *want, "round {round}");
        }
        match stream.next_hit() {
            Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::Internal, "{e:?}"),
            other => panic!("expected Error(Internal), got {other:?}"),
        }
        // The repeat executes (and fails) again.
        let metrics = client.metrics().expect("metrics");
        assert_eq!(metrics.served, 0, "a failed search is not served");
    }
    // The worker and the connection keep serving.
    let (hits, _) = client
        .search_collect(SearchRequest::new("TACG").with_min_score(1))
        .expect("the next search completes");
    assert_identical_response(&db, &hits, "TACG", 1);

    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

/// Runs every query on a real engine, except `parking`: that one emits
/// its first hit, signals `parked`, and then returns only once its search
/// is cancelled.
struct ParkUntilCancelled {
    engine: oasis::engine::ShardedEngine,
    parking: Vec<u8>,
    parked: mpsc::Sender<()>,
}

impl QueryExecutor for ParkUntilCancelled {
    fn stream(&self, job: &BatchQuery, sink: &mut HitSink<'_>) -> SearchStats {
        if job.query != self.parking {
            return self.engine.stream(job, sink);
        }
        if let Some(first) = self.engine.session(&job.query, &job.params).next() {
            sink.emit(first);
        }
        self.parked.send(()).ok();
        while !sink.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
        }
        Default::default()
    }
}

#[test]
fn an_expired_deadline_or_a_closed_connection_cancels_the_search() {
    let db = dna_db(SEQS);
    let want = local_hits(&db, "GATT", 1);
    let (parked_tx, parked) = mpsc::channel();
    let executor = Arc::new(ParkUntilCancelled {
        engine: oasis::engine::ShardedEngine::build(db.clone(), Scoring::unit_dna(), 2),
        parking: Alphabet::dna().encode_str("GATT").unwrap(),
        parked: parked_tx,
    });
    // One worker: the parked search holds it until it is cancelled, so
    // every search on the other connection proves the cancellation.
    let (addr, runner) = start_with(&db, executor, 1);
    let mut other = bounded_client(addr);

    // Deadline: the hit sent before the error is a valid prefix. (The
    // executor emits it at once; the deadline only has to outlast that.)
    let mut client = bounded_client(addr);
    let mut stream = client
        .search(
            SearchRequest::new("GATT")
                .with_min_score(1)
                .with_deadline_ms(500),
        )
        .expect("search");
    let first = stream.next_hit().expect("hit frame").expect("a hit");
    assert_eq!(first.hit(), want[0]);
    match stream.next_hit() {
        Err(NetError::Remote(e)) => assert_eq!(e.code, ErrorCode::DeadlineExceeded, "{e:?}"),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    parked.recv().expect("the search ran");
    let (hits, _) = other
        .search_collect(SearchRequest::new("TACG").with_min_score(1))
        .expect("the worker is free after the deadline");
    assert_identical_response(&db, &hits, "TACG", 1);

    // Connection close: the parked search is cancelled with it. The
    // client closes with its first hit unread, so the kernel resets the
    // connection instead of half-closing it.
    let mut closing = std::net::TcpStream::connect(addr).expect("raw connect");
    closing
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    oasis::net::read_frame(&mut closing).expect("hello");
    oasis::net::write_frame(
        &mut closing,
        &Frame::Search(SearchRequest::new("GATT").with_min_score(1)),
    )
    .expect("send search");
    parked.recv().expect("the search ran");
    closing.peek(&mut [0u8; 1]).expect("the first hit arrived");
    drop(closing);
    let (hits, _) = other
        .search_collect(SearchRequest::new("CC").with_min_score(1))
        .expect("the worker is free after the close");
    assert_identical_response(&db, &hits, "CC", 1);

    // Cancelled searches are not served.
    let metrics = other.metrics().expect("metrics");
    assert_eq!(metrics.served, 2, "{metrics:?}");

    other.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

#[test]
fn concurrent_appends_from_two_connections_publish_in_wal_order() {
    const PER_CLIENT: usize = 20;
    const MOTIF: &str = "GGGCCCTTTAAAGGG";
    let dir = scratch_dir("concurrent-admin");
    let (addr, _handle, runner) = start_live_server(&dir, 0);
    let names = |client: usize| -> Vec<String> {
        (0..PER_CLIENT).map(|i| format!("c{client}r{i}")).collect()
    };
    let appenders: Vec<_> = (0..2)
        .map(|client| {
            let records = names(client);
            std::thread::spawn(move || {
                let mut conn = bounded_client(addr);
                records
                    .iter()
                    .map(|name| {
                        let done = conn.append(format!(">{name}\n{MOTIF}\n")).expect("append");
                        assert_eq!(done.appended_seqs, 1);
                        (done.generation, done.delta_seqs)
                    })
                    .collect::<Vec<(u64, u32)>>()
            })
        })
        .collect();
    let mut published = Vec::new();
    for appender in appenders {
        let acks = appender.join().expect("appender");
        assert!(
            acks.windows(2).all(|w| w[0].0 < w[1].0),
            "one connection's generations must strictly increase: {acks:?}"
        );
        published.extend(acks);
    }
    // Generations publish in WAL order: ordered by generation, the delta
    // each append left behind counts 1, 2, …, 40.
    published.sort_unstable();
    let deltas: Vec<u32> = published.iter().map(|&(_, delta)| delta).collect();
    let want: Vec<u32> = (1..=2 * PER_CLIENT as u32).collect();
    assert_eq!(deltas, want, "{published:?}");
    let generations: Vec<u64> = published
        .iter()
        .map(|&(generation, _)| generation)
        .collect();

    let mut client = bounded_client(addr);
    let metrics = client.metrics().expect("metrics");
    assert_eq!(metrics.delta_seqs as usize, 2 * PER_CLIENT, "{metrics:?}");
    assert_eq!(metrics.generation, *generations.last().unwrap());
    // The last publish carries every append, whichever connection sent it.
    let (hits, _) = client
        .search_collect(SearchRequest::new(MOTIF).with_min_score(MOTIF.len() as i32))
        .expect("search");
    let mut found: Vec<String> = hits.into_iter().map(|hit| hit.name).collect();
    found.sort();
    let mut want: Vec<String> = names(0).into_iter().chain(names(1)).collect();
    want.sort();
    assert_eq!(found, want);

    client.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Read the handshake of a raw connection: `Hello`, or the terminal
/// error a refused connection gets instead.
fn greeting(addr: std::net::SocketAddr) -> (std::net::TcpStream, Frame) {
    let mut stream = std::net::TcpStream::connect(addr).expect("raw connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let frame = oasis::net::read_frame(&mut stream).expect("greeting");
    (stream, frame)
}

#[test]
fn connections_over_max_conns_are_refused_with_busy_until_one_closes() {
    let db = dna_db(SEQS);
    let (addr, _handle, runner) = start_server(
        &db,
        1,
        ServerConfig {
            max_conns: 2,
            ..ServerConfig::default()
        },
    );
    let (first, hello) = greeting(addr);
    assert!(matches!(hello, Frame::Hello(_)), "{hello:?}");
    let mut second = bounded_client(addr);

    let (mut third, refusal) = greeting(addr);
    match refusal {
        Frame::Error(e) => {
            assert_eq!(e.code, ErrorCode::Busy, "{e:?}");
            assert!(e.message.contains("connection limit"), "{}", e.message);
        }
        other => panic!("expected a terminal Busy, got {other:?}"),
    }
    // The refusal is terminal: the server closes the stream.
    assert!(matches!(
        oasis::net::read_frame(&mut third),
        Err(NetError::Io(_))
    ));

    drop(first);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while second.metrics().expect("metrics").connections_open > 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "the closed connection never left"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let (_fourth, hello) = greeting(addr);
    assert!(matches!(hello, Frame::Hello(_)), "{hello:?}");
    let metrics = second.metrics().expect("metrics");
    assert_eq!(metrics.connections_open, 2, "{metrics:?}");
    assert_eq!(metrics.connections_accepted, 4, "{metrics:?}");

    second.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

/// Runs every query on a real engine, except `heavy`: that one emits
/// `hits` copies of a hit on the sequence with a long name — far more
/// bytes than the socket buffers hold — and then returns only once its
/// search is cancelled. `emitted` counts those searches once their hits
/// are out, `cancelled` once they end.
struct Firehose {
    engine: oasis::engine::ShardedEngine,
    heavy: Vec<u8>,
    seq: SeqId,
    hits: usize,
    emitted: std::sync::atomic::AtomicUsize,
    cancelled: std::sync::atomic::AtomicUsize,
}

impl QueryExecutor for Firehose {
    fn stream(&self, job: &BatchQuery, sink: &mut HitSink<'_>) -> SearchStats {
        use std::sync::atomic::Ordering;
        if job.query != self.heavy {
            return self.engine.stream(job, sink);
        }
        for _ in 0..self.hits {
            sink.emit(Hit {
                seq: self.seq,
                score: 1,
                t_start: 0,
                t_len: 1,
                q_end: 1,
            });
        }
        self.emitted.fetch_add(1, Ordering::SeqCst);
        while !sink.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.cancelled.fetch_add(1, Ordering::SeqCst);
        Default::default()
    }
}

/// A server over a [`Firehose`] whose heavy query is "GATT" (4,000 hits
/// of ~4 KB each: 16 MB per search, so one batch alone outgrows the
/// loopback socket buffers), with `workers` engine workers.
fn start_firehose(
    workers: usize,
) -> (
    Arc<SequenceDatabase>,
    Arc<Firehose>,
    std::net::SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, s) in SEQS.iter().enumerate() {
        b.push_str(format!("s{i}"), s).unwrap();
    }
    let seq = b.push_str("n".repeat(4000), "ACGT").unwrap();
    let db = Arc::new(b.finish());
    let executor = Arc::new(Firehose {
        engine: oasis::engine::ShardedEngine::build(db.clone(), Scoring::unit_dna(), 2),
        heavy: Alphabet::dna().encode_str("GATT").unwrap(),
        seq,
        hits: 4000,
        emitted: Default::default(),
        cancelled: Default::default(),
    });
    let index = ServedIndex::new(db.clone(), executor.clone());
    let config = ServerConfig {
        workers,
        queue_capacity: 2 * workers,
        ..ServerConfig::default()
    };
    let server =
        OasisServer::bind("127.0.0.1:0", index, Scoring::unit_dna(), config).expect("bind");
    let (addr, handle) = (server.local_addr(), server.handle());
    (
        db,
        executor,
        addr,
        handle,
        std::thread::spawn(move || server.run()),
    )
}

/// Open a raw connection that sends `depth` heavy searches and never
/// reads; return once the first has emitted its hits and its writer has
/// had time to fill the socket and block.
fn stop_reading_after(
    addr: std::net::SocketAddr,
    depth: usize,
    executor: &Firehose,
) -> std::net::TcpStream {
    use std::io::Write;
    let (mut stream, hello) = greeting(addr);
    assert!(matches!(hello, Frame::Hello(_)), "{hello:?}");
    let mut batch = Vec::new();
    for _ in 0..depth {
        oasis::net::write_frame(
            &mut batch,
            &Frame::Search(SearchRequest::new("GATT").with_min_score(1)),
        )
        .expect("encode request");
    }
    stream.write_all(&batch).expect("write pipeline");
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while executor.emitted.load(std::sync::atomic::Ordering::SeqCst) == 0 {
        assert!(std::time::Instant::now() < deadline, "the head never ran");
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(200));
    stream
}

#[test]
fn a_client_that_stops_reading_blocks_only_its_own_connection() {
    use std::sync::atomic::Ordering;

    // A worker for each of A's searches (they hold theirs until
    // cancelled) and spares for B.
    const DEPTH: usize = 32;
    let (db, executor, addr, _handle, runner) = start_firehose(DEPTH + 2);
    // Client A pipelines hit-heavy searches and never reads a byte.
    let a = stop_reading_after(addr, DEPTH, &executor);

    // Client B is served while A's writer is stuck on A's full socket.
    let mut client_b = Client::connect_timeout(addr, Duration::from_secs(10)).expect("connect b");
    let (hits, _) = client_b
        .search_collect(SearchRequest::new("TACG").with_min_score(1))
        .expect("B's search completes");
    assert_identical_response(&db, &hits, "TACG", 1);

    // Dropping A (its hits unread, so the kernel resets the connection)
    // cancels every search of A's that started; none is served.
    drop(a);
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while executor.cancelled.load(Ordering::SeqCst) < executor.emitted.load(Ordering::SeqCst) {
        assert!(
            std::time::Instant::now() < deadline,
            "A's searches were not cancelled"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let metrics = client_b.metrics().expect("metrics");
    assert_eq!(metrics.served, 1, "only B's search is served: {metrics:?}");

    client_b.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

#[test]
fn a_half_closed_client_still_reads_its_whole_response() {
    use std::io::Read;

    let db = dna_db(SEQS);
    let want = local_hits(&db, "GATT", 1);
    let (executor, parked, release) = hold_after_first_hit(&db, "GATT");
    let (addr, runner) = start_with(&db, executor, 2);

    let (mut stream, hello) = greeting(addr);
    assert!(matches!(hello, Frame::Hello(_)), "{hello:?}");
    oasis::net::write_frame(
        &mut stream,
        &Frame::Search(SearchRequest::new("GATT").with_min_score(1)),
    )
    .expect("send search");
    // Half-close while the search is held mid-stream: the server's reader
    // sees the end of the request stream before the response is done.
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    parked
        .recv_timeout(Duration::from_secs(10))
        .expect("the search is parked");
    std::thread::sleep(Duration::from_millis(50));
    release.send(()).unwrap();
    let (hits, done) = read_response(&mut stream).expect("the whole response");
    assert_eq!(done.hits as usize, want.len());
    assert_identical_response(&db, &hits, "GATT", 1);
    // Then the server closes the connection.
    assert_eq!(stream.read(&mut [0u8; 1]).expect("clean close"), 0);

    let mut admin = bounded_client(addr);
    admin.shutdown_server().expect("shutdown");
    runner.join().expect("accept loop").expect("run ok");
}

#[test]
fn shutdown_force_closes_a_peer_that_stopped_reading() {
    use std::sync::atomic::Ordering;

    let (_db, executor, addr, handle, runner) = start_firehose(2);
    let stalled = stop_reading_after(addr, 1, &executor);
    // Its writer is blocked in a write and its search never ends: only
    // the drain grace period's force-close can end the connection.
    let (joined_tx, joined) = mpsc::channel();
    std::thread::spawn(move || joined_tx.send(runner.join()).ok());
    let started = std::time::Instant::now();
    handle.shutdown();
    let run = joined
        .recv_timeout(Duration::from_secs(60))
        .expect("shutdown wedged");
    run.expect("accept loop").expect("run ok");
    let waited = started.elapsed();
    assert!(
        waited >= Duration::from_secs(5),
        "closed before the grace period: {waited:?}"
    );
    // Force-closing the connection dropped its ticket: the search ends.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while executor.cancelled.load(Ordering::SeqCst) == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "the search was not cancelled"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stalled);
}
