//! The exactness contract, checked by one model-based oracle.
//!
//! Each case draws a scoring scheme (unit DNA, a skewed DNA matrix,
//! affine gaps, or PAM30 over protein) and a history of operations over a
//! database: builds (shard count × index backend), appends, compactions,
//! reloads and searches, in any order. The model is a plain list of
//! sequences. The reference answer to a search is a serial
//! `OasisSearch` over a freshly built suffix tree of that list; in
//! best-per-sequence mode its `(sequence, score)` set must also equal an
//! exhaustive Smith-Waterman scan, which ties the model to S-W.
//!
//! After every step each transport must give exactly the reference
//! answer, hits in the same order with every field equal:
//!
//! * in process: the live snapshot's `run_job`, a `session` polled a
//!   few driver steps at a time, and a threaded `run_batch_on`;
//! * a `ServingEngine` ticket;
//! * loopback TCP against an `OasisServer` over a copy of the artifact,
//!   where appends and reloads also go over the wire, with hit names,
//!   the threshold an E-value resolves to, and the handshake checked;
//! * a remote search with a 1 ms deadline, whose hits must be a prefix of
//!   the reference.
//!
//! A one-shard snapshot must also reproduce the serial search's
//! counters. On failure the message carries the whole history as Rust
//! source: paste it into `replay_a_pasted_history` to rerun it alone.

mod support;

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use oasis::prelude::*;
use support::{build_db_in, scratch_dir, sequences};

/// Cases per run and operations per case.
const CASES: u32 = 16;
const STEPS: usize = 10;
/// Words of randomness drawn per case; decoding never needs more.
const WORDS: usize = 1024;

#[derive(Debug, Clone, Copy)]
enum ScoringDraw {
    Unit,
    /// Match, mismatch and linear gap scores.
    Skewed(i32, i32, i32),
    /// Gap open and extend scores, with a +3/-2 matrix.
    Affine(i32, i32),
    /// PAM30 over protein sequences.
    Pam30,
}

impl ScoringDraw {
    fn alphabet(self) -> Alphabet {
        match self {
            ScoringDraw::Pam30 => Alphabet::protein(),
            _ => Alphabet::dna(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Backend {
    Tree,
    Esa,
    /// A tree-sharded engine built in memory, then persisted.
    TreeFromEngine,
}

#[derive(Debug, Clone)]
struct Query {
    codes: Vec<u8>,
    rule: ScoreRule,
    top: Option<u32>,
    all_occurrences: bool,
}

#[derive(Debug, Clone)]
enum Op {
    /// Build an artifact of the model: at most this many shards.
    Build(usize, Backend),
    Append(Vec<Vec<u8>>),
    /// Fold the delta. `true` refuses the publish, as a shutdown racing
    /// the compaction does: the fold lands, but the WAL keeps the folded
    /// records, as after a crash between the fold and the truncation.
    Compact(bool),
    /// Reopen the artifact directory, replaying its WAL.
    Reload,
    Search(Vec<Query>),
}

#[derive(Debug, Clone)]
struct Case {
    scoring: ScoringDraw,
    /// The artifacts' disk-image block size.
    block: usize,
    /// The buffer pool of a disk-resident shard: one block, or ample.
    pool_bytes: usize,
    initial: Vec<Vec<u8>>,
    ops: Vec<Op>,
}

/// Reads drawn words as bounded choices.
struct Draw<'a> {
    words: std::slice::Iter<'a, u32>,
    /// Residue codes are drawn below this.
    letters: u32,
}

impl Draw<'_> {
    fn below(&mut self, n: u32) -> u32 {
        self.words.next().map_or(0, |w| w % n)
    }

    fn codes(&mut self, min_len: u32, max_len: u32) -> Vec<u8> {
        let len = min_len + self.below(max_len - min_len + 1);
        let letters = self.letters;
        (0..len).map(|_| self.below(letters) as u8).collect()
    }

    fn query(&mut self, model: &[Vec<u8>]) -> Query {
        // Half the queries copy a stretch of a stored sequence, so that
        // high-scoring hits (and ties) are common.
        let source = model.get(self.below(model.len() as u32 + 1) as usize);
        let codes = match source {
            Some(seq) if seq.len() > 1 && self.below(2) == 0 => {
                let start = self.below(seq.len() as u32 - 1) as usize;
                let len = 1 + self.below(12.min(seq.len() - start) as u32) as usize;
                seq[start..start + len].to_vec()
            }
            _ => self.codes(1, 12),
        };
        let rule = match self.below(2) {
            0 => ScoreRule::MinScore(1 + self.below(6) as i32),
            _ => ScoreRule::Evalue([0.01, 1.0, 10.0, 1000.0][self.below(4) as usize]),
        };
        let top = (self.below(3) == 0).then(|| 1 + self.below(3));
        let all_occurrences = self.below(2) == 0;
        Query {
            codes,
            rule,
            top,
            all_occurrences,
        }
    }
}

impl Case {
    fn decode(words: &[u32]) -> Case {
        let mut d = Draw {
            words: words.iter(),
            letters: 4,
        };
        let scoring = match d.below(4) {
            0 => ScoringDraw::Unit,
            1 => ScoringDraw::Skewed(
                1 + d.below(5) as i32,
                -1 - d.below(5) as i32,
                -1 - d.below(4) as i32,
            ),
            2 => ScoringDraw::Affine(-(d.below(7) as i32), -1 - d.below(2) as i32),
            _ => ScoringDraw::Pam30,
        };
        d.letters = scoring.alphabet().len() as u32;
        let block = [64, 128, 256][d.below(3) as usize];
        let pool_bytes = [block, 1 << 20][d.below(2) as usize];
        let initial: Vec<Vec<u8>> = (0..d.below(6)).map(|_| d.codes(0, 40)).collect();
        let mut model = initial.clone();
        let mut ops = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            let op = match if step == 0 { 0 } else { d.below(10) } {
                0 => Op::Build(
                    [1, 2, 4][d.below(3) as usize],
                    [Backend::Tree, Backend::Esa, Backend::TreeFromEngine][d.below(3) as usize],
                ),
                1 | 2 => {
                    let seqs: Vec<Vec<u8>> = (0..1 + d.below(3)).map(|_| d.codes(1, 30)).collect();
                    model.extend(seqs.iter().cloned());
                    Op::Append(seqs)
                }
                3 => Op::Compact(d.below(2) == 0),
                4 => Op::Reload,
                _ => Op::Search((0..1 + d.below(3)).map(|_| d.query(&model)).collect()),
            };
            ops.push(op);
        }
        Case {
            scoring,
            block,
            pool_bytes,
            initial,
            ops,
        }
    }

    /// The case as Rust source for `replay_a_pasted_history`.
    fn source(&self) -> String {
        format!("{self:?}").replace('[', "vec![")
    }

    fn scoring(&self) -> Scoring {
        let dna = oasis::bioseq::AlphabetKind::Dna;
        match self.scoring {
            ScoringDraw::Unit => Scoring::unit_dna(),
            ScoringDraw::Skewed(matched, mismatched, gap) => Scoring::new(
                SubstitutionMatrix::match_mismatch(dna, matched, mismatched),
                GapModel::linear(gap),
            ),
            ScoringDraw::Affine(open, extend) => Scoring::new(
                SubstitutionMatrix::match_mismatch(dna, 3, -2),
                GapModel::affine(open, extend),
            ),
            ScoringDraw::Pam30 => Scoring::pam30_protein(),
        }
    }
}

/// The same artifact served over loopback TCP.
struct Remote {
    /// This server's copy of the artifact.
    dir: PathBuf,
    handle: ServerHandle,
    runner: std::thread::JoinHandle<std::io::Result<()>>,
    addr: std::net::SocketAddr,
    client: Client,
}

/// One case's system under test, and its model.
struct Harness {
    alphabet: Alphabet,
    scoring: Scoring,
    karlin: Option<KarlinParams>,
    block: usize,
    pool_bytes: usize,
    /// The model database: every sequence, in id order.
    model: Vec<Vec<u8>>,
    /// Sequences appended since the last build or compaction.
    pending: u32,
    dir: PathBuf,
    live: Option<LiveIndex>,
    /// The live base is served from disk through the buffer pool.
    disk_resident: bool,
    serving: ServingEngine,
    remote: Option<Remote>,
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.live = None;
        if let Some(remote) = self.remote.take() {
            remote.handle.shutdown();
            remote.runner.join().ok();
            std::fs::remove_dir_all(&remote.dir).ok();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

impl Harness {
    fn new(case: &Case) -> Harness {
        let scoring = case.scoring();
        let serving = ServingConfig {
            workers: 2,
            queue_capacity: 8,
        };
        Harness {
            alphabet: case.scoring.alphabet(),
            karlin: KarlinParams::for_matrix(&scoring.matrix).ok(),
            scoring,
            block: case.block,
            pool_bytes: case.pool_bytes,
            model: case.initial.clone(),
            pending: 0,
            dir: scratch_dir("oracle"),
            live: None,
            disk_resident: false,
            serving: ServingEngine::new(serving).expect("valid serving config"),
            remote: None,
        }
    }

    fn model_db(&self) -> Arc<SequenceDatabase> {
        Arc::new(build_db_in(self.alphabet.clone(), &self.model))
    }

    fn live(&self) -> &LiveIndex {
        self.live.as_ref().expect("a build opened the live index")
    }

    fn remote(&mut self) -> &mut Remote {
        self.remote.as_mut().expect("a build started the server")
    }

    fn step(&mut self, op: &Op) {
        match op {
            Op::Build(shards, backend) => self.build(*shards, *backend),
            Op::Append(seqs) => self.append(seqs),
            Op::Compact(refused) => self.compact(*refused),
            Op::Reload => self.reload(),
            Op::Search(queries) => self.search(queries),
        }
    }

    fn build(&mut self, shards: usize, backend: Backend) {
        self.live = None;
        std::fs::remove_dir_all(&self.dir).ok();
        let (db, dir, block) = (self.model_db(), &self.dir, self.block);
        let manifest = match backend {
            Backend::Tree => build_index_artifact(&db, dir, shards, block, IndexBackend::Tree),
            Backend::Esa => build_index_artifact(&db, dir, shards, block, IndexBackend::Esa),
            Backend::TreeFromEngine => {
                let engine = ShardedEngine::build(db.clone(), self.scoring.clone(), shards);
                persist_sharded_engine(&engine, dir, block)
            }
        }
        .expect("artifact written");
        assert!(manifest.shards.len() <= shards, "{manifest:?}");
        let esa = oasis::storage::SectionKind::PackedEsa;
        assert!(
            manifest
                .shards
                .iter()
                .all(|s| (s.kind == esa) == (backend == Backend::Esa)),
            "{manifest:?}"
        );
        self.pending = 0;
        self.open();

        // The server gets a copy: it appends to its own WAL.
        let server_dir = scratch_dir("oracle-server");
        std::fs::create_dir_all(&server_dir).expect("server directory");
        for entry in std::fs::read_dir(&self.dir).expect("artifact listing") {
            let path = entry.expect("artifact entry").path();
            let name = path.file_name().expect("a file name");
            std::fs::copy(&path, server_dir.join(name)).expect("artifact copied");
        }
        match &mut self.remote {
            None => self.remote = Some(self.serve(server_dir)),
            Some(remote) => {
                let old = std::mem::replace(&mut remote.dir, server_dir);
                self.reload_remote();
                std::fs::remove_dir_all(old).ok();
            }
        }
    }

    /// Open the in-process live index over the artifact, as a server
    /// does: disk-resident when the artifact is one tree shard.
    fn open(&mut self) {
        let manifest = read_manifest(&self.dir).expect("manifest");
        let db = Arc::new(manifest.load_database(&self.dir).expect("database"));
        self.disk_resident = opens_disk_resident(&manifest);
        let (scoring, pool) = (self.scoring.clone(), self.pool_bytes);
        let engine =
            open_artifact_engine(&self.dir, &manifest, db, scoring, pool).expect("artifact opens");
        let live = LiveIndex::adopt(&self.dir, &manifest, engine, LiveIndexOptions::default())
            .expect("live index");
        assert_eq!(live.stats().delta_seqs, self.pending, "WAL replay");
        self.live = Some(live);
    }

    fn serve(&self, dir: PathBuf) -> Remote {
        let index = ServedIndex::from_artifact(&dir, self.scoring.clone(), self.pool_bytes)
            .expect("served index");
        let config = ServerConfig {
            workers: 2,
            queue_capacity: 16,
            pool_bytes: self.pool_bytes,
            compact_after: 0,
            ..ServerConfig::default()
        };
        let server =
            OasisServer::bind("127.0.0.1:0", index, self.scoring.clone(), config).expect("bind");
        let (addr, handle) = (server.local_addr(), server.handle());
        let runner = std::thread::spawn(move || server.run());
        let remote = Remote {
            dir,
            handle,
            runner,
            addr,
            client: Client::connect(addr).expect("connect"),
        };
        self.check_hello(&remote.client);
        remote
    }

    /// Reload the server from its directory over the wire, then
    /// reconnect so the handshake describes the new generation.
    fn reload_remote(&mut self) {
        let remote = self.remote();
        let path = remote.dir.to_string_lossy().into_owned();
        remote.client.reload(path).expect("remote reload");
        remote.client = Client::connect(remote.addr).expect("reconnect");
        let remote = self.remote.as_ref().expect("a build started the server");
        self.check_hello(&remote.client);
    }

    fn check_hello(&self, client: &Client) {
        let (db, hello) = (self.model_db(), client.hello());
        assert_eq!(hello.protocol, PROTOCOL_VERSION);
        assert_eq!(hello.num_seqs, db.num_sequences(), "{hello:?}");
        assert_eq!(hello.total_residues, db.total_residues(), "{hello:?}");
    }

    fn append(&mut self, seqs: &[Vec<u8>]) {
        let offset = self.model.len();
        let residues: u64 = seqs.iter().map(|s| s.len() as u64).sum();
        let (n, pending) = (seqs.len() as u32, self.pending + seqs.len() as u32);
        let receipt = self.live().append(sequences(seqs, offset)).expect("append");
        let got = (receipt.appended_seqs, receipt.appended_residues);
        assert_eq!((got, receipt.stats.delta_seqs), ((n, residues), pending));
        assert!(receipt.stats.wal_bytes > 0, "{receipt:?}");
        let fasta: String = seqs
            .iter()
            .enumerate()
            .map(|(i, codes)| format!(">s{}\n{}\n", offset + i, self.alphabet.decode_all(codes)))
            .collect();
        let done = self.remote().client.append(fasta).expect("remote append");
        let got = (done.appended_seqs, done.appended_residues);
        assert_eq!((got, done.delta_seqs), ((n, residues), pending));
        self.model.extend(seqs.iter().cloned());
        self.pending = pending;
    }

    /// Fold the delta in process; the server's copy is compacted offline
    /// and then reloaded over the wire.
    fn compact(&mut self, refused: bool) {
        let pending = self.pending;
        let compact = |live: &LiveIndex| {
            let publish = |_| match refused {
                true => Err(PublishError::ShuttingDown),
                false => Ok(0),
            };
            match live.compact(publish) {
                Ok(report) => assert_eq!(report.folded_seqs, pending, "{report:?}"),
                Err(e) => assert!(refused && matches!(e, LiveIndexError::Publish(_)), "{e}"),
            }
            assert_eq!(live.stats().delta_seqs, 0);
        };
        compact(self.live());
        self.pending = 0;
        self.disk_resident = false;
        let dir = self.remote().dir.clone();
        let offline = LiveIndex::open(&dir, self.scoring.clone(), LiveIndexOptions::default());
        compact(&offline.expect("offline open"));
        self.reload_remote();
    }

    fn reload(&mut self) {
        self.live = None;
        self.open();
        self.reload_remote();
    }

    fn search(&mut self, queries: &[Query]) {
        let db = self.model_db();
        let tree = SuffixTree::build(&db);
        let snapshot = self.live().snapshot();
        assert!(
            snapshot.db() == &*db,
            "the snapshot's database is not the model's"
        );
        let executor = Arc::clone(&snapshot) as Arc<dyn QueryExecutor>;
        let generation = IndexCatalog::new("oracle", ServedIndex::new(db.clone(), executor));
        let generation = generation.current();
        let (mut batch, mut serial_requests) = (Vec::new(), 0);
        for (i, q) in queries.iter().enumerate() {
            let mut request = SearchRequest::new(self.alphabet.decode_all(&q.codes));
            (request.rule, request.top) = (q.rule, q.top);
            request.all_occurrences = q.all_occurrences;
            let len = q.codes.len() as u64;
            let min_score = match (q.rule, self.karlin) {
                (ScoreRule::MinScore(s), _) => s,
                (ScoreRule::Evalue(e), Some(k)) => {
                    k.min_score_for_evalue(len, db.total_residues(), e)
                }
                (ScoreRule::Evalue(_), None) => {
                    // No statistics for this matrix: a typed refusal.
                    let got = self.remote().client.search_collect(request);
                    assert!(
                        matches!(&got, Err(NetError::Remote(e)) if e.code == ErrorCode::Internal),
                        "query {i}: {got:?}"
                    );
                    continue;
                }
            };
            let mut params = OasisParams::with_min_score(min_score);
            if q.all_occurrences {
                params = params.all_occurrences();
            }
            let mut job = BatchQuery::named(format!("q{i}"), q.codes.clone(), params);
            job.limit = q.top.map(|top| top as usize);

            let (all, stats) = OasisSearch::new(&tree, &db, &q.codes, &self.scoring, &params).run();
            if !q.all_occurrences {
                let sw = SwScanner::new().scan(&db, &q.codes, &self.scoring, min_score);
                let mut sw: Vec<(SeqId, Score)> = sw.iter().map(|h| (h.seq, h.hit.score)).collect();
                let mut got: Vec<(SeqId, Score)> = all.iter().map(|h| (h.seq, h.score)).collect();
                sw.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, sw, "query {i}: the model against S-W");
            }
            let want = &all[..all.len().min(job.limit.unwrap_or(usize::MAX))];
            // Counters are the serial search's on one shard, when drained.
            let want_stats = (snapshot.num_shards() == 1 && q.top.is_none()).then_some(stats);

            let before = snapshot.pool_stats();
            let out = snapshot.run_job(&job);
            assert_eq!(out.hits, want, "query {i} run_job");
            assert_eq!(
                out.stats.hits_emitted,
                want.len() as u64,
                "query {i} run_job"
            );
            if let Some(stats) = want_stats {
                assert_eq!(out.stats, stats, "query {i} run_job counters");
            }
            let requests = snapshot.pool_stats().since(&before).total().requests;
            if self.disk_resident && !want.is_empty() {
                assert!(requests > 0, "query {i}: no reads through the pool");
            }
            serial_requests += requests;

            let mut session = snapshot.session(&q.codes, &params);
            let mut polled = Vec::new();
            while polled.len() < want.len() || q.top.is_none() {
                match session.poll(2) {
                    SessionPoll::Hit(hit) => polled.push(hit),
                    SessionPoll::Pending => {}
                    SessionPoll::Done => break,
                }
            }
            assert_eq!(polled, want, "query {i} poll");
            if let Some(stats) = want_stats {
                assert_eq!(session.finish(), stats, "query {i} poll counters");
            }

            let ticket = self
                .serving
                .try_submit(Arc::clone(&generation), job.clone(), None);
            let served = ticket.expect("admitted").wait().expect("served");
            assert_eq!(served.outcome.hits, want, "query {i} ticket");

            let client = &mut self.remote().client;
            let (hits, done) = client
                .search_collect(request.clone())
                .expect("remote search");
            assert_eq!(
                hits.iter().map(RemoteHit::hit).collect::<Vec<_>>(),
                want,
                "query {i} remote"
            );
            assert!(
                hits.iter().all(|h| h.name == db.name(h.seq)),
                "query {i}: {hits:?}"
            );
            assert_eq!(
                (done.hits as usize, done.min_score),
                (want.len(), min_score),
                "query {i}"
            );

            let mut stream = client
                .search(request.with_deadline_ms(1))
                .expect("deadline search");
            let mut prefix = Vec::new();
            loop {
                match stream.next_hit() {
                    Ok(Some(hit)) => prefix.push(hit.hit()),
                    Ok(None) => break,
                    Err(NetError::Remote(e)) if e.code == ErrorCode::DeadlineExceeded => break,
                    Err(e) => panic!("query {i} deadline search: {e}"),
                }
            }
            assert!(
                want.starts_with(&prefix),
                "query {i} deadline: {prefix:?} of {want:?}"
            );
            batch.push((job, want.to_vec()));
        }

        // Workers sharing one pool each count every read they make: the
        // batch reads exactly what the serial runs did.
        let (jobs, wants): (Vec<BatchQuery>, Vec<Vec<Hit>>) = batch.into_iter().unzip();
        let before = snapshot.pool_stats();
        let outcomes = snapshot.run_batch_on(&jobs, 2);
        for (i, (out, want)) in outcomes.iter().zip(&wants).enumerate() {
            assert_eq!(out.hits, *want, "batch job {i}");
        }
        let requests = snapshot.pool_stats().since(&before).total().requests;
        assert_eq!(requests, serial_requests, "pool reads of the batch");
    }
}

/// Run a whole history; a failure names the step and carries the history.
fn run(case: &Case) -> Result<(), String> {
    let mut at = 0;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut harness = Harness::new(case);
        for (i, op) in case.ops.iter().enumerate() {
            at = i;
            harness.step(op);
        }
    }));
    outcome.map_err(|panic| {
        let why = (panic.downcast_ref::<String>().map(String::as_str))
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a panic");
        format!(
            "step {at} ({:?}) failed: {why}\nhistory (paste into `replay_a_pasted_history`):\n{}",
            case.ops[at],
            case.source()
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn model_oracle(case in prop::collection::vec(any::<u32>(), WORDS).prop_map(|w| Case::decode(&w))) {
        run(&case).map_err(TestCaseError::fail)?;
    }
}

/// A fixed history from an empty database through every operation; paste
/// a history `model_oracle` printed over this one to replay it.
#[test]
fn replay_a_pasted_history() {
    use Backend::*;
    use Op::*;
    use ScoreRule::*;
    use ScoringDraw::*;
    let case = Case {
        scoring: Affine(-3, -1),
        block: 64,
        pool_bytes: 64,
        initial: vec![],
        ops: vec![
            Build(1, Tree),
            Append(vec![vec![0, 1, 2, 3, 0, 1], vec![3, 3, 0]]),
            Search(vec![Query {
                codes: vec![0, 1, 2],
                rule: MinScore(3),
                top: None,
                all_occurrences: false,
            }]),
            Compact(true),
            Reload,
            Build(2, Esa),
            Append(vec![vec![2, 0, 1, 2, 3]]),
            Search(vec![Query {
                codes: vec![0, 1, 2, 3],
                rule: Evalue(10.0),
                top: Some(1),
                all_occurrences: true,
            }]),
        ],
    };
    run(&case).unwrap_or_else(|e| panic!("{e}"));
}
