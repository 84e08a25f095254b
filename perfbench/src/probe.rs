//! In-process probes: the benchmark calls each layer's public entry point
//! directly on the same inputs and times it from outside, with a span
//! around every call.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use oasis_align::{Score, Scoring};
use oasis_bioseq::{Sequence, SequenceDatabase};
use oasis_core::{expand, heuristic_vector, root_node, ExpandScratch, OasisParams, Status};
use oasis_engine::{
    build_index_artifact, load_sharded_engine, IndexBackend, LiveIndex, LiveIndexOptions,
    ShardedEngine,
};
use oasis_net::ServedIndex;
use oasis_storage::WriteAheadLog;
use oasis_suffix::{NodeHandle, SuffixTree, SuffixTreeAccess};

use oasis_perfbench::spans::Tracer;
use oasis_perfbench::stats;

/// Repeats of each artifact build and load.
const ARTIFACT_REPEATS: usize = 5;
/// Probe queries that also run on a 1-shard engine (fan-out ratio).
const FANOUT_PROBES: usize = 100;
/// Probe queries the expand probe walks.
const EXPAND_PROBES: usize = 40;
/// Expansions per query in the expand probe.
const EXPAND_BUDGET: usize = 4000;
/// Appends in the WAL and layered-append probes.
const APPEND_PROBES: usize = 40;

/// What the probes measured.
#[derive(Debug, Default)]
pub struct Probes {
    pub build_s: f64,
    pub load_s: f64,
    /// Start and end of each `run_one` on the served 4-shard artifact.
    pub run_one: Vec<(Instant, Instant)>,
    pub fanout_ratio: f64,
    pub ns_per_column: f64,
    pub cells_per_us: f64,
    pub children_ns: f64,
    pub wal_append_p50_ms: f64,
    pub wal_bytes_per_residue: f64,
    pub layered_append_p50_ms: f64,
}

fn p50(samples: &[f64], what: &str) -> Result<f64, String> {
    stats::percentile(samples, 50.0)
        .ok_or_else(|| format!("{what}: {} samples are too few for a p50", samples.len()))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// What the probes run on.
pub struct Subject<'a> {
    /// The database the server serves.
    pub db: &'a Arc<SequenceDatabase>,
    /// The set-up database (`setup_s`).
    pub setup_db: &'a Arc<SequenceDatabase>,
    pub scoring: &'a Scoring,
    /// The artifact the server serves copies of (`oasis index build`).
    pub artifact: &'a Path,
}

/// Run every probe. `queries` pairs each probe query with its min-score;
/// `appends` are sequences to append; `work` is a scratch directory.
pub fn run(
    subject: &Subject,
    queries: &[(Vec<u8>, Score)],
    appends: &[(String, Vec<u8>)],
    work: &Path,
    tracer: &mut Tracer,
) -> Result<Probes, String> {
    let Subject {
        db,
        setup_db,
        scoring,
        artifact,
    } = *subject;
    let mut p = Probes::default();

    // storage.artifact: build and load of the set-up database, median of
    // repeats.
    let dir = work.join("probe-index");
    let mut builds = Vec::new();
    for r in 0..ARTIFACT_REPEATS {
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        build_index_artifact(setup_db, &dir, 4, 2048, IndexBackend::Tree).map_err(err)?;
        builds.push(t0.elapsed().as_secs_f64());
        tracer.record("storage.artifact.build", t0, Instant::now(), None, r as u64);
    }
    let mut loads = Vec::new();
    for r in 0..ARTIFACT_REPEATS {
        let t0 = Instant::now();
        let served = ServedIndex::from_artifact(&dir, scoring.clone(), 64 << 20).map_err(err)?;
        loads.push(t0.elapsed().as_secs_f64());
        tracer.record("storage.artifact.load", t0, Instant::now(), None, r as u64);
        drop(served);
    }
    p.build_s = stats::median(&builds).expect("repeats ran");
    p.load_s = stats::median(&loads).expect("repeats ran");
    let _ = std::fs::remove_dir_all(&dir);

    // engine.shard + core.driver: run_one on the served 4-shard artifact
    // for every probe query; the first FANOUT_PROBES also run on a 1-shard
    // engine over the same database, alternating which goes first.
    let four = load_sharded_engine(artifact, scoring.clone()).map_err(err)?;
    let one = ShardedEngine::build(db.clone(), scoring.clone(), 1);
    let (mut pair4, mut pair1, mut columns) = (0.0, 0.0, 0u64);
    for (i, (q, min_score)) in queries.iter().enumerate() {
        let params = OasisParams::with_min_score(*min_score);
        let time = |engine: &ShardedEngine, tracer: &mut Tracer| {
            let t0 = Instant::now();
            let out = std::hint::black_box(engine.run_one(q, &params));
            let t1 = Instant::now();
            tracer.record("engine.shard.run_one", t0, t1, None, i as u64);
            (t0, t1, out.stats.columns_expanded)
        };
        let paired = i < FANOUT_PROBES;
        if paired && i % 2 == 1 {
            let (a, b, _) = time(&one, tracer);
            pair1 += (b - a).as_secs_f64();
        }
        let (a, b, cols) = time(&four, tracer);
        if paired && i % 2 == 0 {
            let (a, b, _) = time(&one, tracer);
            pair1 += (b - a).as_secs_f64();
        }
        if paired {
            pair4 += (b - a).as_secs_f64();
        }
        p.run_one.push((a, b));
        columns += cols;
    }
    let total: f64 = p.run_one.iter().map(|(a, b)| (*b - *a).as_secs_f64()).sum();
    p.fanout_ratio = pair4 / pair1;
    p.ns_per_column = total * 1e9 / columns.max(1) as f64;
    drop((four, one));

    // core.expand + suffix: expand() from the root over viable children.
    let tree = SuffixTree::build(db);
    let (mut cells, mut expand_ns, mut children_ns, mut children_calls) = (0u64, 0u64, 0u64, 0u64);
    for (i, (q, min_score)) in queries.iter().take(EXPAND_PROBES).enumerate() {
        let t_query = Instant::now();
        let h = heuristic_vector(q, scoring);
        let Some(root) = root_node(q, &h, *min_score) else {
            continue;
        };
        let mut scratch = ExpandScratch::default();
        let mut frontier = vec![root];
        let (mut expanded, mut seq, mut kids) = (0usize, 1u64, Vec::<NodeHandle>::new());
        while let Some(parent) = frontier.pop() {
            if expanded >= EXPAND_BUDGET {
                break;
            }
            let t0 = Instant::now();
            kids.clear();
            tree.children_into(parent.handle, &mut kids);
            let t1 = Instant::now();
            let mut cols = 0u64;
            for &child in &kids {
                let node = expand(
                    &tree,
                    &parent,
                    child,
                    q,
                    scoring,
                    &h,
                    *min_score,
                    seq,
                    &mut scratch,
                    &mut cols,
                );
                seq += 1;
                if node.status == Status::Viable && !node.handle.is_leaf() {
                    frontier.push(node);
                }
            }
            let t2 = Instant::now();
            expanded += kids.len();
            children_ns += (t1 - t0).as_nanos() as u64;
            children_calls += 1;
            expand_ns += (t2 - t1).as_nanos() as u64;
            cells += cols * q.len() as u64;
        }
        tracer.record("core.expand.probe", t_query, Instant::now(), None, i as u64);
    }
    p.cells_per_us = cells as f64 / (expand_ns.max(1) as f64 / 1e3);
    p.children_ns = children_ns as f64 / children_calls.max(1) as f64;
    drop(tree);

    // storage.wal: one fsynced record per append.
    let wal_dir = work.join("probe-wal");
    std::fs::create_dir_all(&wal_dir).map_err(err)?;
    let (mut wal, _) = WriteAheadLog::open(&wal_dir).map_err(err)?;
    let (mut wal_ms, mut residues) = (Vec::new(), 0u64);
    for (i, (name, codes)) in appends.iter().take(APPEND_PROBES).enumerate() {
        let t0 = Instant::now();
        wal.append(name, codes).map_err(err)?;
        let t1 = Instant::now();
        tracer.record("storage.wal.append", t0, t1, None, i as u64);
        wal_ms.push((t1 - t0).as_secs_f64() * 1e3);
        residues += codes.len() as u64;
    }
    p.wal_append_p50_ms = p50(&wal_ms, "storage.wal.append")?;
    p.wal_bytes_per_residue = wal.bytes() as f64 / residues.max(1) as f64;

    // engine.layered: LiveIndex::append over a copy of the served artifact.
    let live_dir = work.join("probe-live");
    crate::server::copy_artifact(artifact, &live_dir)?;
    let live =
        LiveIndex::open(&live_dir, scoring.clone(), LiveIndexOptions::default()).map_err(err)?;
    let mut layered_ms = Vec::new();
    for (i, (name, codes)) in appends.iter().take(APPEND_PROBES).enumerate() {
        let seq = Sequence::from_codes(name.clone(), codes.clone());
        let t0 = Instant::now();
        live.append(vec![seq]).map_err(err)?;
        let t1 = Instant::now();
        tracer.record("engine.layered.append", t0, t1, None, i as u64);
        layered_ms.push((t1 - t0).as_secs_f64() * 1e3);
    }
    p.layered_append_p50_ms = p50(&layered_ms, "engine.layered.append")?;
    Ok(p)
}
