//! Micro-benchmarks of the two inner costs of a search step: the expand
//! kernel by query length, and `children_into` per call on the suffix tree
//! and the ESA.
//!
//! Each kernel case expands the same bounded set of arcs every iteration
//! (collected once, depth-first from the root over viable nodes, as the
//! search would reach them), so the time per iteration divides by the
//! arcs, columns and cells printed beside it. `len_<n>` is the production
//! kernel as a search driver runs it ([`QueryKernel`]); `len_<n>/reference`
//! is the scalar oracle on the same arcs. Queries are runs of database residues, so
//! their arcs match and expansions run past the first column.
//!
//! ```sh
//! cargo bench -p oasis-bench --bench expand_kernel
//! ```

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkGroup, Criterion};
use std::hint::black_box;

use oasis_bench::{Scale, Testbed};
use oasis_bioseq::TERMINATOR;
use oasis_core::{
    expand, expand_reference, heuristic_vector, root_node, ExpandScratch, PruneRules, QueryKernel,
    SearchNode, Status,
};
use oasis_suffix::{EsaIndex, NodeHandle, SuffixTreeAccess};

/// Query lengths: both sides of the kernel's 48-symbol cutoff and past
/// one 64-cell live-mask word.
const QUERY_LENGTHS: [usize; 5] = [8, 16, 48, 128, 512];
/// Arc expansions per kernel iteration.
const EXPAND_BUDGET: usize = 2_000;
/// Internal nodes visited per `children_into` iteration.
const CHILDREN_NODES: usize = 2_000;
/// E-value that sets each query's minScore (the served default).
const EVALUE: f64 = 10.0;

fn configure(group: &mut BenchmarkGroup<'_>) {
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(1))
        .warm_up_time(Duration::from_millis(200));
}

/// The first `len` residues of the database, terminators skipped.
fn residue_run(tb: &Testbed, len: usize) -> Vec<u8> {
    let run: Vec<u8> = tb
        .workload
        .db
        .text()
        .iter()
        .copied()
        .filter(|&c| c != TERMINATOR)
        .take(len)
        .collect();
    assert_eq!(
        run.len(),
        len,
        "database too small for a {len}-residue query"
    );
    run
}

/// The arcs one kernel iteration expands: up to `EXPAND_BUDGET` children
/// reached depth-first from the root over viable nodes, each with the
/// index of its parent in `parents`.
struct Arcs {
    parents: Vec<SearchNode>,
    arcs: Vec<(usize, NodeHandle)>,
}

fn collect_arcs(tb: &Testbed, query: &[u8], h: &[i32], root: SearchNode, min_score: i32) -> Arcs {
    let tree = &*tb.tree;
    let mut scratch = ExpandScratch::default();
    let mut out = Arcs {
        parents: Vec::new(),
        arcs: Vec::new(),
    };
    let mut frontier = vec![root];
    let (mut seq, mut columns) = (1u64, 0u64);
    let mut kids = Vec::<NodeHandle>::new();
    while let Some(parent) = frontier.pop() {
        if out.arcs.len() >= EXPAND_BUDGET {
            break;
        }
        tree.children_into(parent.handle, &mut kids);
        for &child in &kids {
            let node = expand(
                tree,
                &parent,
                child,
                query,
                &tb.scoring,
                h,
                min_score,
                seq,
                &mut scratch,
                &mut columns,
            );
            seq += 1;
            out.arcs.push((out.parents.len(), child));
            if node.status == Status::Viable {
                frontier.push(node);
            }
        }
        out.parents.push(parent);
    }
    out
}

/// Expand every collected arc once with the production kernel, the
/// driver's [`QueryKernel`]; returns the DP columns computed.
fn expand_all(tb: &Testbed, arcs: &Arcs, kernel: &mut QueryKernel, h: &[i32], min: i32) -> u64 {
    let mut columns = 0u64;
    for (seq, &(parent, child)) in arcs.arcs.iter().enumerate() {
        let parent = &arcs.parents[parent];
        let node = kernel.expand(&*tb.tree, parent, child, h, min, seq as u64, &mut columns);
        kernel.recycle_column(black_box(node).c);
    }
    columns
}

/// The same arcs through the scalar oracle, [`expand_reference`].
fn expand_all_reference(tb: &Testbed, arcs: &Arcs, query: &[u8], h: &[i32], min: i32) -> u64 {
    let mut scratch = ExpandScratch::default();
    let mut columns = 0u64;
    for (seq, &(parent, child)) in arcs.arcs.iter().enumerate() {
        let node = expand_reference(
            &*tb.tree,
            &arcs.parents[parent],
            child,
            query,
            &tb.scoring,
            h,
            min,
            seq as u64,
            &mut scratch,
            &mut columns,
            PruneRules::default(),
        );
        black_box(node);
    }
    columns
}

fn bench_expand(c: &mut Criterion, tb: &Testbed) {
    let mut group = c.benchmark_group("expand");
    configure(&mut group);
    for len in QUERY_LENGTHS {
        let query = residue_run(tb, len);
        let min = tb.min_score(len, EVALUE);
        let h = heuristic_vector(&query, &tb.scoring);
        let Some(root) = root_node(&query, &h, min) else {
            eprintln!("  expand/len_{len}: root unviable at minScore {min}, skipped");
            continue;
        };
        let arcs = collect_arcs(tb, &query, &h, root, min);
        let mut kernel = QueryKernel::new(&query, &tb.scoring);
        let columns = expand_all(tb, &arcs, &mut kernel, &h, min);
        assert_eq!(columns, expand_all_reference(tb, &arcs, &query, &h, min));
        eprintln!(
            "  expand/len_{len}: {} arcs, {columns} columns, {} cells per iteration",
            arcs.arcs.len(),
            columns * (len as u64 + 1)
        );
        group.bench_function(format!("len_{len}"), |b| {
            b.iter(|| expand_all(tb, &arcs, &mut kernel, &h, min))
        });
        group.bench_function(format!("len_{len}/reference"), |b| {
            b.iter(|| expand_all_reference(tb, &arcs, black_box(&query), &h, min))
        });
    }
    group.finish();
}

/// The first `CHILDREN_NODES` internal nodes in breadth-first order.
fn internal_nodes<T: SuffixTreeAccess>(index: &T) -> Vec<NodeHandle> {
    let mut nodes = vec![index.root()];
    let mut kids = Vec::new();
    let mut next = 0;
    while next < nodes.len() && nodes.len() < CHILDREN_NODES {
        index.children_into(nodes[next], &mut kids);
        nodes.extend(kids.iter().filter(|k| !k.is_leaf()));
        next += 1;
    }
    nodes.truncate(CHILDREN_NODES);
    nodes
}

fn children_pass<T: SuffixTreeAccess>(index: &T, nodes: &[NodeHandle]) -> usize {
    let mut kids = Vec::new();
    let mut total = 0;
    for &node in nodes {
        index.children_into(node, &mut kids);
        total += kids.len();
    }
    total
}

fn bench_children(c: &mut Criterion, tb: &Testbed) {
    let esa = EsaIndex::build(&tb.workload.db);
    let mut group = c.benchmark_group("children_into");
    configure(&mut group);
    let tree_nodes = internal_nodes(&*tb.tree);
    let esa_nodes = internal_nodes(&esa);
    for (label, calls, kids) in [
        (
            "tree",
            tree_nodes.len(),
            children_pass(&*tb.tree, &tree_nodes),
        ),
        ("esa", esa_nodes.len(), children_pass(&esa, &esa_nodes)),
    ] {
        eprintln!("  children_into/{label}: {calls} calls, {kids} children per iteration");
    }
    group.bench_function("tree", |b| {
        b.iter(|| black_box(children_pass(&*tb.tree, &tree_nodes)))
    });
    group.bench_function("esa", |b| {
        b.iter(|| black_box(children_pass(&esa, &esa_nodes)))
    });
    group.finish();
}

fn bench_kernel(c: &mut Criterion) {
    let tb = Testbed::protein(Scale::Tiny);
    bench_expand(c, &tb);
    bench_children(c, &tb);
}

criterion_group!(benches, bench_kernel);
criterion_main!(benches);
