//! Ablation: the value of best-first (A*) frontier ordering.
//!
//! The *set* of nodes OASIS expands is order-independent (§3.2's pruning
//! rules use only per-path state), so total work barely moves. What the
//! A* ordering buys is the **online property**: with best-first ordering
//! the first accepted node already carries the global maximum, whereas
//! depth- or breadth-first drivers discover it only after a long tail of
//! weaker alignments. We measure columns expanded until the eventual best
//! score is first discovered, plus peak frontier size.

use std::collections::{BinaryHeap, VecDeque};

use oasis_bench::{banner, print_table, Scale, Testbed};
use oasis_core::node::QueueEntry;
use oasis_core::{expand, heuristic_vector, root_node, ExpandScratch, SearchNode, Status};
use oasis_suffix::SuffixTreeAccess;

#[derive(Clone, Copy, PartialEq)]
#[allow(
    clippy::enum_variant_names,
    reason = "the shared `First` suffix is the point: these are the ordering policies"
)]
enum Order {
    BestFirst,
    DepthFirst,
    BreadthFirst,
}

enum Frontier {
    Heap(BinaryHeap<QueueEntry>),
    Stack(Vec<SearchNode>),
    Queue(VecDeque<SearchNode>),
}

impl Frontier {
    fn new(order: Order) -> Self {
        match order {
            Order::BestFirst => Frontier::Heap(BinaryHeap::new()),
            Order::DepthFirst => Frontier::Stack(Vec::new()),
            Order::BreadthFirst => Frontier::Queue(VecDeque::new()),
        }
    }
    fn push(&mut self, node: SearchNode) {
        match self {
            Frontier::Heap(h) => h.push(QueueEntry(node)),
            Frontier::Stack(s) => s.push(node),
            Frontier::Queue(q) => q.push_back(node),
        }
    }
    fn pop(&mut self) -> Option<SearchNode> {
        match self {
            Frontier::Heap(h) => h.pop().map(|e| e.0),
            Frontier::Stack(s) => s.pop(),
            Frontier::Queue(q) => q.pop_front(),
        }
    }
    fn len(&self) -> usize {
        match self {
            Frontier::Heap(h) => h.len(),
            Frontier::Stack(s) => s.len(),
            Frontier::Queue(q) => q.len(),
        }
    }
}

struct Outcome {
    /// Columns expanded before the global best score was first reached.
    columns_to_best: u64,
    /// Total columns expanded draining the whole search.
    columns_total: u64,
    /// Peak frontier size.
    peak_frontier: usize,
    /// The global best score (must agree across orders).
    best_score: i32,
}

fn drive(tb: &Testbed, query: &[u8], min_score: i32, order: Order) -> Outcome {
    let h = heuristic_vector(query, &tb.scoring);
    let mut frontier = Frontier::new(order);
    if let Some(root) = root_node(query, &h, min_score) {
        frontier.push(root);
    }
    let mut columns = 0u64;
    let mut scratch = ExpandScratch::default();
    let mut kids = Vec::new();
    let mut seq_no = 1u64;
    let mut best_score = 0;
    let mut columns_to_best = 0;
    let mut peak = 0usize;
    while let Some(node) = frontier.pop() {
        match node.status {
            Status::Accepted => {
                if node.gmax > best_score {
                    best_score = node.gmax;
                    columns_to_best = columns;
                }
            }
            Status::Viable => {
                tb.tree.children_into(node.handle, &mut kids);
                for &child in &kids {
                    let new = expand(
                        &*tb.tree,
                        &node,
                        child,
                        query,
                        &tb.scoring,
                        &h,
                        min_score,
                        seq_no,
                        &mut scratch,
                        &mut columns,
                    );
                    seq_no += 1;
                    if new.status != Status::Unviable {
                        frontier.push(new);
                    }
                }
                peak = peak.max(frontier.len());
            }
            Status::Unviable => unreachable!(),
        }
    }
    Outcome {
        columns_to_best,
        columns_total: columns,
        peak_frontier: peak,
        best_score,
    }
}

fn main() {
    let scale = Scale::from_env();
    banner(
        "Ablation: frontier ordering",
        "A* (best-first) vs DFS vs BFS (E=20000)",
        scale,
    );
    let tb = Testbed::protein(scale);
    let evalue = 20_000.0;
    let queries: Vec<&Vec<u8>> = tb
        .queries
        .iter()
        .take(scale.query_count().min(24))
        .collect();

    let mut rows = Vec::new();
    for (name, order) in [
        ("A* best-first", Order::BestFirst),
        ("depth-first", Order::DepthFirst),
        ("breadth-first", Order::BreadthFirst),
    ] {
        let mut to_best = 0u64;
        let mut total = 0u64;
        let mut peak = 0usize;
        let mut best_scores = Vec::new();
        for q in &queries {
            let min = tb.min_score(q.len(), evalue);
            let o = drive(&tb, q, min, order);
            to_best += o.columns_to_best;
            total += o.columns_total;
            peak = peak.max(o.peak_frontier);
            best_scores.push(o.best_score);
        }
        if order == Order::BestFirst {
            rows.push(vec![
                "reference best scores".into(),
                format!("{:?}", &best_scores[..best_scores.len().min(6)]),
                String::new(),
                String::new(),
            ]);
        }
        rows.push(vec![
            name.to_string(),
            to_best.to_string(),
            total.to_string(),
            peak.to_string(),
        ]);
    }
    print_table(
        &[
            "strategy",
            "columns to best hit",
            "columns total",
            "peak frontier",
        ],
        &rows,
    );
    println!("\nexpected: total columns are nearly identical (pruning is per-path),");
    println!("but A* discovers the strongest alignment after far fewer columns —");
    println!("that head start is exactly the paper's online property (Figure 9).");
}
