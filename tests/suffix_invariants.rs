//! Property tests on the index substrate: suffix arrays (SA-IS agrees with
//! two independent references), LCP, the generalized suffix tree's
//! structural invariants, and exact-match search against a naive scan.

mod support;

use proptest::prelude::*;

use oasis::prelude::*;
use oasis::suffix::{lcp_kasai, occurrences, suffix_array};
use support::build_db;

fn naive_occurrences(db: &SequenceDatabase, query: &[u8]) -> Vec<u32> {
    let text = db.text();
    (0..text.len())
        .filter(|&p| p + query.len() <= text.len() && &text[p..p + query.len()] == query)
        .map(|p| p as u32)
        .collect()
}

/// Sort all suffixes by direct comparison.
fn naive_suffix_array(text: &[u32]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

/// Prefix doubling: sort by (rank of the first k symbols, rank of the next
/// k), with the end of the text ranking below every symbol, until all ranks
/// are distinct.
fn doubling_suffix_array(text: &[u32]) -> Vec<u32> {
    let n = text.len();
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut rank: Vec<i64> = text.iter().map(|&x| x as i64).collect();
    let mut k = 1;
    if n == 0 {
        return sa;
    }
    loop {
        let key = |i: u32| {
            let i = i as usize;
            (rank[i], rank.get(i + k).copied().unwrap_or(-1))
        };
        sa.sort_by_key(|&i| key(i));
        let mut next = vec![0i64; n];
        for w in 1..n {
            next[sa[w] as usize] = next[sa[w - 1] as usize] + (key(sa[w]) != key(sa[w - 1])) as i64;
        }
        rank = next;
        if rank[sa[n - 1] as usize] == n as i64 - 1 {
            break;
        }
        k *= 2;
    }
    sa
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn three_sa_builders_agree(text in prop::collection::vec(0u32..6, 0..120)) {
        let sais = suffix_array(&text);
        prop_assert_eq!(&sais, &doubling_suffix_array(&text));
        prop_assert_eq!(&sais, &naive_suffix_array(&text));
    }

    #[test]
    fn lcp_matches_direct_comparison(text in prop::collection::vec(0u32..4, 1..100)) {
        let sa = suffix_array(&text);
        let lcp = lcp_kasai(&text, &sa);
        for i in 1..sa.len() {
            let a = &text[sa[i - 1] as usize..];
            let b = &text[sa[i] as usize..];
            let want = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count() as u32;
            prop_assert_eq!(lcp[i], want, "at rank {}", i);
        }
    }

    #[test]
    fn tree_has_one_leaf_per_residue(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 0..30), 1..8),
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        prop_assert_eq!(tree.num_leaves() as u64, db.total_residues());
        // Leaves are exactly the non-terminator positions.
        let leaves = tree.collect_leaves(tree.root());
        let expect: Vec<u32> = (0..db.text_len())
            .filter(|&p| db.text()[p as usize] != TERMINATOR)
            .collect();
        prop_assert_eq!(leaves, expect);
    }

    #[test]
    fn internal_depths_strictly_increase_down_paths(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..30), 1..8),
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        // DFS: child depth > parent depth; branching factor >= 2 for
        // non-root internal nodes (compactness / PATRICIA property).
        let mut stack = vec![tree.root()];
        let mut kids = Vec::new();
        while let Some(node) = stack.pop() {
            let depth = tree.depth(node);
            tree.children_into(node, &mut kids);
            if node != tree.root() {
                prop_assert!(kids.len() >= 2, "internal node with {} children", kids.len());
            }
            for &c in &kids {
                prop_assert!(tree.depth(c) > depth);
                if !c.is_leaf() {
                    stack.push(c);
                }
            }
        }
    }

    #[test]
    fn sibling_arcs_start_with_distinct_symbols(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..30), 1..8),
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let mut stack = vec![tree.root()];
        let mut kids = Vec::new();
        while let Some(node) = stack.pop() {
            let depth = tree.depth(node);
            tree.children_into(node, &mut kids);
            let mut firsts: Vec<u8> = kids
                .iter()
                .map(|&c| {
                    let mut b = [0u8];
                    tree.arc_fill(depth, c, 0, &mut b);
                    b[0]
                })
                .collect();
            let before = firsts.len();
            firsts.sort_unstable();
            firsts.dedup();
            // Terminator-leading leaf arcs may repeat (distinct sequences);
            // all residue-leading arcs must be unique.
            let terminators = kids.len() - firsts.len();
            let _ = terminators;
            let residue_firsts = firsts.iter().filter(|&&f| f != TERMINATOR).count();
            let residue_kids = kids
                .iter()
                .filter(|&&c| {
                    let mut b = [0u8];
                    tree.arc_fill(depth, c, 0, &mut b);
                    b[0] != TERMINATOR
                })
                .count();
            prop_assert_eq!(residue_firsts, residue_kids, "duplicate branching symbol");
            let _ = before;
            for &c in &kids {
                if !c.is_leaf() {
                    stack.push(c);
                }
            }
        }
    }

    #[test]
    fn exact_search_matches_naive_scan(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..30), 1..8),
        query in prop::collection::vec(0u8..4, 1..8),
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        prop_assert_eq!(occurrences(&tree, &query), naive_occurrences(&db, &query));
    }
}
