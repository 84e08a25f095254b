//! Differential property for the expand kernel: the production
//! (profile + two-pass + live-mask) kernel must be **byte-identical** to
//! the scalar Algorithm 3 transcription on every field of every node it
//! ever produces — across random databases, queries, thresholds, rule
//! ablations, both index substrates (suffix tree and packed ESA), and
//! both alphabets (DNA with the unit matrix, protein with BLOSUM62).
//!
//! The walk expands the *entire* viable frontier breadth-first with both
//! kernels in lockstep, so agreement is checked not just at the root's
//! children but along every path the real search could take.

use proptest::prelude::*;

use oasis::core::{
    expand_reference, expand_with_rules, heuristic_vector, root_node, ExpandScratch, PruneRules,
    SearchNode, Status,
};
use oasis::prelude::*;

fn build_db(alphabet: Alphabet, seqs: &[Vec<u8>]) -> SequenceDatabase {
    let mut b = DatabaseBuilder::new(alphabet);
    for (i, codes) in seqs.iter().enumerate() {
        b.push(Sequence::from_codes(format!("s{i}"), codes.clone()))
            .unwrap();
    }
    b.finish()
}

/// Expand every reachable viable node with both kernels, asserting
/// lockstep equality (returned node and column counter) at each arc.
fn walk_both<T: SuffixTreeAccess + ?Sized>(
    tree: &T,
    query: &[u8],
    scoring: &Scoring,
    min_score: i32,
    rules: PruneRules,
) -> Result<u64, TestCaseError> {
    let h = heuristic_vector(query, scoring);
    let Some(root) = root_node(query, &h, min_score) else {
        return Ok(0);
    };
    let mut fast_scratch = ExpandScratch::default();
    let mut slow_scratch = ExpandScratch::default();
    let mut kids = Vec::new();
    let mut frontier: Vec<SearchNode> = vec![root];
    let mut seq = 0u64;
    let mut expanded = 0u64;
    while let Some(node) = frontier.pop() {
        kids.clear();
        tree.children_into(node.handle, &mut kids);
        for &child in &kids {
            seq += 1;
            let (mut fast_cols, mut slow_cols) = (0u64, 0u64);
            let fast = expand_with_rules(
                tree,
                &node,
                child,
                query,
                scoring,
                &h,
                min_score,
                seq,
                &mut fast_scratch,
                &mut fast_cols,
                rules,
            );
            let slow = expand_reference(
                tree,
                &node,
                child,
                query,
                scoring,
                &h,
                min_score,
                seq,
                &mut slow_scratch,
                &mut slow_cols,
                rules,
            );
            prop_assert_eq!(&fast, &slow, "kernels diverged at seq {}", seq);
            prop_assert_eq!(
                fast_cols,
                slow_cols,
                "column counts diverged at seq {}",
                seq
            );
            expanded += 1;
            if fast.status == Status::Viable {
                frontier.push(fast);
            }
        }
    }
    Ok(expanded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fast_kernel_equals_reference_everywhere(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..40), 1..8),
        query in prop::collection::vec(0u8..4, 1..14),
        min in 1i32..6,
        non_positive in any::<bool>(),
        no_improvement in any::<bool>(),
        threshold in any::<bool>(),
    ) {
        let db = build_db(Alphabet::dna(), &seqs);
        let scoring = Scoring::unit_dna();
        let rules = PruneRules { non_positive, no_improvement, threshold };
        let tree = SuffixTree::build(&db);
        let esa = EsaIndex::build(&db);
        let via_tree = walk_both(&tree, &query, &scoring, min, rules)?;
        let via_esa = walk_both(&esa, &query, &scoring, min, rules)?;
        // Same traversal shape over both substrates: identical arc count.
        prop_assert_eq!(via_tree, via_esa);
    }

    /// Queries drawn across the fused-scalar cutoff (48) and the 64-cell
    /// block boundary, exercising the scalar fallback, the single-word
    /// mask, and multi-word live-mask skipping against the oracle — over
    /// DNA with the unit matrix and over protein with BLOSUM62.
    #[test]
    fn fast_kernel_equals_reference_past_one_mask_word(
        seqs in prop::collection::vec(prop::collection::vec(0u8..20, 20..80), 1..4),
        query in prop::collection::vec(0u8..20, 40..100),
        min in 1i32..12,
        protein in any::<bool>(),
    ) {
        let (db, query, scoring, min) = if protein {
            let db = build_db(Alphabet::protein(), &seqs);
            (db, query, Scoring::blosum62_protein(), min * 4)
        } else {
            let dna = |codes: &Vec<u8>| codes.iter().map(|c| c % 4).collect::<Vec<u8>>();
            let seqs: Vec<Vec<u8>> = seqs.iter().map(dna).collect();
            (build_db(Alphabet::dna(), &seqs), dna(&query), Scoring::unit_dna(), min)
        };
        let tree = SuffixTree::build(&db);
        let esa = EsaIndex::build(&db);
        let via_tree = walk_both(&tree, &query, &scoring, min, PruneRules::default())?;
        let via_esa = walk_both(&esa, &query, &scoring, min, PruneRules::default())?;
        prop_assert_eq!(via_tree, via_esa);
    }
}
