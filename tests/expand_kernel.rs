//! Differential property for the expand kernel: the production kernel —
//! the fused scalar loop over the query profile below 48 query symbols,
//! the two-pass live-mask layout from 48 on — must be **byte-identical** to
//! the scalar Algorithm 3 transcription (`expand_reference`) on every field
//! of every node it ever produces. It is checked across random databases,
//! queries, thresholds and rule ablations; over all three index substrates
//! (suffix tree, packed ESA, and the disk-resident tree); for DNA with the
//! unit matrix, protein with BLOSUM62, and protein with PAM30 at the served
//! query lengths (6–56).
//!
//! Each walk runs three kernels in lockstep: the public `expand_with_rules`,
//! the driver's pinned [`QueryKernel`] (default rules only) with expanded
//! nodes' columns handed back to its free list, and the oracle. The walk
//! expands the *entire* viable frontier, so agreement is checked not just
//! at the root's children but along every path the real search could take.

use proptest::prelude::*;

use oasis::core::{
    expand_reference, expand_with_rules, heuristic_vector, root_node, ExpandScratch, PruneRules,
    QueryKernel, SearchNode, Status,
};
use oasis::prelude::*;
use oasis::storage::DiskTreeBuilder;

fn build_db(alphabet: Alphabet, seqs: &[Vec<u8>]) -> SequenceDatabase {
    let mut b = DatabaseBuilder::new(alphabet);
    for (i, codes) in seqs.iter().enumerate() {
        b.push(Sequence::from_codes(format!("s{i}"), codes.clone()))
            .unwrap();
    }
    b.finish()
}

/// Expand every reachable viable node with all kernels, asserting
/// lockstep equality (returned node and column counter) at each arc.
/// Returns the number of arcs expanded.
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
    let mut pinned = (rules == PruneRules::default()).then(|| QueryKernel::new(query, scoring));
    let mut kids = Vec::new();
    let mut frontier: Vec<SearchNode> = vec![root];
    let mut seq = 0u64;
    let mut expanded = 0u64;
    while let Some(node) = frontier.pop() {
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
            if let Some(kernel) = pinned.as_mut() {
                let mut cols = 0u64;
                let node = kernel.expand(tree, &node, child, &h, min_score, seq, &mut cols);
                prop_assert_eq!(&node, &slow, "pinned kernel diverged at seq {}", seq);
                prop_assert_eq!(cols, slow_cols, "pinned columns diverged at seq {}", seq);
                kernel.recycle_column(node.c);
            }
            expanded += 1;
            if fast.status == Status::Viable {
                frontier.push(fast);
            }
        }
        if let Some(kernel) = pinned.as_mut() {
            kernel.recycle_column(node.c);
        }
    }
    Ok(expanded)
}

/// Run [`walk_both`] over the suffix tree, the ESA and the disk-resident
/// tree (`block_size`-byte blocks, a four-block pool) of `db`; all three
/// must expand the same number of arcs.
fn walk_every_substrate(
    db: &SequenceDatabase,
    query: &[u8],
    scoring: &Scoring,
    min_score: i32,
    rules: PruneRules,
    block_size: usize,
) -> Result<u64, TestCaseError> {
    let tree = SuffixTree::build(db);
    let esa = EsaIndex::build(db);
    let (image, _) = DiskTreeBuilder::with_block_size(block_size).build_image(&tree);
    let disk = DiskSuffixTree::open_image(image, block_size, 4 * block_size).unwrap();
    let via_tree = walk_both(&tree, query, scoring, min_score, rules)?;
    let via_esa = walk_both(&esa, query, scoring, min_score, rules)?;
    let via_disk = walk_both(&disk, query, scoring, min_score, rules)?;
    // Same traversal shape over every substrate: identical arc count.
    prop_assert_eq!(via_tree, via_esa);
    prop_assert_eq!(via_tree, via_disk);
    Ok(via_tree)
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
        block_pow in 6u32..8,
    ) {
        let db = build_db(Alphabet::dna(), &seqs);
        let scoring = Scoring::unit_dna();
        let rules = PruneRules { non_positive, no_improvement, threshold };
        walk_every_substrate(&db, &query, &scoring, min, rules, 1 << block_pow)?;
    }

    /// Protein under PAM30 at the served query lengths (6–56): the fused
    /// scalar loop below 48 symbols and the two-pass layout above it. Half
    /// the cases plant the query in the first sequence, so the walk follows
    /// a matching path deep into the tree instead of dying at the root.
    #[test]
    fn fast_kernel_equals_reference_on_served_protein_queries(
        seqs in prop::collection::vec(prop::collection::vec(0u8..20, 20..90), 1..6),
        query in prop::collection::vec(0u8..20, 6..57),
        plant in any::<bool>(),
        min in 4i32..40,
        block_pow in 6u32..8,
    ) {
        let mut seqs = seqs;
        if plant {
            let at = seqs[0].len().min(10);
            seqs[0].splice(at.., query.iter().copied());
        }
        let db = build_db(Alphabet::protein(), &seqs);
        let scoring = Scoring::pam30_protein();
        walk_every_substrate(&db, &query, &scoring, min * 5, PruneRules::default(), 1 << block_pow)?;
    }

    /// Queries drawn across the fused-scalar cutoff (48) and the 64-cell
    /// block boundary, exercising the scalar loop, the single-word mask,
    /// and multi-word live-mask skipping against the oracle — over DNA with
    /// the unit matrix and over protein with BLOSUM62.
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
        walk_every_substrate(&db, &query, &scoring, min, PruneRules::default(), 128)?;
    }
}
