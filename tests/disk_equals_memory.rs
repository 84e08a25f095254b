//! The disk-resident suffix tree (§3.4 layout + buffer pool) must be
//! observationally identical to the in-memory tree: same exact-match
//! results, same OASIS results, at any block size and any pool size.

use proptest::prelude::*;

use oasis::prelude::*;
use oasis::storage::MemDevice;

fn build_db(seqs: &[Vec<u8>]) -> SequenceDatabase {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, codes) in seqs.iter().enumerate() {
        b.push(Sequence::from_codes(format!("s{i}"), codes.clone()))
            .unwrap();
    }
    b.finish()
}

fn disk_tree(tree: &SuffixTree, block_size: usize, pool_bytes: usize) -> DiskSuffixTree<MemDevice> {
    let (image, _) = oasis::storage::DiskTreeBuilder::with_block_size(block_size).build_image(tree);
    DiskSuffixTree::open_image(image, block_size, pool_bytes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn search_results_identical(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..40), 1..8),
        query in prop::collection::vec(0u8..4, 1..10),
        min in 1i32..6,
        block_pow in 6u32..9, // 64..256 byte blocks: force record straddling pressure
        pool_frames in 1usize..16,
    ) {
        let db = build_db(&seqs);
        let mem = SuffixTree::build(&db);
        let block = 1usize << block_pow;
        let disk = disk_tree(&mem, block, block * pool_frames);
        let scoring = Scoring::unit_dna();
        let params = OasisParams::with_min_score(min);
        let (mem_hits, mem_stats) =
            OasisSearch::new(&mem, &db, &query, &scoring, &params).run();
        let (disk_hits, disk_stats) =
            OasisSearch::new(&disk, &db, &query, &scoring, &params).run();
        // Hits may tie-differ in order only when scores are equal; compare
        // as multisets of (seq, score).
        let mut a: Vec<_> = mem_hits.iter().map(|h| (h.seq, h.score)).collect();
        let mut b: Vec<_> = disk_hits.iter().map(|h| (h.seq, h.score)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // Identical DP work regardless of the backing store.
        prop_assert_eq!(mem_stats.columns_expanded, disk_stats.columns_expanded);
    }

    #[test]
    fn exact_matching_identical(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..40), 1..8),
        query in prop::collection::vec(0u8..4, 1..10),
    ) {
        let db = build_db(&seqs);
        let mem = SuffixTree::build(&db);
        let disk = disk_tree(&mem, 64, 1 << 16);
        prop_assert_eq!(
            oasis::suffix::occurrences(&mem, &query),
            oasis::suffix::occurrences(&disk, &query)
        );
    }

    #[test]
    fn traversal_identical(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..40), 1..8),
    ) {
        let db = build_db(&seqs);
        let mem = SuffixTree::build(&db);
        let disk = disk_tree(&mem, 64, 1 << 16);
        prop_assert_eq!(mem.text_len(), disk.text_len());
        prop_assert_eq!(
            SuffixTreeAccess::num_internal(&mem),
            SuffixTreeAccess::num_internal(&disk)
        );
        prop_assert_eq!(
            mem.collect_leaves(mem.root()),
            disk.collect_leaves(disk.root())
        );
    }
}

#[test]
fn one_frame_pool_is_still_correct() {
    // Absolute worst case: a single buffer frame, every access thrashes.
    let db = build_db(&[
        vec![0, 1, 2, 3, 0, 1, 2, 3, 1, 1],
        vec![2, 3, 0, 1],
        vec![0, 0, 0, 0, 0],
    ]);
    let mem = SuffixTree::build(&db);
    let disk = disk_tree(&mem, 64, 1);
    let scoring = Scoring::unit_dna();
    let params = OasisParams::with_min_score(2);
    let query = vec![0, 1, 2, 3];
    let (mem_hits, _) = OasisSearch::new(&mem, &db, &query, &scoring, &params).run();
    let (disk_hits, _) = OasisSearch::new(&disk, &db, &query, &scoring, &params).run();
    let mut a: Vec<_> = mem_hits.iter().map(|h| (h.seq, h.score)).collect();
    let mut b: Vec<_> = disk_hits.iter().map(|h| (h.seq, h.score)).collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
    assert!(disk.pool().stats().total().misses() > 0);
}
