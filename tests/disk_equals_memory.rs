//! The disk-resident suffix tree (§3.4 layout + buffer pool) must be
//! observationally identical to the in-memory tree: same exact-match
//! results and the same traversal. That OASIS searches over it return the
//! same hits, at any pool size, is checked by `tests/model_oracle.rs`.

mod support;

use proptest::prelude::*;

use oasis::prelude::*;
use oasis::storage::MemDevice;
use support::build_db;

fn disk_tree(tree: &SuffixTree, block_size: usize, pool_bytes: usize) -> DiskSuffixTree<MemDevice> {
    let (image, _) = oasis::storage::DiskTreeBuilder::with_block_size(block_size).build_image(tree);
    DiskSuffixTree::open_image(image, block_size, pool_bytes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
