//! The online property (§1, §4.6): hits stream out in non-increasing score
//! order, and consuming only the top k is consistent with the full run —
//! so a user can "abort the query after seeing the top few matches".

mod support;

use proptest::prelude::*;

use oasis::prelude::*;
use support::build_db;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn scores_non_increasing(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..50), 1..10),
        query in prop::collection::vec(0u8..4, 1..12),
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let params = OasisParams::with_min_score(1);
        let hits: Vec<Hit> = OasisSearch::new(&tree, &db, &query, &scoring, &params).collect();
        prop_assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
        // Each sequence appears at most once (paper: single strongest
        // alignment per database sequence).
        let mut seqs_seen: Vec<SeqId> = hits.iter().map(|h| h.seq).collect();
        seqs_seen.sort_unstable();
        let before = seqs_seen.len();
        seqs_seen.dedup();
        prop_assert_eq!(before, seqs_seen.len());
    }

    #[test]
    fn top_k_prefix_is_stable(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..50), 1..10),
        query in prop::collection::vec(0u8..4, 1..12),
        k in 1usize..6,
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let params = OasisParams::with_min_score(1);
        let all: Vec<Hit> = OasisSearch::new(&tree, &db, &query, &scoring, &params).collect();
        let top: Vec<Hit> = OasisSearch::new(&tree, &db, &query, &scoring, &params)
            .take(k)
            .collect();
        let k = k.min(all.len());
        prop_assert_eq!(&all[..k], &top[..k]);
    }

    #[test]
    fn first_hit_is_global_max(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..50), 1..10),
        query in prop::collection::vec(0u8..4, 1..12),
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let params = OasisParams::with_min_score(1);
        let first = OasisSearch::new(&tree, &db, &query, &scoring, &params).next();
        // Compare against the global S-W maximum over all sequences.
        let sw = SwScanner::new().scan(&db, &query, &scoring, 1);
        match (first, sw.first()) {
            (Some(hit), Some(best)) => prop_assert_eq!(hit.score, best.hit.score),
            (None, None) => {}
            (got, want) => prop_assert!(false, "mismatch: {:?} vs {:?}", got, want),
        }
    }
}

#[test]
fn streaming_matches_run() {
    let db = build_db(&[
        vec![3, 0, 1, 2, 1, 1, 3, 0, 2],
        vec![3, 0, 1, 1, 2],
        vec![2, 2, 3, 0, 2, 2],
    ]);
    let tree = SuffixTree::build(&db);
    let scoring = Scoring::unit_dna();
    let params = OasisParams::with_min_score(1);
    let query = vec![3, 0, 1, 2];
    let streamed: Vec<Hit> = OasisSearch::new(&tree, &db, &query, &scoring, &params).collect();
    let (ran, stats) = OasisSearch::new(&tree, &db, &query, &scoring, &params).run();
    assert_eq!(streamed, ran);
    assert_eq!(stats.hits_emitted as usize, ran.len());
}
