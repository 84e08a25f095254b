//! The central correctness property of the reproduction: OASIS is *exact*.
//! For every database, query, scoring scheme, and threshold, the set of
//! (sequence, best-score) pairs OASIS reports equals what an exhaustive
//! Smith-Waterman scan reports. Property-tested over randomized inputs.

mod support;

use proptest::prelude::*;

use oasis::prelude::*;
use support::build_db;

fn result_set(hits: &[Hit]) -> Vec<(SeqId, Score)> {
    let mut v: Vec<_> = hits.iter().map(|h| (h.seq, h.score)).collect();
    v.sort_unstable();
    v
}

fn sw_set(hits: &[oasis::align::SeqBest]) -> Vec<(SeqId, Score)> {
    let mut v: Vec<_> = hits.iter().map(|h| (h.seq, h.hit.score)).collect();
    v.sort_unstable();
    v
}

/// Strategy: a database of 1..12 DNA sequences with lengths 1..60.
fn db_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(0u8..4, 1..60), 1..12)
}

/// Strategy: a query of length 1..14.
fn query_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..4, 1..14)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn oasis_equals_sw_unit_matrix(seqs in db_strategy(), query in query_strategy(), min in 1i32..8) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let params = OasisParams::with_min_score(min);
        let (hits, _) = OasisSearch::new(&tree, &db, &query, &scoring, &params).run();
        let sw = SwScanner::new().scan(&db, &query, &scoring, min);
        prop_assert_eq!(result_set(&hits), sw_set(&sw));
    }

    #[test]
    fn oasis_equals_sw_skewed_matrix(
        seqs in db_strategy(),
        query in query_strategy(),
        min in 1i32..12,
        matched in 1i32..6,
        mismatched in -6i32..-1,
        gap in -5i32..-1,
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::new(
            SubstitutionMatrix::match_mismatch(oasis::bioseq::AlphabetKind::Dna, matched, mismatched),
            GapModel::linear(gap),
        );
        let params = OasisParams::with_min_score(min);
        let (hits, _) = OasisSearch::new(&tree, &db, &query, &scoring, &params).run();
        let sw = SwScanner::new().scan(&db, &query, &scoring, min);
        prop_assert_eq!(result_set(&hits), sw_set(&sw));
    }

    #[test]
    fn oasis_equals_sw_affine(
        seqs in db_strategy(),
        query in query_strategy(),
        min in 1i32..10,
        open in -6i32..=0,
        extend in -3i32..-1,
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::new(
            SubstitutionMatrix::match_mismatch(oasis::bioseq::AlphabetKind::Dna, 3, -2),
            GapModel::affine(open, extend),
        );
        let params = OasisParams::with_min_score(min);
        let (hits, _) = OasisSearch::new(&tree, &db, &query, &scoring, &params).run();
        let sw = SwScanner::new().scan(&db, &query, &scoring, min);
        prop_assert_eq!(result_set(&hits), sw_set(&sw));
    }

    #[test]
    fn hit_windows_recover_their_scores(seqs in db_strategy(), query in query_strategy()) {
        // Every reported hit's window re-aligns to exactly the hit score.
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let params = OasisParams::with_min_score(1);
        let (hits, _) = OasisSearch::new(&tree, &db, &query, &scoring, &params).run();
        for hit in &hits {
            let aln = hit.alignment(&db, &query, &scoring);
            prop_assert_eq!(aln.score, hit.score);
            prop_assert!(aln.is_consistent());
            // The window lies inside the hit's sequence.
            let seq_start = db.seq_start(hit.seq) as usize;
            let seq_end = db.seq_terminator(hit.seq) as usize;
            prop_assert!(aln.t_start >= seq_start && aln.t_end <= seq_end);
        }
    }

    #[test]
    fn heuristic_vector_is_admissible(query in query_strategy(), target in prop::collection::vec(0u8..4, 1..30)) {
        // h[i] must upper-bound the best score of q[i..] against ANY target
        // when alignments may end anywhere — check against full S-W of every
        // query suffix vs a random target.
        let scoring = Scoring::unit_dna();
        let h = oasis::core::heuristic_vector(&query, &scoring);
        for i in 0..=query.len() {
            let best = oasis::align::sw_best(&query[i..], &target, &scoring).score;
            prop_assert!(h[i] >= best, "h[{}]={} < best {}", i, h[i], best);
        }
    }
}

#[test]
fn regression_empty_and_degenerate_cases() {
    // Single-symbol database and query.
    let db = build_db(&[vec![0]]);
    let tree = SuffixTree::build(&db);
    let scoring = Scoring::unit_dna();
    let params = OasisParams::with_min_score(1);
    let (hits, _) = OasisSearch::new(&tree, &db, &[0], &scoring, &params).run();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].score, 1);

    // Query with no positive alignment anywhere.
    let (hits, _) = OasisSearch::new(&tree, &db, &[3], &scoring, &params).run();
    assert!(hits.is_empty());
}

#[test]
fn regression_repetitive_database() {
    // Highly repetitive content stresses deep suffix-tree sharing.
    let db = build_db(&[
        vec![0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
        vec![0, 1, 0, 1, 0, 1],
        vec![1, 0, 1, 0, 1, 0, 1, 0],
        vec![0, 0, 0, 0, 0, 0, 0, 0, 0],
    ]);
    let tree = SuffixTree::build(&db);
    let scoring = Scoring::unit_dna();
    let query = vec![0, 1, 0, 1, 0];
    for min in 1..=5 {
        let params = OasisParams::with_min_score(min);
        let (hits, _) = OasisSearch::new(&tree, &db, &query, &scoring, &params).run();
        let sw = SwScanner::new().scan(&db, &query, &scoring, min);
        assert_eq!(result_set(&hits), sw_set(&sw), "min_score {min}");
    }
}
