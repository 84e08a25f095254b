//! Affine-gap OASIS — the extension the paper lists as future work (§6:
//! "extending our current implementation to include affine gap penalties …
//! OASIS and S-W must expand three dynamic programming matrices").
//!
//! The expansion mirrors [`crate::expand()`] but carries the Gotoh state per
//! column: `H` (best alignment), `E` (ending in a target-consuming gap run,
//! carried across columns), and `F` (ending in a query-consuming gap run,
//! local to a column). `H ≥ E` and `H ≥ F` pointwise, so the upper bound
//! `f = max_i(H_i + h_i)` and all three pruning rules remain sound — the
//! heuristic's per-position contribution already dominates `extend`
//! (see [`crate::heuristic`]).

use oasis_align::{Score, NEG_INF};
use oasis_bioseq::TERMINATOR;
use oasis_suffix::{NodeHandle, SuffixTreeAccess};

use crate::node::{SearchNode, Status};

/// Scratch buffers for affine expansion.
#[derive(Debug, Default)]
pub struct AffineScratch {
    prev_h: Vec<Score>,
    prev_e: Vec<Score>,
    cur_h: Vec<Score>,
    cur_e: Vec<Score>,
    chunk: Vec<u8>,
}

const ARC_CHUNK: usize = 64;

/// Affine-gap version of Algorithm 3. `parent.c` holds the parent's `H`
/// column; `parent.e` holds its `E` column (empty means "no gap open",
/// i.e. all `−∞`, which is the root's state).
#[allow(
    clippy::too_many_arguments,
    reason = "the paper's Algorithm 3 inputs (affine variant), kept positional so the code reads against the pseudocode"
)]
pub fn expand_affine<T: SuffixTreeAccess + ?Sized>(
    tree: &T,
    parent: &SearchNode,
    child: NodeHandle,
    query: &[u8],
    matrix: &oasis_align::SubstitutionMatrix,
    open: Score,
    extend: Score,
    h: &[Score],
    min_score: Score,
    seq: u64,
    scratch: &mut AffineScratch,
    columns: &mut u64,
) -> SearchNode {
    debug_assert_eq!(parent.status, Status::Viable);
    let n = query.len();
    let parent_depth = parent.depth;
    let arc_total = tree.arc_len(parent_depth, child);

    let mut gmax = parent.gmax;
    let mut gmax_depth = parent.gmax_depth;
    let mut gmax_qend = parent.gmax_qend;

    scratch.prev_h.clear();
    scratch.prev_h.extend_from_slice(&parent.c);
    scratch.prev_e.clear();
    if parent.e.is_empty() {
        scratch.prev_e.resize(n + 1, NEG_INF);
    } else {
        scratch.prev_e.extend_from_slice(&parent.e);
    }
    scratch.cur_h.resize(n + 1, NEG_INF);
    scratch.cur_e.resize(n + 1, NEG_INF);
    scratch.chunk.resize(ARC_CHUNK, 0);

    let mut depth = parent_depth;
    let mut consumed = 0u32;
    let mut f_col = NEG_INF;
    let mut g_col = NEG_INF;

    let terminal = |gmax: Score, gmax_depth: u32, gmax_qend: u32, depth: u32| SearchNode {
        handle: child,
        depth,
        f: gmax,
        g: gmax,
        gmax,
        gmax_depth,
        gmax_qend,
        status: if gmax >= min_score {
            Status::Accepted
        } else {
            Status::Unviable
        },
        c: Box::new([]),
        e: Box::new([]),
        seq,
    };

    while consumed < arc_total {
        let got = tree.arc_fill(parent_depth, child, consumed, &mut scratch.chunk);
        debug_assert!(got > 0);
        for k in 0..got {
            let t = scratch.chunk[k];
            if t == TERMINATOR {
                return terminal(gmax, gmax_depth, gmax_qend, depth);
            }
            *columns += 1;
            depth += 1;

            let prune = |v: Score, hi: Score, gmax: Score| -> Score {
                if v <= 0 || v + hi <= gmax || v + hi < min_score {
                    NEG_INF
                } else {
                    v
                }
            };

            // Row 0: only target-consuming gaps are possible.
            let e0 = (scratch.prev_h[0] + open + extend).max(scratch.prev_e[0] + extend);
            scratch.cur_e[0] = prune(e0, h[0], gmax);
            scratch.cur_h[0] = scratch.cur_e[0];
            f_col = if scratch.cur_h[0] == NEG_INF {
                NEG_INF
            } else {
                scratch.cur_h[0] + h[0]
            };
            g_col = scratch.cur_h[0];

            let mut f_state = NEG_INF; // F: query-consuming gap, intra-column
            for i in 1..=n {
                let e = (scratch.prev_h[i] + open + extend).max(scratch.prev_e[i] + extend);
                let e = prune(e, h[i], gmax);
                f_state = (scratch.cur_h[i - 1] + open + extend).max(f_state + extend);
                let replace = scratch.prev_h[i - 1] + matrix.score(query[i - 1], t);
                let best = replace.max(e).max(f_state);
                let best = prune(best, h[i], gmax);
                scratch.cur_e[i] = e;
                scratch.cur_h[i] = best;
                if best != NEG_INF {
                    if best > gmax {
                        gmax = best;
                        gmax_depth = depth;
                        gmax_qend = i as u32;
                    }
                    f_col = f_col.max(best + h[i]);
                    g_col = g_col.max(best);
                }
            }

            if f_col <= gmax {
                return terminal(gmax, gmax_depth, gmax_qend, depth);
            }
            if f_col < min_score {
                return SearchNode {
                    handle: child,
                    depth,
                    f: f_col,
                    g: g_col,
                    gmax,
                    gmax_depth,
                    gmax_qend,
                    status: Status::Unviable,
                    c: Box::new([]),
                    e: Box::new([]),
                    seq,
                };
            }
            std::mem::swap(&mut scratch.prev_h, &mut scratch.cur_h);
            std::mem::swap(&mut scratch.prev_e, &mut scratch.cur_e);
        }
        consumed += got as u32;
    }

    debug_assert!(!child.is_leaf(), "leaf arcs end with a terminator");
    SearchNode {
        handle: child,
        depth,
        f: f_col,
        g: g_col,
        gmax,
        gmax_depth,
        gmax_qend,
        status: Status::Viable,
        c: scratch.prev_h.clone().into_boxed_slice(),
        e: scratch.prev_e.clone().into_boxed_slice(),
        seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{OasisParams, OasisSearch};
    use oasis_align::{GapModel, Scoring, SubstitutionMatrix, SwScanner};
    use oasis_bioseq::{Alphabet, AlphabetKind, DatabaseBuilder, SeqId, SequenceDatabase};
    use oasis_suffix::SuffixTree;

    fn dna_db(seqs: &[&str]) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn compare_with_sw(db: &SequenceDatabase, query: &str, scoring: &Scoring, min: Score) {
        let tree = SuffixTree::build(db);
        let q = Alphabet::dna().encode_str(query).unwrap();
        let params = OasisParams::with_min_score(min);
        let (hits, _) = OasisSearch::new(&tree, db, &q, scoring, &params).run();
        let sw = SwScanner::new().scan(db, &q, scoring, min);
        let mut got: Vec<(SeqId, Score)> = hits.iter().map(|h| (h.seq, h.score)).collect();
        got.sort_unstable();
        let mut want: Vec<(SeqId, Score)> = sw.iter().map(|h| (h.seq, h.hit.score)).collect();
        want.sort_unstable();
        assert_eq!(got, want, "query {query} min {min}");
    }

    #[test]
    fn affine_matches_sw_on_gapped_targets() {
        let db = dna_db(&[
            "TTAAGGCCTT", // forces gaps for query TTAACCTT
            "TTAACCTT",   // exact
            "GGGGGG",
            "TTAAGCCTT",
        ]);
        let scoring = Scoring::new(
            SubstitutionMatrix::match_mismatch(AlphabetKind::Dna, 5, -4),
            GapModel::affine(-3, -1),
        );
        for min in [1, 10, 25, 40] {
            compare_with_sw(&db, "TTAACCTT", &scoring, min);
        }
    }

    #[test]
    fn affine_ordering_non_increasing() {
        let db = dna_db(&["TTAAGGCCTT", "TTAACCTT", "TTAC", "ACGTACGT"]);
        let scoring = Scoring::new(
            SubstitutionMatrix::match_mismatch(AlphabetKind::Dna, 5, -4),
            GapModel::affine(-3, -1),
        );
        let tree = SuffixTree::build(&db);
        let q = Alphabet::dna().encode_str("TTAACCTT").unwrap();
        let params = OasisParams::with_min_score(1);
        let hits: Vec<_> = OasisSearch::new(&tree, &db, &q, &scoring, &params).collect();
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn affine_open_zero_equals_linear() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG"]);
        let unit = SubstitutionMatrix::unit(AlphabetKind::Dna);
        let linear = Scoring::new(unit.clone(), GapModel::linear(-1));
        let affine = Scoring::new(unit, GapModel::affine(0, -1));
        let tree = SuffixTree::build(&db);
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let (lin_hits, _) = OasisSearch::new(&tree, &db, &q, &linear, &params).run();
        let (aff_hits, _) = OasisSearch::new(&tree, &db, &q, &affine, &params).run();
        let lin: Vec<(SeqId, Score)> = lin_hits.iter().map(|h| (h.seq, h.score)).collect();
        let aff: Vec<(SeqId, Score)> = aff_hits.iter().map(|h| (h.seq, h.score)).collect();
        assert_eq!(lin, aff);
    }
}
