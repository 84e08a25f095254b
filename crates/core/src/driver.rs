//! The resumable search driver: Algorithms 1 and 2 as an explicit state
//! machine.
//!
//! [`SearchDriver`] advances the best-first search one step at a time
//! ([`SearchDriver::step`]) and yields hits incrementally
//! ([`SearchDriver::next_hit`]) without consuming itself, so callers can
//! interleave searches, abort early, inspect [`SearchDriver::score_bound`]
//! between hits, or embed the search inside a larger scheduler (the
//! `oasis-engine` crate runs one driver per query across a worker pool).
//! [`crate::OasisSearch`] is a thin iterator facade over this type.

use std::collections::VecDeque;

use oasis_align::{GapModel, Score, Scoring, NEG_INF};
use oasis_bioseq::SequenceDatabase;
use oasis_suffix::{NodeHandle, SuffixTreeAccess};

use crate::affine::{expand_affine, AffineScratch};
use crate::expand::QueryKernel;
use crate::frontier::Frontier;
use crate::heuristic::heuristic_vector;
use crate::node::{SearchNode, Status};
use crate::search::{Hit, OasisParams, ReportMode, SearchStats};

/// What one call to [`SearchDriver::step`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// A hit was proven optimal and is returned to the caller.
    Hit(Hit),
    /// One unit of search work was done (a node expanded or reported);
    /// no hit is ready yet — call `step` again.
    Advanced,
    /// The search is complete: no further hits will ever be produced.
    Exhausted,
}

/// Build the root search node (Algorithm 2). Returns `None` when even the
/// root cannot reach `min_score` (e.g. an empty query).
///
/// Public so alternative search drivers (e.g. the frontier-ordering
/// ablation in `oasis-bench`) can reuse the initialization.
pub fn root_node(query: &[u8], h: &[Score], min_score: Score) -> Option<SearchNode> {
    let n = query.len();
    let c: Box<[Score]> = (0..=n)
        .map(|i| if h[i] >= min_score { 0 } else { NEG_INF })
        .collect();
    let f = (0..=n)
        .filter(|&i| c[i] != NEG_INF)
        .map(|i| h[i])
        .max()
        .unwrap_or(NEG_INF);
    if f < min_score {
        return None;
    }
    Some(SearchNode {
        handle: NodeHandle::internal(0),
        depth: 0,
        f,
        g: 0,
        gmax: 0,
        gmax_depth: 0,
        gmax_qend: 0,
        status: Status::Viable,
        c,
        e: Box::new([]),
        seq: 0,
    })
}

/// The OASIS best-first search as a resumable state machine.
///
/// Construction seeds the frontier with the root node; each [`step`]
/// (or [`next_hit`]) advances the search just far enough to make progress.
/// Hits arrive in non-increasing score order — the paper's online property
/// — and within one score level in increasing start-position order. That
/// tie-break is *canonical*: it depends only on the database text and the
/// query, never on suffix-tree node boundaries or heap insertion order, so
/// any two indexes over the same text (in-memory, disk-resident, or a
/// partition of the database searched shard by shard) emit byte-identical
/// hit streams. The sharded engine's k-way merge relies on exactly this.
///
/// [`step`]: SearchDriver::step
/// [`next_hit`]: SearchDriver::next_hit
pub struct SearchDriver<'a, T: SuffixTreeAccess + ?Sized> {
    tree: &'a T,
    db: &'a SequenceDatabase,
    query: Vec<u8>,
    scoring: &'a Scoring,
    h: Vec<Score>,
    min_score: Score,
    early_stop: bool,
    report: ReportMode,
    frontier: Frontier,
    /// Ready hits in the canonical emission order.
    pending: VecDeque<Hit>,
    /// Reports of the score level currently being drained (all have score
    /// `group_score`). The group closes — is sorted by `t_start`,
    /// deduplicated, and moved to `pending` — only once the frontier bound
    /// drops below `group_score`, so within one score level emission order
    /// is the canonical `t_start` order rather than heap pop order.
    group: Vec<Hit>,
    group_score: Score,
    reported: Vec<bool>,
    reported_count: u32,
    stats: SearchStats,
    next_seq: u64,
    kernel: Kernel,
    /// Run linear-gap expansions through `expand_reference` instead: the
    /// oracle for the driver-level differential test.
    #[cfg(test)]
    reference_kernel: bool,
    kids: Vec<NodeHandle>,
}

/// The expand kernel for the driver's gap model, chosen once at
/// construction: the driver searches one query under one scoring for its
/// whole life, so the linear kernel's query profile is built exactly once.
enum Kernel {
    Linear(QueryKernel),
    Affine {
        scratch: AffineScratch,
        open: Score,
        extend: Score,
    },
}

impl<'a, T: SuffixTreeAccess + ?Sized> SearchDriver<'a, T> {
    /// Set up a search of `query` against `db` through its suffix tree.
    ///
    /// The tree must index exactly `db` (same text); `query` must be encoded
    /// with `db`'s alphabet.
    pub fn new(
        tree: &'a T,
        db: &'a SequenceDatabase,
        query: &[u8],
        scoring: &'a Scoring,
        params: &OasisParams,
    ) -> Self {
        assert!(params.min_score >= 1, "minScore must be positive");
        assert_eq!(
            tree.text_len(),
            db.text_len(),
            "suffix tree does not index this database"
        );
        debug_assert!(query.iter().all(|&c| (c as usize) < db.alphabet().len()));
        let h = heuristic_vector(query, scoring);
        let mut frontier = Frontier::new();
        if let Some(root) = root_node(query, &h, params.min_score) {
            frontier.push(root);
        }
        SearchDriver {
            tree,
            db,
            query: query.to_vec(),
            scoring,
            h,
            min_score: params.min_score,
            early_stop: params.early_stop_all_sequences,
            report: params.report,
            frontier,
            pending: VecDeque::new(),
            group: Vec::new(),
            group_score: NEG_INF,
            reported: vec![false; db.num_sequences() as usize],
            reported_count: 0,
            stats: SearchStats::default(),
            next_seq: 1,
            kernel: match scoring.gap {
                GapModel::Linear { .. } => Kernel::Linear(QueryKernel::new(query, scoring)),
                GapModel::Affine { open, extend } => Kernel::Affine {
                    scratch: AffineScratch::default(),
                    open,
                    extend,
                },
            },
            #[cfg(test)]
            reference_kernel: false,
            kids: Vec::new(),
        }
    }

    /// Counters so far (final once the search is exhausted).
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// The encoded query this driver is searching for.
    pub fn query(&self) -> &[u8] {
        &self.query
    }

    /// An upper bound on the score of any hit this search can still emit,
    /// or `None` when the search is exhausted. This is what makes the
    /// E-value-ordered reporting of [`crate::evalue`] possible: a held-back
    /// hit may be released once no future hit can undercut its E-value.
    pub fn score_bound(&self) -> Option<Score> {
        let frontier_bound = self.frontier.bound();
        let group_bound = (!self.group.is_empty()).then_some(self.group_score);
        let pending_bound = self.pending.front().map(|h| h.score);
        [frontier_bound, group_bound, pending_bound]
            .into_iter()
            .flatten()
            .max()
    }

    /// Perform one unit of search work: emit a ready hit, or pop and
    /// process one frontier node. Returns [`StepOutcome::Exhausted`] once
    /// the search is complete (and on every call thereafter).
    pub fn step(&mut self) -> StepOutcome {
        if let Some(hit) = self.pending.pop_front() {
            self.stats.hits_emitted += 1;
            return StepOutcome::Hit(hit);
        }
        if self.early_stop
            && self.report == ReportMode::BestPerSequence
            && self.reported_count == self.db.num_sequences()
        {
            // Anything still on the frontier — or buffered in the open
            // group — can only cover already-reported sequences.
            self.frontier.clear();
            self.group.clear();
            return StepOutcome::Exhausted;
        }
        if !self.group.is_empty() && self.frontier.bound().is_none_or(|b| b < self.group_score) {
            // No frontier node can contribute to the open score level any
            // more: the group is complete and may be emitted canonically.
            self.close_group();
            return StepOutcome::Advanced;
        }
        let Some(node) = self.frontier.pop() else {
            return StepOutcome::Exhausted;
        };
        match node.status {
            Status::Accepted => self.report_accepted(&node),
            Status::Viable => {
                self.expand_children(&node);
                // Only the linear kernel draws columns from a free list.
                if let Kernel::Linear(kernel) = &mut self.kernel {
                    kernel.recycle_column(node.c);
                }
            }
            Status::Unviable => unreachable!("unviable nodes are never enqueued"),
        }
        StepOutcome::Advanced
    }

    /// Advance the search until the next hit is proven optimal, or `None`
    /// when the search is exhausted. Equivalent to the iterator `next` of
    /// [`crate::OasisSearch`], but `&mut self`: the driver stays usable.
    pub fn next_hit(&mut self) -> Option<Hit> {
        loop {
            match self.step() {
                StepOutcome::Hit(hit) => return Some(hit),
                StepOutcome::Advanced => continue,
                StepOutcome::Exhausted => return None,
            }
        }
    }

    /// Drain the remaining search, appending every hit to `out`. Returns
    /// the final statistics.
    pub fn drain_into(&mut self, out: &mut Vec<Hit>) -> SearchStats {
        while let Some(hit) = self.next_hit() {
            out.push(hit);
        }
        self.stats
    }

    fn report_accepted(&mut self, node: &SearchNode) {
        debug_assert!(node.gmax >= self.min_score);
        // An accepted node pops only while it is the frontier maximum, and
        // the bound never increases — so every accepted node reached while
        // a group is open carries exactly the group's score.
        debug_assert!(self.group.is_empty() || self.group_score == node.gmax);
        self.group_score = node.gmax;
        let mut leaves = std::mem::take(&mut self.group);
        let first = leaves.len();
        self.tree.leaves_under(node.handle, &mut |p| {
            leaves.push(Hit {
                seq: 0, // filled below, once per leaf
                score: node.gmax,
                t_start: p,
                t_len: node.gmax_depth,
                q_end: node.gmax_qend,
            })
        });
        for hit in &mut leaves[first..] {
            hit.seq = self.db.seq_of_position(hit.t_start);
        }
        // Sequences already reported at a (strictly) higher score level can
        // be dropped immediately; same-level duplicates are resolved when
        // the group closes.
        if self.report == ReportMode::BestPerSequence {
            let reported = &self.reported;
            leaves.retain(|h| !reported[h.seq as usize]);
        }
        self.group = leaves;
    }

    /// The open score level is complete: order its reports canonically (by
    /// start position — unique per report), apply best-per-sequence
    /// deduplication in that order, and queue the survivors for emission.
    fn close_group(&mut self) {
        self.group.sort_unstable_by_key(|h| h.t_start);
        for hit in self.group.drain(..) {
            if self.report == ReportMode::BestPerSequence {
                let flag = &mut self.reported[hit.seq as usize];
                if *flag {
                    continue;
                }
                *flag = true;
                self.reported_count += 1;
            }
            self.pending.push_back(hit);
        }
    }

    fn expand_children(&mut self, node: &SearchNode) {
        self.stats.nodes_expanded += 1;
        let mut kids = std::mem::take(&mut self.kids);
        self.tree.children_into(node.handle, &mut kids);
        for &child in &kids {
            let seq = self.next_seq;
            self.next_seq += 1;
            let new = match &mut self.kernel {
                #[cfg(test)]
                Kernel::Linear(kernel) if self.reference_kernel => crate::expand::expand_reference(
                    self.tree,
                    node,
                    child,
                    &self.query,
                    self.scoring,
                    &self.h,
                    self.min_score,
                    seq,
                    kernel.scratch(),
                    &mut self.stats.columns_expanded,
                    crate::expand::PruneRules::default(),
                ),
                Kernel::Linear(kernel) => kernel.expand(
                    self.tree,
                    node,
                    child,
                    &self.h,
                    self.min_score,
                    seq,
                    &mut self.stats.columns_expanded,
                ),
                Kernel::Affine {
                    scratch,
                    open,
                    extend,
                } => expand_affine(
                    self.tree,
                    node,
                    child,
                    &self.query,
                    &self.scoring.matrix,
                    *open,
                    *extend,
                    &self.h,
                    self.min_score,
                    seq,
                    scratch,
                    &mut self.stats.columns_expanded,
                ),
            };
            match new.status {
                Status::Unviable => self.stats.nodes_pruned += 1,
                Status::Viable | Status::Accepted => {
                    self.frontier.push(new);
                    self.stats.nodes_enqueued += 1;
                }
            }
        }
        self.kids = kids;
        self.stats.max_queue = self.stats.max_queue.max(self.frontier.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::OasisSearch;
    use oasis_align::{
        GapModel, KarlinParams, SubstitutionMatrix, SwScanner, NEG_INF as SCORE_NEG_INF,
    };
    use oasis_bioseq::{Alphabet, AlphabetKind, DatabaseBuilder, SeqId};
    use oasis_suffix::SuffixTree;

    fn dna_db(seqs: &[&str]) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn search_all(db: &SequenceDatabase, query: &str, min_score: Score) -> (Vec<Hit>, SearchStats) {
        let tree = SuffixTree::build(db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str(query).unwrap();
        let params = OasisParams::with_min_score(min_score);
        OasisSearch::new(&tree, db, &q, &scoring, &params).run()
    }

    #[test]
    fn driver_steps_match_iterator() {
        // The step-based API and the iterator facade are the same search.
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG", "CCCCCC"]);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);

        let mut driver = SearchDriver::new(&tree, &db, &q, &scoring, &params);
        let mut stepped = Vec::new();
        loop {
            match driver.step() {
                StepOutcome::Hit(hit) => stepped.push(hit),
                StepOutcome::Advanced => {}
                StepOutcome::Exhausted => break,
            }
        }
        let (iterated, stats) = OasisSearch::new(&tree, &db, &q, &scoring, &params).run();
        assert_eq!(stepped, iterated);
        assert_eq!(driver.stats(), stats);
        // Once exhausted, the driver stays exhausted.
        assert_eq!(driver.step(), StepOutcome::Exhausted);
        assert_eq!(driver.next_hit(), None);
    }

    #[test]
    fn drain_into_collects_remaining_hits() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG"]);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let mut driver = SearchDriver::new(&tree, &db, &q, &scoring, &params);
        let first = driver.next_hit().expect("at least one hit");
        let mut rest = Vec::new();
        let stats = driver.drain_into(&mut rest);
        let (all, all_stats) = OasisSearch::new(&tree, &db, &q, &scoring, &params).run();
        let mut resumed = vec![first];
        resumed.extend(rest);
        assert_eq!(resumed, all);
        assert_eq!(stats, all_stats);
        assert_eq!(driver.query(), &q[..]);
    }

    #[test]
    fn paper_walkthrough_finds_tacg() {
        // §3.3 end state: the maximum local alignment is TACG at position 2
        // with score 4.
        let db = dna_db(&["AGTACGCCTAG"]);
        let (hits, stats) = search_all(&db, "TACG", 1);
        assert_eq!(hits.len(), 1);
        let hit = hits[0];
        assert_eq!(hit.seq, 0);
        assert_eq!(hit.score, 4);
        assert_eq!(hit.t_start, 2);
        assert_eq!(hit.t_len, 4);
        assert_eq!(hit.q_end, 4);
        assert!(stats.columns_expanded > 0);
        assert!(stats.hits_emitted == 1);
    }

    #[test]
    fn hit_alignment_recovers_operations() {
        let db = dna_db(&["AGTACGCCTAG"]);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let hits: Vec<Hit> = OasisSearch::new(&tree, &db, &q, &scoring, &params).collect();
        let aln = hits[0].alignment(&db, &q, &scoring);
        assert_eq!(aln.score, 4);
        assert_eq!(aln.cigar(), "4R");
        assert_eq!(aln.t_start, 2);
        assert_eq!(aln.t_end, 6);
    }

    #[test]
    fn scores_arrive_in_non_increasing_order() {
        let db = dna_db(&[
            "AGTACGCCTAG", // TACG exact: 4
            "TACCG",       // TAC-G: 3
            "GGTAGG",      // TA..: 2
            "CCCCCC",      // C: 1
        ]);
        let (hits, _) = search_all(&db, "TACG", 1);
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(hits[0].score, 4);
    }

    #[test]
    fn matches_smith_waterman_per_sequence() {
        let db = dna_db(&[
            "AGTACGCCTAG",
            "TACCG",
            "GGTAGG",
            "CCCCCC",
            "TTTTTTT",
            "ACGTACGTACGT",
            "GATTACA",
        ]);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        for min_score in 1..=4 {
            let (hits, _) = search_all(&db, "TACG", min_score);
            let sw = SwScanner::new().scan(&db, &q, &scoring, min_score);
            let mut got: Vec<(SeqId, Score)> = hits.iter().map(|h| (h.seq, h.score)).collect();
            got.sort_unstable();
            let mut want: Vec<(SeqId, Score)> = sw.iter().map(|h| (h.seq, h.hit.score)).collect();
            want.sort_unstable();
            assert_eq!(got, want, "min_score {min_score}");
        }
    }

    #[test]
    fn equal_scores_emit_in_start_position_order() {
        // Three disjoint exact occurrences of AC, all score 2, reached via
        // different tree paths: the canonical tie-break orders them by
        // global start position, independent of heap insertion order.
        let db = dna_db(&["GGAC", "ACGG", "TTACTT"]);
        let (hits, _) = search_all(&db, "AC", 2);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h.score == 2));
        let starts: Vec<u32> = hits.iter().map(|h| h.t_start).collect();
        assert_eq!(starts, vec![2, 5, 12]);
        // Same canonical order in all-occurrences mode.
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("AC").unwrap();
        let params = OasisParams::with_min_score(2).all_occurrences();
        let (all, _) = OasisSearch::new(&tree, &db, &q, &scoring, &params).run();
        let mut by_level: Vec<(Score, u32)> = all.iter().map(|h| (h.score, h.t_start)).collect();
        let emitted = by_level.clone();
        by_level.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        assert_eq!(emitted, by_level, "canonical (score desc, t_start asc)");
    }

    #[test]
    fn min_score_filters_results() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "CCCCCC"]);
        let (hits, _) = search_all(&db, "TACG", 4);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].seq, 0);
    }

    #[test]
    fn no_results_when_threshold_unreachable() {
        let db = dna_db(&["AGTACGCCTAG"]);
        let (hits, stats) = search_all(&db, "TACG", 5);
        assert!(hits.is_empty());
        // The root itself is unviable (f = 4 < 5): nothing is expanded.
        assert_eq!(stats.nodes_expanded, 0);
    }

    #[test]
    fn empty_query_yields_nothing() {
        let db = dna_db(&["AGTACGCCTAG"]);
        let (hits, _) = search_all(&db, "", 1);
        assert!(hits.is_empty());
    }

    #[test]
    fn online_prefix_equals_full_run_prefix() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG", "CCCCCC", "GATTACA"]);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let all: Vec<Hit> = OasisSearch::new(&tree, &db, &q, &scoring, &params).collect();
        let top2: Vec<Hit> = OasisSearch::new(&tree, &db, &q, &scoring, &params)
            .take(2)
            .collect();
        assert_eq!(&all[..2], &top2[..]);
    }

    #[test]
    fn duplicate_sequences_each_reported_once() {
        let db = dna_db(&["TACG", "TACG", "TACG"]);
        let (hits, _) = search_all(&db, "TACG", 1);
        assert_eq!(hits.len(), 3);
        let mut seqs: Vec<SeqId> = hits.iter().map(|h| h.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 3);
        assert!(hits.iter().all(|h| h.score == 4));
    }

    #[test]
    fn columns_expanded_less_than_sw() {
        // OASIS's filtering: far fewer columns than S-W's (= total residues)
        // on a database with shared structure.
        let seqs: Vec<String> = (0..50)
            .map(|i| {
                let tail = match i % 4 {
                    0 => "ACGT",
                    1 => "GGCC",
                    2 => "TTAA",
                    _ => "CAGT",
                };
                format!("{}{}", "ACGTACGTACGT", tail)
            })
            .collect();
        let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
        let db = dna_db(&refs);
        let (_, stats) = search_all(&db, "ACGTACG", 5);
        assert!(
            stats.columns_expanded < db.total_residues(),
            "OASIS {} vs S-W {}",
            stats.columns_expanded,
            db.total_residues()
        );
    }

    #[test]
    fn from_evalue_uses_equation_3() {
        let kp = KarlinParams::estimate(
            &SubstitutionMatrix::unit(AlphabetKind::Dna),
            &oasis_align::background_dna(),
        )
        .unwrap();
        let relaxed = OasisParams::from_evalue(&kp, 16, 1_000_000, 20_000.0);
        let strict = OasisParams::from_evalue(&kp, 16, 1_000_000, 1.0);
        assert!(strict.min_score > relaxed.min_score);
    }

    #[test]
    fn works_with_protein_scoring() {
        let mut b = DatabaseBuilder::new(Alphabet::protein());
        b.push_str("p0", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ")
            .unwrap();
        b.push_str("p1", "GGGGGAKQRQISGGGGG").unwrap();
        b.push_str("p2", "WWWWWWWW").unwrap();
        let db = b.finish();
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::blosum62_protein();
        let q = Alphabet::protein().encode_str("AKQRQISF").unwrap();
        let params = OasisParams::with_min_score(20);
        let (hits, _) = OasisSearch::new(&tree, &db, &q, &scoring, &params).run();
        // Both homologous sequences found, in score order.
        assert_eq!(hits.len(), 2);
        assert!(hits[0].score >= hits[1].score);
        let mut scanner = SwScanner::new();
        let sw = scanner.scan(&db, &q, &scoring, 20);
        assert_eq!(hits.len(), sw.len());
        assert_eq!(hits[0].score, sw[0].hit.score);
    }

    #[test]
    fn gap_model_affects_scores_identically_to_sw() {
        let db = dna_db(&["TTAAGGTT", "TTACGGTT", "GGGGG"]);
        let scoring = Scoring::new(
            SubstitutionMatrix::match_mismatch(AlphabetKind::Dna, 2, -3),
            GapModel::linear(-1),
        );
        let q = Alphabet::dna().encode_str("TTAGGTT").unwrap();
        let tree = SuffixTree::build(&db);
        let params = OasisParams::with_min_score(3);
        let (hits, _) = OasisSearch::new(&tree, &db, &q, &scoring, &params).run();
        let sw = SwScanner::new().scan(&db, &q, &scoring, 3);
        let mut got: Vec<(SeqId, Score)> = hits.iter().map(|h| (h.seq, h.score)).collect();
        got.sort_unstable();
        let mut want: Vec<(SeqId, Score)> = sw.iter().map(|h| (h.seq, h.hit.score)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn all_occurrences_reports_every_position() {
        // ACGACGACG contains ACG at 0, 3, 6; best-per-sequence reports one
        // hit, all-occurrences reports all three, still score-ordered.
        let db = dna_db(&["ACGACGACG", "TTTT"]);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("ACG").unwrap();
        let best = OasisParams::with_min_score(3);
        let all = OasisParams::with_min_score(3).all_occurrences();
        let (best_hits, _) = OasisSearch::new(&tree, &db, &q, &scoring, &best).run();
        let (all_hits, _) = OasisSearch::new(&tree, &db, &q, &scoring, &all).run();
        assert_eq!(best_hits.len(), 1);
        assert_eq!(all_hits.len(), 3);
        let mut starts: Vec<u32> = all_hits.iter().map(|h| h.t_start).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 3, 6]);
        assert!(all_hits.iter().all(|h| h.score == 3));
        assert!(all_hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn all_occurrences_is_superset_of_best() {
        let db = dna_db(&["AGTACGCCTAG", "TACCGTACG", "GGTAGG"]);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let best = OasisParams::with_min_score(2);
        let all = OasisParams::with_min_score(2).all_occurrences();
        let (best_hits, _) = OasisSearch::new(&tree, &db, &q, &scoring, &best).run();
        let (all_hits, _) = OasisSearch::new(&tree, &db, &q, &scoring, &all).run();
        // Every best hit's (seq, score) appears among the occurrences.
        for b in &best_hits {
            assert!(
                all_hits
                    .iter()
                    .any(|a| a.seq == b.seq && a.score == b.score),
                "missing {b:?}"
            );
        }
        assert!(all_hits.len() >= best_hits.len());
    }

    #[test]
    fn early_stop_off_yields_same_results() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG"]);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let with_stop = OasisParams::with_min_score(1);
        let without_stop = OasisParams {
            early_stop_all_sequences: false,
            ..with_stop
        };
        let (a, a_stats) = OasisSearch::new(&tree, &db, &q, &scoring, &with_stop).run();
        let (b, b_stats) = OasisSearch::new(&tree, &db, &q, &scoring, &without_stop).run();
        assert_eq!(a, b);
        // Without the early stop the search drains the whole queue, which
        // can only do at least as much work.
        assert!(b_stats.nodes_expanded >= a_stats.nodes_expanded);
    }

    #[test]
    fn score_bound_is_monotone_and_sound() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG", "CCCC"]);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let mut driver = SearchDriver::new(&tree, &db, &q, &scoring, &params);
        let mut prev_bound = driver.score_bound().expect("root enqueued");
        while let Some(hit) = driver.next_hit() {
            // Every emitted hit respects the bound that preceded it.
            assert!(hit.score <= prev_bound, "{} > {}", hit.score, prev_bound);
            match driver.score_bound() {
                Some(b) => {
                    assert!(b <= prev_bound, "bound must not increase");
                    prev_bound = b;
                }
                None => break,
            }
        }
    }

    #[test]
    fn stats_counters_are_coherent() {
        let db = dna_db(&["AGTACGCCTAG", "TACCG", "GGTAGG"]);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q = Alphabet::dna().encode_str("TACG").unwrap();
        let params = OasisParams::with_min_score(1);
        let (hits, stats) = OasisSearch::new(&tree, &db, &q, &scoring, &params).run();
        assert_eq!(stats.hits_emitted as usize, hits.len());
        assert!(stats.nodes_enqueued >= stats.nodes_expanded.saturating_sub(1));
        assert!(stats.max_queue >= 1);
        assert!(stats.columns_expanded >= stats.nodes_expanded);
    }

    #[test]
    fn root_node_prunes_unreachable_entries() {
        let scoring = Scoring::unit_dna();
        let query = Alphabet::dna().encode_str("TACG").unwrap();
        let h = heuristic_vector(&query, &scoring);
        let root = root_node(&query, &h, 1).unwrap();
        assert_eq!(root.f, 4);
        assert_eq!(root.c[4], SCORE_NEG_INF); // h_4 = 0 < minScore prunes it
        assert!(root_node(&query, &h, 5).is_none());
    }

    /// A deterministic pseudo-random database of `count` sequences over
    /// the first `symbols` residue codes (an LCG; no test dependency).
    fn lcg_db(alphabet: Alphabet, symbols: u64, count: usize, seed: u64) -> SequenceDatabase {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut b = DatabaseBuilder::new(alphabet);
        for i in 0..count {
            let len = 20 + next() as usize % 60;
            let codes: Vec<u8> = (0..len).map(|_| (next() % symbols) as u8).collect();
            b.push(oasis_bioseq::Sequence::from_codes(format!("s{i}"), codes))
                .unwrap();
        }
        b.finish()
    }

    /// Drain a driver, optionally with every linear expansion run through
    /// `expand_reference` instead of the pinned-profile kernel.
    fn drain(
        tree: &SuffixTree,
        db: &SequenceDatabase,
        q: &[u8],
        scoring: &Scoring,
        params: &OasisParams,
        reference: bool,
    ) -> (Vec<Hit>, SearchStats) {
        let mut driver = SearchDriver::new(tree, db, q, scoring, params);
        driver.reference_kernel = reference;
        let mut hits = Vec::new();
        let stats = driver.drain_into(&mut hits);
        (hits, stats)
    }

    #[test]
    fn pinned_profile_search_equals_reference_kernel_search() {
        // The whole search, not just one arc: the driver over its pinned
        // query profile emits the same hits in the same order, with the
        // same work counters, as the same driver running the scalar oracle
        // — for DNA/unit and for protein/PAM30 at served query lengths on
        // both sides of the 48-symbol cutoff.
        let cases = [
            (Alphabet::dna(), 4, Scoring::unit_dna(), [4usize, 9, 14], 3),
            (
                Alphabet::protein(),
                20,
                Scoring::pam30_protein(),
                [6, 16, 56],
                40,
            ),
        ];
        for (seed, (alphabet, symbols, scoring, lengths, min_score)) in
            cases.into_iter().enumerate()
        {
            let db = lcg_db(alphabet, symbols, 12, seed as u64 + 7);
            let tree = SuffixTree::build(&db);
            for len in lengths {
                // A query copied out of the database, so the search runs deep.
                let q: Vec<u8> = db
                    .text()
                    .iter()
                    .copied()
                    .filter(|&c| (c as u64) < symbols)
                    .skip(5)
                    .take(len)
                    .collect();
                for params in [
                    OasisParams::with_min_score(min_score),
                    OasisParams::with_min_score(min_score).all_occurrences(),
                ] {
                    let fast = drain(&tree, &db, &q, &scoring, &params, false);
                    let slow = drain(&tree, &db, &q, &scoring, &params, true);
                    assert!(!fast.0.is_empty(), "len {len}: the planted query must hit");
                    assert_eq!(fast, slow, "len {len}, {params:?}");
                }
            }
        }
    }

    #[test]
    fn columns_are_recycled_through_the_free_list() {
        // Each viable node used to get a fresh column. With expanded nodes'
        // columns handed back, no more columns exist at once than the
        // frontier's peak plus the node being expanded.
        let db = lcg_db(Alphabet::dna(), 4, 40, 3);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let q: Vec<u8> = db.text()[3..15].to_vec();
        let params = OasisParams::with_min_score(4);
        let mut driver = SearchDriver::new(&tree, &db, &q, &scoring, &params);
        let mut hits = Vec::new();
        let stats = driver.drain_into(&mut hits);
        let Kernel::Linear(kernel) = &driver.kernel else {
            panic!("linear gaps run the linear kernel");
        };
        let fresh = kernel.fresh_columns();
        assert!(
            fresh <= stats.max_queue as u64 + 1,
            "{fresh} fresh columns, frontier peak {}",
            stats.max_queue
        );
        // The bound bites: far more nodes were enqueued than columns made.
        assert!(stats.nodes_enqueued > 2 * fresh, "{stats:?}, {fresh} fresh");
    }

    #[test]
    #[should_panic(expected = "does not index this database")]
    fn mismatched_tree_rejected() {
        let db1 = dna_db(&["ACGT"]);
        let db2 = dna_db(&["ACGTACGT"]);
        let tree = SuffixTree::build(&db1);
        let scoring = Scoring::unit_dna();
        let params = OasisParams::with_min_score(1);
        let q = Alphabet::dna().encode_str("AC").unwrap();
        let _ = SearchDriver::new(&tree, &db2, &q, &scoring, &params);
    }
}
