//! Algorithm 3: the `Expand` function — "the core of the OASIS algorithm".
//!
//! Expanding a suffix-tree arc fills the corresponding columns of the
//! (never-resetting) Smith-Waterman matrix, seeded with the parent node's
//! final column. After each column three pruning rules fire (§3.2):
//!
//! 1. **Non-positive alignment scores** (`M[i][j] ≤ 0`) — such alignments
//!    are covered by other suffix-tree paths, because every subsequence of
//!    the target is the prefix of some path.
//! 2. **Existing alignment is as good** (`M[i][j] + h_i ≤ Gmax(path)`) —
//!    the optimistic completion cannot beat the strongest alignment already
//!    found along this path.
//! 3. **Threshold failure** (`M[i][j] + h_i < minScore`) — no extension can
//!    reach the score threshold.
//!
//! Expansion also stops early: if the column's upper bound `f` drops to
//! `Gmax` the node is *accepted* (or *unviable* if `Gmax < minScore`); if
//! `f` falls below `minScore` the node is *unviable*. A terminator symbol
//! ends a leaf arc the same way ("we simply set f and g to the maximum
//! value seen along the path", §3.3).
//!
//! ## Kernel layout
//!
//! Every production expansion reads substitution scores from a **query
//! profile** (`profile[t · n + i] = S(q_{i+1}, t)`): the matrix transposed
//! into one contiguous row per *target* symbol, so an arc symbol streams
//! one row instead of looking up the matrix cell by cell. A
//! [`SearchDriver`](crate::SearchDriver) builds the profile once, when it is
//! constructed; [`expand`] caches it in [`ExpandScratch`] and rebuilds it
//! only when the query or scoring changes.
//!
//! Below `FUSED_SCALAR_CUTOFF` (48) query symbols a column is one fused
//! left-to-right loop over the profile row, with every slice cut to
//! `n + 1` before the loop so the cells carry no bounds checks. From 48
//! symbols on, a column takes two passes. Pass 1 computes the carry-free
//! part of the recurrence — `max(replace, delete)` — which has no
//! loop-carried dependency and compiles to straight-line vector code;
//! pass 2 folds in the sequential insertion chain and applies the pruning
//! rules, `Gmax`, and the column bounds in the exact left-to-right order
//! of Algorithm 3. A per-column **live mask** (one bit per surviving `C`
//! cell) lets whole 64-cell blocks whose inputs are all pruned be skipped
//! outright — valid precisely when rule 1 is active, because rule 1 pins
//! every dead cell to exactly `NEG_INF`.
//!
//! A leaf arc always ends with its terminator, where expansion stops, so a
//! leaf child is read without asking the substrate how long its arc is
//! (which, for a leaf, means searching the sequence starts for where its
//! sequence ends). A viable node's `C` column is taken from a free list in
//! [`ExpandScratch`], and the driver hands each node's column back through
//! [`QueryKernel::recycle_column`] once the node is expanded, so a search
//! allocates about as many columns as its frontier ever holds rather than
//! one per viable node.
//!
//! The scalar transcription is kept as [`expand_reference`]; property
//! tests pin both production paths to it byte for byte.

use oasis_align::{Score, Scoring, NEG_INF};
use oasis_bioseq::TERMINATOR;
use oasis_suffix::{NodeHandle, SuffixTreeAccess};

use crate::node::{SearchNode, Status};

/// Reusable buffers for [`expand`], so the hot loop performs no allocation
/// except for `C` columns the free list cannot supply. Also caches the
/// query substitution profile across expansions of the same query.
#[derive(Debug, Default)]
pub struct ExpandScratch {
    prev: Vec<Score>,
    cur: Vec<Score>,
    chunk: Vec<u8>,
    /// Pass-1 output: `max(replace, delete)` per cell, no carried state.
    tmp: Vec<Score>,
    /// `profile[t * n + i] = scoring.sub(query[i], t)` for every residue
    /// code `t` of the alphabet — the matrix transposed into rows indexed
    /// by *target* symbol, so one arc symbol streams one contiguous row.
    profile: Vec<Score>,
    /// The (query, scoring) the profile was built for.
    profile_query: Vec<u8>,
    profile_scoring: Option<Scoring>,
    /// Bit `i` set ⇔ `prev[i] != NEG_INF` (only maintained when rule 1 is
    /// active; see the module doc).
    live_prev: Vec<u64>,
    live_cur: Vec<u64>,
    /// `C` columns of expanded nodes, ready for the next viable node.
    free_columns: Vec<Box<[Score]>>,
    /// Columns allocated because `free_columns` was empty.
    fresh_columns: u64,
}

impl ExpandScratch {
    /// (Re)build the cached query profile if the query or scoring changed.
    fn ensure_profile(&mut self, query: &[u8], scoring: &Scoring) {
        let n = query.len();
        let nsyms = scoring.matrix.alphabet_len();
        if self.profile_query == query
            && self.profile_scoring.as_ref() == Some(scoring)
            && self.profile.len() == nsyms * n
        {
            return;
        }
        self.profile.clear();
        self.profile.resize(nsyms * n, 0);
        for t in 0..nsyms {
            let row = &mut self.profile[t * n..(t + 1) * n];
            for (cell, &q) in row.iter_mut().zip(query) {
                *cell = scoring.sub(q, t as u8);
            }
        }
        self.profile_query.clear();
        self.profile_query.extend_from_slice(query);
        self.profile_scoring = Some(scoring.clone());
    }
}

/// The production kernel pinned to one query and scoring. The query
/// profile is built once, by [`QueryKernel::new`], and every
/// [`QueryKernel::expand`] reads it without checking it again. This is
/// what a [`SearchDriver`](crate::SearchDriver) runs, one per search;
/// [`expand`] runs the same kernel for callers that keep one
/// [`ExpandScratch`] across queries, and compares the cached query and
/// scoring on every call.
#[derive(Debug)]
pub struct QueryKernel {
    scratch: ExpandScratch,
    gap: Score,
}

impl QueryKernel {
    /// Build the kernel for `query` under `scoring`.
    ///
    /// # Panics
    /// If `scoring` has an affine gap model (that search runs
    /// [`crate::affine::expand_affine`]).
    pub fn new(query: &[u8], scoring: &Scoring) -> Self {
        let mut scratch = ExpandScratch::default();
        scratch.ensure_profile(query, scoring);
        QueryKernel {
            scratch,
            gap: scoring.gap.linear_per_symbol(),
        }
    }

    /// [`expand`] for the pinned query and scoring; the other arguments
    /// are the same.
    // Algorithm 3's inputs less the pinned query and scoring.
    #[allow(clippy::too_many_arguments)]
    pub fn expand<T: SuffixTreeAccess + ?Sized>(
        &mut self,
        tree: &T,
        parent: &SearchNode,
        child: NodeHandle,
        h: &[Score],
        min_score: Score,
        seq: u64,
        columns: &mut u64,
    ) -> SearchNode {
        debug_assert_eq!(parent.c.len(), self.scratch.profile_query.len() + 1);
        expand_profiled(
            tree,
            parent,
            child,
            self.gap,
            h,
            min_score,
            seq,
            &mut self.scratch,
            columns,
            PruneRules::default(),
        )
    }

    /// Hand back the `C` column of a node that has been expanded, for a
    /// later viable node to reuse.
    pub fn recycle_column(&mut self, column: Box<[Score]>) {
        if !column.is_empty() {
            self.scratch.free_columns.push(column);
        }
    }

    /// How many `C` columns were allocated rather than recycled.
    #[cfg(test)]
    pub(crate) fn fresh_columns(&self) -> u64 {
        self.scratch.fresh_columns
    }

    /// The buffers, for running the reference kernel in their place.
    #[cfg(test)]
    pub(crate) fn scratch(&mut self) -> &mut ExpandScratch {
        &mut self.scratch
    }
}

/// True if any bit in `mask[lo..=hi]` (bit indices) is set.
#[inline]
fn any_live(mask: &[u64], lo: usize, hi: usize) -> bool {
    let (wl, wh) = (lo / 64, hi / 64);
    let lo_bits = !0u64 << (lo % 64);
    let hi_bits = !0u64 >> (63 - hi % 64);
    if wl == wh {
        mask[wl] & lo_bits & hi_bits != 0
    } else {
        mask[wl] & lo_bits != 0
            || mask[wh] & hi_bits != 0
            || mask[wl + 1..wh].iter().any(|&w| w != 0)
    }
}

#[inline]
fn set_live(mask: &mut [u64], i: usize) {
    mask[i / 64] |= 1 << (i % 64);
}

/// How many arc symbols are pulled from the tree per `arc_fill` call.
/// Chunking keeps disk-backed trees efficient without materializing whole
/// leaf arcs (expansion usually terminates after a handful of columns).
const ARC_CHUNK: usize = 64;

/// Which of §3.2's pruning rules are active. All three are on in normal
/// operation; the ablation benches disable them individually to quantify
/// each rule's contribution. Disabling rules never changes the reported
/// result set — only the amount of work (and, for `threshold`, whether
/// hopeless subtrees are abandoned at the node level too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneRules {
    /// Rule 1: prune non-positive alignment scores.
    pub non_positive: bool,
    /// Rule 2: prune cells whose optimistic completion cannot beat
    /// `Gmax(path)`.
    pub no_improvement: bool,
    /// Rule 3: prune cells (and abandon nodes) that cannot reach `minScore`.
    pub threshold: bool,
}

impl Default for PruneRules {
    fn default() -> Self {
        PruneRules {
            non_positive: true,
            no_improvement: true,
            threshold: true,
        }
    }
}

/// Expand `child` (an arc of the suffix tree) from `parent`, producing the
/// child's search node. `parent` must be a viable node whose `c` vector is
/// populated; `h` is the heuristic vector; `seq` is the new node's
/// deterministic tie-breaking sequence number. Each computed DP column
/// increments `columns`, the filtering metric of the paper's Figure 4.
// The arguments are the paper's Algorithm 3 inputs, kept positional so the
// code reads against the pseudocode.
#[allow(clippy::too_many_arguments)]
pub fn expand<T: SuffixTreeAccess + ?Sized>(
    tree: &T,
    parent: &SearchNode,
    child: NodeHandle,
    query: &[u8],
    scoring: &Scoring,
    h: &[Score],
    min_score: Score,
    seq: u64,
    scratch: &mut ExpandScratch,
    columns: &mut u64,
) -> SearchNode {
    expand_with_rules(
        tree,
        parent,
        child,
        query,
        scoring,
        h,
        min_score,
        seq,
        scratch,
        columns,
        PruneRules::default(),
    )
}

/// Queries shorter than this run the fused scalar column loop instead of
/// the two-pass layout. Both read the query profile; below the cutoff a
/// column fits in registers and L1, and one fused pass beats a second pass
/// plus live-mask upkeep. At and above it the carry-free first pass
/// auto-vectorizes and whole 64-cell blocks of dead cells are skipped,
/// which is where the two-pass layout pays for itself.
const FUSED_SCALAR_CUTOFF: usize = 48;

/// [`expand`] with explicit pruning-rule control (ablation entry point).
///
/// This is the production kernel (see the module doc): the query profile
/// with the fused scalar loop below `FUSED_SCALAR_CUTOFF` (48) symbols, and
/// the two-pass layout with live-mask block skipping from there on. It is
/// byte-identical to [`expand_reference`] on both sides of the cutoff —
/// property tests straddling the boundary hold the two together.
// Same signature as `expand` plus the rule toggles; see the note there.
#[allow(clippy::too_many_arguments)]
pub fn expand_with_rules<T: SuffixTreeAccess + ?Sized>(
    tree: &T,
    parent: &SearchNode,
    child: NodeHandle,
    query: &[u8],
    scoring: &Scoring,
    h: &[Score],
    min_score: Score,
    seq: u64,
    scratch: &mut ExpandScratch,
    columns: &mut u64,
    rules: PruneRules,
) -> SearchNode {
    debug_assert_eq!(parent.c.len(), query.len() + 1);
    scratch.ensure_profile(query, scoring);
    expand_profiled(
        tree,
        parent,
        child,
        scoring.gap.linear_per_symbol(),
        h,
        min_score,
        seq,
        scratch,
        columns,
        rules,
    )
}

/// The production kernel over the profile already held in `scratch`. The
/// caller guarantees that profile was built for this search's query and
/// scoring ([`QueryKernel::new`], or `ensure_profile` in
/// [`expand_with_rules`]); `gap` is the scoring's linear gap score.
// Algorithm 3's inputs with the query and scoring replaced by the profile.
#[allow(clippy::too_many_arguments)]
fn expand_profiled<T: SuffixTreeAccess + ?Sized>(
    tree: &T,
    parent: &SearchNode,
    child: NodeHandle,
    gap: Score,
    h: &[Score],
    min_score: Score,
    seq: u64,
    scratch: &mut ExpandScratch,
    columns: &mut u64,
    rules: PruneRules,
) -> SearchNode {
    debug_assert_eq!(parent.status, Status::Viable);
    let n = parent.c.len() - 1;
    debug_assert_eq!(h.len(), n + 1);
    let h = &h[..=n];
    let fused = n < FUSED_SCALAR_CUTOFF;
    let parent_depth = parent.depth;
    // A leaf arc ends with its terminator, which returns below: the loop
    // needs no arc length for it.
    let arc_total = if child.is_leaf() {
        u32::MAX
    } else {
        tree.arc_len(parent_depth, child)
    };

    let mut gmax = parent.gmax;
    let mut gmax_depth = parent.gmax_depth;
    let mut gmax_qend = parent.gmax_qend;

    let ExpandScratch {
        prev,
        cur,
        chunk,
        tmp,
        profile,
        live_prev,
        live_cur,
        free_columns,
        fresh_columns,
        ..
    } = scratch;
    prev.clear();
    prev.extend_from_slice(&parent.c);
    cur.resize(n + 1, NEG_INF);
    chunk.resize(ARC_CHUNK, 0);

    // Rule 1 pins every pruned cell to exactly NEG_INF, which is what
    // makes a zero live mask a proof that a whole block stays dead.
    let block_skip = !fused && rules.non_positive;
    if !fused {
        tmp.resize(n + 1, NEG_INF);
        let words = (n + 1).div_ceil(64);
        live_prev.clear();
        live_prev.resize(words, 0);
        live_cur.clear();
        live_cur.resize(words, 0);
        if block_skip {
            for (i, &v) in prev.iter().enumerate() {
                if v != NEG_INF {
                    set_live(live_prev, i);
                }
            }
        }
    }

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

    let pruned = |v: Score, hi: Score, gmax: Score| -> bool {
        (rules.non_positive && v <= 0)
            || (rules.no_improvement && v + hi <= gmax)
            || (rules.threshold && v + hi < min_score)
    };

    while consumed < arc_total {
        let got = tree.arc_fill(parent_depth, child, consumed, chunk);
        debug_assert!(got > 0, "arc_fill must make progress");
        for &t in &chunk[..got] {
            if t == TERMINATOR {
                // End of a leaf arc: "no further expansion is possible".
                return terminal(gmax, gmax_depth, gmax_qend, depth);
            }
            *columns += 1;
            depth += 1;
            let row = &profile[t as usize * n..][..n];
            let (pv, cv) = (&prev[..=n], &mut cur[..=n]);

            // Row 0: the empty query prefix can only extend by a deletion;
            // resets to zero are "not permitted outside of the seed entry".
            let v0 = pv[0] + gap;
            cv[0] = if pruned(v0, h[0], gmax) { NEG_INF } else { v0 };
            f_col = if cv[0] == NEG_INF {
                NEG_INF
            } else {
                cv[0] + h[0]
            };
            g_col = cv[0];

            if fused {
                // One pass, left to right: the insertion carry is the
                // previous cell of this column.
                let mut left = cv[0];
                for i in 1..=n {
                    let best = (pv[i - 1] + row[i - 1]).max(left + gap).max(pv[i] + gap);
                    left = if pruned(best, h[i], gmax) {
                        NEG_INF
                    } else {
                        if best > gmax {
                            gmax = best;
                            gmax_depth = depth;
                            gmax_qend = i as u32;
                        }
                        f_col = f_col.max(best + h[i]);
                        g_col = g_col.max(best);
                        best
                    };
                    cv[i] = left;
                }
            } else {
                if block_skip {
                    live_cur.fill(0);
                    if cv[0] != NEG_INF {
                        set_live(live_cur, 0);
                    }
                }
                // Cells 1..=n, in 64-cell blocks. A block whose diagonal,
                // vertical, and carry inputs are all dead cannot produce a
                // positive score, so rule 1 would prune every cell in it:
                // write the NEG_INFs and move on without computing anything.
                let mut lo = 1usize;
                while lo <= n {
                    let hi_cell = (lo + 63).min(n);
                    if block_skip && cv[lo - 1] == NEG_INF && !any_live(live_prev, lo - 1, hi_cell)
                    {
                        cv[lo..=hi_cell].fill(NEG_INF);
                        lo = hi_cell + 1;
                        continue;
                    }
                    // Pass 1: replace/delete have no carried state — this
                    // loop is pure elementwise max over contiguous rows.
                    {
                        let dst = &mut tmp[lo..=hi_cell];
                        let diag = &pv[lo - 1..hi_cell];
                        let up = &pv[lo..=hi_cell];
                        let sub = &row[lo - 1..hi_cell];
                        for (((d, &pd), &pu), &s) in dst.iter_mut().zip(diag).zip(up).zip(sub) {
                            *d = (pd + s).max(pu + gap);
                        }
                    }
                    // Pass 2: fold in the sequential insertion chain and the
                    // pruning rules in Algorithm 3's left-to-right order
                    // (pruning reads `gmax`, which this same pass advances).
                    for i in lo..=hi_cell {
                        let best = tmp[i].max(cv[i - 1] + gap);
                        if pruned(best, h[i], gmax) {
                            cv[i] = NEG_INF;
                        } else {
                            cv[i] = best;
                            if block_skip {
                                set_live(live_cur, i);
                            }
                            if best > gmax {
                                gmax = best;
                                gmax_depth = depth;
                                gmax_qend = i as u32;
                            }
                            f_col = f_col.max(best + h[i]);
                            g_col = g_col.max(best);
                        }
                    }
                    lo = hi_cell + 1;
                }
            }

            // Early exits (§3.2): no improvement possible along this path…
            if f_col <= gmax {
                return terminal(gmax, gmax_depth, gmax_qend, depth);
            }
            // …or the threshold is out of reach.
            if rules.threshold && f_col < min_score {
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
            std::mem::swap(prev, cur);
            if block_skip {
                std::mem::swap(live_prev, live_cur);
            }
        }
        consumed += got as u32;
    }

    // Whole arc consumed without a terminator: an internal node, still
    // promising — keep its final column for the children.
    debug_assert!(!child.is_leaf(), "leaf arcs end with a terminator");
    let c = match free_columns.pop() {
        Some(mut column) if column.len() == n + 1 => {
            column.copy_from_slice(prev);
            column
        }
        _ => {
            *fresh_columns += 1;
            prev.clone().into_boxed_slice()
        }
    };
    SearchNode {
        handle: child,
        depth,
        f: f_col,
        g: g_col,
        gmax,
        gmax_depth,
        gmax_qend,
        status: Status::Viable,
        c,
        e: Box::new([]),
        seq,
    }
}

/// The plain scalar transcription of Algorithm 3 — one fused loop per
/// column, no profile, no blocks. Kept as the differential oracle for the
/// production kernel: `expand_with_rules` must match it byte for byte on
/// every field of the returned node and on the column count.
// Mirrors the `expand_with_rules` signature exactly so the two kernels are
// drop-in interchangeable in the differential tests; see the note there.
#[allow(clippy::too_many_arguments)]
pub fn expand_reference<T: SuffixTreeAccess + ?Sized>(
    tree: &T,
    parent: &SearchNode,
    child: NodeHandle,
    query: &[u8],
    scoring: &Scoring,
    h: &[Score],
    min_score: Score,
    seq: u64,
    scratch: &mut ExpandScratch,
    columns: &mut u64,
    rules: PruneRules,
) -> SearchNode {
    debug_assert_eq!(parent.status, Status::Viable);
    debug_assert_eq!(parent.c.len(), query.len() + 1);
    let n = query.len();
    let gap = scoring.gap.linear_per_symbol();
    let parent_depth = parent.depth;
    let arc_total = tree.arc_len(parent_depth, child);

    let mut gmax = parent.gmax;
    let mut gmax_depth = parent.gmax_depth;
    let mut gmax_qend = parent.gmax_qend;

    scratch.prev.clear();
    scratch.prev.extend_from_slice(&parent.c);
    scratch.cur.resize(n + 1, NEG_INF);
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
        debug_assert!(got > 0, "arc_fill must make progress");
        for k in 0..got {
            let t = scratch.chunk[k];
            if t == TERMINATOR {
                // End of a leaf arc: "no further expansion is possible".
                return terminal(gmax, gmax_depth, gmax_qend, depth);
            }
            *columns += 1;
            depth += 1;
            let prev = &scratch.prev;
            let cur = &mut scratch.cur;

            let pruned = |v: Score, hi: Score, gmax: Score| -> bool {
                (rules.non_positive && v <= 0)
                    || (rules.no_improvement && v + hi <= gmax)
                    || (rules.threshold && v + hi < min_score)
            };

            // Row 0: the empty query prefix can only extend by a deletion;
            // resets to zero are "not permitted outside of the seed entry".
            let v0 = prev[0] + gap;
            cur[0] = if pruned(v0, h[0], gmax) { NEG_INF } else { v0 };
            f_col = if cur[0] == NEG_INF {
                NEG_INF
            } else {
                cur[0] + h[0]
            };
            g_col = cur[0];

            for i in 1..=n {
                let replace = prev[i - 1] + scoring.sub(query[i - 1], t);
                let insert = cur[i - 1] + gap; // skip a query symbol
                let delete = prev[i] + gap; // skip a target symbol
                let best = replace.max(insert).max(delete);
                if pruned(best, h[i], gmax) {
                    cur[i] = NEG_INF;
                } else {
                    cur[i] = best;
                    if best > gmax {
                        gmax = best;
                        gmax_depth = depth;
                        gmax_qend = i as u32;
                    }
                    f_col = f_col.max(best + h[i]);
                    g_col = g_col.max(best);
                }
            }

            // Early exits (§3.2): no improvement possible along this path…
            if f_col <= gmax {
                return terminal(gmax, gmax_depth, gmax_qend, depth);
            }
            // …or the threshold is out of reach.
            if rules.threshold && f_col < min_score {
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
            std::mem::swap(&mut scratch.prev, &mut scratch.cur);
        }
        consumed += got as u32;
    }

    // Whole arc consumed without a terminator: an internal node, still
    // promising — keep its final column for the children.
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
        c: scratch.prev.clone().into_boxed_slice(),
        e: Box::new([]),
        seq,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::root_node;
    use crate::heuristic::heuristic_vector;
    use oasis_align::Scoring;
    use oasis_bioseq::{Alphabet, DatabaseBuilder, SequenceDatabase};
    use oasis_suffix::SuffixTree;

    fn figure2_db() -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        b.push_str("s0", "AGTACGCCTAG").unwrap();
        b.finish()
    }

    /// Find the internal node whose path label is `label`.
    fn node_by_label(tree: &SuffixTree, label: &str) -> NodeHandle {
        let alpha = Alphabet::dna();
        (0..SuffixTreeAccess::num_internal(tree))
            .map(NodeHandle::internal)
            .find(|&h| alpha.decode_all(&tree.path_label(h)) == label)
            .unwrap_or_else(|| panic!("no internal node with path {label}"))
    }

    /// Drive one expansion of the §3.3 walkthrough: query TACG, unit
    /// matrix, minScore 1.
    fn walkthrough_expand(label: &str) -> SearchNode {
        let db = figure2_db();
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let query = Alphabet::dna().encode_str("TACG").unwrap();
        let h = heuristic_vector(&query, &scoring);
        let root = root_node(&query, &h, 1).expect("root viable");
        let child = node_by_label(&tree, label);
        let mut scratch = ExpandScratch::default();
        let mut columns = 0;
        expand(
            &tree,
            &root,
            child,
            &query,
            &scoring,
            &h,
            1,
            1,
            &mut scratch,
            &mut columns,
        )
    }

    #[test]
    fn root_node_matches_paper() {
        // §3.3: the root entry has C = [0,0,0,0,−∞], f = 4, g = 0.
        let scoring = Scoring::unit_dna();
        let query = Alphabet::dna().encode_str("TACG").unwrap();
        let h = heuristic_vector(&query, &scoring);
        let root = root_node(&query, &h, 1).unwrap();
        assert_eq!(root.f, 4);
        assert_eq!(root.g, 0);
        assert_eq!(root.gmax, 0);
        assert_eq!(&root.c[..4], &[0, 0, 0, 0]);
        assert_eq!(root.c[4], NEG_INF); // h_4 = 0 < minScore prunes it
        assert_eq!(root.status, Status::Viable);
    }

    #[test]
    fn expand_node_1n_path_a() {
        // Paper: expanding 1N (path "A") gives a VIABLE node with f=3, and
        // the only surviving C entry is c_2 = 1.
        let node = walkthrough_expand("A");
        assert_eq!(node.status, Status::Viable);
        assert_eq!(node.f, 3);
        assert_eq!(node.g, 1);
        assert_eq!(node.gmax, 1);
        assert_eq!(node.c[2], 1);
        for i in [0usize, 1, 3, 4] {
            assert_eq!(node.c[i], NEG_INF, "c[{i}] should be pruned");
        }
    }

    #[test]
    fn expand_node_2n_path_c() {
        // Paper: 2N expansion results in f = 2 and g = 1.
        let node = walkthrough_expand("C");
        assert_eq!(node.status, Status::Viable);
        assert_eq!(node.f, 2);
        assert_eq!(node.g, 1);
    }

    #[test]
    fn expand_node_3n_path_g_accepted() {
        // Paper: "The expansion of node 3N results in f and g values of 1,
        // so this node is tagged as ACCEPTED."
        let node = walkthrough_expand("G");
        assert_eq!(node.status, Status::Accepted);
        assert_eq!(node.f, 1);
        assert_eq!(node.g, 1);
        assert_eq!(node.gmax, 1);
    }

    #[test]
    fn expand_node_4n_path_ta() {
        // Paper: 4N (path "TA") expands two columns to a VIABLE node with
        // f = 4; the strongest alignment so far is TA/TA with score 2.
        let node = walkthrough_expand("TA");
        assert_eq!(node.status, Status::Viable);
        assert_eq!(node.f, 4);
        assert_eq!(node.g, 2);
        assert_eq!(node.gmax, 2);
        assert_eq!(node.gmax_depth, 2);
        assert_eq!(node.gmax_qend, 2);
        assert_eq!(node.c[2], 2);
    }

    #[test]
    fn expand_leaf_2l_accepts_with_score_4() {
        // Paper: expanding 2L from 4N reaches an accept state in the second
        // column with f = g = 4.
        let db = figure2_db();
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let query = Alphabet::dna().encode_str("TACG").unwrap();
        let h = heuristic_vector(&query, &scoring);
        let root = root_node(&query, &h, 1).unwrap();
        let ta = node_by_label(&tree, "TA");
        let mut scratch = ExpandScratch::default();
        let mut columns = 0;
        let ta_node = expand(
            &tree,
            &root,
            ta,
            &query,
            &scoring,
            &h,
            1,
            1,
            &mut scratch,
            &mut columns,
        );
        let leaf2 = NodeHandle::leaf(2);
        let node = expand(
            &tree,
            &ta_node,
            leaf2,
            &query,
            &scoring,
            &h,
            1,
            2,
            &mut scratch,
            &mut columns,
        );
        assert_eq!(node.status, Status::Accepted);
        assert_eq!(node.f, 4);
        assert_eq!(node.g, 4);
        assert_eq!(node.gmax_depth, 4); // TACG: whole 4-symbol path
        assert_eq!(node.gmax_qend, 4);
    }

    #[test]
    fn expand_leaf_8l_accepts_with_score_2() {
        // Paper: 8L's expansion results in f and g values of 2.
        let db = figure2_db();
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let query = Alphabet::dna().encode_str("TACG").unwrap();
        let h = heuristic_vector(&query, &scoring);
        let root = root_node(&query, &h, 1).unwrap();
        let ta = node_by_label(&tree, "TA");
        let mut scratch = ExpandScratch::default();
        let mut columns = 0;
        let ta_node = expand(
            &tree,
            &root,
            ta,
            &query,
            &scoring,
            &h,
            1,
            1,
            &mut scratch,
            &mut columns,
        );
        let leaf8 = NodeHandle::leaf(8);
        let node = expand(
            &tree,
            &ta_node,
            leaf8,
            &query,
            &scoring,
            &h,
            1,
            2,
            &mut scratch,
            &mut columns,
        );
        assert_eq!(node.status, Status::Accepted);
        assert_eq!(node.f, 2);
        assert_eq!(node.g, 2);
        assert_eq!(node.gmax, 2);
    }

    #[test]
    fn columns_counter_counts_dp_columns() {
        let db = figure2_db();
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let query = Alphabet::dna().encode_str("TACG").unwrap();
        let h = heuristic_vector(&query, &scoring);
        let root = root_node(&query, &h, 1).unwrap();
        let mut scratch = ExpandScratch::default();
        let mut columns = 0;
        let ta = node_by_label(&tree, "TA");
        expand(
            &tree,
            &root,
            ta,
            &query,
            &scoring,
            &h,
            1,
            1,
            &mut scratch,
            &mut columns,
        );
        assert_eq!(columns, 2); // "TA" = two columns
    }

    #[test]
    fn disabled_rules_change_work_not_results() {
        // Rules off keeps more cells alive: the node is still viable with
        // the same f/g/gmax, only the C vector retains extra entries.
        let db = figure2_db();
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let query = Alphabet::dna().encode_str("TACG").unwrap();
        let h = heuristic_vector(&query, &scoring);
        let root = root_node(&query, &h, 1).unwrap();
        let a = node_by_label(&tree, "A");
        let mut scratch = ExpandScratch::default();
        let mut cols = 0;
        let strict = expand(
            &tree,
            &root,
            a,
            &query,
            &scoring,
            &h,
            1,
            1,
            &mut scratch,
            &mut cols,
        );
        let rules_off = PruneRules {
            non_positive: false,
            no_improvement: false,
            threshold: false,
        };
        let loose = expand_with_rules(
            &tree,
            &root,
            a,
            &query,
            &scoring,
            &h,
            1,
            1,
            &mut scratch,
            &mut cols,
            rules_off,
        );
        assert_eq!(strict.f, loose.f);
        assert_eq!(strict.g, loose.g);
        assert_eq!(strict.gmax, loose.gmax);
        assert_eq!(strict.status, loose.status);
        // The loose expansion keeps at least as many live C entries.
        let live = |n: &SearchNode| n.c.iter().filter(|&&v| v > NEG_INF / 2).count();
        assert!(live(&loose) >= live(&strict));
    }

    #[test]
    fn fast_kernel_matches_reference_on_walkthrough_tree() {
        // Every (node, minScore, rule-set) cell of the §3.3 tree: the
        // production kernel and the scalar oracle must agree on every
        // field of the returned node and on the column count.
        let db = figure2_db();
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let query = Alphabet::dna().encode_str("TACG").unwrap();
        let h = heuristic_vector(&query, &scoring);
        let rule_sets = [
            PruneRules::default(),
            PruneRules {
                non_positive: false,
                no_improvement: true,
                threshold: true,
            },
            PruneRules {
                non_positive: true,
                no_improvement: false,
                threshold: false,
            },
            PruneRules {
                non_positive: false,
                no_improvement: false,
                threshold: false,
            },
        ];
        for min_score in 1..=4 {
            let Some(root) = root_node(&query, &h, min_score) else {
                continue;
            };
            for label in ["A", "C", "G", "TA"] {
                let child = node_by_label(&tree, label);
                for rules in rule_sets {
                    let mut s1 = ExpandScratch::default();
                    let mut s2 = ExpandScratch::default();
                    let (mut c1, mut c2) = (0u64, 0u64);
                    let fast = expand_with_rules(
                        &tree, &root, child, &query, &scoring, &h, min_score, 7, &mut s1, &mut c1,
                        rules,
                    );
                    let slow = expand_reference(
                        &tree, &root, child, &query, &scoring, &h, min_score, 7, &mut s2, &mut c2,
                        rules,
                    );
                    assert_eq!(fast, slow, "label={label} min={min_score} rules={rules:?}");
                    assert_eq!(c1, c2, "column count label={label} min={min_score}");
                }
            }
        }
    }

    #[test]
    fn profile_is_rebuilt_when_scoring_changes() {
        // Same query, different matrix, same scratch: the cached profile
        // must not leak across scoring configurations.
        let query = vec![0u8, 1, 2, 3];
        let mut scratch = ExpandScratch::default();
        scratch.ensure_profile(&query, &Scoring::unit_dna());
        let unit = scratch.profile.clone();
        let mut skewed = Scoring::unit_dna();
        skewed.gap = oasis_align::GapModel::linear(-3);
        scratch.ensure_profile(&query, &skewed);
        // Gap change alone: substitution rows identical but key differs.
        assert_eq!(scratch.profile, unit);
        assert_eq!(scratch.profile_scoring.as_ref(), Some(&skewed));
    }

    #[test]
    fn unviable_when_threshold_unreachable() {
        // minScore 5 > best possible along "G" (f_col = 1): unviable.
        let db = figure2_db();
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let query = Alphabet::dna().encode_str("TACG").unwrap();
        let h = heuristic_vector(&query, &scoring);
        // Root with minScore 4 still viable (f = 4).
        let root = root_node(&query, &h, 4).unwrap();
        let g = node_by_label(&tree, "G");
        let mut scratch = ExpandScratch::default();
        let mut columns = 0;
        let node = expand(
            &tree,
            &root,
            g,
            &query,
            &scoring,
            &h,
            4,
            1,
            &mut scratch,
            &mut columns,
        );
        assert_eq!(node.status, Status::Unviable);
    }
}
