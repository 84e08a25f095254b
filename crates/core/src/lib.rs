#![warn(missing_docs)]

//! # oasis-core
//!
//! OASIS — an **O**nline and **A**ccurate **S**earch technique for
//! **I**nferring local-alignments on **S**equences — the primary
//! contribution of Meek, Patel & Kasetty (VLDB 2003), reimplemented in Rust.
//!
//! OASIS evaluates local-alignment queries *exactly* (never missing a match
//! that Smith-Waterman would find) while exploring only a small fraction of
//! the database. It runs a best-first (A*) search whose frontier is the set
//! of suffix-tree nodes reached so far:
//!
//! * each search node carries a column of alignment scores (`C`), the best
//!   score found along its path (`Gmax`), and an optimistic upper bound on
//!   any score obtainable by descending further (`f`);
//! * a priority queue ordered by `f` guarantees that when an *accepted* node
//!   reaches the front, no other frontier node can beat its score — so hits
//!   stream out **online, in non-increasing score order**;
//! * three pruning rules (non-positive scores, no-improvement-over-`Gmax`,
//!   threshold failure) discard alignment states that are either covered by
//!   other tree paths or provably unable to reach `minScore`.
//!
//! The search is generic over [`oasis_suffix::SuffixTreeAccess`], so it runs
//! identically over the in-memory tree and the disk-resident tree of
//! `oasis-storage`.
//!
//! Modules:
//!
//! * [`heuristic`] — the `h` vector of Algorithm 2 (§3.1).
//! * [`node`] — search-node representation and queue ordering.
//! * [`frontier`] — the best-first priority queue and its score bound.
//! * [`mod@expand`] — Algorithm 3: column-wise DP over one suffix-tree arc with
//!   alignment pruning and early accept/unviable exits.
//! * [`driver`] — Algorithms 1–2 as a resumable step-based state machine
//!   that yields hits incrementally (what `oasis-engine` schedules).
//! * [`search`] — configuration, results, and the iterator facade over the
//!   driver, with online per-sequence result reporting.
//! * [`affine`] — the affine-gap extension the paper lists as future work
//!   (§6), using the three-matrix (Gotoh) recurrence.

pub mod affine;
pub mod driver;
pub mod evalue;
pub mod expand;
pub mod frontier;
pub mod heuristic;
pub mod node;
pub mod search;

pub use driver::{root_node, SearchDriver, StepOutcome};
pub use evalue::{EvalueOrderedSearch, EvaluedHit};
pub use expand::{
    expand, expand_reference, expand_with_rules, ExpandScratch, PruneRules, QueryKernel,
};
pub use frontier::Frontier;
pub use heuristic::heuristic_vector;
pub use node::{SearchNode, Status};
pub use search::{Hit, OasisParams, OasisSearch, ReportMode, SearchStats};
