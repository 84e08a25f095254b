#![warn(missing_docs)]

//! # oasis-align
//!
//! The alignment substrate for the OASIS reproduction:
//!
//! * [`matrix`] — substitution matrices: the paper's Table 1 unit
//!   edit-distance matrix, BLOSUM62 and PAM30 (the matrix the paper uses for
//!   its protein experiments), and arbitrary user matrices.
//! * [`gaps`] — the fixed (linear) gap-penalty model used throughout the
//!   paper's evaluation, plus the affine model listed as future work.
//! * [`sw`] — the Smith-Waterman baseline (§2.2): score-only linear-memory
//!   scans with column counters, full-matrix variants with traceback, and a
//!   database scanner that reports the single strongest alignment per
//!   sequence (the reporting mode OASIS duplicates).
//! * [`alignment`] — alignment representation (operations, ranges, pretty
//!   printing like the paper's Figure 1).
//! * [`stats`] — Karlin-Altschul statistics: λ, K, H estimation and the
//!   E-value ⇔ score conversions of the paper's Equations 2 and 3.

pub mod alignment;
pub mod gaps;
pub mod matrix;
pub mod score;
pub mod stats;
pub mod sw;

pub use alignment::{AlignOp, Alignment};
pub use gaps::{GapModel, Scoring};
pub use matrix::SubstitutionMatrix;
pub use score::{Score, NEG_INF};
pub use stats::{background_dna, background_protein, KarlinParams, StatsError};
pub use sw::{sw_align, sw_best, sw_full_matrix, LocalHit, SeqBest, SwScanner};
