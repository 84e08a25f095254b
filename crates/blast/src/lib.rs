#![warn(missing_docs)]

//! # oasis-blast
//!
//! A clean-room BLAST-like heuristic baseline, built so the paper's
//! comparative experiments (Figures 3, 5, 6, 9) can run without the NCBI
//! binary. It follows the classic blastp/blastn pipeline:
//!
//! 1. **Word seeding** — the query is "transformed into a set of
//!    fixed-length words that are matched against the database" (§1): every
//!    database word scoring at least `T` against some query word (the
//!    *neighborhood*) seeds a hit.
//! 2. **Two-hit triggering** (optional, BLAST 2.0 style) — extension fires
//!    only when two non-overlapping hits land on one diagonal within a
//!    window.
//! 3. **Ungapped X-drop extension** — seeds are "extended to the left and
//!    the right" until the running score drops `X` below the best.
//! 4. **Gapped extension** — promising ungapped extensions trigger a
//!    bounded local Smith-Waterman around the seed diagonal.
//! 5. **E-value filtering** — per-sequence best hits with
//!    `E ≤ threshold` are reported (Equation 2).
//!
//! Because seeding requires a surviving `w`-mer, BLAST *misses* remote
//! homologs whose best alignment contains no high-scoring word — exactly
//! the inaccuracy OASIS eliminates and Figure 5 quantifies.

pub mod params;
pub mod search;
pub mod words;

pub use params::{BlastParams, SeedMode};
pub use search::{BlastError, BlastHit, BlastSearch, BlastStats};
pub use words::WordIndex;
