#![warn(missing_docs)]

//! # oasis-workloads
//!
//! Deterministic synthetic workloads standing in for the paper's data sets
//! (the substitution is documented in DESIGN.md):
//!
//! * **SWISS-PROT** (≈100K proteins, 40M residues, lengths 7–2048) →
//!   [`ProteinDbSpec`]: residues drawn from the Robinson-Robinson
//!   background, skewed length distribution, and *planted homologous
//!   families* — motifs copied into several sequences with mutations — so
//!   the database has the high-scoring structure real protein data has.
//! * **Drosophila genome** (≈120M nt) → [`DnaDbSpec`]: uniform ACGT with
//!   planted repeats.
//! * **ProClass motif queries** (lengths 6–56, mean ≈16) → [`QuerySpec`]:
//!   substrings of planted family motifs, further mutated, so queries are
//!   true remote homologs of database content.
//!
//! Everything is seeded and reproducible: the same spec always yields the
//! same bytes.

pub mod generate;
pub mod spec;

pub use generate::{generate_dna, generate_protein, generate_queries, Workload};
pub use spec::{DnaDbSpec, ProteinDbSpec, QuerySpec};
