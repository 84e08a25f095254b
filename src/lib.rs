#![warn(missing_docs)]

//! # OASIS — Online and Accurate Search for Inferring local alignments on Sequences
//!
//! An open-source Rust reproduction of *"OASIS: An Online and Accurate
//! Technique for Local-alignment Searches on Biological Sequences"*
//! (Meek, Patel, Kasetty — VLDB 2003).
//!
//! This umbrella crate re-exports every workspace crate under one roof so
//! applications can depend on a single `oasis` crate:
//!
//! * [`bioseq`] — alphabets, sequences, the multi-sequence database, FASTA.
//! * [`align`] — substitution matrices, gap models, Smith-Waterman, Karlin-
//!   Altschul statistics.
//! * [`suffix`] — suffix arrays, LCP, the in-memory generalized suffix tree.
//! * [`storage`] — block devices, the clock buffer pool, and the paper's
//!   on-disk suffix-tree representation.
//! * [`core`] — the OASIS search algorithm itself (the paper's primary
//!   contribution).
//! * [`engine`] — the concurrent multi-query engine: a shared `Arc`
//!   substrate (database + index + buffer pool) serving batches of queries
//!   across worker threads with per-query statistics.
//! * [`net`] — the network serving subsystem: the versioned binary wire
//!   protocol, the `oasis serve` daemon over a shared serving engine, and
//!   the remote client.
//! * [`obs`] — observability: log-bucketed latency histograms, per-query
//!   span tracing, the slow-query log, and Prometheus text exposition.
//! * [`blast`] — a clean-room BLAST-like heuristic baseline.
//! * [`workloads`] — deterministic synthetic SWISS-PROT / Drosophila /
//!   ProClass-style workload generators.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`, or in short:
//!
//! ```
//! use oasis::prelude::*;
//!
//! // 1. Build a small protein database.
//! let mut b = DatabaseBuilder::new(Alphabet::protein());
//! b.push_str("sp|DEMO1", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ").unwrap();
//! b.push_str("sp|DEMO2", "MKTAYIAKQRNISFVKSHFSRQDEERLGLIEVQ").unwrap();
//! let db = b.finish();
//!
//! // 2. Index it with a generalized suffix tree.
//! let tree = SuffixTree::build(&db);
//!
//! // 3. Run an OASIS search: exact results, online, best first.
//! let scoring = Scoring::new(SubstitutionMatrix::blosum62(), GapModel::linear(-8));
//! let query = Alphabet::protein().encode_str("AKQRQISF").unwrap();
//! let params = OasisParams::with_min_score(20);
//! let hits: Vec<_> = OasisSearch::new(&tree, &db, &query, &scoring, &params).collect();
//! assert!(!hits.is_empty());
//! // Hits arrive in non-increasing score order.
//! assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
//! ```

pub use oasis_align as align;
pub use oasis_bioseq as bioseq;
pub use oasis_blast as blast;
pub use oasis_core as core;
pub use oasis_engine as engine;
pub use oasis_net as net;
pub use oasis_obs as obs;
pub use oasis_storage as storage;
pub use oasis_suffix as suffix;
pub use oasis_workloads as workloads;

pub mod prelude;
