#![warn(missing_docs)]

//! # oasis-bioseq
//!
//! Biological-sequence primitives for the OASIS reproduction: alphabets,
//! encoded sequences, the multi-sequence database that the suffix tree and
//! the search algorithms operate on, and FASTA import/export.
//!
//! Design notes:
//!
//! * Residues are stored as dense `u8` *codes* in `0..alphabet.len()`, never
//!   as ASCII. This keeps substitution-matrix lookups branch-free and lets
//!   the suffix-tree machinery work over small integer alphabets.
//! * A [`SequenceDatabase`] concatenates all sequences into one text with a
//!   [`TERMINATOR`] code after each sequence, exactly as the paper's
//!   generalized suffix tree expects (§2.3: "indexing multiple sequences by
//!   appending the terminal symbol to each sequence").
//! * Every public type is deterministic and `Send + Sync`; there is no
//!   global state.

pub mod alphabet;
pub mod binio;
pub mod database;
pub mod error;
pub mod fasta;
pub mod sequence;

pub use alphabet::{Alphabet, AlphabetKind, TERMINATOR};
pub use binio::{read_alphabet_kind, read_database, write_database, BinIoError};
pub use database::{DatabaseBuilder, SeqId, SequenceDatabase, SequenceView};
pub use error::BioseqError;
pub use fasta::{parse_fasta, write_fasta, UnknownResiduePolicy};
pub use sequence::Sequence;
