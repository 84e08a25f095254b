#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # oasis-suffix
//!
//! The suffix-tree index substrate of the OASIS reproduction (§2.3 of the
//! paper), built from first principles:
//!
//! * [`text`] — the ranked text: the database's concatenated codes with each
//!   terminator given a *unique* rank so that no suffix-tree path crosses a
//!   sequence boundary (the generalized-suffix-tree property).
//! * [`sais`] — linear-time SA-IS suffix-array construction, the only
//!   production builder.
//! * [`lcp`] — Kasai's linear-time LCP array.
//! * [`tree`] — the compact (PATRICIA) generalized suffix tree assembled
//!   from SA + LCP with a stack in one pass.
//! * [`access`] — [`SuffixTreeAccess`], the traversal trait the in-memory
//!   tree, the disk-resident tree (in `oasis-storage`), and the enhanced
//!   suffix array implement; OASIS itself is generic over it.
//! * [`esa`] — [`EsaIndex`], the enhanced-suffix-array backend: SA + LCP +
//!   lcp-interval navigation with a two-byte bucket LUT, persisted as a
//!   packed payload that is validated and served in place.
//! * [`search`] — exact-match lookup (§2.3.1); tests use it to check each
//!   substrate's traversal against a scan of the text.
//! * [`rebuild`] — validated reassembly of a [`SuffixTree`] from serialized
//!   parts, the load path of the persistent index artifacts written by
//!   `oasis-storage`.
//!
//! Three builders exist only as test oracles (`#[cfg(test)]`), each sharing
//! no code with the production pipeline: prefix doubling and the naive
//! quadratic sort check [`sais`], and Ukkonen's online construction checks
//! [`tree`].

pub mod access;
#[cfg(test)]
mod doubling;
pub mod esa;
pub mod lcp;
#[cfg(test)]
mod naive;
pub mod rebuild;
pub mod sais;
pub mod search;
pub mod text;
pub mod tree;
#[cfg(test)]
mod ukkonen;

pub use access::{fill_through_terminator, NodeHandle, SuffixTreeAccess};
pub use esa::{EsaError, EsaIndex};
pub use lcp::lcp_kasai;
pub use rebuild::{RebuildError, TreeAssembler};
pub use sais::suffix_array;
pub use search::{find_exact, occurrences, ExactMatch};
pub use text::RankedText;
pub use tree::SuffixTree;
