//! `oasis-lint` — the workspace invariant checker.
//!
//! The serving stack's correctness rests on two invariants no compiler
//! lint or test checks: no lock guard may be held across a blocking
//! call, and serving code must not index a `VecDeque`, `HashMap` or
//! `BTreeMap` (clippy's `indexing_slicing` sees only slices and `Vec`).
//! This crate enforces them as a dependency-free static-analysis pass
//! over the workspace's own sources: a small hand-rolled [lexer]
//! (comment-, string-, and `#[cfg(test)]`-aware — no `syn`, no
//! crates.io) feeding a [rule engine](rules) that emits `file:line`
//! [diagnostics](diag) with human and `--json` output.
//!
//! # Rules
//!
//! | rule | checks |
//! |------|--------|
//! | `serving-index` | no direct indexing in serving code (clippy misses `VecDeque`/`HashMap`/`BTreeMap`) |
//! | `guard-across-blocking` | no lock guard held across `wait`/`recv`/socket I/O in the same block |
//!
//! Panic-freedom on the serving path, lint-suppression reasons and
//! `forbid(unsafe_code)` are rustc/clippy lints configured in the
//! workspace manifest and the serving crates. The wire spec, the metric
//! names and the artifact layout are checked by tests that run the
//! code; see `docs/LINTS.md`.

#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod workspace;

pub use diag::{render_json, Diagnostic};
pub use source::SourceFile;
pub use workspace::{find_root, Workspace};
