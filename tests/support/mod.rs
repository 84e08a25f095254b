//! Helpers the integration suites share: databases built from residue
//! codes or text, and scratch directories.
#![allow(dead_code, reason = "each test crate uses only part of this module")]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oasis::prelude::*;

/// A database over `alphabet` whose sequence `i` is `s{i}` with codes
/// `seqs[i]`.
pub fn build_db_in(alphabet: Alphabet, seqs: &[Vec<u8>]) -> SequenceDatabase {
    let mut b = DatabaseBuilder::new(alphabet);
    for seq in sequences(seqs, 0) {
        b.push(seq).unwrap();
    }
    b.finish()
}

/// [`build_db_in`] over the DNA alphabet.
pub fn build_db(seqs: &[Vec<u8>]) -> SequenceDatabase {
    build_db_in(Alphabet::dna(), seqs)
}

/// A shared DNA database whose sequence `i` is `s{i}` with residue text
/// `seqs[i]`.
pub fn dna_db(seqs: &[&str]) -> Arc<SequenceDatabase> {
    let mut b = DatabaseBuilder::new(Alphabet::dna());
    for (i, s) in seqs.iter().enumerate() {
        b.push_str(format!("s{i}"), s).unwrap();
    }
    Arc::new(b.finish())
}

/// Sequences named `s{name_offset + i}` with codes `seqs[i]`, for appends
/// that continue a database built by [`build_db`].
pub fn sequences(seqs: &[Vec<u8>], name_offset: usize) -> Vec<Sequence> {
    seqs.iter()
        .enumerate()
        .map(|(i, codes)| Sequence::from_codes(format!("s{}", name_offset + i), codes.clone()))
        .collect()
}

/// A path no other use in this process shares (property tests rerun
/// cases in-process), removed if a previous run left it behind.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("oasis-test-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}
