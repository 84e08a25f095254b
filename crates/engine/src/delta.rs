//! The in-memory delta layer: appended sequences not yet compacted into
//! the base artifact.
//!
//! A [`DeltaIndex`] mirrors the tail of the append write-ahead log
//! ([`oasis_storage::wal`]): every durably logged sequence, in `seq_no`
//! order, that no completed compaction has folded into the base yet. It
//! is small by construction — compaction keeps draining it — so it is
//! re-indexed from scratch on every append: building a suffix index over
//! a few fresh sequences is cheap, and rebuilding keeps the layered
//! query path on the *exact* shard merge (one extra [`Shard`]) instead of
//! introducing a second, approximate search structure.
//!
//! ## Why a delta shard merges exactly
//!
//! Appends only add whole sequences after the base, so the delta is one
//! more contiguous sequence partition: `seq_offset` = the base's sequence
//! count, `text_offset` = the base's text length. Partitioning by whole
//! sequences partitions the hit set (a local alignment lives inside one
//! sequence), so fanning a query over base shards + the delta shard and
//! merging on the canonical (score desc, start asc) key reproduces — byte
//! for byte — what a full rebuild over the concatenated database would
//! return. `tests/model_oracle.rs` property-tests exactly that.

use std::sync::Arc;

use oasis_bioseq::{Sequence, SequenceDatabase};
use oasis_storage::WalRecord;
use oasis_suffix::{EsaIndex, SuffixTree};

use crate::shard::{Shard, ShardBackend};
use crate::IndexBackend;

/// The live delta: appended sequences (as WAL records) awaiting
/// compaction, plus cached totals.
#[derive(Debug, Clone, Default)]
pub struct DeltaIndex {
    records: Vec<WalRecord>,
    residues: u64,
}

impl DeltaIndex {
    /// An empty delta.
    pub fn new() -> Self {
        DeltaIndex::default()
    }

    /// A delta holding `records` (the WAL tail after replay, in `seq_no`
    /// order).
    pub fn from_records(records: Vec<WalRecord>) -> Self {
        let residues = records.iter().map(|r| r.codes.len() as u64).sum();
        DeltaIndex { records, residues }
    }

    /// Absorb one durably logged append.
    pub fn push(&mut self, record: WalRecord) {
        self.residues += record.codes.len() as u64;
        self.records.push(record);
    }

    /// The pending records, oldest first.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Pending appended sequences.
    pub fn num_seqs(&self) -> u32 {
        self.records.len() as u32
    }

    /// Pending appended residues (terminators excluded).
    pub fn residues(&self) -> u64 {
        self.residues
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Highest pending `seq_no`, or `None` when empty.
    pub fn last_seq_no(&self) -> Option<u64> {
        self.records.last().map(|r| r.seq_no)
    }

    /// Drop every record a compaction folded (`seq_no <= folded_through`),
    /// keeping the still-live tail. Appends that raced the compaction
    /// carry higher numbers and survive.
    pub fn drop_folded(&mut self, folded_through: u64) {
        self.records.retain(|r| r.seq_no > folded_through);
        self.residues = self.records.iter().map(|r| r.codes.len() as u64).sum();
    }

    /// The pending sequences as owned [`Sequence`]s (for extending a
    /// database).
    pub fn sequences(&self) -> Vec<Sequence> {
        self.records
            .iter()
            .map(|r| Sequence::from_codes(r.name.clone(), r.codes.clone()))
            .collect()
    }

    /// Index the pending sequences as one extra shard positioned after
    /// `base`: `seq_offset` = base sequence count, `text_offset` = base
    /// text length, so shard-local hits remap to coordinates in the
    /// concatenated (base + delta) database. Returns `None` when the
    /// delta is empty (an empty shard would be pure overhead).
    ///
    /// The caller guarantees (checked at append admission) that the
    /// concatenated text stays within the global size limit, so building
    /// the small delta database cannot fail.
    pub(crate) fn build_shard(
        &self,
        base: &SequenceDatabase,
        backend: IndexBackend,
    ) -> Option<Shard> {
        if self.is_empty() {
            return None;
        }
        let mut builder = oasis_bioseq::DatabaseBuilder::new(base.alphabet().clone());
        for record in &self.records {
            let seq = Sequence::from_codes(record.name.clone(), record.codes.clone());
            if builder.push(seq).is_err() {
                // Unreachable by the admission check above; refuse to
                // build rather than panic on the serving path.
                return None;
            }
        }
        let delta_db = builder.finish();
        let index = match backend {
            IndexBackend::Tree => ShardBackend::Tree(SuffixTree::build(&delta_db)),
            IndexBackend::Esa => ShardBackend::Esa(EsaIndex::build(&delta_db)),
        };
        Some(Shard {
            db: Arc::new(delta_db),
            index,
            seq_offset: base.num_sequences(),
            text_offset: base.text_len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_bioseq::{Alphabet, DatabaseBuilder};

    fn record(seq_no: u64, name: &str, codes: &[u8]) -> WalRecord {
        WalRecord {
            seq_no,
            name: name.to_string(),
            codes: codes.to_vec(),
        }
    }

    fn base() -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        b.push_str("s0", "ACGTACGT").unwrap();
        b.push_str("s1", "TTGCA").unwrap();
        b.finish()
    }

    #[test]
    fn accounting_tracks_pushes_and_folds() {
        let mut delta = DeltaIndex::new();
        assert!(delta.is_empty());
        assert_eq!(delta.last_seq_no(), None);
        delta.push(record(0, "a", &[0, 1, 2]));
        delta.push(record(1, "b", &[3]));
        delta.push(record(2, "c", &[1, 1]));
        assert_eq!((delta.num_seqs(), delta.residues()), (3, 6));
        assert_eq!(delta.last_seq_no(), Some(2));
        delta.drop_folded(1);
        assert_eq!((delta.num_seqs(), delta.residues()), (1, 2));
        assert_eq!(delta.records()[0].name, "c");
        let again = DeltaIndex::from_records(delta.records().to_vec());
        assert_eq!(again.residues(), 2);
    }

    #[test]
    fn delta_shard_sits_after_the_base() {
        let base = base();
        let delta = DeltaIndex::from_records(vec![record(0, "new0", &[0, 1, 2, 3])]);
        for backend in [IndexBackend::Tree, IndexBackend::Esa] {
            let shard = delta.build_shard(&base, backend).unwrap();
            assert_eq!(shard.seq_offset, base.num_sequences());
            assert_eq!(shard.text_offset, base.text_len());
            assert_eq!(shard.db.num_sequences(), 1);
            assert_eq!(shard.db.name(0), "new0");
        }
        assert!(DeltaIndex::new()
            .build_shard(&base, IndexBackend::Tree)
            .is_none());
    }

    #[test]
    fn sequences_preserve_names_and_codes() {
        let delta = DeltaIndex::from_records(vec![record(3, "x", &[2, 2]), record(4, "y", &[0])]);
        let seqs = delta.sequences();
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].name(), "x");
        assert_eq!(seqs[1].codes(), &[0]);
    }
}
