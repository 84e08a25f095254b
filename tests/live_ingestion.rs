//! Live ingestion's robustness contract, end to end over the real
//! artifact + WAL files (that a layered index answers exactly like a full
//! rebuild, before and after compaction, is checked by
//! `tests/model_oracle.rs`):
//!
//! * **Crash recovery**: a process that appended and then died without
//!   any shutdown handshake loses nothing — reopening replays the WAL;
//!   a record torn mid-write by the crash is discarded cleanly while
//!   every acknowledged record before it survives.
//! * **Lineage**: offline compaction records the delta lineage in the
//!   manifest and truncates the log, and a crash *between* the fold and
//!   the truncation replays nothing twice.

mod support;

use std::sync::Arc;

use oasis::prelude::*;
use support::{build_db, scratch_dir, sequences};

#[test]
fn reopen_after_simulated_kill_replays_the_wal() {
    let base = vec![vec![0u8, 2, 3, 0, 1, 2, 1], vec![3u8, 0, 1, 1, 2]];
    let added = vec![vec![1u8, 1, 2, 3, 0, 2, 1, 0], vec![2u8, 3, 0, 2]];
    let db = build_db(&base);
    let dir = scratch_dir("kill");
    build_index_artifact(&db, &dir, 2, 64, IndexBackend::Tree).expect("artifact written");

    {
        // The "process" that appends and then dies: dropping the
        // LiveIndex without any shutdown handshake is exactly what a
        // kill -9 leaves behind (the WAL has no close record).
        let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default())
            .expect("live open");
        let receipt = live.append(sequences(&added, base.len())).expect("append");
        assert_eq!(receipt.appended_seqs, 2);
    }

    let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default())
        .expect("reopen after kill");
    let stats = live.stats();
    assert_eq!(stats.delta_seqs, 2, "both appends replayed");
    let snapshot = live.snapshot();
    let outcome = snapshot.run_one(&[1u8, 1, 2, 3], &OasisParams::with_min_score(3));
    assert!(
        outcome.hits.iter().any(|h| h.seq == 2),
        "replayed sequence answers queries: {:?}",
        outcome.hits
    );

    // Identity after recovery, not just presence.
    let mut all = base.clone();
    all.extend(added.clone());
    let reference = ShardedEngine::build(Arc::new(build_db(&all)), Scoring::unit_dna(), 1);
    let q = vec![2u8, 3, 0, 2];
    assert_eq!(
        snapshot.run_one(&q, &OasisParams::with_min_score(1)).hits,
        reference.run_one(&q, &OasisParams::with_min_score(1)).hits
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_is_discarded_and_earlier_records_survive() {
    let base = vec![vec![0u8, 2, 3, 0, 1]];
    let added = vec![vec![1u8, 1, 2, 3], vec![2u8, 3, 0, 2, 1]];
    let dir = scratch_dir("torn");
    build_index_artifact(&build_db(&base), &dir, 1, 64, IndexBackend::Tree)
        .expect("artifact written");
    {
        let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default())
            .expect("live open");
        live.append(sequences(&added, 1)).expect("append");
    }

    // Tear the last record mid-write, as a crash during an fsync would.
    let wal_path = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal_path).expect("wal bytes");
    std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).expect("tear the tail");

    // Read-only inspection sees the tear before any writer repairs it.
    let replay = replay_wal(&dir).expect("replay").expect("wal exists");
    assert!(replay.torn_tail, "the tear is visible to inspection");
    assert_eq!(replay.records.len(), 1);
    assert_eq!(replay.records[0].name, "s1");

    let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default())
        .expect("reopen with torn tail");
    let stats = live.stats();
    assert_eq!(
        stats.delta_seqs, 1,
        "the torn record is discarded, the acknowledged one survives"
    );
    // Opening for write repaired the log to its intact prefix.
    let repaired = replay_wal(&dir).expect("replay").expect("wal exists");
    assert!(!repaired.torn_tail, "open-for-write repairs the tail");
    assert_eq!(repaired.records.len(), 1);

    // A fresh append after recovery continues the seq_no sequence
    // (monotone over the artifact's lifetime — the torn record's slot
    // is reused because it was never acknowledged).
    let receipt = live
        .append(sequences(&[vec![3u8, 3, 0]], 2))
        .expect("append after recovery");
    assert_eq!(receipt.stats.delta_seqs, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn offline_compaction_records_lineage_and_truncates() {
    let base = vec![vec![0u8, 2, 3, 0, 1, 2], vec![3u8, 0, 1]];
    let added = vec![vec![1u8, 1, 2, 3, 0], vec![2u8, 3, 0, 2]];
    let dir = scratch_dir("lineage");
    build_index_artifact(&build_db(&base), &dir, 2, 64, IndexBackend::Tree)
        .expect("artifact written");
    {
        let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default())
            .expect("live open");
        live.append(sequences(&added, 2)).expect("append");
    }

    // Offline: a later process replays the log and compacts, with no
    // catalog to publish into.
    let report = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default())
        .expect("reopen")
        .compact(|_| Ok(0))
        .expect("offline compaction");
    assert_eq!(report.folded_seqs, 2);

    let manifest = read_manifest(&dir).expect("manifest");
    assert_eq!(manifest.num_seqs, 4);
    let lineage = manifest.lineage.expect("compaction recorded lineage");
    assert_eq!(lineage.compactions, 1);
    assert_eq!(lineage.appended_seqs, 2);
    assert_eq!(lineage.folded_through, 1);
    let replay = replay_wal(&dir).expect("replay").expect("wal exists");
    assert!(replay.records.is_empty(), "the log was truncated");

    // Crash between a fold and its truncation: simulate by restoring a
    // full log next to the already-folded manifest. Replay must skip
    // every folded record — nothing is applied twice.
    let mut wal = WriteAheadLog::open(&dir).expect("wal reopen").0;
    // The records were folded through seq 1; write stale duplicates
    // with the *same* seq numbers the fold consumed.
    wal.rewrite(&[
        WalRecord {
            seq_no: 0,
            name: "s2".to_string(),
            codes: added[0].clone(),
        },
        WalRecord {
            seq_no: 1,
            name: "s3".to_string(),
            codes: added[1].clone(),
        },
    ])
    .expect("restore stale log");
    drop(wal);
    let live = LiveIndex::open(&dir, Scoring::unit_dna(), LiveIndexOptions::default())
        .expect("reopen after simulated crash");
    assert_eq!(
        live.stats().delta_seqs,
        0,
        "folded records must not replay into the delta again"
    );
    let second = live.compact(|_| Ok(0)).expect("idle compaction");
    assert_eq!(second.folded_seqs, 0, "nothing left to fold");
    assert_eq!(
        read_manifest(&dir).expect("manifest").num_seqs,
        4,
        "no sequence was folded twice"
    );
    std::fs::remove_dir_all(&dir).ok();
}
