//! The append write-ahead log: durable live ingestion for index artifacts.
//!
//! An index artifact is immutable once written — the manifest names
//! checksummed sections and nothing else. Live ingestion therefore logs
//! every appended sequence to a sidecar file, `wal.oasislog`, *before*
//! acknowledging it: a crash between an append and the next compaction
//! loses nothing, because replaying the log reconstructs the exact delta
//! the serving process held in memory.
//!
//! ## Format
//!
//! ```text
//! wal.oasislog := magic "OASISWL1" , record*
//! record       := seq_no:u64 , name_len:u16 , name , codes_len:u32 ,
//!                 codes , fnv1a64(record bytes before this field):u64
//! ```
//!
//! All integers are little-endian. `seq_no` increases monotonically over
//! the artifact's whole lifetime (it never resets, even across
//! compactions), so the manifest's delta lineage can record a
//! `folded_through` high-water mark: replay skips any record already
//! folded into the base artifact by a completed compaction.
//!
//! ## Durability discipline
//!
//! * **Append** writes one framed record and fsyncs before returning —
//!   the same "acknowledge only what is durable" contract the artifact
//!   writer keeps.
//! * **Rewrite** (log truncation after a compaction is pinned) goes
//!   through the temp-file + fsync + rename + directory-fsync discipline
//!   [`crate::artifact`] uses, so the log is never half-truncated.
//! * **Replay** tolerates a torn tail: a record cut short by a crash (or
//!   failing its checksum) ends the replay cleanly at the last good
//!   record instead of poisoning the artifact.

// Serving path: the WAL is replayed and appended inside the daemon, so
// failures are typed errors (docs/LINTS.md).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice
)]
// Lock discipline and serving-path indexing: the lock, queue and map types
// and the blocking calls `clippy.toml` bans need a stated reason here
// (docs/LINTS.md).
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::artifact::{fnv1a64, write_atomic, DeltaLineage};

/// File name of the write-ahead log inside an artifact directory. Does not
/// match any of the artifact section naming patterns, so artifact rebuilds
/// and their garbage collection never touch it.
pub const WAL_FILE: &str = "wal.oasislog";

/// Magic bytes opening the log file.
const WAL_MAGIC: &[u8; 8] = b"OASISWL1";

/// Fixed per-record framing overhead: seq_no + name_len + codes_len +
/// checksum.
const RECORD_OVERHEAD: usize = 8 + 2 + 4 + 8;

/// One durably logged append: a named sequence in residue codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic append number (never reused, even across compactions).
    pub seq_no: u64,
    /// The sequence's name.
    pub name: String,
    /// Residue codes in the artifact database's alphabet.
    pub codes: Vec<u8>,
}

impl WalRecord {
    /// The record's size on disk.
    pub fn encoded_len(&self) -> u64 {
        (RECORD_OVERHEAD + self.name.len() + self.codes.len()) as u64
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&self.seq_no.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(self.codes.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.codes);
        let checksum = fnv1a64(out.get(start..).unwrap_or_default());
        out.extend_from_slice(&checksum.to_le_bytes());
    }
}

/// Why the log could not be written or read.
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The log file exists but is not a WAL (bad magic), or a record is
    /// structurally impossible (oversized name, out-of-order seq_no).
    Corrupt(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(what) => write!(f, "corrupt wal: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}

/// The outcome of reading a log back: every intact record in append
/// order, plus what the reader observed about the file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalReplay {
    /// All records with valid checksums, in append order.
    pub records: Vec<WalRecord>,
    /// Size of the log file on disk (torn tail included).
    pub bytes: u64,
    /// True when the file ended mid-record or with a checksum mismatch —
    /// the signature of a crash during an append. The records before the
    /// tear are intact and returned.
    pub torn_tail: bool,
}

impl WalReplay {
    /// Total residues across the replayed records.
    pub fn residues(&self) -> u64 {
        self.records.iter().map(|r| r.codes.len() as u64).sum()
    }
}

/// The records no compaction has folded into the artifact yet: those past
/// `lineage.folded_through` when the manifest records a lineage, otherwise
/// every record. `folded_through` only means something once a compaction
/// recorded it; `seq_no` 0 is live in a plain artifact's log.
pub fn pending_records(
    mut records: Vec<WalRecord>,
    lineage: Option<&DeltaLineage>,
) -> Vec<WalRecord> {
    if let Some(lineage) = lineage {
        records.retain(|r| r.seq_no > lineage.folded_through);
    }
    records
}

/// Read the log in `dir` without taking write ownership: `Ok(None)` when
/// no log exists, otherwise every intact record (see [`WalReplay`]).
/// This is the read-only inspection path (`oasis index inspect`, search
/// over an artifact with pending appends).
pub fn replay_wal(dir: &Path) -> Result<Option<WalReplay>, WalError> {
    let bytes = match std::fs::read(dir.join(WAL_FILE)) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(WalError::Io(e)),
    };
    decode_log(&bytes).map(Some)
}

fn decode_log(bytes: &[u8]) -> Result<WalReplay, WalError> {
    if bytes.is_empty() {
        // A zero-length file is what a crash between create and the
        // header write leaves behind: an empty, torn log.
        return Ok(WalReplay {
            records: Vec::new(),
            bytes: 0,
            torn_tail: true,
        });
    }
    if bytes.first_chunk::<8>() != Some(WAL_MAGIC) {
        return Err(WalError::Corrupt("bad magic".to_string()));
    }
    let mut replay = WalReplay {
        records: Vec::new(),
        bytes: bytes.len() as u64,
        torn_tail: false,
    };
    let mut at = WAL_MAGIC.len();
    let mut last_seq: Option<u64> = None;
    while at < bytes.len() {
        let Some(record) = decode_record(bytes, at) else {
            // Mid-record EOF or checksum failure: a torn tail. Everything
            // before it is intact.
            replay.torn_tail = true;
            break;
        };
        // Out-of-order records are not a torn write — they mean the file
        // was tampered with or the writer is broken; refuse it outright.
        if last_seq.is_some_and(|prev| record.seq_no <= prev) {
            return Err(WalError::Corrupt(format!(
                "record seq_no {} does not increase",
                record.seq_no
            )));
        }
        last_seq = Some(record.seq_no);
        at += record.encoded_len() as usize;
        replay.records.push(record);
    }
    Ok(replay)
}

/// Decode one record at `at`, or `None` when the bytes run out or the
/// checksum does not match (either way: a torn tail).
fn decode_record(bytes: &[u8], at: usize) -> Option<WalRecord> {
    let u16_at = |o: usize| {
        bytes
            .get(o..o.checked_add(2)?)
            .and_then(|s| s.first_chunk::<2>())
            .map(|b| u16::from_le_bytes(*b))
    };
    let u32_at = |o: usize| {
        bytes
            .get(o..o.checked_add(4)?)
            .and_then(|s| s.first_chunk::<4>())
            .map(|b| u32::from_le_bytes(*b))
    };
    let u64_at = |o: usize| {
        bytes
            .get(o..o.checked_add(8)?)
            .and_then(|s| s.first_chunk::<8>())
            .map(|b| u64::from_le_bytes(*b))
    };
    let seq_no = u64_at(at)?;
    let name_len = u16_at(at + 8)? as usize;
    let name_at = at + 10;
    let name = bytes.get(name_at..name_at.checked_add(name_len)?)?;
    let codes_len_at = name_at + name_len;
    let codes_len = u32_at(codes_len_at)? as usize;
    let codes_at = codes_len_at + 4;
    let codes = bytes.get(codes_at..codes_at.checked_add(codes_len)?)?;
    let check_at = codes_at + codes_len;
    let declared = u64_at(check_at)?;
    if fnv1a64(bytes.get(at..check_at)?) != declared {
        return None;
    }
    let name = std::str::from_utf8(name).ok()?.to_string();
    Some(WalRecord {
        seq_no,
        name,
        codes: codes.to_vec(),
    })
}

/// Write ownership of an artifact directory's append log.
///
/// Opening repairs a torn tail (atomically rewriting the log to its
/// intact prefix) and resumes `seq_no` numbering past everything on
/// disk. The file itself is created lazily by the first
/// [`append`](WriteAheadLog::append), so read-mostly artifacts never
/// grow a log.
#[derive(Debug)]
pub struct WriteAheadLog {
    dir: PathBuf,
    next_seq: u64,
    bytes: u64,
}

impl WriteAheadLog {
    /// Open (or prepare to create) the log in `dir`, returning the writer
    /// plus the replayed records.
    pub fn open(dir: &Path) -> Result<(Self, WalReplay), WalError> {
        let replay = replay_wal(dir)?.unwrap_or_default();
        let mut wal = WriteAheadLog {
            dir: dir.to_path_buf(),
            next_seq: replay
                .records
                .last()
                .map(|r| r.seq_no + 1)
                .unwrap_or_default(),
            bytes: replay.bytes,
        };
        if replay.torn_tail {
            // Drop the torn bytes now so later appends land after the
            // last intact record, not after garbage.
            wal.rewrite(&replay.records)?;
        }
        Ok((wal, replay))
    }

    /// Ensure future `seq_no`s start after `floor` — callers feed in the
    /// manifest's `folded_through` so new appends never collide with
    /// records a compaction already folded (and would therefore be
    /// silently skipped on replay).
    pub fn reserve_past(&mut self, floor: u64) {
        if self.next_seq <= floor {
            self.next_seq = floor + 1;
        }
    }

    /// Durably log one appended sequence: the record is written and
    /// fsync'd before this returns. Returns the record (with its assigned
    /// `seq_no`) so the caller can mirror it in memory — a record is in
    /// the log if and only if `append` returned `Ok`.
    pub fn append(&mut self, name: &str, codes: &[u8]) -> Result<WalRecord, WalError> {
        if name.len() > u16::MAX as usize {
            return Err(WalError::Corrupt(format!(
                "sequence name is {} bytes (maximum {})",
                name.len(),
                u16::MAX
            )));
        }
        if codes.len() > u32::MAX as usize {
            return Err(WalError::Corrupt("sequence exceeds 4 GiB".to_string()));
        }
        let record = WalRecord {
            seq_no: self.next_seq,
            name: name.to_string(),
            codes: codes.to_vec(),
        };
        let path = self.dir.join(WAL_FILE);
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        // A fresh log's magic goes out in the first record's write.
        let fresh = f.metadata()?.len() == 0;
        let mut frame = Vec::with_capacity(WAL_MAGIC.len() + record.encoded_len() as usize);
        if fresh {
            frame.extend_from_slice(WAL_MAGIC);
        }
        record.encode_into(&mut frame);
        #[expect(
            clippy::disallowed_methods,
            reason = "a file write: no held-lock check reaches storage, and LiveIndex::append \
                      holds its state lock across this write and fsync by design (docs/LINTS.md)"
        )]
        f.write_all(&frame)?;
        f.sync_all()?;
        if fresh {
            self.bytes = 0;
        }
        self.bytes += frame.len() as u64;
        self.next_seq += 1;
        Ok(record)
    }

    /// Atomically replace the log's contents with exactly `records` —
    /// how a pinned compaction truncates the folded prefix while keeping
    /// the still-live tail. `seq_no` numbering is preserved (the records
    /// keep their original numbers; the next append continues after the
    /// highest number this writer has seen).
    pub fn rewrite(&mut self, records: &[WalRecord]) -> Result<(), WalError> {
        let mut out = Vec::new();
        out.extend_from_slice(WAL_MAGIC);
        for record in records {
            record.encode_into(&mut out);
        }
        write_atomic(&self.dir, WAL_FILE, &out)?;
        self.bytes = out.len() as u64;
        if let Some(last) = records.last() {
            self.reserve_past(last.seq_no);
        }
        Ok(())
    }

    /// Current size of the log on disk (0 until the first append).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The `seq_no` the next append will be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oasis-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn appends_replay_in_order() {
        let dir = tmpdir("order");
        assert_eq!(replay_wal(&dir).unwrap(), None, "no log yet");
        let (mut wal, replay) = WriteAheadLog::open(&dir).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(wal.bytes(), 0);
        let r0 = wal.append("s0", &[0, 1, 2]).unwrap();
        let r1 = wal.append("s1", &[3]).unwrap();
        assert_eq!((r0.seq_no, r1.seq_no), (0, 1));
        let replay = replay_wal(&dir).unwrap().unwrap();
        assert_eq!(replay.records, vec![r0.clone(), r1.clone()]);
        assert!(!replay.torn_tail);
        assert_eq!(replay.residues(), 4);
        assert_eq!(replay.bytes, wal.bytes());
        // Reopening resumes numbering.
        let (mut wal, replay) = WriteAheadLog::open(&dir).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(wal.append("s2", &[2, 2]).unwrap().seq_no, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_recovers_the_prefix() {
        let dir = tmpdir("torn");
        let (mut wal, _) = WriteAheadLog::open(&dir).unwrap();
        wal.append("s0", &[0, 1]).unwrap();
        wal.append("s1", &[2, 3, 1]).unwrap();
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Cut the last record short — a crash mid-append.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let replay = replay_wal(&dir).unwrap().unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].name, "s0");
        // Opening for write repairs the file and appends after the tear.
        let (mut wal, replay) = WriteAheadLog::open(&dir).unwrap();
        assert!(replay.torn_tail);
        let r = wal.append("s2", &[1]).unwrap();
        assert_eq!(r.seq_no, 1, "numbering continues after the intact prefix");
        let replay = replay_wal(&dir).unwrap().unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1].name, "s2");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checksum_flip_ends_replay_at_last_good_record() {
        let dir = tmpdir("flip");
        let (mut wal, _) = WriteAheadLog::open(&dir).unwrap();
        wal.append("s0", &[0, 1]).unwrap();
        let mid = wal.bytes() as usize;
        wal.append("s1", &[2, 3]).unwrap();
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[mid + 4] ^= 0x10; // corrupt the second record
        std::fs::write(&path, &bytes).unwrap();
        let replay = replay_wal(&dir).unwrap().unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rewrite_truncates_to_the_tail() {
        let dir = tmpdir("rewrite");
        let (mut wal, _) = WriteAheadLog::open(&dir).unwrap();
        for i in 0..4 {
            wal.append(&format!("s{i}"), &[i as u8]).unwrap();
        }
        let replay = replay_wal(&dir).unwrap().unwrap();
        wal.rewrite(&replay.records[2..]).unwrap();
        let replay = replay_wal(&dir).unwrap().unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[0].seq_no, 2, "numbers are preserved");
        assert_eq!(wal.append("s4", &[0]).unwrap().seq_no, 4);
        // No temp files linger.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(!name.to_string_lossy().ends_with(".tmp"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reserve_past_skips_folded_numbers() {
        let dir = tmpdir("reserve");
        let (mut wal, _) = WriteAheadLog::open(&dir).unwrap();
        wal.reserve_past(41);
        assert_eq!(wal.append("s", &[0]).unwrap().seq_no, 42);
        // A floor below what the log has seen is a no-op.
        wal.reserve_past(7);
        assert_eq!(wal.next_seq(), 43);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_and_tampered_files_are_typed_errors() {
        let dir = tmpdir("foreign");
        std::fs::write(dir.join(WAL_FILE), b"not a wal at all").unwrap();
        assert!(matches!(replay_wal(&dir), Err(WalError::Corrupt(_))));
        // Records whose seq_no does not increase are rejected, not torn.
        let mut bytes = WAL_MAGIC.to_vec();
        for _ in 0..2 {
            WalRecord {
                seq_no: 5,
                name: "dup".to_string(),
                codes: vec![1],
            }
            .encode_into(&mut bytes);
        }
        std::fs::write(dir.join(WAL_FILE), &bytes).unwrap();
        assert!(matches!(replay_wal(&dir), Err(WalError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_is_a_torn_empty_log() {
        let dir = tmpdir("empty");
        std::fs::write(dir.join(WAL_FILE), b"").unwrap();
        let replay = replay_wal(&dir).unwrap().unwrap();
        assert!(replay.torn_tail);
        assert!(replay.records.is_empty());
        let (mut wal, _) = WriteAheadLog::open(&dir).unwrap();
        assert_eq!(wal.append("s", &[0]).unwrap().seq_no, 0);
        assert!(!replay_wal(&dir).unwrap().unwrap().torn_tail);
        std::fs::remove_dir_all(&dir).ok();
    }
}
