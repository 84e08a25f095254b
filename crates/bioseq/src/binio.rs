//! Binary serialization of a [`SequenceDatabase`].
//!
//! The on-disk suffix-tree index (in `oasis-storage`) stores the text and
//! sequence boundaries but not names or the alphabet, so a search tool must
//! reload the database itself. Re-parsing FASTA on every query is wasteful;
//! this compact binary sidecar loads with two bulk reads.
//!
//! Layout (little-endian):
//!
//! ```text
//!   magic  "OASISDB1"                      8 bytes
//!   kind   0 = DNA, 1 = protein            1 byte
//!   nseq   u32
//!   textlen u32
//!   starts  (nseq + 1) × u32
//!   text    textlen bytes (codes + terminators)
//!   names   nseq × (u32 length + utf-8 bytes)
//! ```

use std::io::{self, Read, Write};

use crate::alphabet::{Alphabet, AlphabetKind, TERMINATOR};
use crate::database::{DatabaseBuilder, SequenceDatabase};
use crate::sequence::Sequence;

const MAGIC: &[u8; 8] = b"OASISDB1";

/// Errors while reading a binary database.
#[derive(Debug)]
pub enum BinIoError {
    /// The magic bytes did not match.
    BadMagic,
    /// Structural inconsistency (bad counts, codes out of range, …).
    Corrupt(&'static str),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for BinIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinIoError::BadMagic => write!(f, "not an OASIS database (bad magic)"),
            BinIoError::Corrupt(what) => write!(f, "corrupt database: {what}"),
            BinIoError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for BinIoError {}

impl From<io::Error> for BinIoError {
    fn from(e: io::Error) -> Self {
        BinIoError::Io(e)
    }
}

/// Write `db` in the binary sidecar format.
pub fn write_database<W: Write>(mut w: W, db: &SequenceDatabase) -> io::Result<()> {
    w.write_all(MAGIC)?;
    let kind = match db.alphabet_kind() {
        AlphabetKind::Dna => 0u8,
        AlphabetKind::Protein => 1u8,
    };
    w.write_all(&[kind])?;
    let nseq = db.num_sequences();
    w.write_all(&nseq.to_le_bytes())?;
    w.write_all(&db.text_len().to_le_bytes())?;
    for i in 0..=nseq {
        let start = if i == nseq {
            db.text_len()
        } else {
            db.seq_start(i)
        };
        w.write_all(&start.to_le_bytes())?;
    }
    w.write_all(db.text())?;
    for i in 0..nseq {
        let name = db.name(i).as_bytes();
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name)?;
    }
    Ok(())
}

/// Read only the header of a database written by [`write_database`]:
/// its alphabet, without reading the sequences.
pub fn read_alphabet_kind<R: Read>(mut r: R) -> Result<AlphabetKind, BinIoError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(BinIoError::BadMagic);
    }
    let mut kind = [0u8; 1];
    r.read_exact(&mut kind)?;
    match kind[0] {
        0 => Ok(AlphabetKind::Dna),
        1 => Ok(AlphabetKind::Protein),
        _ => Err(BinIoError::Corrupt("unknown alphabet kind")),
    }
}

/// Read a database written by [`write_database`], with structural checks.
pub fn read_database<R: Read>(mut r: R) -> Result<SequenceDatabase, BinIoError> {
    let alphabet = Alphabet::of_kind(read_alphabet_kind(&mut r)?);
    let mut buf4 = [0u8; 4];
    r.read_exact(&mut buf4)?;
    let nseq = u32::from_le_bytes(buf4);
    r.read_exact(&mut buf4)?;
    let text_len = u32::from_le_bytes(buf4) as usize;
    if (nseq as usize) > text_len {
        return Err(BinIoError::Corrupt("more sequences than symbols"));
    }
    let mut starts = Vec::with_capacity(nseq as usize + 1);
    for _ in 0..=nseq {
        r.read_exact(&mut buf4)?;
        starts.push(u32::from_le_bytes(buf4));
    }
    if starts.last().copied() != Some(text_len as u32) {
        return Err(BinIoError::Corrupt("start table does not span the text"));
    }
    let mut text = vec![0u8; text_len];
    r.read_exact(&mut text)?;

    let mut builder = DatabaseBuilder::new(alphabet.clone());
    for i in 0..nseq as usize {
        let start = starts[i] as usize;
        let end = starts[i + 1] as usize;
        if end <= start || end > text_len {
            return Err(BinIoError::Corrupt("sequence bounds out of order"));
        }
        if text[end - 1] != TERMINATOR {
            return Err(BinIoError::Corrupt("sequence not terminator-delimited"));
        }
        let codes = &text[start..end - 1];
        if codes.iter().any(|&c| c as usize >= alphabet.len()) {
            return Err(BinIoError::Corrupt("residue code out of range"));
        }
        builder
            .push(Sequence::from_codes(String::new(), codes.to_vec()))
            .map_err(|_| BinIoError::Corrupt("database exceeds addressing limits"))?;
    }
    let mut db = builder.finish();
    // Names.
    let mut names = Vec::with_capacity(nseq as usize);
    for _ in 0..nseq {
        r.read_exact(&mut buf4)?;
        let len = u32::from_le_bytes(buf4) as usize;
        if len > 1 << 20 {
            return Err(BinIoError::Corrupt("implausible name length"));
        }
        let mut name = vec![0u8; len];
        r.read_exact(&mut name)?;
        names.push(String::from_utf8(name).map_err(|_| BinIoError::Corrupt("name is not utf-8"))?);
    }
    db.set_names(names)
        .map_err(|_| BinIoError::Corrupt("name count mismatch"))?;
    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::protein());
        b.push_str("sp|P1|FIRST", "MKTAYIAKQR").unwrap();
        b.push_str("sp|P2|SECOND", "WWCC").unwrap();
        b.push_str("", "A").unwrap(); // empty name is legal
        b.finish()
    }

    #[test]
    fn roundtrip() {
        let db = sample();
        let mut buf = Vec::new();
        write_database(&mut buf, &db).unwrap();
        let back = read_database(&buf[..]).unwrap();
        assert_eq!(back, db);
        assert_eq!(back.name(0), "sp|P1|FIRST");
        assert_eq!(back.name(2), "");
    }

    #[test]
    fn roundtrip_dna() {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        b.push_str("chr1", "ACGTACGT").unwrap();
        let db = b.finish();
        let mut buf = Vec::new();
        write_database(&mut buf, &db).unwrap();
        assert_eq!(read_database(&buf[..]).unwrap(), db);
    }

    #[test]
    fn bad_magic_rejected() {
        let db = sample();
        let mut buf = Vec::new();
        write_database(&mut buf, &db).unwrap();
        buf[0] ^= 0xFF;
        assert!(matches!(read_database(&buf[..]), Err(BinIoError::BadMagic)));
    }

    #[test]
    fn truncations_rejected() {
        let db = sample();
        let mut buf = Vec::new();
        write_database(&mut buf, &db).unwrap();
        for keep in [0, 8, 9, 13, 20, buf.len() - 1] {
            let short = &buf[..keep];
            assert!(read_database(short).is_err(), "truncated to {keep}");
        }
    }

    #[test]
    fn corrupt_codes_rejected() {
        let db = sample();
        let mut buf = Vec::new();
        write_database(&mut buf, &db).unwrap();
        // First text byte lives right after header + starts table.
        let text_at = 8 + 1 + 4 + 4 + 4 * (db.num_sequences() as usize + 1);
        buf[text_at] = 200; // not a residue, not a terminator
        assert!(matches!(
            read_database(&buf[..]),
            Err(BinIoError::Corrupt(_))
        ));
    }

    #[test]
    fn corrupt_kind_rejected() {
        let db = sample();
        let mut buf = Vec::new();
        write_database(&mut buf, &db).unwrap();
        buf[8] = 9;
        assert!(matches!(
            read_database(&buf[..]),
            Err(BinIoError::Corrupt(_))
        ));
    }
}
