//! Persistent index artifacts: the on-disk lifecycle format.
//!
//! The paper's premise is a *disk-resident* index, yet a process that
//! rebuilds every suffix tree from the raw text at startup pays cold-start
//! cost proportional to the database — the opposite of the design. An
//! **index artifact** is a directory that captures everything a server
//! needs to come up ready to serve:
//!
//! ```text
//! <dir>/
//!   MANIFEST                       versioned header + shard table + checksums
//!   db-<checksum>.oasisdb          the sequence database (oasis-bioseq binary)
//!   shard-0000-<checksum>.oasis    a §3.4 disk-tree image shard, and/or
//!   esa-0001-<checksum>.oasisesa   a packed enhanced-suffix-array shard
//! ```
//!
//! Every shard entry records its [`SectionKind`]:
//! a **tree image** (servable disk-resident through the buffer pool or
//! decoded into an in-memory [`SuffixTree`]) or a **packed ESA** payload
//! (bit-compressed SA/LCP/node/LUT streams that
//! [`oasis_suffix::EsaIndex::from_parts`] validates and serves in place —
//! no tree reconstitution on load).
//!
//! Every section (database and each shard image) carries an FNV-1a 64-bit
//! checksum in the manifest, and the manifest itself ends with a checksum
//! of its own bytes — a flipped bit anywhere surfaces as a clean
//! [`ArtifactError::ChecksumMismatch`] instead of garbage hits. The shard
//! table records each shard's inclusive global sequence range, which is all
//! the loader needs to reconstitute shard-local databases and remap hits.
//!
//! ## Crash safety
//!
//! Every file is written to a hidden temp name in the target directory,
//! fsync'd, then atomically renamed into place; the manifest is written
//! **last**. Section file names are *content-addressed* (suffixed with the
//! section's checksum), so rebuilding into a directory that already holds
//! an artifact never overwrites a section the current manifest references
//! — the manifest rename is the atomic cutover between generations. A
//! crash mid-write therefore leaves the previous artifact fully loadable
//! (old manifest, old sections, plus some orphaned new sections) or, on a
//! first write, a directory without a readable manifest — never a
//! manifest describing half-written or foreign sections. Once the new
//! manifest is durable, sections no earlier generation can need are
//! garbage-collected best-effort. Loaders trust only what the manifest
//! names and checksums.
//!
//! ## Loading
//!
//! [`read_manifest`] + [`IndexManifest::load_database`] +
//! [`decode_tree`] reconstitute in-memory [`SuffixTree`]s (through
//! `oasis-suffix`'s validated [`TreeAssembler`]); alternatively a
//! single-shard image can be opened *disk-resident* with
//! [`crate::DiskSuffixTree`] over a [`crate::FileDevice`] and served
//! through the buffer pool without ever materializing the tree in memory.

// Serving path: an artifact load runs inside the daemon (boot and reload), so
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

use oasis_bioseq::{AlphabetKind, SequenceDatabase};
use oasis_suffix::{EsaIndex, NodeHandle, SuffixTree, TreeAssembler};

use crate::layout::{
    DiskTreeBuilder, HEADER_LEN, INTERNAL_REC, LAST_SIBLING, MAGIC as TREE_MAGIC, NONE,
};

/// Magic bytes opening the manifest file.
const MANIFEST_MAGIC: &[u8; 8] = b"OASISMF1";
/// The artifact format version, the only one written and read. Version 2
/// added per-shard section kinds and version 3 a trailing delta lineage;
/// version 4 records the lineage behind a presence byte, so plain and
/// compacted artifacts share one layout.
pub const ARTIFACT_VERSION: u32 = 4;
/// File name of the manifest inside an artifact directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// FNV-1a 64-bit checksum — the integrity check on every artifact section.
/// Not cryptographic; it detects corruption (bit rot, truncation, torn
/// writes), which is all the lifecycle needs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Why an artifact could not be written or loaded.
#[derive(Debug)]
pub enum ArtifactError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The manifest's magic bytes did not match.
    NotAnArtifact,
    /// The manifest declares a format version this build cannot read.
    UnsupportedVersion(u32),
    /// A section's bytes do not match the checksum the manifest recorded.
    ChecksumMismatch {
        /// The file whose contents are corrupt.
        file: String,
    },
    /// Structural inconsistency (bad counts, ranges, or decode failures).
    Corrupt(String),
    /// The index cannot be written as an artifact (a disk-resident shard
    /// is served from its file and holds no in-memory index to persist).
    Unsupported(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o error: {e}"),
            ArtifactError::NotAnArtifact => write!(f, "not an OASIS index artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (this build reads {ARTIFACT_VERSION})"
                )
            }
            ArtifactError::ChecksumMismatch { file } => {
                write!(f, "checksum mismatch in {file} — artifact is corrupt")
            }
            ArtifactError::Corrupt(what) => write!(f, "corrupt artifact: {what}"),
            ArtifactError::Unsupported(what) => write!(f, "unsupported: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// What a shard section's bytes encode. Recorded per shard in the
/// manifest so loaders route each section to the right decoder without
/// sniffing magic bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// A §3.4 disk-tree image (`shard-….oasis`): servable disk-resident
    /// through the buffer pool, or decoded via [`decode_tree`].
    TreeImage,
    /// A packed enhanced-suffix-array payload (`esa-….oasisesa`): the
    /// bit-compressed SA/LCP/node/LUT streams [`decode_esa`] validates
    /// and serves in place.
    PackedEsa,
}

impl SectionKind {
    fn to_byte(self) -> u8 {
        match self {
            SectionKind::TreeImage => 0,
            SectionKind::PackedEsa => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ArtifactError> {
        match b {
            0 => Ok(SectionKind::TreeImage),
            1 => Ok(SectionKind::PackedEsa),
            other => Err(ArtifactError::Corrupt(format!(
                "manifest: unknown shard section kind {other}"
            ))),
        }
    }

    /// Human-readable kind name, as shown by `oasis index inspect`.
    pub fn as_str(self) -> &'static str {
        match self {
            SectionKind::TreeImage => "tree-image",
            SectionKind::PackedEsa => "packed-esa",
        }
    }
}

/// A built shard index handed to [`write_index_artifact`]: either an
/// in-memory suffix tree (serialized as a §3.4 disk-tree image) or an
/// enhanced suffix array (serialized as its packed payload, verbatim).
#[derive(Debug, Clone, Copy)]
pub enum ShardPayload<'a> {
    /// Serialize as a [`SectionKind::TreeImage`] section.
    Tree(&'a SuffixTree),
    /// Serialize as a [`SectionKind::PackedEsa`] section.
    Esa(&'a EsaIndex),
}

/// One checksummed file of the artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionMeta {
    /// File name inside the artifact directory.
    pub file: String,
    /// Exact byte length.
    pub bytes: u64,
    /// FNV-1a 64 checksum of the file's contents.
    pub checksum: u64,
}

/// One shard's entry in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// First global sequence id in the shard (inclusive).
    pub seq_lo: u32,
    /// Last global sequence id in the shard (inclusive).
    pub seq_hi: u32,
    /// What the shard's section bytes encode.
    pub kind: SectionKind,
    /// The shard's serialized index section.
    pub section: SectionMeta,
}

/// Live-ingestion provenance recorded by a compacted artifact's manifest:
/// how the artifact relates to its append write-ahead log (`wal.oasislog`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaLineage {
    /// How many compactions have folded appended sequences into the base.
    pub compactions: u64,
    /// Total sequences appended over the artifact's lifetime (records
    /// already folded into the base plus any still pending in the log).
    pub appended_seqs: u64,
    /// Highest WAL `seq_no` folded into the base. Replay skips records at
    /// or below this mark, so a crash between the manifest publish and
    /// the WAL truncation never re-applies folded appends.
    pub folded_through: u64,
}

/// The artifact's table of contents: versioned header, database section,
/// and the shard table with boundary metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexManifest {
    /// Block size the shard images were serialized with.
    pub block_size: u32,
    /// Number of sequences in the database.
    pub num_seqs: u32,
    /// Total text length (residues + terminators) of the database.
    pub text_len: u32,
    /// The database section.
    pub database: SectionMeta,
    /// Per-shard tree images with their global sequence ranges, in order.
    pub shards: Vec<ShardMeta>,
    /// Delta lineage, present once a compaction has folded appends into
    /// the base. `None` is not a zero lineage: with no lineage every WAL
    /// record is pending, while `folded_through: 0` marks record 0 folded.
    pub lineage: Option<DeltaLineage>,
}

impl IndexManifest {
    /// Sum of all section byte lengths (manifest excluded).
    pub fn total_bytes(&self) -> u64 {
        self.database.bytes + self.shards.iter().map(|s| s.section.bytes).sum::<u64>()
    }

    /// Load and checksum-verify the database section.
    pub fn load_database(&self, dir: &Path) -> Result<SequenceDatabase, ArtifactError> {
        let bytes = load_section(dir, &self.database)?;
        let db = oasis_bioseq::read_database(bytes.as_slice())
            .map_err(|e| ArtifactError::Corrupt(format!("database section: {e}")))?;
        if db.num_sequences() != self.num_seqs || db.text_len() != self.text_len {
            return Err(ArtifactError::Corrupt(
                "database does not match the manifest's geometry".to_string(),
            ));
        }
        Ok(db)
    }

    /// The database's alphabet, read from its section header alone (the
    /// checksum is verified when the database loads).
    pub fn alphabet_kind(&self, dir: &Path) -> Result<AlphabetKind, ArtifactError> {
        let file = std::fs::File::open(dir.join(&self.database.file))?;
        oasis_bioseq::read_alphabet_kind(file)
            .map_err(|e| ArtifactError::Corrupt(format!("database section: {e}")))
    }

    /// Load, checksum-verify, and decode shard `i`'s tree into memory.
    /// Fails with a typed error when the shard is not a tree image.
    pub fn load_shard_tree(&self, dir: &Path, i: usize) -> Result<SuffixTree, ArtifactError> {
        let shard = self
            .shards
            .get(i)
            .ok_or_else(|| ArtifactError::Corrupt(format!("shard index {i} out of range")))?;
        if shard.kind != SectionKind::TreeImage {
            return Err(ArtifactError::Corrupt(format!(
                "shard {i} is a {} section, not a tree image",
                shard.kind.as_str()
            )));
        }
        let image = load_section(dir, &shard.section)?;
        decode_tree(&image)
    }

    /// Load and checksum-verify shard `i`'s raw section bytes without
    /// decoding them — the load path for [`SectionKind::PackedEsa`]
    /// sections, whose bytes are served in place after validation.
    pub fn load_shard_section(&self, dir: &Path, i: usize) -> Result<Vec<u8>, ArtifactError> {
        let shard = self
            .shards
            .get(i)
            .ok_or_else(|| ArtifactError::Corrupt(format!("shard index {i} out of range")))?;
        load_section(dir, &shard.section)
    }

    /// Path of shard `i`'s image file (for opening it disk-resident).
    /// Out-of-range indices resolve to a name no artifact writer emits,
    /// so the subsequent open fails with a clean `NotFound`.
    pub fn shard_path(&self, dir: &Path, i: usize) -> PathBuf {
        match self.shards.get(i) {
            Some(shard) => dir.join(&shard.section.file),
            None => dir.join(format!("shard-{i}-out-of-range")),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.block_size.to_le_bytes());
        out.extend_from_slice(&self.num_seqs.to_le_bytes());
        out.extend_from_slice(&self.text_len.to_le_bytes());
        out.extend_from_slice(&(self.shards.len() as u32).to_le_bytes());
        let push_section = |out: &mut Vec<u8>, s: &SectionMeta| {
            out.extend_from_slice(&(s.file.len() as u16).to_le_bytes());
            out.extend_from_slice(s.file.as_bytes());
            out.extend_from_slice(&s.bytes.to_le_bytes());
            out.extend_from_slice(&s.checksum.to_le_bytes());
        };
        push_section(&mut out, &self.database);
        for shard in &self.shards {
            out.extend_from_slice(&shard.seq_lo.to_le_bytes());
            out.extend_from_slice(&shard.seq_hi.to_le_bytes());
            out.push(shard.kind.to_byte());
            push_section(&mut out, &shard.section);
        }
        out.push(u8::from(self.lineage.is_some()));
        if let Some(lineage) = &self.lineage {
            out.extend_from_slice(&lineage.compactions.to_le_bytes());
            out.extend_from_slice(&lineage.appended_seqs.to_le_bytes());
            out.extend_from_slice(&lineage.folded_through.to_le_bytes());
        }
        let trailer = fnv1a64(&out);
        out.extend_from_slice(&trailer.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<Self, ArtifactError> {
        let corrupt = |what: &str| ArtifactError::Corrupt(format!("manifest: {what}"));
        if bytes.first_chunk::<8>() != Some(MANIFEST_MAGIC) {
            return Err(ArtifactError::NotAnArtifact);
        }
        if bytes.len() < 8 + 8 {
            return Err(corrupt("truncated"));
        }
        let Some((body, trailer)) = bytes.split_last_chunk::<8>() else {
            return Err(corrupt("truncated"));
        };
        let declared = u64::from_le_bytes(*trailer);
        if fnv1a64(body) != declared {
            return Err(ArtifactError::ChecksumMismatch {
                file: MANIFEST_FILE.to_string(),
            });
        }
        let mut cur = Cursor { body, at: 8 };
        let version = cur.u32()?;
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        let block_size = cur.u32()?;
        let num_seqs = cur.u32()?;
        let text_len = cur.u32()?;
        let num_shards = cur.u32()?;
        let database = cur.section()?;
        let mut shards = Vec::with_capacity(num_shards as usize);
        for _ in 0..num_shards {
            let seq_lo = cur.u32()?;
            let seq_hi = cur.u32()?;
            let kind = SectionKind::from_byte(u8::from_le_bytes(cur.array()?))?;
            let section = cur.section()?;
            shards.push(ShardMeta {
                seq_lo,
                seq_hi,
                kind,
                section,
            });
        }
        let lineage = match u8::from_le_bytes(cur.array()?) {
            0 => None,
            1 => Some(DeltaLineage {
                compactions: cur.u64()?,
                appended_seqs: cur.u64()?,
                folded_through: cur.u64()?,
            }),
            other => return Err(corrupt(&format!("lineage presence byte {other}"))),
        };
        if cur.at != body.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(IndexManifest {
            block_size,
            num_seqs,
            text_len,
            database,
            shards,
            lineage,
        })
    }
}

/// Sequential reader over the manifest body with bounds-checked takes.
struct Cursor<'a> {
    body: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let slice = self
            .at
            .checked_add(n)
            .and_then(|end| self.body.get(self.at..end))
            .ok_or_else(|| ArtifactError::Corrupt("manifest: truncated".to_string()))?;
        self.at = self.at.saturating_add(n);
        Ok(slice)
    }

    /// A fixed-width field. `take` returns exactly `N` bytes on success,
    /// so the error arm only fires on truncation.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], ArtifactError> {
        self.take(N)?
            .first_chunk::<N>()
            .copied()
            .ok_or_else(|| ArtifactError::Corrupt("manifest: truncated".to_string()))
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn section(&mut self) -> Result<SectionMeta, ArtifactError> {
        let len = u16::from_le_bytes(self.array()?) as usize;
        let file = std::str::from_utf8(self.take(len)?)
            .map_err(|_| ArtifactError::Corrupt("manifest: file name is not utf-8".to_string()))?
            .to_string();
        // Section names must stay inside the artifact directory: a
        // hand-crafted manifest must not be able to read (or race the
        // temp-file convention of) arbitrary paths.
        if file.is_empty() || file.starts_with('.') || file.contains(['/', '\\']) {
            return Err(ArtifactError::Corrupt(
                "manifest: unsafe section file name".to_string(),
            ));
        }
        let bytes = self.u64()?;
        let checksum = self.u64()?;
        Ok(SectionMeta {
            file,
            bytes,
            checksum,
        })
    }
}

/// Write `bytes` to `dir/name` atomically: temp file, fsync, rename,
/// then a directory fsync. The artifact writer and the WAL's rewrite
/// share it.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!(".{name}.tmp"));
    {
        let mut f = std::fs::File::create(&tmp)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "a file write: no held-lock check reaches storage, and a compaction's WAL \
                      rewrite runs under LiveIndex's state lock by design (docs/LINTS.md)"
        )]
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, dir.join(name))?;
    // Best-effort directory fsync so the rename itself is durable.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Read `dir/meta.file` and verify its length and checksum.
pub fn load_section(dir: &Path, meta: &SectionMeta) -> Result<Vec<u8>, ArtifactError> {
    let bytes = std::fs::read(dir.join(&meta.file))?;
    if bytes.len() as u64 != meta.bytes || fnv1a64(&bytes) != meta.checksum {
        return Err(ArtifactError::ChecksumMismatch {
            file: meta.file.clone(),
        });
    }
    Ok(bytes)
}

/// Serialize a built index — the database plus one index payload per
/// shard (tree or packed ESA), each tagged with its inclusive global
/// sequence range — into `dir` as a
/// complete artifact. Creates the directory if needed. Section files are
/// content-addressed (checksum-suffixed names) and land via temp-file +
/// rename with the manifest written last, so rebuilding over an existing
/// artifact never touches the sections its current manifest references:
/// the old generation stays loadable until the new manifest's rename,
/// which is the atomic cutover. Sections no longer referenced by the new
/// manifest are then garbage-collected (best-effort).
///
/// `lineage`, when given, records live-ingestion provenance (compaction
/// count and the WAL fold high-water mark); plain builds pass `None`.
pub fn write_index_artifact(
    dir: &Path,
    db: &SequenceDatabase,
    shards: &[(u32, u32, ShardPayload<'_>)],
    block_size: usize,
    lineage: Option<DeltaLineage>,
) -> Result<IndexManifest, ArtifactError> {
    if block_size < 64 || !block_size.is_multiple_of(16) {
        return Err(ArtifactError::Corrupt(format!(
            "block size {block_size} is invalid (must be >= 64 and a multiple of 16)"
        )));
    }
    // Check the whole shard table before anything lands, so a bad table
    // leaves the directory as it was.
    for (i, &(seq_lo, seq_hi, _)) in shards.iter().enumerate() {
        if seq_lo > seq_hi || seq_hi >= db.num_sequences() {
            return Err(ArtifactError::Corrupt(format!(
                "shard {i} range {seq_lo}..={seq_hi} outside the database"
            )));
        }
    }
    std::fs::create_dir_all(dir)?;
    let mut db_bytes = Vec::new();
    oasis_bioseq::write_database(&mut db_bytes, db)?;
    let database = write_section(dir, None, "", &db_bytes)?;

    let builder = DiskTreeBuilder::with_block_size(block_size);
    let mut shard_metas = Vec::with_capacity(shards.len());
    for (i, &(seq_lo, seq_hi, payload)) in shards.iter().enumerate() {
        let image;
        let (kind, bytes) = match payload {
            ShardPayload::Tree(tree) => {
                image = builder.build_image(tree).0;
                (SectionKind::TreeImage, image.as_slice())
            }
            ShardPayload::Esa(esa) => (SectionKind::PackedEsa, esa.payload()),
        };
        let section = write_section(dir, Some(kind), &format!("{i:04}-"), bytes)?;
        shard_metas.push(ShardMeta {
            seq_lo,
            seq_hi,
            kind,
            section,
        });
    }

    let manifest = IndexManifest {
        block_size: block_size as u32,
        num_seqs: db.num_sequences(),
        text_len: db.text_len(),
        database,
        shards: shard_metas,
        lineage,
    };
    write_atomic(dir, MANIFEST_FILE, &manifest.encode())?;
    collect_garbage(dir, &manifest);
    Ok(manifest)
}

/// File-name prefix and extension of every section the writer emits: the
/// database (`None`) and each [`SectionKind`]. [`write_section`] names
/// sections from this table and [`collect_garbage`] sweeps the
/// unreferenced files it matches, so the two cannot disagree.
const SECTION_NAMES: [(Option<SectionKind>, &str, &str); 3] = [
    (None, "db-", ".oasisdb"),
    (Some(SectionKind::TreeImage), "shard-", ".oasis"),
    (Some(SectionKind::PackedEsa), "esa-", ".oasisesa"),
];

/// Write one section as `<prefix><tag><checksum:016x><ext>`, the name
/// [`SECTION_NAMES`] gives `kind` (`None`: the database), and return its
/// manifest entry.
fn write_section(
    dir: &Path,
    kind: Option<SectionKind>,
    tag: &str,
    bytes: &[u8],
) -> Result<SectionMeta, ArtifactError> {
    let (_, prefix, ext) = SECTION_NAMES
        .iter()
        .find(|(k, ..)| *k == kind)
        .ok_or_else(|| ArtifactError::Unsupported(format!("no file name for {kind:?}")))?;
    let checksum = fnv1a64(bytes);
    let file = format!("{prefix}{tag}{checksum:016x}{ext}");
    write_atomic(dir, &file, bytes)?;
    Ok(SectionMeta {
        file,
        bytes: bytes.len() as u64,
        checksum,
    })
}

/// Remove section files no manifest can reference any more: everything
/// matching [`SECTION_NAMES`] that the (just-durable) manifest does not
/// name, plus orphaned temp files from crashed writers.
/// Best-effort — a concurrent loader that already read the *previous*
/// manifest may race this; it will surface a clean checksum/IO error and
/// can simply retry against the new manifest.
fn collect_garbage(dir: &Path, manifest: &IndexManifest) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let referenced: std::collections::HashSet<&str> =
        std::iter::once(manifest.database.file.as_str())
            .chain(manifest.shards.iter().map(|s| s.section.file.as_str()))
            .collect();
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let is_section = SECTION_NAMES
            .iter()
            .any(|(_, prefix, ext)| name.starts_with(prefix) && name.ends_with(ext));
        let is_stale_tmp = name.starts_with('.') && name.ends_with(".tmp");
        if (is_section && !referenced.contains(name)) || is_stale_tmp {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// Read and verify the manifest of the artifact in `dir`.
pub fn read_manifest(dir: &Path) -> Result<IndexManifest, ArtifactError> {
    let bytes = std::fs::read(dir.join(MANIFEST_FILE))?;
    IndexManifest::decode(&bytes)
}

/// The symbols (text) region of a §3.4 disk-tree image, without decoding
/// the tree. Lets loaders verify that an image actually indexes the
/// database it is paired with — checksums prove each section is intact,
/// not that the manifest paired the right sections together.
pub fn image_text(image: &[u8]) -> Result<&[u8], ArtifactError> {
    if image.len() < HEADER_LEN || image.first_chunk::<8>() != Some(TREE_MAGIC) {
        return Err(ArtifactError::Corrupt(
            "tree image has bad magic or truncated header".to_string(),
        ));
    }
    let bs = u32_in(image, 8) as usize;
    if bs < 64 || !bs.is_multiple_of(16) {
        return Err(ArtifactError::Corrupt(format!(
            "tree image has invalid block size {bs}"
        )));
    }
    let text_len = u32_in(image, 12) as usize;
    let symbols_start = u64_in(image, 32) as usize;
    symbols_start
        .checked_mul(bs)
        .and_then(|from| from.checked_add(text_len).map(|to| (from, to)))
        .and_then(|(from, to)| image.get(from..to))
        .ok_or_else(|| ArtifactError::Corrupt("symbols region out of bounds".to_string()))
}

/// `u32::from_le_bytes` over `bytes[at..at + 4]`, or 0 when out of range.
/// The decode paths only call this after establishing the bounds (header
/// length, region extents), so the zero fallback is unreachable; it keeps
/// every read total instead of letting a slip panic a loading server.
fn u32_in(bytes: &[u8], at: usize) -> u32 {
    bytes
        .get(at..at.saturating_add(4))
        .and_then(|s| s.first_chunk::<4>())
        .map(|b| u32::from_le_bytes(*b))
        .unwrap_or_default()
}

/// The eight-byte sibling of [`u32_in`].
fn u64_in(bytes: &[u8], at: usize) -> u64 {
    bytes
        .get(at..at.saturating_add(8))
        .and_then(|s| s.first_chunk::<8>())
        .map(|b| u64::from_le_bytes(*b))
        .unwrap_or_default()
}

/// Reconstitute an in-memory [`SuffixTree`] from a §3.4 disk-tree image
/// (the format [`DiskTreeBuilder`] writes and [`crate::DiskSuffixTree`]
/// serves). This is the artifact load path's fast lane: decoding skips
/// suffix-array construction entirely, so startup scales with the index
/// size on disk instead of with tree-building work.
pub fn decode_tree(image: &[u8]) -> Result<SuffixTree, ArtifactError> {
    let corrupt = |what: String| ArtifactError::Corrupt(what);
    if image.len() < HEADER_LEN {
        return Err(corrupt("tree image shorter than its header".into()));
    }
    if image.first_chunk::<8>() != Some(TREE_MAGIC) {
        return Err(corrupt("tree image has bad magic".into()));
    }
    let u32_at = |o: usize| u32_in(image, o);
    let u64_at = |o: usize| u64_in(image, o);
    let bs = u32_at(8) as usize;
    if bs < 64 || !bs.is_multiple_of(16) {
        return Err(corrupt(format!("tree image has invalid block size {bs}")));
    }
    let text_len = u32_at(12) as usize;
    let num_internal = u32_at(16);
    let num_seqs = u32_at(20) as usize;
    let meta_start = u64_at(24) as usize;
    let symbols_start = u64_at(32) as usize;
    let internal_start = u64_at(40) as usize;
    let leaves_start = u64_at(48) as usize;
    let total_blocks = u64_at(56) as usize;
    let region = |start_block: usize, bytes: usize, what: &str| -> Result<&[u8], ArtifactError> {
        start_block
            .checked_mul(bs)
            .and_then(|f| f.checked_add(bytes).map(|t| (f, t)))
            .and_then(|(f, t)| image.get(f..t))
            .ok_or_else(|| corrupt(format!("{what} region out of bounds")))
    };
    if total_blocks.checked_mul(bs).is_none_or(|t| t > image.len()) {
        return Err(corrupt("tree image is truncated".into()));
    }
    if num_internal == 0 {
        return Err(corrupt("tree image declares no root".into()));
    }

    // All three arrays are written contiguously (records never straddle a
    // block because their sizes divide the block size), so each region is
    // one slice of the image.
    let meta = region(meta_start, (num_seqs + 1) * 4, "metadata")?;
    let seq_starts: Vec<u32> = (0..=num_seqs).map(|i| u32_in(meta, i * 4)).collect();
    let text = region(symbols_start, text_len, "symbols")?.to_vec();
    let internal = region(
        internal_start,
        num_internal as usize * INTERNAL_REC,
        "internal",
    )?;
    let leaves = region(leaves_start, text_len * 4, "leaves")?;

    // Every caller range-checks the record index (`child >= num_internal`,
    // `pos >= text_len`) before dereferencing, so the helpers' zero
    // fallbacks are unreachable.
    let rec = |i: u32| -> (u32, bool, u32, u32, u32) {
        let base = i as usize * INTERNAL_REC;
        let f = |o: usize| u32_in(internal, base + o);
        let d = f(0);
        (d & !LAST_SIBLING, d & LAST_SIBLING != 0, f(4), f(8), f(12))
    };
    let leaf_rsib = |pos: u32| -> u32 { u32_in(leaves, pos as usize * 4) };

    let mut assembler = TreeAssembler::new(text, seq_starts, num_internal)
        .map_err(|e| corrupt(format!("tree reassembly: {e}")))?;
    let collect_children =
        |id: u32, children: &mut Vec<NodeHandle>| -> Result<(u32, u32), ArtifactError> {
            let (depth, _, witness, first_internal, first_leaf) = rec(id);
            children.clear();
            if first_internal != NONE {
                // Internal children are contiguous in BFS order up to the
                // last-sibling flag; bound the walk by the record count.
                let mut child = first_internal;
                loop {
                    if child >= num_internal {
                        return Err(corrupt(format!("node {id}: internal child out of range")));
                    }
                    children.push(NodeHandle::internal(child));
                    if rec(child).1 {
                        break;
                    }
                    child += 1;
                }
            }
            let mut pos = first_leaf;
            let mut chain = 0usize;
            while pos != NONE {
                if pos as usize >= text_len {
                    return Err(corrupt(format!("node {id}: leaf child out of range")));
                }
                chain += 1;
                if chain > text_len {
                    return Err(corrupt(format!("node {id}: leaf sibling chain cycles")));
                }
                children.push(NodeHandle::leaf(pos));
                pos = leaf_rsib(pos);
            }
            Ok((depth, witness))
        };

    let mut children = Vec::new();
    for id in 1..num_internal {
        let (depth, witness) = collect_children(id, &mut children)?;
        assembler
            .push_internal(depth, witness, std::mem::take(&mut children))
            .map_err(|e| corrupt(format!("tree reassembly: {e}")))?;
    }
    collect_children(0, &mut children)?;
    assembler
        .set_root_children(children)
        .map_err(|e| corrupt(format!("tree reassembly: {e}")))?;
    assembler
        .finish()
        .map_err(|e| corrupt(format!("tree reassembly: {e}")))
}

/// Validate a [`SectionKind::PackedEsa`] section's bytes against the
/// database they claim to index and reconstitute the [`EsaIndex`] — the
/// zero-rebuild load path: the payload's streams are served in place, no
/// suffix-array or tree construction happens. Every geometry, checksum,
/// and structural failure surfaces as a typed [`ArtifactError::Corrupt`].
pub fn decode_esa(bytes: Vec<u8>, db: &SequenceDatabase) -> Result<EsaIndex, ArtifactError> {
    EsaIndex::from_parts(bytes, db)
        .map_err(|e| ArtifactError::Corrupt(format!("packed esa section: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_bioseq::{Alphabet, DatabaseBuilder};
    use oasis_suffix::SuffixTreeAccess;

    fn db(seqs: &[&str]) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    fn tr(tree: &SuffixTree) -> ShardPayload<'_> {
        ShardPayload::Tree(tree)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "oasis-artifact-{tag}-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn manifest_roundtrips() {
        let d = db(&["ACGTACGT", "TTGCA", "A"]);
        let tree = SuffixTree::build(&d);
        let dir = tmpdir("manifest");
        let written = write_index_artifact(&dir, &d, &[(0, 2, tr(&tree))], 64, None).unwrap();
        let read = read_manifest(&dir).unwrap();
        assert_eq!(written, read);
        assert_eq!(read.num_seqs, 3);
        assert_eq!(read.shards.len(), 1);
        assert_eq!((read.shards[0].seq_lo, read.shards[0].seq_hi), (0, 2));
        assert_eq!(read.shards[0].kind, SectionKind::TreeImage);
        assert!(read.total_bytes() > 0);
        let back = read.load_database(&dir).unwrap();
        assert_eq!(back, d);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decoded_tree_matches_original() {
        let d = db(&["ACGTACGTTGCAGT", "GTACCA", "TTTT", "ACACACAC", "G", ""]);
        let tree = SuffixTree::build(&d);
        for bs in [64usize, 2048] {
            let (image, _) = DiskTreeBuilder::with_block_size(bs).build_image(&tree);
            let decoded = decode_tree(&image).unwrap();
            assert_eq!(decoded.text(), tree.text());
            assert_eq!(decoded.seq_starts(), tree.seq_starts());
            assert_eq!(decoded.num_leaves(), tree.num_leaves());
            assert_eq!(
                SuffixTreeAccess::num_internal(&decoded),
                SuffixTreeAccess::num_internal(&tree)
            );
            // The image renumbers internal nodes to BFS order, so compare
            // structurally: walk both trees from the root, matching
            // children by arc label, and require identical depths and
            // leaf sets at every matched node.
            let mut stack = vec![(tree.root(), decoded.root())];
            let (mut mk, mut dk) = (Vec::new(), Vec::new());
            while let Some((mh, dh)) = stack.pop() {
                assert_eq!(tree.depth(mh), decoded.depth(dh));
                assert_eq!(tree.collect_leaves(mh), decoded.collect_leaves(dh));
                if mh.is_leaf() {
                    assert!(dh.is_leaf());
                    continue;
                }
                let depth = tree.depth(mh);
                tree.children_into(mh, &mut mk);
                decoded.children_into(dh, &mut dk);
                assert_eq!(mk.len(), dk.len());
                let mut dpairs: Vec<(Vec<u8>, NodeHandle)> = dk
                    .iter()
                    .map(|&c| (decoded.arc_label(depth, c), c))
                    .collect();
                for &mc in &mk {
                    let ml = tree.arc_label(depth, mc);
                    let at = dpairs
                        .iter()
                        .position(|(dl, _)| *dl == ml)
                        .unwrap_or_else(|| panic!("no decoded child with label {ml:?}"));
                    let (_, dc) = dpairs.swap_remove(at);
                    stack.push((mc, dc));
                }
            }
        }
    }

    #[test]
    fn decode_empty_database_tree() {
        let d = db(&[]);
        let tree = SuffixTree::build(&d);
        let (image, _) = DiskTreeBuilder::with_block_size(64).build_image(&tree);
        let decoded = decode_tree(&image).unwrap();
        assert_eq!(decoded.num_leaves(), 0);
        assert_eq!(SuffixTreeAccess::num_internal(&decoded), 1);
    }

    #[test]
    fn corrupted_sections_are_detected() {
        let d = db(&["ACGTACGT", "TTGCA"]);
        let tree = SuffixTree::build(&d);
        let dir = tmpdir("corrupt");
        let manifest = write_index_artifact(&dir, &d, &[(0, 1, tr(&tree))], 64, None).unwrap();

        // Flip one byte in the middle of the shard image.
        let shard = dir.join(&manifest.shards[0].section.file);
        let mut bytes = std::fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&shard, &bytes).unwrap();
        let err = manifest.load_shard_tree(&dir, 0).unwrap_err();
        assert!(
            matches!(err, ArtifactError::ChecksumMismatch { .. }),
            "{err}"
        );
        bytes[mid] ^= 0x40;
        std::fs::write(&shard, &bytes).unwrap();
        assert!(manifest.load_shard_tree(&dir, 0).is_ok());

        // Flip a byte in the database section.
        let dbf = dir.join(&manifest.database.file);
        let mut bytes = std::fs::read(&dbf).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&dbf, &bytes).unwrap();
        assert!(matches!(
            manifest.load_database(&dir),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));

        // Flip a byte in the manifest body.
        let mf = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&mf).unwrap();
        bytes[10] ^= 0x01;
        std::fs::write(&mf, &bytes).unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));

        // Garbage in place of the manifest.
        std::fs::write(&mf, b"definitely not a manifest").unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(ArtifactError::NotAnArtifact)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_section_is_detected() {
        let d = db(&["ACGTACGT"]);
        let tree = SuffixTree::build(&d);
        let dir = tmpdir("trunc");
        let manifest = write_index_artifact(&dir, &d, &[(0, 0, tr(&tree))], 64, None).unwrap();
        let shard = dir.join(&manifest.shards[0].section.file);
        let bytes = std::fs::read(&shard).unwrap();
        std::fs::write(&shard, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            manifest.load_shard_tree(&dir, 0),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_version_is_rejected() {
        let d = db(&["ACGT"]);
        let tree = SuffixTree::build(&d);
        let dir = tmpdir("version");
        write_index_artifact(&dir, &d, &[(0, 0, tr(&tree))], 64, None).unwrap();
        let mf = dir.join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&mf).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes()); // version field
        let len = bytes.len();
        let trailer = fnv1a64(&bytes[..len - 8]);
        bytes[len - 8..].copy_from_slice(&trailer.to_le_bytes());
        std::fs::write(&mf, &bytes).unwrap();
        assert!(matches!(
            read_manifest(&dir),
            Err(ArtifactError::UnsupportedVersion(99))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebuild_over_live_artifact_is_safe_and_garbage_collected() {
        let d1 = db(&["ACGTACGT", "TTGCA"]);
        let tree1 = SuffixTree::build(&d1);
        let dir = tmpdir("rebuild");
        let m1 = write_index_artifact(
            &dir,
            &d1,
            &[(0, 0, tr(&tree1)), (1, 1, tr(&tree1))],
            64,
            None,
        );
        // (Ranges here are per-shard trees in real use; a shared tree is
        // fine for exercising the file lifecycle.)
        let m1 = m1.unwrap();

        // A crashed half-written rebuild = orphan sections + temp files
        // next to a valid manifest: the old generation must still load.
        std::fs::write(dir.join("shard-0000-00000000deadbeef.oasis"), b"junk").unwrap();
        std::fs::write(dir.join(".orphan.tmp"), b"junk").unwrap();
        assert_eq!(read_manifest(&dir).unwrap(), m1);
        assert!(m1.load_database(&dir).is_ok());

        // A completed rebuild from a different database cuts over
        // atomically (manifest swap): new generation loads, and the old
        // generation's sections plus all orphans are garbage-collected.
        let d2 = db(&["GGGGCCCC", "ATAT", "CG"]);
        let tree2 = SuffixTree::build(&d2);
        let m2 = write_index_artifact(&dir, &d2, &[(0, 2, tr(&tree2))], 64, None).unwrap();
        assert_ne!(m1.database.file, m2.database.file, "content-addressed");
        assert_eq!(read_manifest(&dir).unwrap(), m2);
        assert_eq!(m2.load_database(&dir).unwrap(), d2);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        let mut want = vec![
            MANIFEST_FILE.to_string(),
            m2.database.file.clone(),
            m2.shards[0].section.file.clone(),
        ];
        want.sort();
        assert_eq!(names, want, "old generation and orphans collected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn image_text_returns_the_symbols_region() {
        let d = db(&["ACGTACGT", "TTGCA"]);
        let tree = SuffixTree::build(&d);
        let (image, _) = DiskTreeBuilder::with_block_size(64).build_image(&tree);
        assert_eq!(image_text(&image).unwrap(), d.text());
        assert!(image_text(&[0u8; 16]).is_err());
    }

    #[test]
    fn no_temp_files_left_behind() {
        let d = db(&["ACGTACGT", "TTGCA"]);
        let tree = SuffixTree::build(&d);
        let dir = tmpdir("clean");
        write_index_artifact(&dir, &d, &[(0, 1, tr(&tree))], 64, None).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            let name = name.to_string_lossy();
            assert!(!name.starts_with('.'), "temp file left behind: {name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn esa_shard_roundtrips_with_kind_and_gc() {
        let d = db(&["ACGTACGT", "TTGCA", "GGATC"]);
        let tree = SuffixTree::build(&d);
        let esa = EsaIndex::build(&d);
        let dir = tmpdir("esa");
        // A decoy orphan matching the esa naming scheme must be swept.
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("esa-0099-00000000deadbeef.oasisesa"), b"junk").unwrap();
        let shards = [(0u32, 1u32, tr(&tree)), (2, 2, ShardPayload::Esa(&esa))];
        let m = write_index_artifact(&dir, &d, &shards, 64, None).unwrap();
        assert_eq!(m.shards[0].kind, SectionKind::TreeImage);
        assert_eq!(m.shards[1].kind, SectionKind::PackedEsa);
        assert!(m.shards[1].section.file.starts_with("esa-0001-"));
        assert!(m.shards[1].section.file.ends_with(".oasisesa"));
        assert!(!dir.join("esa-0099-00000000deadbeef.oasisesa").exists());

        let read = read_manifest(&dir).unwrap();
        assert_eq!(read, m);
        // The packed section loads raw and revalidates against the db.
        let bytes = read.load_shard_section(&dir, 1).unwrap();
        let back = decode_esa(bytes, &d).unwrap();
        assert_eq!(back.payload(), esa.payload());
        // Loading it as a tree is a typed kind-mismatch error.
        let err = read.load_shard_tree(&dir, 1).unwrap_err();
        assert!(
            matches!(&err, ArtifactError::Corrupt(what) if what.contains("packed-esa")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_esa_section_is_detected() {
        let d = db(&["ACGTACGT", "TTGCA"]);
        let esa = EsaIndex::build(&d);
        let dir = tmpdir("esacorrupt");
        let shards = [(0u32, 1u32, ShardPayload::Esa(&esa))];
        let m = write_index_artifact(&dir, &d, &shards, 64, None).unwrap();

        // Checksum catches a flipped byte before decode runs.
        let f = dir.join(&m.shards[0].section.file);
        let mut bytes = std::fs::read(&f).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&f, &bytes).unwrap();
        assert!(matches!(
            m.load_shard_section(&dir, 0),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        bytes[mid] ^= 0x20;

        // Truncated or db-mismatched payloads fail decode with Corrupt.
        assert!(matches!(
            decode_esa(bytes[..bytes.len() - 3].to_vec(), &d),
            Err(ArtifactError::Corrupt(_))
        ));
        let other = db(&["AAAAAAAA", "TTTTT"]);
        assert!(matches!(
            decode_esa(bytes, &other),
            Err(ArtifactError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lineage_roundtrips_behind_a_presence_byte() {
        let d = db(&["ACGTACGT", "TTGCA"]);
        let tree = SuffixTree::build(&d);
        let dir = tmpdir("lineage");
        let shards = [(0, 1, tr(&tree))];
        let lineage = DeltaLineage {
            compactions: 2,
            appended_seqs: 7,
            folded_through: 6,
        };
        // Each reads back as written: a zero lineage is not `None`, whose
        // WAL records are all pending.
        for recorded in [Some(lineage), Some(DeltaLineage::default()), None] {
            let m = write_index_artifact(&dir, &d, &shards, 64, recorded).unwrap();
            let read = read_manifest(&dir).unwrap();
            assert_eq!(read, m);
            assert_eq!(read.lineage, recorded);
            assert!(read.load_database(&dir).is_ok());
            assert!(read.load_shard_tree(&dir, 0).is_ok());
        }

        // Rewrite the manifest body and its trailer checksum.
        let mf = dir.join(MANIFEST_FILE);
        let rewrite = |edit: &dyn Fn(&mut Vec<u8>)| {
            let bytes = std::fs::read(&mf).unwrap();
            let mut body = bytes[..bytes.len() - 8].to_vec();
            edit(&mut body);
            let trailer = fnv1a64(&body);
            body.extend_from_slice(&trailer.to_le_bytes());
            std::fs::write(&mf, &body).unwrap();
        };

        // A presence byte other than 0 or 1 is corrupt.
        rewrite(&|body| *body.last_mut().unwrap() = 2);
        assert!(matches!(
            read_manifest(&dir),
            Err(ArtifactError::Corrupt(_))
        ));

        // Lineage fields cut off are corrupt, not silently lineage-free.
        write_index_artifact(&dir, &d, &shards, 64, Some(lineage)).unwrap();
        rewrite(&|body| body.truncate(body.len() - 8));
        assert!(matches!(
            read_manifest(&dir),
            Err(ArtifactError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_is_stable() {
        // Pin the checksum function: artifacts written by one build must
        // verify under another.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
