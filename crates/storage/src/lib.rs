#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # oasis-storage
//!
//! Disk infrastructure for the OASIS reproduction (§3.4 of the paper):
//!
//! * [`device`] — block devices: in-memory, file-backed, and a
//!   simulated-latency wrapper that models the paper's 2003-era SCSI disk so
//!   the buffer-pool experiments (Figures 7–8) retain their shape on modern
//!   hardware.
//! * [`pool`] — a buffer pool with the clock replacement policy the paper's
//!   implementation uses ("reads disk pages from a buffer pool, which uses a
//!   simple clock replacement policy", §4.2), with per-component hit/miss
//!   statistics (Figure 8 plots these per symbols/internal/leaf region).
//! * [`layout`] — the paper's three-array on-disk representation: a blocked
//!   symbol array, internal nodes in level-first order with siblings stored
//!   contiguously, and a leaf array indexed by symbol offset with explicit
//!   right-sibling pointers.
//! * [`partitioned`] — bounded-memory index construction in the spirit of
//!   Hunt et al. (the paper's §3.4.1): suffixes are partitioned into
//!   adaptive lexical ranges, each sorted in its own pass.
//! * [`artifact`] — persistent index artifacts: a checksummed, versioned,
//!   atomically written directory format capturing the database plus every
//!   shard's serialized tree, so a restart *loads* the index instead of
//!   rebuilding it.
//! * [`wal`] — the append write-ahead log (`wal.oasislog`): durable live
//!   ingestion next to an immutable artifact, with checksummed records,
//!   torn-tail recovery, and atomic truncation after compaction.

pub mod artifact;
pub mod device;
pub mod layout;
pub mod partitioned;
pub mod pool;
pub mod wal;

pub use artifact::{
    decode_esa, decode_tree, fnv1a64, image_text, load_section, read_manifest,
    write_index_artifact, ArtifactError, DeltaLineage, IndexManifest, SectionKind, SectionMeta,
    ShardMeta, ShardPayload, ARTIFACT_VERSION, ARTIFACT_VERSION_DELTA, MANIFEST_FILE,
};
pub use device::{BlockDevice, FileDevice, MemDevice, SimulatedDisk};
pub use layout::{header_block_size, DiskSuffixTree, DiskTreeBuilder, ImageStats};
pub use partitioned::{balanced_ranges, budget_ranges, partitioned_suffix_array};
pub use pool::{BufferPool, BufferPoolStats, PoolDeltaScope, PoolStatsSnapshot, Region};
pub use wal::{
    pending_records, replay_wal, WalError, WalRecord, WalReplay, WriteAheadLog, WAL_FILE,
};
