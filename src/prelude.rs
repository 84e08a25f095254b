//! Convenience re-exports of the most commonly used types.

pub use oasis_bioseq::{
    parse_fasta, write_fasta, Alphabet, AlphabetKind, DatabaseBuilder, SeqId, Sequence,
    SequenceDatabase, UnknownResiduePolicy, TERMINATOR,
};

pub use oasis_align::{
    Alignment, GapModel, KarlinParams, Score, Scoring, SubstitutionMatrix, SwScanner, NEG_INF,
};

pub use oasis_suffix::{EsaError, EsaIndex, NodeHandle, SuffixTree, SuffixTreeAccess};

pub use oasis_storage::{
    read_manifest, replay_wal, write_index_artifact, ArtifactError, BufferPool, BufferPoolStats,
    DeltaLineage, DiskSuffixTree, DiskTreeBuilder, IndexManifest, MemDevice, PoolStatsSnapshot,
    Region, SimulatedDisk, WalRecord, WalReplay, WriteAheadLog, WAL_FILE,
};

pub use oasis_core::{
    EvalueOrderedSearch, EvaluedHit, Hit, OasisParams, OasisSearch, ReportMode, SearchDriver,
    SearchStats, StepOutcome,
};

pub use oasis_engine::{
    build_index_artifact, load_sharded_engine, open_artifact_engine, opens_disk_resident,
    persist_sharded_engine, AdmissionError, AppendReceipt, BatchQuery, CompactionReport,
    DeltaIndex, Generation, HitSink, IndexBackend, IndexCatalog, LiveIndex, LiveIndexError,
    LiveIndexOptions, LiveStats, PublishError, QueryExecutor, QueryTicket, ReadyHook,
    SearchOutcome, ServedOutcome, ServingConfig, ServingConfigError, ServingEngine, SessionPoll,
    ShardedEngine, ShardedSession, StreamEnd,
};

pub use oasis_net::{
    AppendDone, AppendRequest, Client, ErrorCode, ErrorFrame, Frame, GenerationServed, Hello,
    MetricsReport, NetError, OasisServer, ReloadDone, RemoteHit, ScoreRule, SearchDone,
    SearchRequest, ServedIndex, ServerConfig, ServerHandle, PER_GENERATION_ROWS, PROTOCOL_VERSION,
};

pub use oasis_blast::{BlastParams, BlastSearch};

pub use oasis_workloads::{
    generate_dna, generate_protein, generate_queries, DnaDbSpec, ProteinDbSpec, QuerySpec, Workload,
};
