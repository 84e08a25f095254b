#![warn(missing_docs)]

//! # oasis-bench
//!
//! The evaluation harness: one binary per table/figure of the paper's §4
//! (run `cargo run -p oasis-bench --release --bin repro_all` for the whole
//! suite) plus Criterion microbenchmarks under `benches/`.
//!
//! All experiments run on the synthetic SWISS-PROT / ProClass workloads of
//! `oasis-workloads` (see DESIGN.md for the substitution rationale) at a
//! scale chosen by the `OASIS_SCALE` environment variable: `tiny`, `small`
//! (default), or `medium`. Absolute numbers therefore differ from the
//! paper's 2003 testbed; the *shapes* — who wins, by what factor, where the
//! crossovers sit — are what EXPERIMENTS.md compares.

use std::sync::Arc;
use std::time::{Duration, Instant};

use oasis_align::{KarlinParams, Score, Scoring, SwScanner};
use oasis_bioseq::Alphabet;
use oasis_blast::{BlastParams, BlastSearch};
use oasis_core::{Hit, OasisParams, OasisSearch, SearchStats};
use oasis_storage::{BlockDevice, DiskSuffixTree, PoolStatsSnapshot};
use oasis_suffix::{SuffixTree, SuffixTreeAccess};
use oasis_workloads::{generate_protein, generate_queries, ProteinDbSpec, QuerySpec, Workload};

/// Experiment scale, from the `OASIS_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast smoke scale (used by `cargo test`/`cargo bench`).
    Tiny,
    /// Default laptop scale: ~400K residues, 60 queries.
    Small,
    /// Larger sweep (~2M residues) for more stable means.
    Medium,
}

impl Scale {
    /// Read the scale from the environment (default [`Scale::Small`]).
    pub fn from_env() -> Self {
        match std::env::var("OASIS_SCALE").as_deref() {
            Ok("tiny") => Scale::Tiny,
            Ok("medium") => Scale::Medium,
            Ok("small") | Err(_) => Scale::Small,
            Ok(other) => {
                eprintln!("unknown OASIS_SCALE={other:?}, using small");
                Scale::Small
            }
        }
    }

    /// The protein-database spec for this scale.
    pub fn protein_spec(self) -> ProteinDbSpec {
        match self {
            Scale::Tiny => ProteinDbSpec {
                num_sequences: 120,
                len_min: 7,
                len_max: 300,
                len_skew: 1.8,
                num_families: 12,
                family_members: 8,
                motif_len: (16, 64),
                plant_substitution: 0.12,
                plant_indel: 0.02,
                seed: 0x0A515,
            },
            Scale::Small => ProteinDbSpec {
                num_sequences: 1500,
                len_min: 7,
                len_max: 1024,
                len_skew: 1.8,
                num_families: 60,
                family_members: 12,
                motif_len: (16, 80),
                plant_substitution: 0.12,
                plant_indel: 0.02,
                seed: 0x0A515,
            },
            Scale::Medium => ProteinDbSpec {
                num_sequences: 6000,
                len_min: 7,
                len_max: 2048,
                len_skew: 1.8,
                num_families: 150,
                family_members: 15,
                motif_len: (16, 80),
                plant_substitution: 0.12,
                plant_indel: 0.02,
                seed: 0x0A515,
            },
        }
    }

    /// Number of ProClass-like queries for this scale.
    pub fn query_count(self) -> usize {
        match self {
            Scale::Tiny => 24,
            Scale::Small => 60,
            Scale::Medium => 100,
        }
    }
}

/// A ready-to-query experimental setup shared by all figure binaries.
///
/// All OASIS searches run through [`Testbed::search`]: the core search
/// over the in-memory [`Testbed::tree`] or a disk-resident image of it.
pub struct Testbed {
    /// The synthetic SWISS-PROT-like workload.
    pub workload: Workload,
    /// Suffix tree over the workload database.
    pub tree: Arc<SuffixTree>,
    /// PAM30 + fixed gap scoring, as in the paper's protein experiments.
    pub scoring: Scoring,
    /// Karlin-Altschul parameters for E-value ⇔ score conversion.
    pub karlin: KarlinParams,
    /// ProClass-like query set (lengths 6–56, mean ≈16).
    pub queries: Vec<Vec<u8>>,
}

impl Testbed {
    fn assemble(
        workload: Workload,
        scoring: Scoring,
        karlin: KarlinParams,
        queries: Vec<Vec<u8>>,
    ) -> Self {
        let tree = Arc::new(SuffixTree::build(&workload.db));
        Testbed {
            workload,
            tree,
            scoring,
            karlin,
            queries,
        }
    }

    /// Build the standard protein testbed at `scale`.
    pub fn protein(scale: Scale) -> Self {
        let workload = generate_protein(&scale.protein_spec());
        let scoring = Scoring::pam30_protein();
        let karlin =
            KarlinParams::for_matrix(&scoring.matrix).expect("PAM30 statistics are well-defined");
        let queries = generate_queries(
            &workload,
            &QuerySpec::proclass_like(scale.query_count(), 0xBEEF),
        );
        Self::assemble(workload, scoring, karlin, queries)
    }

    /// Build the nucleotide testbed at `scale` — the paper's Drosophila
    /// experiment ("the results for the nucleotide data sets are similar…
    /// with OASIS outperforming S-W by orders of magnitude", §4.1), with
    /// the Table 1 unit matrix.
    pub fn dna(scale: Scale) -> Self {
        let spec = match scale {
            Scale::Tiny => oasis_workloads::DnaDbSpec {
                num_sequences: 8,
                len_min: 1_000,
                len_max: 5_000,
                ..oasis_workloads::DnaDbSpec::default()
            },
            Scale::Small => oasis_workloads::DnaDbSpec {
                num_sequences: 48,
                len_min: 2_000,
                len_max: 20_000,
                ..oasis_workloads::DnaDbSpec::default()
            },
            Scale::Medium => oasis_workloads::DnaDbSpec {
                num_sequences: 128,
                len_min: 5_000,
                len_max: 40_000,
                num_families: 60,
                ..oasis_workloads::DnaDbSpec::default()
            },
        };
        let workload = oasis_workloads::generate_dna(&spec);
        let scoring = Scoring::unit_dna();
        let karlin = KarlinParams::for_matrix(&scoring.matrix)
            .expect("unit-matrix statistics are well-defined");
        // BLAST classifies nucleotide queries under 20 symbols as short;
        // sample the same short-query regime.
        let queries = generate_queries(
            &workload,
            &QuerySpec::proclass_like(scale.query_count() / 2, 0xD05E),
        );
        Self::assemble(workload, scoring, karlin, queries)
    }

    /// Run the BLAST baseline with nucleotide (blastn-style) parameters.
    pub fn run_blast_dna(
        &self,
        query: &[u8],
        evalue: f64,
    ) -> (Vec<oasis_blast::BlastHit>, Duration) {
        let params = BlastParams::dna().with_evalue(evalue);
        let search = BlastSearch::new(&self.workload.db, &self.scoring, params)
            .expect("statistics well-defined");
        let start = Instant::now();
        let (hits, _) = search.search(query);
        (hits, start.elapsed())
    }

    /// The paper's `minScore` for a query of `len` at E-value `e`
    /// (Equation 3).
    pub fn min_score(&self, len: usize, evalue: f64) -> Score {
        self.karlin
            .min_score_for_evalue(len as u64, self.workload.db.total_residues(), evalue)
    }

    /// The OASIS search for one query over `index` — the in-memory
    /// [`Testbed::tree`] or a disk-resident image of it — streaming hits
    /// online.
    pub fn search<'a, T: SuffixTreeAccess + ?Sized>(
        &'a self,
        index: &'a T,
        query: &[u8],
        params: &OasisParams,
    ) -> OasisSearch<'a, T> {
        OasisSearch::new(index, &self.workload.db, query, &self.scoring, params)
    }

    /// Run one query to completion over the disk-resident `tree`,
    /// returning its hits and the buffer-pool traffic it caused: the
    /// pool's counters after the run minus those before.
    pub fn run_pooled<D: BlockDevice>(
        &self,
        tree: &DiskSuffixTree<D>,
        query: &[u8],
        params: &OasisParams,
    ) -> (Vec<Hit>, PoolStatsSnapshot) {
        let before = tree.pool().stats();
        let (hits, _) = self.search(tree, query, params).run();
        (hits, tree.pool().stats().since(&before))
    }

    /// Run OASIS for one query at `evalue` over the in-memory tree.
    pub fn run_oasis(&self, query: &[u8], evalue: f64) -> (Vec<Hit>, SearchStats, Duration) {
        let params = OasisParams::with_min_score(self.min_score(query.len(), evalue));
        let start = Instant::now();
        let (hits, stats) = self.search(&*self.tree, query, &params).run();
        (hits, stats, start.elapsed())
    }

    /// Run the Smith-Waterman scan for one query at `evalue`.
    pub fn run_sw(&self, query: &[u8], evalue: f64) -> (Vec<oasis_align::SeqBest>, u64, Duration) {
        let min = self.min_score(query.len(), evalue);
        let mut scanner = SwScanner::new();
        let start = Instant::now();
        let hits = scanner.scan(&self.workload.db, query, &self.scoring, min);
        (hits, scanner.columns_expanded(), start.elapsed())
    }

    /// Run the BLAST baseline for one query at `evalue`.
    pub fn run_blast(&self, query: &[u8], evalue: f64) -> (Vec<oasis_blast::BlastHit>, Duration) {
        let params = BlastParams::short_protein().with_evalue(evalue);
        let search = BlastSearch::new(&self.workload.db, &self.scoring, params)
            .expect("statistics well-defined");
        let start = Instant::now();
        let (hits, _) = search.search(query);
        (hits, start.elapsed())
    }

    /// Encode a protein query string.
    pub fn encode(&self, s: &str) -> Vec<u8> {
        Alphabet::protein().encode_str(s).expect("valid residues")
    }

    /// Queries grouped (sorted) by length: `(length, query indices)`.
    pub fn queries_by_length(&self) -> Vec<(usize, Vec<usize>)> {
        let mut by_len: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (i, q) in self.queries.iter().enumerate() {
            by_len.entry(q.len()).or_default().push(i);
        }
        by_len.into_iter().collect()
    }
}

/// Outcome of replaying the query workload against the disk-resident tree
/// through a buffer pool of a given size.
pub struct DiskRun {
    /// Total CPU time across the workload.
    pub cpu: Duration,
    /// Total modelled I/O time (simulated 2003 disk; one charge per miss).
    pub io: Duration,
    /// Buffer-pool statistics after the run.
    pub pool_stats: PoolStatsSnapshot,
    /// Number of queries executed.
    pub queries: usize,
}

impl DiskRun {
    /// Mean per-query time under the paper's cost model (CPU + 2003 disk).
    pub fn mean_query_time(&self) -> Duration {
        (self.cpu + self.io) / self.queries.max(1) as u32
    }
}

impl Testbed {
    /// Serialize the suffix tree to the paper's disk format (2 KB blocks).
    pub fn disk_image(&self) -> (Vec<u8>, oasis_storage::ImageStats) {
        oasis_storage::DiskTreeBuilder::default().build_image(&self.tree)
    }

    /// Replay the whole query workload against the disk tree with a buffer
    /// pool of `pool_bytes`, modelling the paper's SCSI disk per miss. The
    /// pool is shared across queries (steady-state behaviour, as in §4.5);
    /// queries run serially so the CPU/IO split stays attributable, and
    /// the workload's pool statistics are the pool's counters after the
    /// workload minus those after opening the tree.
    pub fn disk_run(&self, image: &[u8], pool_bytes: usize, evalue: f64) -> DiskRun {
        use oasis_storage::{MemDevice, SimulatedDisk};
        let device = SimulatedDisk::fujitsu_2003(MemDevice::new(image.to_vec(), 2048));
        let tree = DiskSuffixTree::open(device, pool_bytes).expect("valid image");
        tree.pool().device().reset();
        let opened = tree.pool().stats();
        let mut cpu = Duration::ZERO;
        for q in &self.queries {
            let params = OasisParams::with_min_score(self.min_score(q.len(), evalue));
            let start = Instant::now();
            self.search(&tree, q, &params).run();
            cpu += start.elapsed();
        }
        DiskRun {
            cpu,
            io: Duration::from_nanos(tree.pool().device().virtual_nanos()),
            pool_stats: tree.pool().stats().since(&opened),
            queries: self.queries.len(),
        }
    }
}

/// Mean of a duration sample.
pub fn mean_duration(samples: &[Duration]) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    let total: Duration = samples.iter().sum();
    total / samples.len() as u32
}

/// Render an optional buffer-pool hit ratio for tables: three decimals,
/// or `n/a` when no requests were made.
pub fn fmt_ratio(ratio: Option<f64>) -> String {
    ratio.map_or_else(|| "n/a".to_string(), |r| format!("{r:.3}"))
}

/// Format a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Print an aligned table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Print the standard experiment banner.
pub fn banner(figure: &str, description: &str, scale: Scale) {
    println!("==================================================================");
    println!("{figure} — {description}");
    println!("(OASIS VLDB'03 reproduction; synthetic workload, scale {scale:?})");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_testbed_builds_and_runs() {
        let tb = Testbed::protein(Scale::Tiny);
        assert!(tb.workload.db.total_residues() > 1000);
        assert_eq!(tb.queries.len(), 24);
        let q = tb.queries[0].clone();
        let (hits, stats, _) = tb.run_oasis(&q, 20_000.0);
        let (sw_hits, cols, _) = tb.run_sw(&q, 20_000.0);
        // Exactness: same per-sequence scores as S-W.
        let mut got: Vec<(u32, Score)> = hits.iter().map(|h| (h.seq, h.score)).collect();
        got.sort_unstable();
        let mut want: Vec<(u32, Score)> = sw_hits.iter().map(|h| (h.seq, h.hit.score)).collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(stats.columns_expanded > 0);
        assert_eq!(cols, tb.workload.db.total_residues());
    }

    #[test]
    fn blast_runs_on_testbed() {
        let tb = Testbed::protein(Scale::Tiny);
        let q = tb.queries[1].clone();
        let (blast_hits, _) = tb.run_blast(&q, 20_000.0);
        let (oasis_hits, _, _) = tb.run_oasis(&q, 20_000.0);
        // The heuristic never finds more sequences than the exact search.
        assert!(blast_hits.len() <= oasis_hits.len() + 1); // +1 slack: E-value rounding
    }

    #[test]
    fn min_score_decreases_with_evalue() {
        let tb = Testbed::protein(Scale::Tiny);
        assert!(tb.min_score(16, 1.0) > tb.min_score(16, 20_000.0));
    }

    #[test]
    fn table_and_duration_helpers() {
        assert_eq!(fmt_duration(Duration::from_millis(1500)), "1.50s");
        assert_eq!(fmt_duration(Duration::from_micros(2500)), "2.50ms");
        assert_eq!(fmt_duration(Duration::from_nanos(900)), "0.9us");
        assert_eq!(
            mean_duration(&[Duration::from_millis(2), Duration::from_millis(4)]),
            Duration::from_millis(3)
        );
        assert_eq!(mean_duration(&[]), Duration::ZERO);
        print_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["33".into(), "4".into()]],
        );
    }

    #[test]
    fn queries_grouped_by_length() {
        let tb = Testbed::protein(Scale::Tiny);
        let groups = tb.queries_by_length();
        let total: usize = groups.iter().map(|(_, idx)| idx.len()).sum();
        assert_eq!(total, tb.queries.len());
        assert!(groups.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
