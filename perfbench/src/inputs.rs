//! Seeded inputs: the protein database, query streams and appended
//! sequences. The same seed always gives the same inputs.

use std::collections::HashSet;

use oasis_align::background_protein;
use oasis_bioseq::{Alphabet, SequenceDatabase};
use oasis_workloads::{generate_protein, ProteinDbSpec, QuerySpec, Workload};

/// The seed runs use when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claimed change.
pub const HELD_OUT_SEED: u64 = 0x5EED_00FF;

/// SplitMix64: a small seeded generator for the benchmark's own choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and `stream` (distinct streams of one seed
    /// are independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The database spec: the benchmark suite's `Scale::Small` protein spec
/// (`oasis-bench`) at a quarter of its sequences, about 140k residues. Its
/// seed is part of the spec, so every run serves the same database and
/// the run seed varies only what is sent to it; otherwise query cost would
/// follow the database's random shape from seed to seed.
pub fn database_spec() -> ProteinDbSpec {
    ProteinDbSpec {
        num_sequences: 375,
        len_min: 7,
        len_max: 1024,
        len_skew: 1.8,
        num_families: 15,
        family_members: 12,
        motif_len: (16, 80),
        plant_substitution: 0.12,
        plant_indel: 0.02,
        seed: 0x0A515,
    }
}

/// The set-up database: the `Scale::Small` protein spec at twice its
/// sequences (3000 sequences, about 1.1M residues, 60 families), so that
/// `setup_s` times hundreds of milliseconds of build and load rather than
/// tens.
pub fn setup_database_spec() -> ProteinDbSpec {
    ProteinDbSpec {
        num_sequences: 3000,
        num_families: 60,
        ..database_spec()
    }
}

/// The database with its planted motifs.
pub fn database() -> Workload {
    generate_protein(&database_spec())
}

/// `db` as FASTA text, 60 residues a line.
pub fn fasta(db: &SequenceDatabase) -> String {
    let alphabet = db.alphabet();
    let mut out = String::with_capacity(db.text_len() as usize * 2);
    for seq in db.sequences() {
        push_record(&mut out, seq.name, seq.codes, alphabet);
    }
    out
}

/// Append one FASTA record for `codes` to `out`.
pub fn push_record(out: &mut String, name: &str, codes: &[u8], alphabet: &Alphabet) {
    out.push('>');
    out.push_str(name);
    out.push('\n');
    let text = alphabet.decode_all(codes);
    for chunk in text.as_bytes().chunks(60) {
        out.push_str(std::str::from_utf8(chunk).expect("decoded residues are ASCII"));
        out.push('\n');
    }
}

/// `count` queries in the paper's §4.1 ProClass-like length mix (6–56
/// residues, mean ≈16), each a fragment of a planted family motif
/// (extended with background residues when the motif is shorter) with 10%
/// of its residues resampled — a remote homolog of database content, as
/// `oasis_workloads::generate_queries` makes them. The stream is
/// stratified so that every seed sends the same workload: motifs are
/// taken in turn and the lengths come from one fixed multiset, while the
/// seed picks the order, the fragments and the mutations. No query equals
/// another or any query already in `seen` (which they join).
pub fn distinct_queries(
    workload: &Workload,
    count: usize,
    seed: u64,
    seen: &mut HashSet<Vec<u8>>,
) -> Vec<Vec<u8>> {
    let motifs = &workload.motifs;
    assert!(!motifs.is_empty(), "database has no planted motifs");
    let mut rng = Rng::new(seed, 4);
    let mut lengths = QuerySpec::proclass_like(count, 0xBEEF).lengths;
    for i in (1..lengths.len()).rev() {
        lengths.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let background = cumulative(&background_protein());
    let first_motif = rng.below(motifs.len() as u64) as usize;
    let mut out = Vec::with_capacity(count);
    for (k, &len) in lengths.iter().enumerate() {
        let motif = &motifs[(first_motif + k) % motifs.len()];
        let len = len as usize;
        let query = loop {
            let mut q = if motif.len() >= len {
                let at = rng.below((motif.len() - len + 1) as u64) as usize;
                motif[at..at + len].to_vec()
            } else {
                let mut q = motif.clone();
                while q.len() < len {
                    q.push(sample(&mut rng, &background));
                }
                q
            };
            for c in q.iter_mut() {
                if rng.below(10) == 0 {
                    *c = sample(&mut rng, &background);
                }
            }
            if seen.insert(q.clone()) {
                break q;
            }
        };
        out.push(query);
    }
    out
}

/// Running sums of `freqs`, normalised to end at 1.
fn cumulative(freqs: &[f64]) -> Vec<f64> {
    let total: f64 = freqs.iter().sum();
    let mut acc = 0.0;
    freqs
        .iter()
        .map(|f| {
            acc += f / total;
            acc
        })
        .collect()
}

/// One residue code drawn from cumulative frequencies.
fn sample(rng: &mut Rng, cumulative: &[f64]) -> u8 {
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    cumulative
        .partition_point(|&c| c < u)
        .min(cumulative.len() - 1) as u8
}

/// `count` sequences to append: windows of 60–200 residues cut from
/// random base sequences with 10% of residues substituted, so queries that
/// hit the base also hit the appended copies. Names are unique.
pub fn appended_sequences(
    db: &SequenceDatabase,
    count: usize,
    seed: u64,
    tag: &str,
) -> Vec<(String, Vec<u8>)> {
    let mut rng = Rng::new(seed, 7);
    let background = cumulative(&background_protein());
    let long_enough: Vec<u32> = (0..db.num_sequences())
        .filter(|&id| db.seq_len(id) >= 60)
        .collect();
    assert!(!long_enough.is_empty(), "database has no sequence to copy");
    (0..count)
        .map(|i| {
            let id = long_enough[rng.below(long_enough.len() as u64) as usize];
            let codes = db.sequence(id).codes;
            let len = (60 + rng.below(141) as usize).min(codes.len());
            let at = rng.below((codes.len() - len + 1) as u64) as usize;
            let mut copy = codes[at..at + len].to_vec();
            for c in copy.iter_mut() {
                if rng.below(10) == 0 {
                    *c = sample(&mut rng, &background);
                }
            }
            (format!("{tag}{i:05}"), copy)
        })
        .collect()
}
