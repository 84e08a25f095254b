//! Workload generation.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use oasis_align::{background_dna, background_protein};
use oasis_bioseq::{Alphabet, AlphabetKind, DatabaseBuilder, SequenceDatabase};

use crate::spec::{DnaDbSpec, ProteinDbSpec, QuerySpec};

/// A generated database plus the family motifs planted into it.
///
/// The database sits behind [`Arc`] so search engines (`oasis-engine`) can
/// share it across worker threads without copying the text.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The sequence database.
    pub db: Arc<SequenceDatabase>,
    /// The family motifs (encoded); queries are sampled from these.
    pub motifs: Vec<Vec<u8>>,
    /// For each motif, the sequences that received a copy.
    pub planted_in: Vec<Vec<u32>>,
}

/// Sample one residue code from cumulative frequencies.
fn sample_residue(rng: &mut StdRng, cumulative: &[f64]) -> u8 {
    let u: f64 = rng.gen();
    cumulative.partition_point(|&c| c < u) as u8
}

fn cumulative(freqs: &[f64]) -> Vec<f64> {
    let total: f64 = freqs.iter().sum();
    let mut acc = 0.0;
    let mut out: Vec<f64> = freqs
        .iter()
        .map(|f| {
            acc += f / total;
            acc
        })
        .collect();
    // Guard the final bin against floating-point shortfall.
    if let Some(last) = out.last_mut() {
        *last = 1.0 + f64::EPSILON;
    }
    out
}

/// Skewed length sampler: `min + (max-min)·u^skew`.
fn sample_len(rng: &mut StdRng, min: u32, max: u32, skew: f64) -> usize {
    let u: f64 = rng.gen();
    (min as f64 + (max - min) as f64 * u.powf(skew)).round() as usize
}

/// Apply substitutions and single-residue indels to a motif copy.
fn mutate(
    rng: &mut StdRng,
    template: &[u8],
    cumulative: &[f64],
    sub_rate: f64,
    indel_rate: f64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(template.len() + 4);
    for &c in template {
        let roll: f64 = rng.gen();
        if roll < indel_rate / 2.0 {
            // deletion: skip this residue
            continue;
        } else if roll < indel_rate {
            // insertion: extra residue then the original
            out.push(sample_residue(rng, cumulative));
            out.push(c);
        } else if roll < indel_rate + sub_rate {
            out.push(sample_residue(rng, cumulative));
        } else {
            out.push(c);
        }
    }
    if out.is_empty() {
        out.push(template[0]);
    }
    out
}

#[allow(
    clippy::too_many_arguments,
    reason = "the knobs mirror the paper's workload table one-to-one; a config struct would just rename the problem"
)]
fn generate_with(
    kind: AlphabetKind,
    freqs: &[f64],
    num_sequences: u32,
    len_min: u32,
    len_max: u32,
    len_skew: f64,
    num_families: u32,
    family_members: u32,
    motif_len: (u32, u32),
    sub_rate: f64,
    indel_rate: f64,
    seed: u64,
) -> Workload {
    assert!(len_min >= 1 && len_min <= len_max, "bad length range");
    assert!(
        motif_len.0 >= 1 && motif_len.0 <= motif_len.1,
        "bad motif range"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let cum = cumulative(freqs);
    let alphabet = Alphabet::of_kind(kind);

    // Background sequences.
    let mut seqs: Vec<Vec<u8>> = (0..num_sequences)
        .map(|_| {
            let len = sample_len(&mut rng, len_min, len_max, len_skew);
            (0..len).map(|_| sample_residue(&mut rng, &cum)).collect()
        })
        .collect();

    // Family motifs, planted into randomly chosen sufficiently long
    // sequences by overwriting a window (sequence lengths are preserved).
    // Occupied windows are tracked so one plant never clobbers another.
    let mut occupied: Vec<Vec<(usize, usize)>> = vec![Vec::new(); seqs.len()];
    let mut motifs = Vec::with_capacity(num_families as usize);
    let mut planted_in = Vec::with_capacity(num_families as usize);
    for _ in 0..num_families {
        let mlen = rng.gen_range(motif_len.0..=motif_len.1) as usize;
        let motif: Vec<u8> = (0..mlen).map(|_| sample_residue(&mut rng, &cum)).collect();
        let mut members = Vec::new();
        let mut attempts = 0;
        while members.len() < family_members as usize && attempts < family_members * 20 {
            attempts += 1;
            let si = rng.gen_range(0..seqs.len());
            let copy = mutate(&mut rng, &motif, &cum, sub_rate, indel_rate);
            if seqs[si].len() <= copy.len() {
                continue;
            }
            let at = rng.gen_range(0..=seqs[si].len() - copy.len());
            let window = (at, at + copy.len());
            if occupied[si]
                .iter()
                .any(|&(lo, hi)| window.0 < hi && lo < window.1)
            {
                continue; // would overwrite an earlier plant
            }
            occupied[si].push(window);
            seqs[si][at..at + copy.len()].copy_from_slice(&copy);
            if !members.contains(&(si as u32)) {
                members.push(si as u32);
            }
        }
        motifs.push(motif);
        planted_in.push(members);
    }

    let mut builder = DatabaseBuilder::new(alphabet);
    for (i, codes) in seqs.into_iter().enumerate() {
        builder
            .push(oasis_bioseq::Sequence::from_codes(
                format!("syn{i:06}"),
                codes,
            ))
            .expect("synthetic database within addressing limits");
    }
    Workload {
        db: Arc::new(builder.finish()),
        motifs,
        planted_in,
    }
}

/// Generate a SWISS-PROT-like protein workload.
pub fn generate_protein(spec: &ProteinDbSpec) -> Workload {
    generate_with(
        AlphabetKind::Protein,
        &background_protein(),
        spec.num_sequences,
        spec.len_min,
        spec.len_max,
        spec.len_skew,
        spec.num_families,
        spec.family_members,
        spec.motif_len,
        spec.plant_substitution,
        spec.plant_indel,
        spec.seed,
    )
}

/// Generate a Drosophila-like nucleotide workload.
pub fn generate_dna(spec: &DnaDbSpec) -> Workload {
    generate_with(
        AlphabetKind::Dna,
        &background_dna(),
        spec.num_sequences,
        spec.len_min,
        spec.len_max,
        1.0,
        spec.num_families,
        spec.family_members,
        spec.motif_len,
        spec.plant_substitution,
        spec.plant_indel,
        spec.seed,
    )
}

/// Sample ProClass-like queries from a workload's planted motifs: each query
/// is a (mutated) fragment of a family motif, so it is a true remote homolog
/// of database content.
pub fn generate_queries(workload: &Workload, spec: &QuerySpec) -> Vec<Vec<u8>> {
    assert!(
        !workload.motifs.is_empty(),
        "workload has no motifs to sample queries from"
    );
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let kind = workload.db.alphabet_kind();
    let freqs: Vec<f64> = match kind {
        AlphabetKind::Dna => background_dna().to_vec(),
        AlphabetKind::Protein => background_protein().to_vec(),
    };
    let cum = cumulative(&freqs);
    spec.lengths
        .iter()
        .map(|&len| {
            let len = len as usize;
            let motif = &workload.motifs[rng.gen_range(0..workload.motifs.len())];
            let mut q: Vec<u8> = if motif.len() >= len {
                let at = rng.gen_range(0..=motif.len() - len);
                motif[at..at + len].to_vec()
            } else {
                // Extend a short motif with background residues.
                let mut q = motif.clone();
                while q.len() < len {
                    q.push(sample_residue(&mut rng, &cum));
                }
                q
            };
            for c in q.iter_mut() {
                if rng.gen::<f64>() < spec.mutation {
                    *c = sample_residue(&mut rng, &cum);
                }
            }
            q
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_align::{Scoring, SwScanner};
    use oasis_bioseq::TERMINATOR;

    #[test]
    fn protein_generation_is_deterministic() {
        let spec = ProteinDbSpec::tiny();
        let a = generate_protein(&spec);
        let b = generate_protein(&spec);
        assert_eq!(a.db.text(), b.db.text());
        assert_eq!(a.motifs, b.motifs);
        let mut spec2 = spec;
        spec2.seed += 1;
        let c = generate_protein(&spec2);
        assert_ne!(a.db.text(), c.db.text());
    }

    #[test]
    fn protein_codes_are_valid() {
        let w = generate_protein(&ProteinDbSpec::tiny());
        assert_eq!(w.db.num_sequences(), 40);
        for &c in w.db.text() {
            assert!(c == TERMINATOR || (c as usize) < 20);
        }
        for s in w.db.sequences() {
            assert!(s.codes.len() >= 7 && s.codes.len() <= 120);
        }
    }

    #[test]
    fn residue_frequencies_roughly_match_background() {
        let mut spec = ProteinDbSpec::tiny();
        spec.num_sequences = 200;
        spec.len_min = 200;
        spec.len_max = 400;
        spec.num_families = 0;
        let w = generate_protein(&spec);
        let mut counts = [0u64; 20];
        let mut total = 0u64;
        for &c in w.db.text() {
            if c != TERMINATOR {
                counts[c as usize] += 1;
                total += 1;
            }
        }
        let bg = background_protein();
        for (i, &count) in counts.iter().enumerate() {
            let got = count as f64 / total as f64;
            assert!(
                (got - bg[i]).abs() < 0.02,
                "residue {i}: got {got:.4}, background {:.4}",
                bg[i]
            );
        }
    }

    #[test]
    fn planted_families_are_findable() {
        let w = generate_protein(&ProteinDbSpec::tiny());
        let scoring = Scoring::blosum62_protein();
        // The first motif with members must align strongly against its
        // carrier sequences.
        let (mi, members) = w
            .planted_in
            .iter()
            .enumerate()
            .find(|(_, m)| !m.is_empty())
            .expect("some family has members");
        let motif = &w.motifs[mi];
        let mut scanner = SwScanner::new();
        let hits = scanner.scan(&w.db, motif, &scoring, 30);
        for &m in members {
            assert!(
                hits.iter().any(|h| h.seq == m),
                "motif {mi} not found in its carrier {m}"
            );
        }
    }

    #[test]
    fn dna_generation_valid_and_deterministic() {
        let spec = DnaDbSpec::tiny();
        let a = generate_dna(&spec);
        let b = generate_dna(&spec);
        assert_eq!(a.db.text(), b.db.text());
        for &c in a.db.text() {
            assert!(c == TERMINATOR || c < 4);
        }
        assert_eq!(a.db.num_sequences(), 8);
    }

    #[test]
    fn queries_have_requested_lengths() {
        let w = generate_protein(&ProteinDbSpec::tiny());
        let spec = QuerySpec {
            lengths: vec![6, 13, 28, 56],
            mutation: 0.1,
            seed: 3,
        };
        let queries = generate_queries(&w, &spec);
        let lens: Vec<usize> = queries.iter().map(|q| q.len()).collect();
        assert_eq!(lens, vec![6, 13, 28, 56]);
        for q in &queries {
            assert!(q.iter().all(|&c| (c as usize) < 20));
        }
    }

    #[test]
    fn queries_are_homologous_to_database() {
        let w = generate_protein(&ProteinDbSpec::tiny());
        let spec = QuerySpec::fixed(14, 8, 5);
        let queries = generate_queries(&w, &spec);
        let scoring = Scoring::blosum62_protein();
        let mut found = 0;
        for q in &queries {
            let hits = SwScanner::new().scan(&w.db, q, &scoring, 25);
            if !hits.is_empty() {
                found += 1;
            }
        }
        // Most motif-derived queries must hit their families.
        assert!(found >= 6, "only {found}/8 queries found homologs");
    }

    #[test]
    fn queries_deterministic() {
        let w = generate_protein(&ProteinDbSpec::tiny());
        let spec = QuerySpec::proclass_like(10, 77);
        assert_eq!(generate_queries(&w, &spec), generate_queries(&w, &spec));
    }

    #[test]
    fn zero_families_yields_pure_background() {
        let mut spec = ProteinDbSpec::tiny();
        spec.num_families = 0;
        let w = generate_protein(&spec);
        assert!(w.motifs.is_empty());
        assert!(w.planted_in.is_empty());
    }
}
