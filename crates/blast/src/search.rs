//! The scan–extend–filter pipeline.

use oasis_align::{sw_best, KarlinParams, Score, Scoring, StatsError};
use oasis_bioseq::{AlphabetKind, SeqId, SequenceDatabase};

use crate::params::{BlastParams, SeedMode};
use crate::words::WordIndex;

/// One reported heuristic hit (per-sequence best).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlastHit {
    /// The database sequence.
    pub seq: SeqId,
    /// Best alignment score found by the heuristic for this sequence.
    pub score: Score,
    /// E-value of that score.
    pub evalue: f64,
}

/// Work counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlastStats {
    /// Word hits found while scanning.
    pub seeds: u64,
    /// Ungapped X-drop extensions performed.
    pub ungapped_extensions: u64,
    /// Gapped extensions performed.
    pub gapped_extensions: u64,
    /// DP cells computed during gapped extensions.
    pub gapped_cells: u64,
}

/// Why [`BlastSearch::new`] refused a database and scoring scheme.
#[derive(Debug, Clone, PartialEq)]
pub enum BlastError {
    /// The scoring matrix is over another alphabet than the database.
    AlphabetMismatch {
        /// The database's alphabet.
        database: AlphabetKind,
        /// The matrix's alphabet.
        matrix: AlphabetKind,
    },
    /// Karlin-Altschul statistics are undefined for the matrix.
    Stats(StatsError),
}

impl std::fmt::Display for BlastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlastError::AlphabetMismatch { database, matrix } => write!(
                f,
                "database alphabet {database:?} does not match the {matrix:?} scoring matrix"
            ),
            BlastError::Stats(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BlastError {}

/// A BLAST-style searcher bound to one database and scoring scheme.
pub struct BlastSearch<'a> {
    db: &'a SequenceDatabase,
    scoring: &'a Scoring,
    params: BlastParams,
    karlin: KarlinParams,
}

impl<'a> BlastSearch<'a> {
    /// Create a searcher; Karlin-Altschul parameters are estimated from the
    /// scoring matrix and the standard background of its alphabet, which
    /// must be the database's.
    pub fn new(
        db: &'a SequenceDatabase,
        scoring: &'a Scoring,
        params: BlastParams,
    ) -> Result<Self, BlastError> {
        let (database, matrix) = (db.alphabet_kind(), scoring.matrix.kind());
        if database != matrix {
            return Err(BlastError::AlphabetMismatch { database, matrix });
        }
        let karlin = KarlinParams::for_matrix(&scoring.matrix).map_err(BlastError::Stats)?;
        Ok(BlastSearch {
            db,
            scoring,
            params,
            karlin,
        })
    }

    /// The Karlin-Altschul parameters in use.
    pub fn karlin(&self) -> &KarlinParams {
        &self.karlin
    }

    /// Run the heuristic search, returning per-sequence best hits with
    /// `E ≤ params.evalue`, sorted by descending score.
    pub fn search(&self, query: &[u8]) -> (Vec<BlastHit>, BlastStats) {
        let mut stats = BlastStats::default();
        let w = self.params.word_size;
        let index = WordIndex::build(query, &self.scoring.matrix, w, self.params.threshold);
        let mut hits = Vec::new();
        if index.num_words() == 0 {
            return (hits, stats); // query too short to seed: heuristic miss
        }
        let n = query.len();
        let m_len = query.len() as u64;
        let db_res = self.db.total_residues();

        // Per-diagonal state, reused across sequences. Diagonal id =
        // (t_pos - q_pos) + n ∈ [0, seq_len + n).
        let mut last_hit_end: Vec<i64> = Vec::new();
        let mut extended_to: Vec<i64> = Vec::new();

        for seq in self.db.sequences() {
            let codes = seq.codes;
            if codes.len() < w {
                continue;
            }
            let diagonals = codes.len() + n + 1;
            last_hit_end.clear();
            last_hit_end.resize(diagonals, i64::MIN);
            extended_to.clear();
            extended_to.resize(diagonals, i64::MIN);

            let mut best: Score = 0;
            for (t_pos, code) in index.scan(codes) {
                let Some(q_positions) = index.lookup(code) else {
                    continue;
                };
                for &q_pos in q_positions {
                    stats.seeds += 1;
                    let q_pos = q_pos as usize;
                    let diag = t_pos + n - q_pos;
                    // Skip seeds inside an already-extended region.
                    if (t_pos as i64) <= extended_to[diag] {
                        continue;
                    }
                    let trigger = match self.params.seed_mode {
                        SeedMode::OneHit => true,
                        SeedMode::TwoHit { window } => {
                            let s = t_pos as i64;
                            let prev = last_hit_end[diag];
                            if s < prev {
                                // Overlapping hit: keep the earlier end so a
                                // later non-overlapping hit can still pair
                                // with it.
                                false
                            } else {
                                let within = prev != i64::MIN && s - prev <= window as i64;
                                last_hit_end[diag] = s + w as i64;
                                within
                            }
                        }
                    };
                    if !trigger {
                        continue;
                    }
                    stats.ungapped_extensions += 1;
                    let ungapped = self.ungapped_extend(query, codes, q_pos, t_pos);
                    extended_to[diag] = (t_pos + w) as i64;
                    let score = if ungapped >= self.params.gap_trigger {
                        stats.gapped_extensions += 1;
                        self.gapped_extend(query, codes, q_pos, t_pos, &mut stats)
                    } else {
                        ungapped
                    };
                    best = best.max(score);
                }
            }
            if best > 0 {
                let evalue = self.karlin.evalue(m_len, db_res, best);
                if evalue <= self.params.evalue {
                    hits.push(BlastHit {
                        seq: seq.id,
                        score: best,
                        evalue,
                    });
                }
            }
        }
        hits.sort_by(|a, b| b.score.cmp(&a.score).then(a.seq.cmp(&b.seq)));
        (hits, stats)
    }

    /// Ungapped X-drop extension of the word hit at `(q_pos, t_pos)`.
    fn ungapped_extend(&self, query: &[u8], target: &[u8], q_pos: usize, t_pos: usize) -> Score {
        let w = self.params.word_size;
        let x = self.params.x_drop;
        let seed: Score = (0..w)
            .map(|k| self.scoring.sub(query[q_pos + k], target[t_pos + k]))
            .sum();
        // Left of the seed.
        let mut best_left = 0;
        let mut run = 0;
        let mut qi = q_pos as i64 - 1;
        let mut ti = t_pos as i64 - 1;
        while qi >= 0 && ti >= 0 {
            run += self.scoring.sub(query[qi as usize], target[ti as usize]);
            if run > best_left {
                best_left = run;
            } else if run < best_left - x {
                break;
            }
            qi -= 1;
            ti -= 1;
        }
        // Right of the seed.
        let mut best_right = 0;
        let mut run = 0;
        let mut qi = q_pos + w;
        let mut ti = t_pos + w;
        while qi < query.len() && ti < target.len() {
            run += self.scoring.sub(query[qi], target[ti]);
            if run > best_right {
                best_right = run;
            } else if run < best_right - x {
                break;
            }
            qi += 1;
            ti += 1;
        }
        seed + best_left + best_right
    }

    /// Gapped extension: bounded local Smith-Waterman over a window of the
    /// target centred on the seed diagonal.
    fn gapped_extend(
        &self,
        query: &[u8],
        target: &[u8],
        q_pos: usize,
        t_pos: usize,
        stats: &mut BlastStats,
    ) -> Score {
        let n = query.len();
        let pad = n + 8;
        let lo = t_pos.saturating_sub(q_pos + pad);
        let hi = (t_pos + (n - q_pos) + pad).min(target.len());
        let window = &target[lo..hi];
        stats.gapped_cells += (window.len() * n) as u64;
        sw_best(query, window, self.scoring).score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oasis_align::{GapModel, SubstitutionMatrix, SwScanner};
    use oasis_bioseq::{Alphabet, DatabaseBuilder};

    fn protein_db(seqs: &[&str]) -> SequenceDatabase {
        let mut b = DatabaseBuilder::new(Alphabet::protein());
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(format!("p{i}"), s).unwrap();
        }
        b.finish()
    }

    fn blosum() -> Scoring {
        Scoring::new(SubstitutionMatrix::blosum62(), GapModel::linear(-8))
    }

    #[test]
    fn protein_matrix_over_dna_database_is_refused() {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        b.push_str("d0", "ACGTACGTACGT").unwrap();
        let db = b.finish();
        let scoring = Scoring::new(SubstitutionMatrix::pam30(), GapModel::linear(-8));
        let err = BlastSearch::new(&db, &scoring, BlastParams::dna())
            .err()
            .expect("a DNA database with PAM30 is refused");
        assert_eq!(
            err,
            BlastError::AlphabetMismatch {
                database: AlphabetKind::Dna,
                matrix: AlphabetKind::Protein,
            }
        );
        assert!(err.to_string().contains("does not match"), "{err}");
    }

    #[test]
    fn finds_exact_planted_match() {
        let db = protein_db(&["MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ", "GGGGGGGGGGGGGGGGGG"]);
        let scoring = blosum();
        let params = BlastParams::protein().with_evalue(1e3);
        let search = BlastSearch::new(&db, &scoring, params).unwrap();
        let q = Alphabet::protein().encode_str("AKQRQISFVKSH").unwrap();
        let (hits, stats) = search.search(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].seq, 0);
        assert!(stats.seeds > 0);
        assert!(stats.ungapped_extensions > 0);
        // The exact region scores its self-score.
        let sw = SwScanner::new().scan(&db, &q, &scoring, 1);
        assert_eq!(hits[0].score, sw[0].hit.score);
    }

    #[test]
    fn heuristic_score_never_exceeds_sw() {
        let db = protein_db(&[
            "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ",
            "MKTAYLAKQRNISFVKSHFSRQDEERLGLIEVQ",
            "AAAAAAAAWWWAAAAAAA",
            "CCCCCCCCCCCC",
        ]);
        let scoring = blosum();
        let search =
            BlastSearch::new(&db, &scoring, BlastParams::protein().with_evalue(1e6)).unwrap();
        let q = Alphabet::protein().encode_str("AKQRQISFVKSH").unwrap();
        let (hits, _) = search.search(&q);
        let mut scanner = SwScanner::new();
        let sw = scanner.scan(&db, &q, &scoring, 1);
        for hit in &hits {
            let exact = sw.iter().find(|s| s.seq == hit.seq).unwrap();
            assert!(
                hit.score <= exact.hit.score,
                "seq {}: blast {} > sw {}",
                hit.seq,
                hit.score,
                exact.hit.score
            );
        }
    }

    #[test]
    fn misses_wordless_homolog() {
        // A target whose best alignment has no 3-mer scoring >= T: BLAST
        // finds nothing even though S-W finds a positive alignment. Query
        // and target alternate agreement/disagreement so no high-scoring
        // word survives.
        let db = protein_db(&["AGAGAGAGAGAGAGAG"]);
        let scoring = blosum();
        // Every word of query ACACACAC vs the target scores low.
        let q = Alphabet::protein().encode_str("ATATATAT").unwrap();
        let params = BlastParams::protein().with_evalue(1e9);
        let search = BlastSearch::new(&db, &scoring, params).unwrap();
        let (hits, _) = search.search(&q);
        let sw = SwScanner::new().scan(&db, &q, &scoring, 1);
        assert!(
            hits.len() < sw.len(),
            "heuristic should miss at least one S-W hit (blast {}, sw {})",
            hits.len(),
            sw.len()
        );
    }

    #[test]
    fn query_shorter_than_word_finds_nothing() {
        let db = protein_db(&["MKTAYIAKQRQISFVKSH"]);
        let scoring = blosum();
        let search = BlastSearch::new(&db, &scoring, BlastParams::protein()).unwrap();
        let q = Alphabet::protein().encode_str("MK").unwrap();
        let (hits, stats) = search.search(&q);
        assert!(hits.is_empty());
        assert_eq!(stats.seeds, 0);
    }

    #[test]
    fn two_hit_does_not_beat_one_hit() {
        let db = protein_db(&[
            "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ",
            "MKTAYLAKQRNISFVKSHFSRQDEERLGLIEVQ",
        ]);
        let scoring = blosum();
        let q = Alphabet::protein().encode_str("AKQRQISFVKSH").unwrap();
        let one = BlastSearch::new(
            &db,
            &scoring,
            BlastParams::protein()
                .with_seed_mode(SeedMode::OneHit)
                .with_evalue(1e6),
        )
        .unwrap();
        let two = BlastSearch::new(&db, &scoring, BlastParams::protein().with_evalue(1e6)).unwrap();
        let (one_hits, one_stats) = one.search(&q);
        let (two_hits, two_stats) = two.search(&q);
        // Two-hit performs at most as many ungapped extensions…
        assert!(two_stats.ungapped_extensions <= one_stats.ungapped_extensions);
        // …and finds a subset of the sequences.
        let one_seqs: Vec<SeqId> = one_hits.iter().map(|h| h.seq).collect();
        for h in &two_hits {
            assert!(one_seqs.contains(&h.seq));
        }
    }

    #[test]
    fn evalue_threshold_filters() {
        let db = protein_db(&[
            "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ",
            "WKTAAIAKQGGISFVKAHFSRQLEERLGLIEVQ",
        ]);
        let scoring = blosum();
        let q = Alphabet::protein().encode_str("AKQRQISFVKSH").unwrap();
        let loose =
            BlastSearch::new(&db, &scoring, BlastParams::protein().with_evalue(1e9)).unwrap();
        let strict =
            BlastSearch::new(&db, &scoring, BlastParams::protein().with_evalue(1e-12)).unwrap();
        let (loose_hits, _) = loose.search(&q);
        let (strict_hits, _) = strict.search(&q);
        assert!(strict_hits.len() <= loose_hits.len());
    }

    #[test]
    fn hits_sorted_by_score() {
        let db = protein_db(&[
            "WKTAAIAKQGGISFVKAHFSRQLEERLGLIEVQ",
            "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ",
            "MKTAYIAKQRQISAVKSHFSRQLEERLGLIEVQ",
        ]);
        let scoring = blosum();
        let q = Alphabet::protein().encode_str("AKQRQISFVKSH").unwrap();
        let search =
            BlastSearch::new(&db, &scoring, BlastParams::protein().with_evalue(1e9)).unwrap();
        let (hits, _) = search.search(&q);
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn dna_word_seeding() {
        let mut b = DatabaseBuilder::new(Alphabet::dna());
        b.push_str("d0", "ACGTACGTACGTGGCCAAGGTTACGTACGTAA")
            .unwrap();
        b.push_str("d1", "TTTTTTTTTTTTTTTTTTTT").unwrap();
        let db = b.finish();
        let scoring = Scoring::unit_dna();
        let params = BlastParams::dna().with_evalue(1e6);
        let search = BlastSearch::new(&db, &scoring, params).unwrap();
        let q = Alphabet::dna().encode_str("ACGTACGTACGTGG").unwrap();
        let (hits, _) = search.search(&q);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].seq, 0);
    }
}
