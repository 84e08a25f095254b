//! Karlin-Altschul alignment statistics.
//!
//! The paper controls BLAST's selectivity with an E-value and OASIS's with a
//! `minScore`, related by (Equations 2 and 3):
//!
//! ```text
//!   E = K · m · n · e^(−λ·S)            (2)
//!   minScore = ⌈ ln(K · m · n / E) / λ ⌉ (3)
//! ```
//!
//! where `m` is the query length, `n` the database size, and `λ`, `K` the
//! Karlin-Altschul scaling constants of the scoring system. This module
//! estimates `λ`, `K`, and the relative entropy `H` from a substitution
//! matrix and background residue frequencies, following Karlin & Altschul
//! (PNAS 1990) — the same machinery BLAST uses for ungapped statistics.

use oasis_bioseq::AlphabetKind;

use crate::matrix::SubstitutionMatrix;
use crate::score::Score;

/// Robinson & Robinson (1991) amino-acid background frequencies, in the
/// matrix residue order `ARNDCQEGHILKMFPSTWYV`. These are the frequencies
/// NCBI BLAST uses for protein Karlin-Altschul parameters.
pub fn background_protein() -> [f64; 20] {
    [
        0.07805, 0.05129, 0.04487, 0.05364, 0.01925, 0.04264, 0.06295, 0.07377, 0.02199, 0.05142,
        0.09019, 0.05744, 0.02243, 0.03856, 0.05203, 0.07120, 0.05841, 0.01330, 0.03216, 0.06441,
    ]
}

/// Uniform nucleotide background.
pub fn background_dna() -> [f64; 4] {
    [0.25; 4]
}

/// Errors from parameter estimation.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The expected pairwise score is non-negative; Karlin-Altschul theory
    /// requires a negative-drift random walk.
    NonNegativeExpectedScore {
        /// The offending expectation.
        expected: f64,
    },
    /// No positive score exists, so no alignment can ever score above zero.
    NoPositiveScore,
    /// Frequencies did not sum to ~1 or contained negatives.
    BadFrequencies,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::NonNegativeExpectedScore { expected } => write!(
                f,
                "expected pairwise score {expected:.4} is non-negative; \
                 local-alignment statistics are undefined"
            ),
            StatsError::NoPositiveScore => write!(f, "matrix has no positive entry"),
            StatsError::BadFrequencies => write!(f, "background frequencies are invalid"),
        }
    }
}

impl std::error::Error for StatsError {}

/// The Karlin-Altschul parameters of a scoring system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KarlinParams {
    /// The scale λ: unique positive solution of Σ pᵢpⱼ·e^(λ·sᵢⱼ) = 1.
    pub lambda: f64,
    /// The search-space constant K.
    pub k: f64,
    /// Relative entropy H of the aligned pair distribution (nats/position).
    pub h: f64,
}

impl KarlinParams {
    /// Estimate λ, K, H for `matrix` under `freqs` background frequencies
    /// (one per residue, matrix order).
    pub fn estimate(matrix: &SubstitutionMatrix, freqs: &[f64]) -> Result<Self, StatsError> {
        let n = matrix.alphabet_len();
        assert_eq!(freqs.len(), n, "one frequency per residue");
        let total: f64 = freqs.iter().sum();
        if freqs.iter().any(|&f| f < 0.0) || (total - 1.0).abs() > 1e-3 {
            return Err(StatsError::BadFrequencies);
        }

        // Score distribution of one aligned residue pair.
        let low = matrix.overall_min();
        let high = matrix.overall_max();
        if high <= 0 {
            return Err(StatsError::NoPositiveScore);
        }
        let span = (high - low) as usize + 1;
        let mut prob = vec![0.0f64; span];
        for a in 0..n {
            for b in 0..n {
                let s = matrix.score(a as u8, b as u8);
                prob[(s - low) as usize] += freqs[a] * freqs[b] / total / total;
            }
        }
        let expected: f64 = prob
            .iter()
            .enumerate()
            .map(|(i, p)| p * (low as f64 + i as f64))
            .sum();
        if expected >= 0.0 {
            return Err(StatsError::NonNegativeExpectedScore { expected });
        }

        let lambda = solve_lambda(&prob, low);
        // H = λ · Σ s·p(s)·e^(λs)
        let h: f64 = lambda
            * prob
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let s = low as f64 + i as f64;
                    p * s * (lambda * s).exp()
                })
                .sum::<f64>();
        let k = estimate_k(&prob, low, lambda, h);
        Ok(KarlinParams { lambda, k, h })
    }

    /// Estimate λ, K, H for `matrix` under the standard background of its
    /// alphabet: [`background_dna`] or [`background_protein`].
    pub fn for_matrix(matrix: &SubstitutionMatrix) -> Result<Self, StatsError> {
        match matrix.kind() {
            AlphabetKind::Dna => Self::estimate(matrix, &background_dna()),
            AlphabetKind::Protein => Self::estimate(matrix, &background_protein()),
        }
    }

    /// Equation 2: the E-value of alignment score `s` for a length-`m` query
    /// against a database of `n` residues.
    pub fn evalue(&self, m: u64, n: u64, s: Score) -> f64 {
        self.k * m as f64 * n as f64 * (-self.lambda * s as f64).exp()
    }

    /// Equation 3: the minimum alignment score whose E-value is at most `e`.
    ///
    /// Clamped below at 1 so it is always a usable OASIS `minScore`.
    pub fn min_score_for_evalue(&self, m: u64, n: u64, e: f64) -> Score {
        assert!(e > 0.0, "E-value threshold must be positive");
        let raw = ((self.k * m as f64 * n as f64 / e).ln() / self.lambda).ceil();
        (raw as Score).max(1)
    }

    /// The bit score of a raw score under these parameters.
    pub fn bit_score(&self, s: Score) -> f64 {
        (self.lambda * s as f64 - self.k.ln()) / std::f64::consts::LN_2
    }
}

/// Solve Σ p(s)·e^(λs) = 1 for λ > 0 by bisection. The function equals 1 at
/// λ = 0, dips below 1 (negative drift), and grows without bound (positive
/// maximal score), so a unique positive root exists.
fn solve_lambda(prob: &[f64], low: Score) -> f64 {
    let eval = |lambda: f64| -> f64 {
        prob.iter()
            .enumerate()
            .map(|(i, p)| p * (lambda * (low as f64 + i as f64)).exp())
            .sum::<f64>()
    };
    let mut hi = 0.5;
    while eval(hi) < 1.0 {
        hi *= 2.0;
        assert!(hi < 1e4, "lambda search diverged");
    }
    let mut lo = 0.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if eval(mid) < 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Estimate K via the convergent series of Karlin & Altschul (1990), as in
/// BLAST's `Blast_KarlinLHtoK`:
///
/// ```text
///   σ  = Σ_{j≥1} (1/j) · [ Σ_{s<0} P*ʲ(s)·e^(λs) + Σ_{s≥0} P*ʲ(s) ]
///   K  = d·λ·e^(−2σ) / ( H·(1 − e^(−λ·d)) )
/// ```
///
/// where `P*ʲ` is the j-fold convolution of the pair-score distribution and
/// `d` the lattice span (gcd of all attainable scores' offsets).
fn estimate_k(prob: &[f64], low: Score, lambda: f64, h: f64) -> f64 {
    // Lattice span d.
    let mut d: i64 = 0;
    for (i, &p) in prob.iter().enumerate() {
        if p > 0.0 {
            let s = (low as i64) + i as i64;
            d = gcd(d, s.abs());
        }
    }
    let d = d.max(1) as f64;

    const MAX_ITERS: usize = 128;
    const EPS: f64 = 1e-12;
    let span = prob.len();
    // conv = P*ʲ, supported on [j*low, j*high].
    let mut conv: Vec<f64> = prob.to_vec();
    let mut sigma = 0.0f64;
    for j in 1..=MAX_ITERS {
        let conv_low = low as f64 * j as f64;
        let mut inner = 0.0f64;
        for (i, &p) in conv.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let s = conv_low + i as f64;
            if s < 0.0 {
                inner += p * (lambda * s).exp();
            } else {
                inner += p;
            }
        }
        let term = inner / j as f64;
        sigma += term;
        if term < EPS {
            break;
        }
        if j < MAX_ITERS {
            // Convolve with the base distribution for the next round.
            let mut next = vec![0.0f64; conv.len() + span - 1];
            for (i, &a) in conv.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                for (k, &b) in prob.iter().enumerate() {
                    next[i + k] += a * b;
                }
            }
            conv = next;
        }
    }
    let k = d * lambda * (-2.0 * sigma).exp() / (h * (1.0 - (-lambda * d).exp()));
    k.clamp(1e-6, 10.0)
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_dna_params() -> KarlinParams {
        KarlinParams::estimate(
            &SubstitutionMatrix::unit(AlphabetKind::Dna),
            &background_dna(),
        )
        .unwrap()
    }

    #[test]
    fn lambda_closed_form_for_unit_dna() {
        // For +1/−1 with p(match) = 1/4: Σ p·e^{λs} = 1 means
        // (1/4)e^λ + (3/4)e^{−λ} = 1, i.e. e^λ = 2 ± 1 → λ = ln 3.
        let p = unit_dna_params();
        assert!(
            (p.lambda - 3.0f64.ln()).abs() < 1e-9,
            "lambda = {}, want ln 3",
            p.lambda
        );
    }

    #[test]
    fn h_is_positive_and_matches_formula() {
        let p = unit_dna_params();
        // H = λ·E[s·e^{λs}] with λ = ln3: (ln3)·[1·(1/4)·3 + (−1)·(3/4)·(1/3)]
        //   = (ln3)·(3/4 − 1/4) = ln3 / 2.
        assert!((p.h - 3.0f64.ln() / 2.0).abs() < 1e-9, "h = {}", p.h);
    }

    #[test]
    fn k_is_plausible() {
        let p = unit_dna_params();
        assert!(p.k > 0.0 && p.k <= 1.0, "k = {}", p.k);
    }

    #[test]
    fn blosum62_parameters_near_published_values() {
        // NCBI publishes λ ≈ 0.3176, K ≈ 0.134, H ≈ 0.40 for ungapped
        // BLOSUM62 with Robinson frequencies.
        let p =
            KarlinParams::estimate(&SubstitutionMatrix::blosum62(), &background_protein()).unwrap();
        assert!((p.lambda - 0.3176).abs() < 0.01, "lambda = {}", p.lambda);
        assert!((p.h - 0.40).abs() < 0.05, "h = {}", p.h);
        assert!((p.k - 0.134).abs() < 0.05, "k = {}", p.k);
    }

    #[test]
    fn for_matrix_uses_the_alphabet_background() {
        assert_eq!(
            KarlinParams::for_matrix(&SubstitutionMatrix::unit(AlphabetKind::Dna)),
            Ok(unit_dna_params())
        );
        assert_eq!(
            KarlinParams::for_matrix(&SubstitutionMatrix::pam30()),
            KarlinParams::estimate(&SubstitutionMatrix::pam30(), &background_protein())
        );
    }

    #[test]
    fn pam30_parameters_estimable() {
        let p =
            KarlinParams::estimate(&SubstitutionMatrix::pam30(), &background_protein()).unwrap();
        // PAM30 ungapped: λ ≈ 0.34, K ≈ 0.28, H ≈ 2.6 (NCBI tables). Allow
        // slack since the embedded matrix may deviate in a few entries.
        assert!(p.lambda > 0.25 && p.lambda < 0.45, "lambda = {}", p.lambda);
        assert!(p.h > 1.5 && p.h < 3.5, "h = {}", p.h);
        assert!(p.k > 0.01 && p.k < 1.0, "k = {}", p.k);
    }

    #[test]
    fn evalue_decreases_with_score() {
        let p = unit_dna_params();
        let e10 = p.evalue(16, 1_000_000, 10);
        let e12 = p.evalue(16, 1_000_000, 12);
        assert!(e12 < e10);
        assert!(e10 > 0.0);
    }

    #[test]
    fn evalue_scales_linearly_with_search_space() {
        let p = unit_dna_params();
        let e1 = p.evalue(16, 1_000_000, 10);
        let e2 = p.evalue(32, 1_000_000, 10);
        let e3 = p.evalue(16, 2_000_000, 10);
        assert!((e2 / e1 - 2.0).abs() < 1e-9);
        assert!((e3 / e1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn equation3_roundtrip() {
        // minScore(E) must be the smallest score with evalue <= E.
        let p = unit_dna_params();
        let (m, n) = (16u64, 40_000_000u64);
        for e in [1.0, 10.0, 100.0, 20_000.0] {
            let s = p.min_score_for_evalue(m, n, e);
            assert!(p.evalue(m, n, s) <= e + 1e-9, "E={e}: score {s} too weak");
            if s > 1 {
                assert!(
                    p.evalue(m, n, s - 1) > e,
                    "E={e}: score {} would already satisfy it",
                    s - 1
                );
            }
        }
    }

    #[test]
    fn higher_evalue_means_lower_min_score() {
        let p = unit_dna_params();
        let strict = p.min_score_for_evalue(16, 40_000_000, 1.0);
        let relaxed = p.min_score_for_evalue(16, 40_000_000, 20_000.0);
        assert!(strict > relaxed, "{strict} vs {relaxed}");
        assert!(relaxed >= 1);
    }

    #[test]
    fn min_score_clamped_to_one() {
        let p = unit_dna_params();
        // Absurdly relaxed threshold on a tiny database.
        assert_eq!(p.min_score_for_evalue(4, 10, 1e12), 1);
    }

    #[test]
    fn rejects_positive_drift() {
        // match +1 / mismatch -1 on a 2-letter-dominated background would
        // have positive drift; emulate with a match-heavy matrix instead:
        let m = SubstitutionMatrix::from_fn("pos", AlphabetKind::Dna, |_, _| 1);
        let err = KarlinParams::estimate(&m, &background_dna()).unwrap_err();
        assert!(matches!(err, StatsError::NonNegativeExpectedScore { .. }));
    }

    #[test]
    fn rejects_all_negative_matrix() {
        let m = SubstitutionMatrix::from_fn("neg", AlphabetKind::Dna, |_, _| -1);
        let err = KarlinParams::estimate(&m, &background_dna()).unwrap_err();
        assert_eq!(err, StatsError::NoPositiveScore);
    }

    #[test]
    fn rejects_bad_frequencies() {
        let m = SubstitutionMatrix::unit(AlphabetKind::Dna);
        let err = KarlinParams::estimate(&m, &[0.9, 0.9, 0.9, 0.9]).unwrap_err();
        assert_eq!(err, StatsError::BadFrequencies);
    }

    #[test]
    fn bit_score_monotonic() {
        let p = unit_dna_params();
        assert!(p.bit_score(20) > p.bit_score(10));
    }

    #[test]
    fn lattice_matrices_scale_consistently() {
        // Doubling every score halves λ exactly and exercises the d = 2
        // lattice path in the K series (gcd of {+2, −2} is 2).
        let unit = unit_dna_params();
        let doubled = KarlinParams::estimate(
            &SubstitutionMatrix::match_mismatch(AlphabetKind::Dna, 2, -2),
            &background_dna(),
        )
        .unwrap();
        assert!(
            (doubled.lambda - unit.lambda / 2.0).abs() < 1e-9,
            "λ(2x) = {} vs λ/2 = {}",
            doubled.lambda,
            unit.lambda / 2.0
        );
        // H in nats/position is scale-invariant (λ·E[s·e^{λs}] with s ↦ 2s,
        // λ ↦ λ/2 cancels).
        assert!((doubled.h - unit.h).abs() < 1e-9);
        // K is scale-invariant too; the series must agree across lattices.
        assert!(
            (doubled.k - unit.k).abs() < 0.02,
            "K drifted across lattice scaling: {} vs {}",
            doubled.k,
            unit.k
        );
        // E-values of corresponding scores must therefore agree closely.
        let e1 = unit.evalue(16, 1_000_000, 9);
        let e2 = doubled.evalue(16, 1_000_000, 18);
        assert!((e1 / e2 - 1.0).abs() < 0.05, "{e1} vs {e2}");
    }

    #[test]
    fn empirical_tail_matches_karlin_altschul_order_of_magnitude() {
        // Monte-Carlo calibration: the number of random sequence pairs whose
        // best local alignment reaches score s should be ≈ E(s) summed over
        // the pairs. We check the prediction is within ~4x over a decade of
        // scores — Karlin-Altschul is an asymptotic theory, so order of
        // magnitude is the contract (and all the E-value machinery needs).
        use crate::gaps::{GapModel, Scoring};
        use crate::sw::sw_best;
        let p = unit_dna_params();
        // Gapless comparison is what the theory describes; use a gap cost
        // large enough to forbid gaps.
        let scoring = Scoring::new(
            SubstitutionMatrix::unit(AlphabetKind::Dna),
            GapModel::linear(-100),
        );
        let m = 24usize;
        let n = 300usize;
        let pairs = 600usize;
        // Deterministic xorshift residues.
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 33) as u32
        };
        let mut counts = std::collections::BTreeMap::<Score, usize>::new();
        for _ in 0..pairs {
            let q: Vec<u8> = (0..m).map(|_| (next() % 4) as u8).collect();
            let t: Vec<u8> = (0..n).map(|_| (next() % 4) as u8).collect();
            let s = sw_best(&q, &t, &scoring).score;
            *counts.entry(s).or_default() += 1;
        }
        for s in [7, 8, 9] {
            let observed: usize = counts.range(s..).map(|(_, c)| c).sum();
            let expected = p.evalue(m as u64, n as u64, s) * pairs as f64;
            assert!(
                observed as f64 <= expected * 4.0 + 4.0 && observed as f64 >= expected / 4.0 - 1.0,
                "score {s}: observed {observed}, K-A expected {expected:.1}"
            );
        }
    }
}
