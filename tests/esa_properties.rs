//! Property suite for the enhanced-suffix-array backend's two load-bearing
//! shortcuts:
//!
//! * the **two-byte bucket LUT** must agree with a naive binary search
//!   over the suffix array for *every* `(c0, c1)` prefix — including
//!   terminator second symbols, residues absent from the text (empty
//!   regions), and the edge buckets at 0x00 and 0xFF;
//! * **`from_parts` is a validator**: a truncated or extended payload is
//!   always rejected with a typed error, and an arbitrary byte flip either
//!   surfaces as a typed error or provably changes nothing observable
//!   (never silently serves different data).

mod support;

use proptest::prelude::*;

use oasis::prelude::*;
use support::build_db;

/// The LUT sub-key of a second symbol: every terminator sorts before every
/// residue in the ranked text, so terminators collapse to 0 and residue
/// `c` maps to `c + 1`. (Mirrors the index's internal key; restated here
/// so the oracle is independent of the implementation.)
fn key2(c1: u8) -> usize {
    if c1 == TERMINATOR {
        0
    } else {
        c1 as usize + 1
    }
}

/// Naive oracle: binary-search the suffix array for the region whose
/// suffixes start with the two-byte key of `(c0, c1)`. Keys are
/// non-decreasing along the SA (first symbols in code order, then
/// terminators before residues in code order), so `partition_point`-style
/// searches are sound.
fn naive_sa_range(esa: &EsaIndex, c0: u8, c1: u8) -> (u32, u32) {
    let text = esa.text();
    let m = esa.num_suffixes();
    let target = ((c0 as usize) << 8) | key2(c1);
    let key_at = |i: u32| {
        let p = esa.sa(i) as usize;
        let first = text[p] as usize;
        let second = key2(text.get(p + 1).copied().unwrap_or(TERMINATOR));
        (first << 8) | second
    };
    let (mut lo, mut hi) = (0u32, m);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key_at(mid) < target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let start = lo;
    let mut hi = m;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key_at(mid) <= target {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (start, lo)
}

/// First-symbol-only oracle for `bucket_range`.
fn naive_bucket_range(esa: &EsaIndex, c0: u8) -> (u32, u32) {
    let text = esa.text();
    let m = esa.num_suffixes();
    let first_at = |i: u32| text[esa.sa(i) as usize];
    let (mut lo, mut hi) = (0u32, m);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if first_at(mid) < c0 {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let start = lo;
    let mut hi = m;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if first_at(mid) <= c0 {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (start, lo)
}

/// Observable equality of two indexes over the same database: same SA,
/// same LCP, same LUT answers.
fn observably_equal(a: &EsaIndex, b: &EsaIndex) -> bool {
    if a.num_suffixes() != b.num_suffixes() {
        return false;
    }
    for i in 0..a.num_suffixes() {
        if a.sa(i) != b.sa(i) || a.lcp(i) != b.lcp(i) {
            return false;
        }
    }
    (0..=255u8).all(|c0| a.bucket_range(c0) == b.bucket_range(c0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LUT jump ≡ binary search, for arbitrary two-byte prefixes drawn
    /// from the *full* byte range — most of which index empty regions.
    #[test]
    fn lut_lookup_equals_naive_binary_search(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 0..60), 1..8),
        probes in prop::collection::vec(0u32..65536, 1..32),
    ) {
        let db = build_db(&seqs);
        let esa = EsaIndex::build(&db);
        // Arbitrary probes (mostly empty regions)…
        for key in probes {
            let (c0, c1) = ((key >> 8) as u8, key as u8);
            prop_assert_eq!(esa.sa_range(c0, c1), naive_sa_range(&esa, c0, c1),
                "sa_range({}, {})", c0, c1);
            prop_assert_eq!(esa.bucket_range(c0), naive_bucket_range(&esa, c0),
                "bucket_range({})", c0);
        }
        // …plus every populated key and the terminator/edge buckets.
        for c0 in [0u8, 1, 2, 3, 0x7f, 0xfe, 0xff] {
            for c1 in [0u8, 1, 2, 3, TERMINATOR] {
                prop_assert_eq!(esa.sa_range(c0, c1), naive_sa_range(&esa, c0, c1),
                    "sa_range({}, {})", c0, c1);
            }
            prop_assert_eq!(esa.bucket_range(c0), naive_bucket_range(&esa, c0),
                "bucket_range({})", c0);
        }
        // The whole LUT partitions the suffix array: buckets tile [0, m).
        let mut at = 0u32;
        for c0 in 0..=255u8 {
            let (lo, hi) = esa.bucket_range(c0);
            prop_assert_eq!(lo, at);
            prop_assert!(hi >= lo);
            at = hi;
        }
        prop_assert_eq!(at, esa.num_suffixes());
    }

    /// Truncating or extending a packed payload is always a typed error
    /// (the header pins the exact byte length).
    #[test]
    fn from_parts_rejects_wrong_length_payloads(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..40), 1..6),
        cut in 0usize..1 << 20,
    ) {
        let db = build_db(&seqs);
        let esa = EsaIndex::build(&db);
        let full = esa.payload().to_vec();
        let take = cut % full.len(); // 0..len: always a strict prefix
        let err = EsaIndex::from_parts(full[..take].to_vec(), &db)
            .expect_err("truncated payload accepted");
        let typed = matches!(err, EsaError::Truncated { .. } | EsaError::BadMagic);
        prop_assert!(typed, "unexpected error class: {}", err);
        let mut longer = full.clone();
        longer.extend_from_slice(&[0u8; 3]);
        let overlong_typed = matches!(
            EsaIndex::from_parts(longer, &db),
            Err(EsaError::Truncated { .. })
        );
        prop_assert!(overlong_typed, "overlong payload not rejected as Truncated");
    }

    /// An arbitrary byte flip anywhere in the payload either rejects with
    /// a typed error or leaves every observable unchanged — corruption is
    /// never silently served. (Bit-exact detection is the artifact
    /// checksum's job; this pins the validator's own floor.)
    #[test]
    fn from_parts_never_serves_corruption_silently(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..40), 1..6),
        at in 0usize..1 << 20,
        flip in 1u8..=255,
    ) {
        let db = build_db(&seqs);
        let esa = EsaIndex::build(&db);
        let mut bent = esa.payload().to_vec();
        let pos = at % bent.len();
        bent[pos] ^= flip;
        match EsaIndex::from_parts(bent, &db) {
            Err(_) => {} // typed rejection: Truncated/BadMagic/Geometry/Invariant
            Ok(loaded) => prop_assert!(
                observably_equal(&esa, &loaded),
                "flip at byte {} accepted but changed observables", pos
            ),
        }
    }

    /// A payload must not validate against a different database, even one
    /// with the same text length.
    #[test]
    fn from_parts_rejects_wrong_database(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 2..30), 1..5),
    ) {
        let db = build_db(&seqs);
        let esa = EsaIndex::build(&db);
        // Same shape, different content: bump the first residue mod 4.
        let mut other = seqs.clone();
        other[0][0] = (other[0][0] + 1) % 4;
        let db2 = build_db(&other);
        prop_assert!(EsaIndex::from_parts(esa.payload().to_vec(), &db2).is_err());
    }
}
