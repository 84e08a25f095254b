//! Deeper property tests over the substrates: alignments recompute their
//! own scores; FASTA round-trips arbitrary sequences; BLAST word
//! neighborhoods match brute force; the E-value-ordered search agrees with
//! an offline sort; every substrate reads leaf arcs up to their terminator.

mod support;

use proptest::prelude::*;

use oasis::align::sw_align;
use oasis::blast::WordIndex;
use oasis::prelude::*;
use oasis::storage::{BlockDevice, DiskTreeBuilder};
use support::build_db;

/// Every leaf arc of `index`, read from offset 0 in chunks of 1, 3 and 64
/// symbols until a read returns 0, must equal `arc_label` and the text from
/// the arc's start through the terminator that ends the suffix — the
/// contract that lets the expand kernel read a leaf without asking where
/// its sequence ends. Returns the number of leaves checked.
fn check_leaf_arcs<T: SuffixTreeAccess + ?Sized>(
    index: &T,
    text: &[u8],
) -> Result<usize, TestCaseError> {
    let mut stack = vec![(index.root(), 0u32)];
    let mut kids = Vec::new();
    let mut leaves = 0;
    while let Some((node, depth)) = stack.pop() {
        index.children_into(node, &mut kids);
        for &child in &kids {
            if !child.is_leaf() {
                stack.push((child, index.depth(child)));
                continue;
            }
            leaves += 1;
            let start = (child.index() + depth) as usize;
            let end = start + text[start..].iter().position(|&c| c == TERMINATOR).unwrap();
            let want = &text[start..=end];
            prop_assert_eq!(
                &index.arc_label(depth, child)[..],
                want,
                "leaf {}",
                child.index()
            );
            for chunk in [1usize, 3, 64] {
                let mut buf = vec![0u8; chunk];
                let mut got = Vec::new();
                loop {
                    let n = index.arc_fill(depth, child, got.len() as u32, &mut buf);
                    if n == 0 {
                        break;
                    }
                    prop_assert!(n <= chunk);
                    got.extend_from_slice(&buf[..n]);
                    prop_assert!(
                        got.len() <= want.len(),
                        "leaf {} read past its end",
                        child.index()
                    );
                }
                prop_assert_eq!(
                    &got[..],
                    want,
                    "leaf {} in chunks of {}",
                    child.index(),
                    chunk
                );
            }
        }
    }
    Ok(leaves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn alignments_recompute_their_scores(
        q in prop::collection::vec(0u8..4, 1..15),
        t in prop::collection::vec(0u8..4, 1..25),
        matched in 1i32..5,
        mismatched in -5i32..-1,
        gap in -4i32..-1,
    ) {
        let scoring = Scoring::new(
            SubstitutionMatrix::match_mismatch(AlphabetKind::Dna, matched, mismatched),
            GapModel::linear(gap),
        );
        if let Some(aln) = sw_align(&q, &t, &scoring) {
            prop_assert!(aln.is_consistent());
            // Walk the ops, recomputing the score independently.
            let mut qi = aln.q_start;
            let mut ti = aln.t_start;
            let mut total = 0i32;
            for op in &aln.ops {
                match op {
                    oasis::align::AlignOp::Replace => {
                        total += scoring.sub(q[qi], t[ti]);
                        qi += 1;
                        ti += 1;
                    }
                    oasis::align::AlignOp::Insert => {
                        total += gap;
                        qi += 1;
                    }
                    oasis::align::AlignOp::Delete => {
                        total += gap;
                        ti += 1;
                    }
                }
            }
            prop_assert_eq!(total, aln.score);
            // A local alignment never starts or ends with a gap.
            if let (Some(first), Some(last)) = (aln.ops.first(), aln.ops.last()) {
                prop_assert_eq!(*first, oasis::align::AlignOp::Replace);
                prop_assert_eq!(*last, oasis::align::AlignOp::Replace);
            }
        }
    }

    #[test]
    fn fasta_roundtrip_arbitrary(
        seqs in prop::collection::vec(prop::collection::vec(0u8..20, 1..80), 1..6),
    ) {
        let alphabet = Alphabet::protein();
        let originals: Vec<Sequence> = seqs
            .iter()
            .enumerate()
            .map(|(i, codes)| Sequence::from_codes(format!("seq {i}"), codes.clone()))
            .collect();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &alphabet, &originals).unwrap();
        let parsed = parse_fasta(&buf[..], &alphabet, UnknownResiduePolicy::Reject).unwrap();
        prop_assert_eq!(parsed, originals);
    }

    #[test]
    fn word_neighborhood_matches_brute_force(
        query in prop::collection::vec(0u8..4, 2..8),
        threshold in -2i32..5,
    ) {
        let matrix = SubstitutionMatrix::unit(AlphabetKind::Dna);
        let w = 2usize;
        prop_assume!(query.len() >= w);
        let idx = WordIndex::build(&query, &matrix, w, threshold);
        for a in 0..4u8 {
            for b in 0..4u8 {
                let code = idx.encode(&[a, b]);
                let want: Vec<u32> = (0..=query.len() - w)
                    .filter(|&p| {
                        matrix.score(query[p], a) + matrix.score(query[p + 1], b) >= threshold
                    })
                    .map(|p| p as u32)
                    .collect();
                let got = idx.lookup(code).unwrap_or(&[]).to_vec();
                prop_assert_eq!(got, want, "word ({}, {})", a, b);
            }
        }
    }

    #[test]
    fn evalue_order_is_offline_sort(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..60), 2..8),
        query in prop::collection::vec(0u8..4, 2..10),
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let scoring = Scoring::unit_dna();
        let karlin = KarlinParams::estimate(
            &SubstitutionMatrix::unit(AlphabetKind::Dna),
            &oasis::align::background_dna(),
        )
        .unwrap();
        let params = OasisParams::with_min_score(1);
        let inner = OasisSearch::new(&tree, &db, &query, &scoring, &params);
        let hits: Vec<EvaluedHit> =
            EvalueOrderedSearch::new(inner, &db, query.len(), karlin).collect();
        let online: Vec<f64> = hits.iter().map(|h| h.evalue).collect();
        let mut offline = online.clone();
        offline.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(online, offline);
        // Same hit multiset as the score-ordered search.
        let (score_hits, _) =
            OasisSearch::new(&tree, &db, &query, &scoring, &params).run();
        let mut a: Vec<_> = hits.iter().map(|h| (h.hit.seq, h.hit.score)).collect();
        let mut b: Vec<_> = score_hits.iter().map(|h| (h.seq, h.score)).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn leaf_arcs_read_to_their_terminator_on_every_substrate(
        seqs in prop::collection::vec(prop::collection::vec(0u8..4, 1..90), 1..6),
        block_pow in 6u32..8,
    ) {
        let db = build_db(&seqs);
        let tree = SuffixTree::build(&db);
        let esa = EsaIndex::build(&db);
        let block = 1usize << block_pow;
        let (image, _) = DiskTreeBuilder::with_block_size(block).build_image(&tree);
        let disk = DiskSuffixTree::open_image(image, block, 4 * block).unwrap();
        let via_tree = check_leaf_arcs(&tree, db.text())?;
        prop_assert_eq!(via_tree, db.total_residues() as usize);
        prop_assert_eq!(check_leaf_arcs(&esa, db.text())?, via_tree);
        prop_assert_eq!(check_leaf_arcs(&disk, db.text())?, via_tree);
    }

    #[test]
    fn pool_device_equivalence(
        data in prop::collection::vec(any::<u8>(), 1..512),
        frames in 1usize..8,
        reads in prop::collection::vec(0u64..16, 1..40),
    ) {
        // Reading through the pool must always return exactly the device
        // bytes, whatever the eviction pattern.
        let block_size = 32usize;
        let device = MemDevice::new(data.clone(), block_size);
        let num_blocks = device.num_blocks();
        let pool = BufferPool::with_frames(device, frames);
        let mut padded = data.clone();
        padded.resize(padded.len().div_ceil(block_size) * block_size, 0);
        for r in reads {
            let block = r % num_blocks;
            let want = &padded[block as usize * block_size..(block as usize + 1) * block_size];
            pool.read(block, Region::Symbols, |buf| {
                prop_assert_eq!(buf, want, "block {}", block);
                Ok(())
            })?;
        }
        let s = pool.stats().total();
        prop_assert_eq!(s.requests as usize, {
            // every read counted
            s.hits as usize + s.misses() as usize
        });
    }
}
