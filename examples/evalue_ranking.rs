//! E-value-ordered online search — the paper's §4.3 refinement.
//!
//! Score order and statistical-significance order are not the same thing:
//! the same alignment score is *more* significant inside a short sequence
//! than inside a long one. The paper sketches how OASIS can stay online
//! while emitting results by length-adjusted E-value ("pushed back on the
//! priority queue with a non-optimistic E value, adjusted for the actual
//! sequence length"); `EvalueOrderedSearch` implements that scheme.
//!
//! ```sh
//! cargo run --release --example evalue_ranking
//! ```

use std::sync::Arc;

use oasis::prelude::*;

fn main() {
    // A database where length adjustment visibly reorders results: the
    // same motif planted in a short peptide and in a long protein.
    let alphabet = Alphabet::protein();
    let mut b = DatabaseBuilder::new(alphabet.clone());
    let motif = "DKDGDGCITTKEL";
    b.push_str("tiny-peptide", &format!("AA{motif}AA")).unwrap();
    b.push_str(
        "huge-protein",
        &format!(
            "{}{motif}{}",
            "ARNDCQEGHILKMFPSTWYV".repeat(30),
            "VLKQ".repeat(40)
        ),
    )
    .unwrap();
    b.push_str("decoy", &"GPGP".repeat(25)).unwrap();
    let db = Arc::new(b.finish());
    let tree = Arc::new(SuffixTree::build(&db));
    let scoring = Scoring::pam30_protein();
    let karlin =
        KarlinParams::estimate(&scoring.matrix, &oasis::align::background_protein()).unwrap();

    let query = alphabet.encode_str(motif).unwrap();
    let params = OasisParams::with_min_score(40);

    println!("score-ordered (classic OASIS):");
    for hit in OasisSearch::new(&*tree, &db, &query, &scoring, &params) {
        println!(
            "  {:<14} score={:<4} E(adjusted)={:.2e}",
            db.name(hit.seq),
            hit.score,
            karlin.evalue(query.len() as u64, db.seq_len(hit.seq) as u64, hit.score)
        );
    }

    println!("\nE-value-ordered (§4.3 refinement), still online:");
    let inner = OasisSearch::new(&*tree, &db, &query, &scoring, &params);
    let search = EvalueOrderedSearch::new(inner, &db, query.len(), karlin);
    let hits: Vec<EvaluedHit> = search.collect();
    for h in &hits {
        println!(
            "  {:<14} score={:<4} E(adjusted)={:.2e}",
            db.name(h.hit.seq),
            h.hit.score,
            h.evalue
        );
    }
    assert!(hits.windows(2).all(|w| w[0].evalue <= w[1].evalue));
    println!("\nboth contain the same hits; with equal scores the short sequence");
    println!("ranks first under E-value ordering because the match is less likely");
    println!("to occur there by chance.");
}
