//! Quickstart: build a tiny protein database, index it, and run an exact
//! online local-alignment search over it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use oasis::prelude::*;

fn main() {
    // 1. A few protein sequences (the first two share a planted motif).
    let alphabet = Alphabet::protein();
    let mut builder = DatabaseBuilder::new(alphabet.clone());
    builder
        .push_str("sp|DEMO1|REAL", "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ")
        .unwrap();
    builder
        .push_str("sp|DEMO2|HOMOLOG", "MKTAYLAKQRNISFVKSHFSRQDEERLGLIEVQ")
        .unwrap();
    builder
        .push_str("sp|DEMO3|UNRELATED", "WWWWPPPPGGGGWWWWPPPP")
        .unwrap();
    let db = Arc::new(builder.finish());
    println!(
        "database: {} sequences, {} residues",
        db.num_sequences(),
        db.total_residues()
    );

    // 2. Index with a generalized suffix tree (the paper's §2.3 structure).
    let tree = Arc::new(SuffixTree::build(&db));
    println!(
        "suffix tree: {} internal nodes, {} leaves",
        SuffixTreeAccess::num_internal(&*tree),
        tree.num_leaves()
    );

    // 3. Search a short peptide: exact, best-first, online — each hit
    //    arrives as soon as it is proven optimal.
    let scoring = Scoring::new(SubstitutionMatrix::blosum62(), GapModel::linear(-8));
    let query = alphabet.encode_str("AKQRQISFVKSH").unwrap();
    let params = OasisParams::with_min_score(25);
    println!("\nquery AKQRQISFVKSH (minScore 25):");
    for hit in OasisSearch::new(&*tree, &db, &query, &scoring, &params) {
        let alignment = hit.alignment(&db, &query, &scoring);
        println!(
            "\n  {} — score {} (target window {}..{})",
            db.name(hit.seq),
            hit.score,
            hit.t_start,
            hit.t_start + hit.t_len
        );
        for line in alignment.render(&query, db.text(), &alphabet).lines() {
            println!("    {line}");
        }
    }
}
