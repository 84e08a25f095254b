//! Online top-k search — the paper's headline usability property: "OASIS
//! returns results in decreasing order of the matching score, making it
//! possible to use OASIS in an online setting … the scientist may want to
//! abort the query after seeing the top few matches" (§1, §6).
//!
//! This example streams hits and *aborts after the top k*, demonstrating
//! that the cost paid is proportional to the results consumed.
//!
//! ```sh
//! cargo run --release --example online_topk
//! ```

use std::time::Instant;

use oasis::prelude::*;

fn main() {
    let workload = generate_protein(&ProteinDbSpec::default());
    let db = workload.db.clone();
    let scoring = Scoring::pam30_protein();
    let karlin =
        KarlinParams::estimate(&scoring.matrix, &oasis::align::stats::background_protein())
            .expect("stats");
    let engine = ShardedEngine::build(db.clone(), scoring, 1);

    // The paper's Figure 9 query: a 13-residue calcium-binding-loop motif.
    let query = Alphabet::protein().encode_str("DKDGDGCITTKEL").unwrap();
    let min_score = karlin.min_score_for_evalue(query.len() as u64, db.total_residues(), 20_000.0);
    let params = OasisParams::with_min_score(min_score);

    println!(
        "database: {} residues; query DKDGDGCITTKEL; minScore {min_score}\n",
        db.total_residues()
    );

    // Top-k abort: take(k) drives the A* loop only as far as needed.
    for k in [1usize, 5, 20] {
        let start = Instant::now();
        let session = engine.session(&query, &params);
        let top: Vec<Hit> = session.take(k).collect();
        let elapsed = start.elapsed();
        println!(
            "top-{k:<3} aborted after {elapsed:>10.2?}  (scores: {:?})",
            top.iter().map(|h| h.score).collect::<Vec<_>>()
        );
        // Online guarantee: non-increasing scores.
        assert!(top.windows(2).all(|w| w[0].score >= w[1].score));
    }

    // Full drain for comparison.
    let start = Instant::now();
    let all = engine.run_one(&query, &params).hits;
    let full_time = start.elapsed();
    println!(
        "full    drained {:>5} hits in {full_time:>10.2?}",
        all.len()
    );
    println!("\nthe top-k runs finish long before the full drain: that is the");
    println!("paper's online property (Figure 9) as an API.");
}
