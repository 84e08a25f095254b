//! Peptide-motif search — the workload class the paper targets ("queries
//! using peptides, which are short protein sequences, are often used to find
//! matching proteins that have a similar peptide", §1).
//!
//! Generates a SWISS-PROT-like synthetic database with planted families,
//! samples ProClass-style peptide queries, and compares the three engines:
//! OASIS (exact, online), Smith-Waterman (exact, exhaustive), and the
//! BLAST-like heuristic.
//!
//! ```sh
//! cargo run --release --example peptide_search
//! ```

use std::time::Instant;

use oasis::prelude::*;

fn main() {
    // A laptop-scale stand-in for SWISS-PROT (see DESIGN.md §2).
    let spec = ProteinDbSpec {
        num_sequences: 800,
        ..ProteinDbSpec::default()
    };
    let workload = generate_protein(&spec);
    let db = workload.db.clone();
    println!(
        "synthetic SWISS-PROT: {} sequences, {} residues, {} planted families",
        db.num_sequences(),
        db.total_residues(),
        workload.motifs.len()
    );

    let build_start = Instant::now();
    let scoring = Scoring::pam30_protein();
    let engine = ShardedEngine::build(db.clone(), scoring.clone(), 1);
    println!("suffix tree built in {:?}", build_start.elapsed());
    let karlin =
        KarlinParams::estimate(&scoring.matrix, &oasis::align::stats::background_protein())
            .expect("PAM30 statistics");

    let queries = generate_queries(&workload, &QuerySpec::proclass_like(12, 42));
    let evalue = 20_000.0;

    println!(
        "\n{:<6} {:>9} {:>9} {:>9}  {:>8} {:>8} {:>8}",
        "qlen", "oasis", "sw", "blast", "o-hits", "sw-hits", "b-hits"
    );
    for query in &queries {
        let min_score =
            karlin.min_score_for_evalue(query.len() as u64, db.total_residues(), evalue);
        let params = OasisParams::with_min_score(min_score);

        let t = Instant::now();
        let oasis_hits = engine.run_one(query, &params).hits;
        let oasis_time = t.elapsed();

        let mut scanner = SwScanner::new();
        let t = Instant::now();
        let sw_hits = scanner.scan(&db, query, &scoring, min_score);
        let sw_time = t.elapsed();

        let blast = BlastSearch::new(
            &db,
            &scoring,
            BlastParams::short_protein().with_evalue(evalue),
        )
        .expect("stats");
        let t = Instant::now();
        let (blast_hits, _) = blast.search(query);
        let blast_time = t.elapsed();

        // OASIS is exact: its per-sequence scores equal Smith-Waterman's.
        assert_eq!(oasis_hits.len(), sw_hits.len());
        for (o, s) in oasis_hits.iter().zip(&sw_hits) {
            assert_eq!(o.score, s.hit.score);
        }

        println!(
            "{:<6} {:>9.2?} {:>9.2?} {:>9.2?}  {:>8} {:>8} {:>8}",
            query.len(),
            oasis_time,
            sw_time,
            blast_time,
            oasis_hits.len(),
            sw_hits.len(),
            blast_hits.len()
        );
    }
    println!("\nOASIS returned exactly Smith-Waterman's results on every query");
    println!("(asserted above), while the heuristic baseline missed some.");
}
