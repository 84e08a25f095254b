//! Figure 9: online behaviour — the time at which each successive result is
//! returned for the paper's example query DKDGDGCITTKEL (a 13-residue
//! calcium-binding motif), E = 20,000.
//!
//! Paper's finding: "the top results are returned very quickly, with the
//! first 40 results being returned in under 4/100ths of a second", while
//! BLAST and S-W must finish the whole query before anything is reported.

use std::time::Instant;

use oasis_bench::{banner, fmt_duration, print_table, Scale, Testbed};
use oasis_core::OasisParams;

fn main() {
    let scale = Scale::from_env();
    banner(
        "Figure 9",
        "online behaviour, query DKDGDGCITTKEL (E=20000)",
        scale,
    );
    let tb = Testbed::protein(scale);
    let query = tb.encode("DKDGDGCITTKEL");
    let evalue = 20_000.0;

    // Stream hits from the online search, recording each arrival.
    let params = OasisParams::with_min_score(tb.min_score(query.len(), evalue));
    let session = tb.search(&*tb.tree, &query, &params);
    let start = Instant::now();
    let mut arrivals = Vec::new();
    for hit in session {
        arrivals.push((start.elapsed(), hit.score));
    }
    let oasis_total = start.elapsed();

    let (_, _, sw_time) = tb.run_sw(&query, evalue);
    let (blast_hits, blast_time) = tb.run_blast(&query, evalue);

    println!(
        "OASIS identified {} viable alignments; BLAST identified {}\n",
        arrivals.len(),
        blast_hits.len()
    );
    let mut rows = Vec::new();
    let marks = [1usize, 2, 5, 10, 20, 40, 100, 200, 500, 1000];
    for &k in &marks {
        if k <= arrivals.len() {
            let (t, score) = arrivals[k - 1];
            rows.push(vec![k.to_string(), fmt_duration(t), score.to_string()]);
        }
    }
    if let Some(&(t, score)) = arrivals.last() {
        rows.push(vec![
            format!("{} (all)", arrivals.len()),
            fmt_duration(t),
            score.to_string(),
        ]);
    }
    print_table(&["k-th result", "returned at", "score"], &rows);

    println!("\nreference totals (first result only after completion):");
    print_table(
        &["engine", "total time"],
        &[
            vec!["OASIS (all results)".into(), fmt_duration(oasis_total)],
            vec!["BLAST".into(), fmt_duration(blast_time)],
            vec!["S-W".into(), fmt_duration(sw_time)],
        ],
    );
    println!("\npaper shape: top results arrive within a small fraction of the total");
    println!("runtime and far before either baseline returns anything.");
}
