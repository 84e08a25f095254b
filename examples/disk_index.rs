//! Disk-resident index — the paper's §3.4 representation end to end: build
//! the three-array disk image, open it through a clock buffer pool, run the
//! search against the *disk* tree, and inspect per-component hit ratios
//! (the paper's Figure 8 instrumentation). The same disk tree, opened from
//! a one-shard tree artifact (`oasis index build`), is what
//! `open_artifact_engine` serves disk-resident.
//!
//! ```sh
//! cargo run --release --example disk_index
//! ```

use oasis::prelude::*;
use oasis::storage::Region;

fn main() {
    let workload = generate_protein(&ProteinDbSpec {
        num_sequences: 400,
        ..ProteinDbSpec::default()
    });
    let db = workload.db.clone();
    let tree = SuffixTree::build(&db);

    // Serialize with the paper's 2 KB blocks.
    let (image, stats) = DiskTreeBuilder::default().build_image(&tree);
    println!(
        "disk image: {:.2} MB total = {:.2} text + {:.2} internal + {:.2} leaves (MB)",
        stats.total_bytes as f64 / 1e6,
        stats.symbol_bytes as f64 / 1e6,
        stats.internal_bytes as f64 / 1e6,
        stats.leaf_bytes as f64 / 1e6,
    );
    println!(
        "space utilization: {:.1} bytes/symbol (paper reports 12.5)\n",
        stats.bytes_per_symbol()
    );

    let scoring = Scoring::pam30_protein();
    let query = Alphabet::protein().encode_str("DKDGDGCITTKEL").unwrap();
    let params = OasisParams::with_min_score(30);
    let (mem_hits, _) = OasisSearch::new(&tree, &db, &query, &scoring, &params).run();

    for divisor in [16usize, 4, 1] {
        let pool_bytes = (image.len() / divisor).max(4096);
        let disk_tree =
            DiskSuffixTree::open_image(image.clone(), 2048, pool_bytes).expect("valid image");
        // The pool's counters are cumulative: their change across the
        // search is this query's traffic.
        let before = disk_tree.pool().stats();
        let (hits, _) = OasisSearch::new(&disk_tree, &db, &query, &scoring, &params).run();
        let s = disk_tree.pool().stats().since(&before);
        // `hit_ratio` is None when a region saw no requests — render that
        // as n/a rather than a fabricated number.
        let ratio = |r: Region| {
            s.region(r)
                .hit_ratio()
                .map_or("n/a".to_string(), |v| format!("{v:.3}"))
        };
        println!(
            "pool 1/{divisor:<2} of index: {} hits | hit ratios: symbols {}, internal {}, leaves {}",
            hits.len(),
            ratio(Region::Symbols),
            ratio(Region::Internal),
            ratio(Region::Leaves),
        );

        // The disk tree is bit-for-bit equivalent to the in-memory tree:
        assert_eq!(hits, mem_hits, "disk and memory trees must agree");
    }
    println!("\ndisk-resident search returned identical results at every pool size");
    println!("(asserted); the level-first internal layout keeps its hit ratio");
    println!("highest when memory is scarce — the paper's Figure 8 observation.");
}
