//! Ablation: disk block size (the paper fixes 2 KB; §3.4's layout goals —
//! sibling clustering, blocked arrays — interact with block granularity).
//!
//! Sweeps 512 B / 2 KB / 8 KB at a fixed buffer-pool byte budget and
//! reports modelled query time and per-component hit ratios.

use std::time::{Duration, Instant};

use oasis_bench::{banner, fmt_duration, fmt_ratio, print_table, Scale, Testbed};
use oasis_core::OasisParams;
use oasis_storage::{DiskSuffixTree, DiskTreeBuilder, MemDevice, Region, SimulatedDisk};

fn main() {
    let scale = Scale::from_env();
    banner(
        "Ablation: block size",
        "512B / 2KB / 8KB blocks at a fixed pool budget (E=20000)",
        scale,
    );
    let tb = Testbed::protein(scale);
    let evalue = 20_000.0;

    let mut rows = Vec::new();
    for block_size in [512usize, 2048, 8192] {
        let (image, stats) = DiskTreeBuilder::with_block_size(block_size).build_image(&tb.tree);
        let pool_bytes = (stats.total_bytes as usize / 8).max(block_size * 4);
        let device = SimulatedDisk::fujitsu_2003(MemDevice::new(image, block_size));
        let tree = DiskSuffixTree::open(device, pool_bytes).expect("valid image");
        tree.pool().device().reset();
        let opened = tree.pool().stats();
        let mut cpu = Duration::ZERO;
        for q in &tb.queries {
            let params = OasisParams::with_min_score(tb.min_score(q.len(), evalue));
            let start = Instant::now();
            tb.search(&tree, q, &params).run();
            cpu += start.elapsed();
        }
        let s = tree.pool().stats().since(&opened);
        let io = Duration::from_nanos(tree.pool().device().virtual_nanos());
        rows.push(vec![
            block_size.to_string(),
            format!("{:.2}", stats.total_bytes as f64 / 1e6),
            format!("{:.2}", pool_bytes as f64 / 1e6),
            fmt_duration((cpu + io) / tb.queries.len() as u32),
            fmt_ratio(s.region(Region::Internal).hit_ratio()),
            fmt_ratio(s.region(Region::Symbols).hit_ratio()),
            fmt_ratio(s.region(Region::Leaves).hit_ratio()),
        ]);
    }
    print_table(
        &[
            "block B",
            "index MB",
            "pool MB",
            "mean query",
            "hit(int)",
            "hit(sym)",
            "hit(leaf)",
        ],
        &rows,
    );
    println!("\nexpected: larger blocks amortize seeks for the clustered internal");
    println!("region but waste pool frames on sparse leaf/symbol accesses; 2 KB");
    println!("(the paper's choice) sits in the balanced middle.");
}
