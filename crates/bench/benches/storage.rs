//! Criterion microbenchmarks for the storage layer: buffer-pool hit and
//! miss paths, and an OASIS query against the disk-resident tree at two
//! pool sizes (the per-query cost underlying Figures 7–8).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use oasis_bench::{Scale, Testbed};
use oasis_core::OasisParams;
use oasis_storage::{BufferPool, DiskSuffixTree, MemDevice, Region};

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("buffer_pool");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    let blocks = 256usize;
    let device = MemDevice::new(vec![7u8; blocks * 2048], 2048);
    let hit_pool = BufferPool::with_frames(device, blocks);
    // Warm every block so reads are pure hits.
    for b in 0..blocks as u64 {
        hit_pool.read(b, Region::Symbols, |_| ());
    }
    group.bench_function("read_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % blocks as u64;
            hit_pool.read(black_box(i), Region::Symbols, |buf| black_box(buf[0]))
        })
    });

    let device = MemDevice::new(vec![7u8; blocks * 2048], 2048);
    let miss_pool = BufferPool::with_frames(device, 2);
    group.bench_function("read_miss_evict", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % blocks as u64;
            miss_pool.read(black_box(i), Region::Symbols, |buf| black_box(buf[0]))
        })
    });
    group.finish();
}

fn bench_disk_query(c: &mut Criterion) {
    let tb = Testbed::protein(Scale::Tiny);
    let (image, _) = tb.disk_image();
    let query = tb.queries[0].clone();
    let params = OasisParams::with_min_score(tb.min_score(query.len(), 20_000.0));

    let mut group = c.benchmark_group("disk_query");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    for (label, divisor) in [("full_pool", 1usize), ("eighth_pool", 8)] {
        let tree =
            DiskSuffixTree::open_image(image.clone(), 2048, (image.len() / divisor).max(4096))
                .expect("valid image");
        group.bench_function(label, |b| {
            b.iter(|| {
                let (hits, _) = tb.run_pooled(&tree, black_box(&query), &params);
                black_box(hits.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pool, bench_disk_query);
criterion_main!(benches);
