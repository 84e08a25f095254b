//! Criterion microbenchmarks for index construction: the SA-IS → Kasai →
//! tree pipeline, stage by stage, and disk-image serialization (§3.4).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use oasis_bench::{Scale, Testbed};
use oasis_storage::DiskTreeBuilder;
use oasis_suffix::{lcp_kasai, suffix_array, RankedText, SuffixTree};

fn bench_build(c: &mut Criterion) {
    let tb = Testbed::protein(Scale::Tiny);
    let db = &tb.workload.db;
    let ranked = RankedText::from_database(db);

    let mut group = c.benchmark_group("index_build");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    group.bench_function("suffix_array_sais", |b| {
        b.iter(|| black_box(suffix_array(black_box(ranked.ranks())).len()))
    });
    let sa = suffix_array(ranked.ranks());
    group.bench_function("lcp_kasai", |b| {
        b.iter(|| black_box(lcp_kasai(black_box(ranked.ranks()), black_box(&sa)).len()))
    });
    group.bench_function("tree_build_full", |b| {
        b.iter(|| black_box(SuffixTree::build(black_box(db)).num_leaves()))
    });
    let tree = SuffixTree::build(db);
    group.bench_function("disk_serialize_2k", |b| {
        b.iter(|| black_box(DiskTreeBuilder::default().build_image(black_box(&tree)).1))
    });
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
