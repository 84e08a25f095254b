//! Criterion microbenchmarks for selectivity (Figure 6) and the online
//! property (Figure 9): a query at E = 1 vs E = 20,000, and time-to-first-
//! hit vs full drain.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use oasis_bench::{Scale, Testbed};
use oasis_core::OasisParams;

fn bench_selectivity(c: &mut Criterion) {
    let tb = Testbed::protein(Scale::Tiny);
    let query = tb
        .queries
        .iter()
        .find(|q| (10..=20).contains(&q.len()))
        .cloned()
        .unwrap_or_else(|| tb.queries[0].clone());

    let mut group = c.benchmark_group("selectivity");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    for (label, evalue) in [("strict_E1", 1.0), ("relaxed_E20000", 20_000.0)] {
        group.bench_function(label, |b| {
            b.iter(|| black_box(tb.run_oasis(black_box(&query), evalue).0.len()))
        });
    }
    group.finish();
}

fn bench_online(c: &mut Criterion) {
    let tb = Testbed::protein(Scale::Tiny);
    let query = tb.encode("DKDGDGCITTKEL");
    let params = OasisParams::with_min_score(tb.min_score(query.len(), 20_000.0));

    let mut group = c.benchmark_group("online");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));
    group.bench_function("first_hit", |b| {
        b.iter(|| {
            let mut session = tb.search(&*tb.tree, black_box(&query), &params);
            black_box(session.next())
        })
    });
    group.bench_function("full_drain", |b| {
        b.iter(|| {
            let (hits, _) = tb.search(&*tb.tree, black_box(&query), &params).run();
            black_box(hits.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_selectivity, bench_online);
criterion_main!(benches);
