//! Wall-clock cost of the §3.3 optimal-partitioning search — the paper's
//! practicality claim is that exhaustive search over elementary
//! partitionings is cheap for realistic `p` (up to ~1000).

use mp_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mp_core::search::optimal_partitioning;
use std::hint::black_box;

fn bench_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimal_partitioning");
    // Processor counts with varied factor structure: powers of two, highly
    // composite, squares, and a prime.
    for &p in &[16u64, 64, 97, 210, 256, 360, 720, 840, 1024] {
        let lambdas = [1.0, 1.5, 2.5];
        group.bench_with_input(BenchmarkId::new("exhaustive_d3", p), &p, |b, &p| {
            b.iter(|| optimal_partitioning(black_box(p), black_box(&lambdas)))
        });
    }
    for &p in &[64u64, 360, 840] {
        let lambdas = [1.0, 1.5, 2.5, 4.0];
        group.bench_with_input(BenchmarkId::new("exhaustive_d4", p), &p, |b, &p| {
            b.iter(|| optimal_partitioning(black_box(p), black_box(&lambdas)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_search);
criterion_main!(benches);
