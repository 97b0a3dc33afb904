//! SP application benches: the real (functional) serial iteration and the
//! cost of one full simulated Table 1 cell.

use mp_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mp_nassp::problem::{SpProblem, SpWorkFactors};
use mp_nassp::serial::SerialSp;
use mp_nassp::simulate::{simulate_sp, SpVersion};
use std::hint::black_box;

fn bench_sp(c: &mut Criterion) {
    let mut group = c.benchmark_group("sp_serial_iteration");
    group.sample_size(10);
    for &n in &[12usize, 24, 36] {
        let prob = SpProblem::new([n, n, n], 0.001);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut sp = SerialSp::new(prob);
            b.iter(|| {
                sp.iterate();
                black_box(sp.iters_done)
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("sp_simulated_cell");
    group.sample_size(10);
    let prob = SpProblem::new([102, 102, 102], 0.001);
    let machine = mp_core::cost::CostModel::sp_origin2000();
    let factors = SpWorkFactors::default();
    for &p in &[16u64, 50, 81] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                simulate_sp(
                    SpVersion::GeneralizedDhpf,
                    black_box(&prob),
                    p,
                    &machine,
                    &factors,
                    1,
                )
                .unwrap()
                .seconds
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sp);
criterion_main!(benches);
