//! Line-solver throughput: the serial Thomas algorithm and its segmented
//! two-kernel form (what the distributed sweeps execute per tile).

use mp_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mp_core::multipart::Direction;
use mp_grid::Lanes;
use mp_sweep::recurrence::{per_line_sweep_lanes, LineSweepKernel, SegmentCtx};
use mp_sweep::simd::SimdLevel;
use mp_sweep::thomas::{thomas_solve_in_place, ThomasBackwardKernel, ThomasForwardKernel};
use std::hint::black_box;

fn system(n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let a: Vec<f64> = (0..n).map(|k| if k == 0 { 0.0 } else { -0.3 }).collect();
    let c: Vec<f64> = (0..n)
        .map(|k| if k == n - 1 { 0.0 } else { -0.4 })
        .collect();
    let b: Vec<f64> = vec![2.0; n];
    let d: Vec<f64> = (0..n).map(|k| ((k * 37) % 11) as f64 - 5.0).collect();
    (a, b, c, d)
}

fn bench_thomas(c: &mut Criterion) {
    let mut group = c.benchmark_group("thomas");
    for &n in &[102usize, 1024, 8192] {
        let (a, b0, c0, d0) = system(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("direct", n), &n, |bench, _| {
            bench.iter(|| {
                let mut bb = b0.clone();
                let mut cc = c0.clone();
                let mut dd = d0.clone();
                thomas_solve_in_place(black_box(&a), &mut bb, &mut cc, &mut dd);
                dd
            })
        });
        // Segmented two-kernel form, 4 segments.
        group.bench_with_input(BenchmarkId::new("segmented_x4", n), &n, |bench, _| {
            let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
            let bwd = ThomasBackwardKernel::new(0, 1);
            let bounds: Vec<usize> = (0..=4).map(|k| k * n / 4).collect();
            bench.iter(|| {
                let mut cc = c0.clone();
                let mut dd = d0.clone();
                let mut carry = vec![0.0; fwd.carry_len()];
                for w in bounds.windows(2) {
                    let mut seg = vec![
                        a[w[0]..w[1]].to_vec(),
                        b0[w[0]..w[1]].to_vec(),
                        cc[w[0]..w[1]].to_vec(),
                        dd[w[0]..w[1]].to_vec(),
                    ];
                    fwd.sweep_segment(
                        Direction::Forward,
                        &mut carry,
                        &mut seg,
                        &SegmentCtx::origin(1, 0, Direction::Forward),
                    );
                    cc[w[0]..w[1]].copy_from_slice(&seg[2]);
                    dd[w[0]..w[1]].copy_from_slice(&seg[3]);
                }
                let mut carry = vec![0.0; bwd.carry_len()];
                for w in bounds.windows(2).rev() {
                    let mut seg = vec![
                        cc[w[0]..w[1]].iter().rev().copied().collect::<Vec<_>>(),
                        dd[w[0]..w[1]].iter().rev().copied().collect::<Vec<_>>(),
                    ];
                    bwd.sweep_segment(
                        Direction::Backward,
                        &mut carry,
                        &mut seg,
                        &SegmentCtx::origin(1, 0, Direction::Backward),
                    );
                    for (off, v) in seg[1].iter().rev().enumerate() {
                        dd[w[0] + off] = *v;
                    }
                }
                dd
            })
        });
    }
    group.finish();
}

/// Scalar lane-loop elimination vs the per-line reference on the same
/// line-minor block buffers — the speedup the blocked executor banks on for
/// wide tile cross-sections.
fn bench_thomas_blocked(c: &mut Criterion) {
    let mut group = c.benchmark_group("thomas_blocked");
    group.sample_size(30);
    let nl = 64usize;
    for &n in &[64usize, 256] {
        // nl interleaved diagonally dominant systems, line-minor layout.
        let (a, b0, c0, d0) = system(n);
        let mut block0: Vec<Vec<f64>> = vec![vec![0.0; n * nl]; 4];
        for (f, src) in [&a, &b0, &c0, &d0].iter().enumerate() {
            for k in 0..n {
                for l in 0..nl {
                    block0[f][k * nl + l] =
                        src[k] + 0.001 * l as f64 * if f == 1 { 1.0 } else { 0.0 };
                }
            }
        }
        let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
        let ctx = SegmentCtx::origin(2, 0, Direction::Forward);
        group.throughput(Throughput::Elements((nl * n) as u64));
        group.bench_with_input(BenchmarkId::new("per_line", n), &n, |bench, _| {
            let mut table = Vec::new();
            bench.iter(|| {
                let mut block = block0.clone();
                let mut carries = vec![0.0; nl * 2];
                let mut lanes = Lanes::packed(&mut block, nl, n, &mut table);
                per_line_sweep_lanes(&fwd, Direction::Forward, &mut carries, &mut lanes, &ctx);
                black_box(carries[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bench, _| {
            let mut table = Vec::new();
            bench.iter(|| {
                let mut block = block0.clone();
                let mut carries = vec![0.0; nl * 2];
                let mut lanes = Lanes::packed(&mut block, nl, n, &mut table);
                let level = SimdLevel::Scalar;
                fwd.sweep_lanes(level, Direction::Forward, &mut carries, &mut lanes, &ctx);
                black_box(carries[0])
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_thomas, bench_thomas_blocked);
criterion_main!(benches);
