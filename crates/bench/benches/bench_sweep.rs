//! Functional sweep-engine throughput: the threaded multipartitioned sweep
//! vs the serial reference on the same data, and the simulated-schedule
//! replay cost (how expensive one simulated SP point is to produce).

use mp_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mp_core::cost::CostModel;
use mp_core::multipart::{Direction, Multipartitioning};
use mp_core::partition::Partitioning;
use mp_grid::{ArrayD, FieldDef, TileGrid};
use mp_runtime::comm::Communicator;
use mp_runtime::sim::SimNet;
use mp_runtime::threaded::run_threaded;
use mp_sweep::executor::{allocate_rank_store, SweepOptions};
use mp_sweep::recurrence::PrefixSumKernel;
use mp_sweep::simulate::{simulate_multipart_sweep, MultipartGeometry, SweepWork};
use mp_sweep::verify::serial_sweep;
use mp_sweep::{CompiledSweep, SolverPlan};
use std::hint::black_box;

fn bench_sweep(c: &mut Criterion) {
    let n = 48usize;
    let eta = [n, n, n];
    let elems = (n * n * n) as u64;
    let kernel = PrefixSumKernel::new(0);

    let mut group = c.benchmark_group("functional_sweep");
    group.throughput(Throughput::Elements(elems));
    group.sample_size(20);

    group.bench_function("serial_48", |b| {
        b.iter(|| {
            let mut a = ArrayD::from_fn(&eta, |g| (g[0] + g[1] + g[2]) as f64);
            serial_sweep(&mut [&mut a], 0, Direction::Forward, &kernel);
            black_box(a.get(&[n - 1, n - 1, n - 1]))
        })
    });

    for &p in &[2u64, 4] {
        let mp = Multipartitioning::optimal(
            p,
            &[n as u64, n as u64, n as u64],
            &CostModel::origin2000_like(),
        );
        let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        let grid = TileGrid::new(&eta, &gam);
        group.bench_with_input(BenchmarkId::new("threaded_48", p), &p, |b, &p| {
            b.iter(|| {
                run_threaded(p, |comm| {
                    let mut store =
                        allocate_rank_store(comm.rank(), &mp, &grid, &[FieldDef::new("u", 0)]);
                    store.init_field(0, |g| (g[0] + g[1] + g[2]) as f64);
                    let mut plan = SolverPlan::new(SweepOptions::default());
                    plan.sweep(comm, &mut store, &mp, 0, Direction::Forward, &kernel, 100);
                })
            })
        });
    }

    // Execution-strategy sweep at p = 4: per-line vs blocked, both with the
    // identical communication schedule.
    {
        let p = 4u64;
        let mp = Multipartitioning::optimal(
            p,
            &[n as u64, n as u64, n as u64],
            &CostModel::origin2000_like(),
        );
        let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        let grid = TileGrid::new(&eta, &gam);
        for (label, opts) in [
            ("bw1", SweepOptions::new(1)),
            ("bw32", SweepOptions::new(32)),
        ] {
            group.bench_with_input(BenchmarkId::new("opts_48_p4", label), &label, |b, _| {
                b.iter(|| {
                    run_threaded(p, |comm| {
                        let mut store =
                            allocate_rank_store(comm.rank(), &mp, &grid, &[FieldDef::new("u", 0)]);
                        store.init_field(0, |g| (g[0] + g[1] + g[2]) as f64);
                        let mut plan = SolverPlan::new(opts.clone());
                        plan.sweep(comm, &mut store, &mp, 0, Direction::Forward, &kernel, 100);
                    })
                })
            });
        }
    }
    group.finish();

    // Build-once / execute-many: ten identical sweeps through a fresh
    // `CompiledSweep` each time vs one cached `SolverPlan` executed ten
    // times. The gap is the per-sweep plan-build cost the cache amortizes
    // away.
    {
        const SWEEPS: usize = 10;
        let p = 4u64;
        let mp = Multipartitioning::from_partitioning(p, Partitioning::new(vec![4, 2, 2]));
        let peta = [8usize, 64, 64];
        let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        let grid = TileGrid::new(&peta, &gam);
        let opts = SweepOptions::new(16);
        let mut group = c.benchmark_group("compiled_reuse");
        group.throughput(Throughput::Elements(
            (peta.iter().product::<usize>() * SWEEPS) as u64,
        ));
        group.bench_function("fresh_build_per_sweep", |b| {
            b.iter(|| {
                run_threaded(p, |comm| {
                    let mut store =
                        allocate_rank_store(comm.rank(), &mp, &grid, &[FieldDef::new("u", 0)]);
                    store.init_field(0, |g| (g[0] + g[1] + g[2]) as f64);
                    for _ in 0..SWEEPS {
                        let fwd = Direction::Forward;
                        CompiledSweep::build(&mp, comm.rank(), &store, 0, fwd, &kernel, 100, &opts)
                            .execute(comm, &mut store, &kernel);
                    }
                })
            })
        });
        group.bench_function("engine_reuse", |b| {
            b.iter(|| {
                run_threaded(p, |comm| {
                    let mut store =
                        allocate_rank_store(comm.rank(), &mp, &grid, &[FieldDef::new("u", 0)]);
                    store.init_field(0, |g| (g[0] + g[1] + g[2]) as f64);
                    let mut plan = SolverPlan::new(opts.clone());
                    for _ in 0..SWEEPS {
                        plan.sweep(comm, &mut store, &mp, 0, Direction::Forward, &kernel, 100);
                    }
                })
            })
        });
        group.finish();
    }

    // Telemetry overhead smoke: the same p = 4 sweep with the recorder
    // absent (`trace = None`, the default — one branch per probe site, the
    // clock is never read) vs installed. The "disabled" variant is the
    // regression guard: it must track the plain threaded_48 numbers above.
    {
        let p = 4u64;
        let mp = Multipartitioning::optimal(
            p,
            &[n as u64, n as u64, n as u64],
            &CostModel::origin2000_like(),
        );
        let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        let grid = TileGrid::new(&eta, &gam);
        let mut group = c.benchmark_group("telemetry_overhead");
        group.throughput(Throughput::Elements(elems));
        group.sample_size(20);
        for (label, traced) in [("disabled", false), ("enabled", true)] {
            group.bench_with_input(BenchmarkId::new("sweep_48_p4", label), &label, |b, _| {
                b.iter(|| {
                    let epoch = std::time::Instant::now();
                    run_threaded(p, |comm| {
                        if traced {
                            comm.trace =
                                Some(mp_trace::SweepRecorder::with_epoch(comm.rank(), epoch));
                        }
                        let mut store =
                            allocate_rank_store(comm.rank(), &mp, &grid, &[FieldDef::new("u", 0)]);
                        store.init_field(0, |g| (g[0] + g[1] + g[2]) as f64);
                        let mut plan = SolverPlan::new(SweepOptions::default());
                        plan.sweep(comm, &mut store, &mp, 0, Direction::Forward, &kernel, 100);
                        black_box(comm.trace.take().map(|t| t.events().len()))
                    })
                })
            });
        }
        group.finish();
    }

    // Vectorized vs scalar sweep microkernels on identical packed
    // line-minor blocks, per kernel and per line count. nlines = 1 is the degenerate
    // all-tail case (pure scalar either way), 4 is one full lane group, 64
    // and 256 are the steady-state shapes the blocked executor feeds. On
    // hosts without AVX2+FMA only the scalar rows are emitted.
    {
        use mp_core::multipart::Direction;
        use mp_grid::{AlignedVec, Lanes};
        use mp_sweep::recurrence::{LineSweepKernel, SegmentCtx};
        use mp_sweep::simd::{avx2_available, SimdLevel};
        use mp_sweep::{
            PentaBackwardKernel, PentaForwardKernel, ThomasBackwardKernel, ThomasForwardKernel,
        };

        let seg_len = 64usize;
        let levels: &[SimdLevel] = if avx2_available() {
            &[SimdLevel::Avx2, SimdLevel::Scalar]
        } else {
            &[SimdLevel::Scalar]
        };
        let mut group = c.benchmark_group("simd_kernels");
        group.sample_size(30);

        // One line-minor field buffer: element k of line l at k·nl + l.
        let fill = |nl: usize, f: fn(usize, usize) -> f64| -> AlignedVec {
            let mut b = AlignedVec::new();
            b.resize(seg_len * nl, 0.0);
            for k in 0..seg_len {
                for l in 0..nl {
                    b[k * nl + l] = f(k, l);
                }
            }
            b
        };

        for &nl in &[1usize, 4, 64, 256] {
            let fctxs: Vec<SegmentCtx> = (0..nl)
                .map(|_| SegmentCtx::origin(1, 0, Direction::Forward))
                .collect();
            let bctxs: Vec<SegmentCtx> = (0..nl)
                .map(|_| SegmentCtx::origin(1, 0, Direction::Backward))
                .collect();
            let small = |k: usize, l: usize| ((k * 7 + l * 3) % 9) as f64 * 0.1 - 0.4;
            let diag = |k: usize, l: usize| 2.0 + ((k + l) % 5) as f64 * 0.1;
            let rhs = |k: usize, l: usize| ((k * 11 + l * 5) % 17) as f64 - 8.0;
            group.throughput(Throughput::Elements((seg_len * nl) as u64));

            // One benched configuration: (name, kernel, dir, ctxs, block
            // fields, line-major carries).
            type SimdCase<'a> = (
                &'a str,
                &'a dyn LineSweepKernel,
                Direction,
                &'a [SegmentCtx],
                Vec<AlignedVec>,
                Vec<f64>,
            );
            let thomas_fwd = ThomasForwardKernel::new(0, 1, 2, 3);
            let thomas_bwd = ThomasBackwardKernel::new(0, 1);
            let penta_fwd = PentaForwardKernel::new(0, 1, 2, 3, 4, 5);
            let penta_bwd = PentaBackwardKernel::new(0, 1, 2);
            let prefix = PrefixSumKernel::new(0);
            let first = mp_sweep::FirstOrderKernel::new(0, 0.8);
            let cases: Vec<SimdCase> = vec![
                (
                    "thomas_fwd",
                    &thomas_fwd,
                    Direction::Forward,
                    &fctxs,
                    vec![
                        fill(nl, small),
                        fill(nl, diag),
                        fill(nl, small),
                        fill(nl, rhs),
                    ],
                    (0..nl).flat_map(|_| [0.0, 0.0]).collect(),
                ),
                (
                    "thomas_bwd",
                    &thomas_bwd,
                    Direction::Backward,
                    &bctxs,
                    vec![fill(nl, small), fill(nl, rhs)],
                    (0..nl).flat_map(|l| [0.5, (l % 2) as f64]).collect(),
                ),
                (
                    "penta_fwd",
                    &penta_fwd,
                    Direction::Forward,
                    &fctxs,
                    vec![
                        fill(nl, small),
                        fill(nl, small),
                        fill(nl, diag),
                        fill(nl, small),
                        fill(nl, small),
                        fill(nl, rhs),
                    ],
                    vec![0.0; nl * 6],
                ),
                (
                    "penta_bwd",
                    &penta_bwd,
                    Direction::Backward,
                    &bctxs,
                    vec![fill(nl, small), fill(nl, small), fill(nl, rhs)],
                    (0..nl).flat_map(|l| [0.5, -0.5, (l % 3) as f64]).collect(),
                ),
                (
                    "prefix_sum",
                    &prefix,
                    Direction::Forward,
                    &fctxs,
                    vec![fill(nl, rhs)],
                    vec![0.0; nl],
                ),
                (
                    "first_order",
                    &first,
                    Direction::Forward,
                    &fctxs,
                    vec![fill(nl, rhs)],
                    vec![0.0; nl],
                ),
            ];
            for (name, kern, dir, ctxs, block0, carries0) in &cases {
                for &level in levels {
                    group.bench_with_input(
                        BenchmarkId::new(format!("{name}_nl{nl}"), level),
                        &nl,
                        |b, _| {
                            let mut table = Vec::new();
                            b.iter(|| {
                                let mut block = block0.clone();
                                let mut carries = carries0.clone();
                                let mut lanes = Lanes::packed(&mut block, nl, seg_len, &mut table);
                                kern.sweep_lanes(level, *dir, &mut carries, &mut lanes, ctxs);
                                black_box(carries[0])
                            })
                        },
                    );
                }
            }
        }
        group.finish();
    }

    // Cost of producing one simulated data point (Table 1 machinery).
    let mut group = c.benchmark_group("simulated_sweep_replay");
    for &p in &[16u64, 50, 81] {
        let mp = Multipartitioning::optimal(p, &[102, 102, 102], &CostModel::origin2000_like());
        let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        let grid = TileGrid::new(&[102, 102, 102], &gam);
        let geo = MultipartGeometry::new(&mp, &grid);
        group.bench_with_input(BenchmarkId::new("class_b_sweep", p), &p, |b, &p| {
            b.iter(|| {
                let mut net = SimNet::new(
                    p,
                    mp_core::machine::MachineProfile::sp_origin2000().cost_model(),
                );
                simulate_multipart_sweep(&mut net, &geo, 0, &SweepWork::default(), 0);
                black_box(net.makespan())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
