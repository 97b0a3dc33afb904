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
        let opts = SweepOptions::default();
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

    // Vectorized vs scalar sweep microkernels on identical inputs, per
    // kernel and per lane count. Before a case is timed it runs once at
    // every level, and its fields and carries must agree bit for bit: an
    // AVX2/scalar divergence panics the bench. The recurrence rows sweep
    // packed line-minor blocks of 64 elements: nlines = 1 is the
    // degenerate all-tail case (pure scalar either way), 4 is one full lane
    // group, 64 and 256 are large rows. The 5×5 block rows sweep BT lines
    // of 24 at 4 lanes and at 12 (a bt-24-p2 tile row), packed and
    // lane-strided (each lane contiguous, lanes a padded row apart: a
    // sweep along the unit-stride axis). On hosts without AVX2+FMA only
    // the scalar rows are emitted.
    {
        use mp_core::multipart::Direction;
        use mp_grid::{AlignedVec, Lanes};
        use mp_nasbt::{BtProblem, NCOMP};
        use mp_sweep::recurrence::{LineSweepKernel, SegmentCtx};
        use mp_sweep::simd::{avx2_available, SimdLevel};
        use mp_sweep::{
            BlockTriBackwardKernel, BlockTriForwardKernel, PentaBackwardKernel, PentaForwardKernel,
            ThomasBackwardKernel, ThomasForwardKernel,
        };

        let levels: &[SimdLevel] = if avx2_available() {
            &[SimdLevel::Avx2, SimdLevel::Scalar]
        } else {
            &[SimdLevel::Scalar]
        };
        let mut group = c.benchmark_group("simd_kernels");
        group.sample_size(30);

        /// Where lane `l`'s element `k` sits in a case's field buffers:
        /// packed line-minor (`k·nl + l`) or lane-strided (`l·(n + 3) + k`,
        /// three padding elements per row).
        #[derive(Clone, Copy)]
        enum Layout {
            Packed,
            Strided,
        }
        impl Layout {
            /// `(stride, lane_stride, buffer length)` for `nl` lanes of `n`.
            fn geometry(self, nl: usize, n: usize) -> (isize, isize, usize) {
                match self {
                    Layout::Packed => (nl as isize, 1, nl * n),
                    Layout::Strided => (1, (n + 3) as isize, nl * (n + 3)),
                }
            }
        }

        /// One benched configuration.
        struct SimdCase<'a> {
            name: String,
            kernel: &'a dyn LineSweepKernel,
            dir: Direction,
            ctxs: Vec<SegmentCtx>,
            layout: Layout,
            nl: usize,
            seg_len: usize,
            fields: Vec<AlignedVec>,
            carries: Vec<f64>,
        }
        impl SimdCase<'_> {
            /// Sweep `fields` and `carries` at `level` through a view of
            /// the case's layout; `table` is reused view scratch.
            fn sweep(
                &self,
                level: SimdLevel,
                fields: &mut [AlignedVec],
                carries: &mut [f64],
                table: &mut Vec<mp_grid::LaneField>,
            ) {
                let (stride, lane_stride, _) = self.layout.geometry(self.nl, self.seg_len);
                let parts = fields
                    .iter_mut()
                    .map(|b| (b.as_mut_ptr(), b.len(), 0, stride, lane_stride));
                // SAFETY: every buffer is exclusively borrowed for the call,
                // and `from_raw` checks the view against its length.
                let mut lanes = unsafe { Lanes::from_raw(parts, self.nl, self.seg_len, table) };
                self.kernel
                    .sweep_lanes(level, self.dir, carries, &mut lanes, &self.ctxs);
            }
        }

        // A field buffer of the layout: element k of lane l is f(k, l),
        // padding NaN.
        let fill = |layout: Layout, nl: usize, n: usize, f: &dyn Fn(usize, usize) -> f64| {
            let (stride, lane_stride, len) = layout.geometry(nl, n);
            let mut b = AlignedVec::new();
            b.resize(len, f64::NAN);
            for k in 0..n {
                for l in 0..nl {
                    b[(k as isize * stride + l as isize * lane_stride) as usize] = f(k, l);
                }
            }
            b
        };
        let small = |k: usize, l: usize| ((k * 7 + l * 3) % 9) as f64 * 0.1 - 0.4;
        let diag = |k: usize, l: usize| 2.0 + ((k + l) % 5) as f64 * 0.1;
        let rhs = |k: usize, l: usize| ((k * 11 + l * 5) % 17) as f64 - 8.0;

        let thomas_fwd = ThomasForwardKernel::new(0, 1, 2, 3);
        let thomas_bwd = ThomasBackwardKernel::new(0, 1);
        let penta_fwd = PentaForwardKernel::new(0, 1, 2, 3, 4, 5);
        let penta_bwd = PentaBackwardKernel::new(0, 1, 2);
        let prefix = PrefixSumKernel::new(0);
        let first = mp_sweep::FirstOrderKernel::new(0, 0.8);
        let bt = BtProblem::new([24, 24, 24], 0.0015);
        let scratch: Vec<usize> = (0..NCOMP * NCOMP).collect();
        let bt_rhs: Vec<usize> = (NCOMP * NCOMP..NCOMP * NCOMP + NCOMP).collect();
        let block_fwd = BlockTriForwardKernel::<NCOMP, _>::new(bt, &scratch, &bt_rhs);
        let block_bwd = BlockTriBackwardKernel::<NCOMP>::new(&scratch, &bt_rhs);

        let mut cases: Vec<SimdCase> = Vec::new();
        let seg_len = 64usize;
        for &nl in &[1usize, 4, 64, 256] {
            let origin = |dir| -> Vec<SegmentCtx> {
                (0..nl).map(|_| SegmentCtx::origin(1, 0, dir)).collect()
            };
            let (fwd, bwd) = (Direction::Forward, Direction::Backward);
            let f = |g: &dyn Fn(usize, usize) -> f64| fill(Layout::Packed, nl, seg_len, g);
            let mut case = |name: &str, kernel, dir, fields, carries| {
                cases.push(SimdCase {
                    name: format!("{name}_nl{nl}"),
                    kernel,
                    dir,
                    ctxs: origin(dir),
                    layout: Layout::Packed,
                    nl,
                    seg_len,
                    fields,
                    carries,
                })
            };
            case(
                "thomas_fwd",
                &thomas_fwd,
                fwd,
                vec![f(&small), f(&diag), f(&small), f(&rhs)],
                vec![0.0; nl * 2],
            );
            case(
                "thomas_bwd",
                &thomas_bwd,
                bwd,
                vec![f(&small), f(&rhs)],
                (0..nl).flat_map(|l| [0.5, (l % 2) as f64]).collect(),
            );
            case(
                "penta_fwd",
                &penta_fwd,
                fwd,
                vec![
                    f(&small),
                    f(&small),
                    f(&diag),
                    f(&small),
                    f(&small),
                    f(&rhs),
                ],
                vec![0.0; nl * 6],
            );
            case(
                "penta_bwd",
                &penta_bwd,
                bwd,
                vec![f(&small), f(&small), f(&rhs)],
                (0..nl).flat_map(|l| [0.5, -0.5, (l % 3) as f64]).collect(),
            );
            case("prefix_sum", &prefix, fwd, vec![f(&rhs)], vec![0.0; nl]);
            case("first_order", &first, fwd, vec![f(&rhs)], vec![0.0; nl]);
        }
        // BT block lines: whole lines of 24 along axis 0, lanes at distinct
        // cross-section points (so their coupling classes differ).
        for &nl in &[4usize, 12] {
            for (layout, tag) in [(Layout::Packed, ""), (Layout::Strided, "_strided")] {
                let n = 24;
                let ctxs = |dir: Direction, first: usize| -> Vec<SegmentCtx> {
                    (0..nl)
                        .map(|l| SegmentCtx::new(vec![first, l, (3 * l) % 24], 0, dir))
                        .collect()
                };
                let f = |g: &dyn Fn(usize, usize) -> f64| fill(layout, nl, n, g);
                let fields = || -> Vec<AlignedVec> {
                    (0..NCOMP * NCOMP)
                        .map(|_| f(&small))
                        .chain((0..NCOMP).map(|_| f(&rhs)))
                        .collect()
                };
                cases.push(SimdCase {
                    name: format!("block_fwd{tag}_nl{nl}"),
                    kernel: &block_fwd,
                    dir: Direction::Forward,
                    ctxs: ctxs(Direction::Forward, 0),
                    layout,
                    nl,
                    seg_len: n,
                    fields: fields(),
                    carries: vec![0.0; nl * (NCOMP * NCOMP + NCOMP)],
                });
                cases.push(SimdCase {
                    name: format!("block_bwd{tag}_nl{nl}"),
                    kernel: &block_bwd,
                    dir: Direction::Backward,
                    ctxs: ctxs(Direction::Backward, n - 1),
                    layout,
                    nl,
                    seg_len: n,
                    fields: fields(),
                    carries: vec![0.0; nl * (NCOMP + 1)],
                });
            }
        }

        let bits = |fields: &[AlignedVec], carries: &[f64]| -> (Vec<Vec<u64>>, Vec<u64>) {
            let fields = fields
                .iter()
                .map(|b| b.iter().map(|v| v.to_bits()).collect())
                .collect();
            (fields, carries.iter().map(|v| v.to_bits()).collect())
        };
        for case in &cases {
            let mut table = Vec::new();
            let outputs: Vec<_> = levels
                .iter()
                .map(|&level| {
                    let (mut fields, mut carries) = (case.fields.clone(), case.carries.clone());
                    case.sweep(level, &mut fields, &mut carries, &mut table);
                    bits(&fields, &carries)
                })
                .collect();
            assert!(
                outputs.windows(2).all(|w| w[0] == w[1]),
                "{}: SIMD levels disagree",
                case.name
            );
            group.throughput(Throughput::Elements((case.seg_len * case.nl) as u64));
            // Each iteration restores the inputs into buffers allocated
            // once, so a row times the sweep plus one copy of its fields.
            let (mut fields, mut carries) = (case.fields.clone(), case.carries.clone());
            for &level in levels {
                group.bench_with_input(BenchmarkId::new(&case.name, level), &level, |b, _| {
                    b.iter(|| {
                        for (f, f0) in fields.iter_mut().zip(&case.fields) {
                            f.copy_from_slice(f0);
                        }
                        carries.copy_from_slice(&case.carries);
                        case.sweep(level, &mut fields, &mut carries, &mut table);
                        black_box(carries[0])
                    })
                });
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
                let mut net = SimNet::new(p, CostModel::sp_origin2000());
                simulate_multipart_sweep(&mut net, &geo, 0, &SweepWork::default(), 0);
                black_box(net.makespan())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
