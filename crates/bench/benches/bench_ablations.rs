//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **message aggregation** (the neighbor property's payoff): one
//!   aggregated message per rank per phase vs one message per tile;
//! * **wavefront granularity**: the §1 pipeline fill/drain vs overhead
//!   trade-off, simulated across chunk sizes;
//! * **drop-back**: simulated SP time at 49 vs 50 CPUs.
//!
//! These measure *simulated time as the metric*, so the "benchmark" reports
//! the wall-clock of computing it; the interesting outputs are printed once
//! per run for inspection.

use mp_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_grid::TileGrid;
use mp_runtime::sim::SimNet;
use mp_sweep::baselines::BlockUnipartition;
use mp_sweep::simulate::{
    simulate_multipart_sweep, simulate_multipart_sweep_unaggregated, simulate_wavefront_sweep,
    MultipartGeometry, SweepWork,
};
use std::hint::black_box;
use std::sync::Once;

static PRINT_ONCE: Once = Once::new();

fn bench_ablations(c: &mut Criterion) {
    let machine = CostModel::sp_origin2000();
    let work = SweepWork {
        work_per_element: 6.0,
        carry_len: 10,
    };

    // Aggregation ablation on p = 8, (4,4,2), dim with 2 tiles/rank/slab.
    let mp = Multipartitioning::optimal(8, &[102, 102, 102], &CostModel::origin2000_like());
    let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
    let grid = TileGrid::new(&[102, 102, 102], &gam);
    let geo = MultipartGeometry::new(&mp, &grid);
    let dim = (0..3)
        .find(|&d| mp.tiles_per_proc_per_slab(d) > 1)
        .unwrap_or(0);

    PRINT_ONCE.call_once(|| {
        let mut agg = SimNet::new(8, machine);
        simulate_multipart_sweep(&mut agg, &geo, dim, &work, 0);
        let mut una = SimNet::new(8, machine);
        simulate_multipart_sweep_unaggregated(&mut una, &mp, &grid, dim, &work, 0);
        eprintln!(
            "[ablation] aggregation: {:.4e}s / {} msgs  vs unaggregated {:.4e}s / {} msgs",
            agg.makespan(),
            agg.stats.messages,
            una.makespan(),
            una.stats.messages
        );
        let part = BlockUnipartition::new(16, &[102, 102, 102], 0);
        for g in [1usize, 16, 128, 1024, 10404] {
            let mut net = SimNet::new(16, machine);
            simulate_wavefront_sweep(&mut net, &part, &work, g, 0);
            eprintln!(
                "[ablation] wavefront granularity {g:>5}: {:.4e}s ({} msgs)",
                net.makespan(),
                net.stats.messages
            );
        }
    });

    let mut group = c.benchmark_group("ablation_aggregation");
    group.bench_function("aggregated", |b| {
        b.iter(|| {
            let mut net = SimNet::new(8, machine);
            simulate_multipart_sweep(&mut net, &geo, black_box(dim), &work, 0);
            net.makespan()
        })
    });
    group.bench_function("per_tile", |b| {
        b.iter(|| {
            let mut net = SimNet::new(8, machine);
            simulate_multipart_sweep_unaggregated(&mut net, &mp, &grid, black_box(dim), &work, 0);
            net.makespan()
        })
    });
    group.finish();

    let mut group = c.benchmark_group("ablation_wavefront_granularity");
    let part = BlockUnipartition::new(16, &[102, 102, 102], 0);
    for &g in &[1usize, 16, 128, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(g), &g, |b, &g| {
            b.iter(|| {
                let mut net = SimNet::new(16, machine);
                simulate_wavefront_sweep(&mut net, &part, &work, black_box(g), 0);
                net.makespan()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
