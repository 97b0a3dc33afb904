//! End-to-end integration: cost-model search → modular mapping → threaded
//! distributed sweep → bit-exact verification against serial, across many
//! processor counts and domain shapes.

use multipartition::core::multipart::Direction;
use multipartition::prelude::*;
use multipartition::sweep::verify::serial_sweep;

fn init(g: &[usize]) -> f64 {
    ((g.iter()
        .enumerate()
        .map(|(k, &v)| (3 * k + 1) * v)
        .sum::<usize>())
        % 29) as f64
        - 14.0
}

/// Run the full pipeline for (p, eta) and check every dimension & direction.
fn check_pipeline(p: u64, eta: &[usize]) {
    let eta_u: Vec<u64> = eta.iter().map(|&e| e as u64).collect();
    let model = CostModel::origin2000_like();
    let mp = Multipartitioning::optimal(p, &eta_u, &model);
    assert!(mp.partitioning.is_valid(p), "search produced invalid γ");
    mp.verify().expect("balance + neighbor properties");

    let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
    // Skip configurations that over-cut the domain.
    if gam.iter().zip(eta.iter()).any(|(&g, &e)| g > e) {
        return;
    }
    let grid = TileGrid::new(eta, &gam);
    let kernel = FirstOrderKernel::new(0, 0.75);
    for dim in 0..eta.len() {
        for dir in [Direction::Forward, Direction::Backward] {
            let results = run_threaded(p, |comm| {
                let mut store = multipartition::sweep::allocate_rank_store(
                    comm.rank(),
                    &mp,
                    &grid,
                    &[FieldDef::new("u", 0)],
                );
                store.init_field(0, init);
                let mut plan = SolverPlan::new(SweepOptions::default());
                plan.sweep(comm, &mut store, &mp, dim, dir, &kernel, 42);
                store
            });
            let mut global = ArrayD::zeros(eta);
            for store in &results {
                store.gather_into(0, &mut global);
            }
            let mut want = ArrayD::from_fn(eta, init);
            serial_sweep(&mut [&mut want], dim, dir, &kernel);
            assert_eq!(
                global.max_abs_diff(&want),
                0.0,
                "p={p} eta={eta:?} dim={dim} {dir:?} diverged"
            );
        }
    }
}

#[test]
fn pipeline_small_counts_3d() {
    for p in [2u64, 3, 4, 5, 6] {
        check_pipeline(p, &[12, 12, 12]);
    }
}

#[test]
fn pipeline_medium_counts_3d() {
    for p in [8u64, 9, 10, 12] {
        check_pipeline(p, &[12, 18, 24]);
    }
}

#[test]
fn pipeline_2d() {
    for p in [2u64, 3, 4, 6] {
        check_pipeline(p, &[18, 12]);
    }
}

#[test]
fn pipeline_4d() {
    check_pipeline(4, &[8, 8, 8, 8]);
    check_pipeline(6, &[6, 6, 12, 12]);
}

#[test]
fn pipeline_skewed_domains() {
    // Skewed extents steer the search toward lower-dimensional cuts; the
    // executor must handle γ_i = 1 dimensions (fully local sweeps).
    check_pipeline(4, &[32, 32, 4]);
    check_pipeline(6, &[48, 24, 6]);
}

#[test]
fn pipeline_prime_p() {
    // p = 7 forces γ like (7,7,1): two dims of 7 slabs, one local.
    check_pipeline(7, &[14, 14, 14]);
}

#[test]
fn halo_then_sweep_pipeline() {
    // A stencil + sweep iteration (the SP pattern) over a generalized
    // multipartitioning, verified against a serial version.
    let p = 6u64;
    let eta = [12usize, 12, 12];
    let mp = Multipartitioning::optimal(p, &[12, 12, 12], &CostModel::origin2000_like());
    let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
    let grid = TileGrid::new(&eta, &gam);
    let kernel = PrefixSumKernel::new(0);

    let results = run_threaded(p, |comm| {
        let mut store = multipartition::sweep::allocate_rank_store(
            comm.rank(),
            &mp,
            &grid,
            &[FieldDef::new("u", 1)],
        );
        store.init_field(0, init);
        let mut plan = SolverPlan::new(SweepOptions::default());
        plan.exchange_halos(comm, &mut store, &mp, 0, 1, 9_000);
        // stencil: u += 0.1 * (sum of 6 neighbors) using ghosts
        for tile in &mut store.tiles {
            let ext = tile.field(0).interior().to_vec();
            let arr = tile.field_mut(0);
            let mut updates = Vec::new();
            for i in 0..ext[0] {
                for j in 0..ext[1] {
                    for k in 0..ext[2] {
                        let s = [i as isize, j as isize, k as isize];
                        let mut acc = 0.0;
                        for dim in 0..3 {
                            let mut lo = s;
                            lo[dim] -= 1;
                            let mut hi = s;
                            hi[dim] += 1;
                            acc += arr.get(&lo) + arr.get(&hi);
                        }
                        updates.push(([i, j, k], arr.get(&s) + 0.1 * acc));
                    }
                }
            }
            for (idx, v) in updates {
                arr.set_i(&idx, v);
            }
        }
        plan.sweep(comm, &mut store, &mp, 1, Direction::Forward, &kernel, 77);
        store
    });
    let mut global = ArrayD::zeros(&eta);
    for store in &results {
        store.gather_into(0, &mut global);
    }

    // Serial reference.
    let u0 = ArrayD::from_fn(&eta, init);
    let mut want = ArrayD::from_fn(&eta, |g| {
        let mut acc = 0.0;
        for dim in 0..3 {
            if g[dim] > 0 {
                let mut gg = g.to_vec();
                gg[dim] -= 1;
                acc += u0.get(&gg);
            }
            if g[dim] + 1 < eta[dim] {
                let mut gg = g.to_vec();
                gg[dim] += 1;
                acc += u0.get(&gg);
            }
        }
        u0.get(g) + 0.1 * acc
    });
    serial_sweep(&mut [&mut want], 1, Direction::Forward, &kernel);
    assert_eq!(global.max_abs_diff(&want), 0.0);
}
