//! Randomized property tests on the core invariants.

use mp_testkit::{cases, Rng};
use multipartition::core::modmap::ModularMapping;
use multipartition::core::partition::{elementary_partitionings, factor_distributions};
use multipartition::core::search::optimal_partitioning;
use multipartition::prelude::*;

/// Lemma 1 invariant: every generated factor distribution has total
/// r + m with the max m attained in ≥ 2 bins, and all are distinct.
#[test]
fn figure2_invariants() {
    cases(0xf1f2, 64, |rng| {
        let r = rng.next_u64() as u32 % 8 + 1;
        let d = rng.usize_in(2, 5);
        let dists = factor_distributions(r, d);
        let mut seen = std::collections::BTreeSet::new();
        for e in &dists {
            let total: u32 = e.iter().sum();
            let m = *e.iter().max().unwrap();
            assert_eq!(total, r + m);
            assert!(e.iter().filter(|&&x| x == m).count() >= 2);
            assert!(seen.insert(e.clone()));
        }
        assert!(!dists.is_empty());
    });
}

/// Every elementary partitioning is valid, and the optimal search
/// returns one of them with the minimum objective.
#[test]
fn search_returns_minimum() {
    cases(0x5e41, 64, |rng| {
        let p = rng.u64_in(2, 149);
        let lambdas = [
            rng.f64_in(0.1, 10.0),
            rng.f64_in(0.1, 10.0),
            rng.f64_in(0.1, 10.0),
        ];
        let res = optimal_partitioning(p, &lambdas);
        assert!(res.partitioning.is_valid(p));
        let min = elementary_partitionings(p, 3)
            .iter()
            .map(|pt| {
                pt.gammas
                    .iter()
                    .zip(lambdas.iter())
                    .map(|(&g, &l)| g as f64 * l)
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min);
        assert!((res.objective - min).abs() <= 1e-9 * min.max(1.0));
    });
}

/// The Figure 3 construction yields load-balanced, neighbor-respecting
/// mappings for random elementary partitionings.
#[test]
fn mapping_properties_random() {
    cases(0x3a99, 64, |rng| {
        let p = rng.u64_in(2, 35);
        let parts = elementary_partitionings(p, 3);
        let pt = &parts[rng.usize_in(0, parts.len() - 1)];
        if pt.total_tiles() > 40_000 {
            return;
        }
        let map = ModularMapping::construct(p, &pt.gammas);
        assert!(map.check_load_balance().is_ok());
        assert!(map.check_neighbor_property().is_ok());
    });
}

/// Thomas solver: residual of a random diagonally dominant system
/// vanishes.
#[test]
fn thomas_residual() {
    cases(0x7803, 64, |rng| {
        let n = rng.usize_in(1, 127);
        let mut next = {
            let mut r = Rng::new(rng.next_u64());
            move || r.f64_in(-1.0, 1.0)
        };
        let a: Vec<f64> = (0..n)
            .map(|k| if k == 0 { 0.0 } else { next() * 0.45 })
            .collect();
        let c: Vec<f64> = (0..n)
            .map(|k| if k == n - 1 { 0.0 } else { next() * 0.45 })
            .collect();
        let b: Vec<f64> = (0..n).map(|k| 1.0 + a[k].abs() + c[k].abs()).collect();
        let rhs: Vec<f64> = (0..n).map(|_| next() * 5.0).collect();
        let x = multipartition::sweep::thomas_solve(&a, &b, &c, &rhs);
        let back = multipartition::sweep::thomas::tridiag_matvec(&a, &b, &c, &x);
        for (u, v) in back.iter().zip(rhs.iter()) {
            assert!(
                (u - v).abs() < 1e-8,
                "residual {} at n={}",
                (u - v).abs(),
                n
            );
        }
    });
}

/// Tile grids cover the domain exactly (no gaps, no overlaps), even for
/// ragged cuts.
#[test]
fn tile_grid_partitions_domain() {
    cases(0x711e, 64, |rng| {
        let (e0, e1) = (rng.usize_in(1, 19), rng.usize_in(1, 19));
        let (g0, g1) = (rng.usize_in(1, e0.min(5)), rng.usize_in(1, e1.min(5)));
        let grid = TileGrid::new(&[e0, e1], &[g0, g1]);
        let mut count = vec![0u32; e0 * e1];
        for a in 0..g0 {
            for b in 0..g1 {
                let r = grid.tile_region(&[a, b]);
                Shape::new(&r.extent).for_each_index(|rel| {
                    count[(r.origin[0] + rel[0]) * e1 + r.origin[1] + rel[1]] += 1;
                });
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    });
}

/// Neighbor ranks are mutually inverse permutations.
#[test]
fn neighbor_permutation() {
    cases(0x4e16, 38, |rng| {
        let p = rng.u64_in(2, 39);
        let mp = Multipartitioning::optimal(p, &[64, 64, 64], &CostModel::origin2000_like());
        for dim in 0..3 {
            let mut seen = vec![false; p as usize];
            for r in 0..p {
                let f = mp.neighbor_rank(r, dim, 1);
                assert!(!seen[f as usize]);
                seen[f as usize] = true;
                assert_eq!(mp.neighbor_rank(f, dim, -1), r);
            }
        }
    });
}

/// The analytic total time is consistent: T(p) decreases (or holds)
/// when latency is free, compute dominates, and p doubles.
#[test]
fn more_processors_help_when_compute_bound() {
    cases(0xc0b0, 39, |rng| {
        let p = rng.u64_in(1, 39);
        let model = CostModel {
            k1: 1.0,
            k2: 1e-12,
            k3: 1e-12,
            scaling: BandwidthScaling::Scalable,
        };
        let eta = [128u64, 128, 128];
        let t1 = model.total_time(p, &eta, &optimal_for(p, &eta, &model).partitioning);
        let t2 = model.total_time(2 * p, &eta, &optimal_for(2 * p, &eta, &model).partitioning);
        assert!(t2 < t1);
    });
}
