//! Randomized property tests for the modular-mapping machinery (in-crate,
//! beyond the unit suites): random valid partitionings in 2–4 dimensions,
//! random axis permutations, and the direct-vs-scan enumeration equivalence.

use mp_core::modmap::ModularMapping;
use mp_core::partition::{elementary_partitionings, Partitioning};
use mp_testkit::{cases, Rng};

/// Random (p, elementary γ) pair with a bounded tile grid.
fn instance(rng: &mut Rng, d: usize) -> (u64, Vec<u64>) {
    loop {
        let p = rng.u64_in(2, 39);
        let parts = elementary_partitionings(p, d);
        let pt = &parts[rng.usize_in(0, parts.len() - 1)];
        if pt.total_tiles() <= 8_000 {
            return (p, pt.gammas.clone());
        }
    }
}

#[test]
fn construction_properties_2d() {
    cases(0x2d2d, 48, |rng| {
        let (p, g) = instance(rng, 2);
        let map = ModularMapping::construct(p, &g);
        assert!(map.check_load_balance().is_ok());
        assert!(map.check_neighbor_property().is_ok());
    });
}

#[test]
fn construction_properties_3d() {
    cases(0x3d3d, 48, |rng| {
        let (p, g) = instance(rng, 3);
        let map = ModularMapping::construct(p, &g);
        assert!(map.check_load_balance().is_ok());
        assert!(map.check_neighbor_property().is_ok());
    });
}

#[test]
fn construction_properties_4d() {
    cases(0x4d4d, 48, |rng| {
        let (p, g) = instance(rng, 4);
        let map = ModularMapping::construct(p, &g);
        assert!(map.check_load_balance().is_ok());
        assert!(map.check_neighbor_property().is_ok());
    });
}

#[test]
fn direct_enumeration_equals_scan() {
    cases(0xd15c, 48, |rng| {
        let (p, g) = instance(rng, 3);
        let map = ModularMapping::construct(p, &g);
        for proc in 0..p {
            assert_eq!(map.tiles_of_direct(proc), map.tiles_of_scan(proc));
        }
    });
}

#[test]
fn permuted_construction_properties() {
    cases(0x9e41, 48, |rng| {
        let (p, g) = instance(rng, 3);
        // Random transposition applied as pre-permutation.
        let (a, b) = (rng.usize_in(0, 2), rng.usize_in(0, 2));
        let mut perm: Vec<usize> = (0..3).collect();
        perm.swap(a, b);
        let map = ModularMapping::construct_permuted(p, &g, &perm);
        assert!(map.check_load_balance().is_ok());
        assert!(map.check_neighbor_property().is_ok());
        assert_eq!(&map.b, &g);
    });
}

#[test]
fn proc_ids_cover_exactly_p() {
    cases(0xc0fe, 48, |rng| {
        let (p, g) = instance(rng, 3);
        let map = ModularMapping::construct(p, &g);
        let mut seen = vec![false; p as usize];
        map.for_each_tile(|t| {
            seen[map.proc_id(t) as usize] = true;
        });
        assert!(seen.iter().all(|&s| s), "some processor owns nothing");
    });
}

#[test]
fn validity_is_permutation_invariant() {
    cases(0x7a11, 48, |rng| {
        let p = rng.u64_in(2, 59);
        let parts = elementary_partitionings(p, 3);
        let g = parts[rng.usize_in(0, parts.len() - 1)].gammas.clone();
        for perm in [[0usize, 1, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let pg: Vec<u64> = perm.iter().map(|&k| g[k]).collect();
            assert!(Partitioning::new(pg).is_valid(p));
        }
    });
}
