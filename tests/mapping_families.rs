//! Cross-family mapping comparisons at the umbrella level: the Figure 3
//! construction, the diagonal form, axis-permuted variants and Gray-coded
//! Bruno–Cappello are *different* legal mappings of the same shapes — all
//! balanced, all neighbor-respecting, and all equally valid inputs to the
//! sweep executor.

use multipartition::core::modmap::ModularMapping;
use multipartition::core::multipart::Direction;
use multipartition::core::topology::GrayCodeMapping;
use multipartition::prelude::*;
use multipartition::sweep::verify::serial_sweep;

#[test]
fn five_mapping_families_for_p16() {
    // Shape (4,4,4) on p = 16 admits at least these distinct legal mappings.
    let figure3 = ModularMapping::construct(16, &[4, 4, 4]);
    let diagonal = ModularMapping::diagonal(4, 3);
    let permuted = ModularMapping::construct_permuted(16, &[4, 4, 4], &[2, 0, 1]);
    let gray = GrayCodeMapping::new(2);

    for (name, map) in [
        ("figure3", &figure3),
        ("diagonal", &diagonal),
        ("permuted", &permuted),
    ] {
        map.check_load_balance()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        map.check_neighbor_property()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    gray.check_balance().unwrap();

    // The families genuinely differ somewhere on the grid.
    let mut any_diff = false;
    figure3.for_each_tile(|t| {
        if figure3.proc_id(t) != diagonal.proc_id(t)
            || diagonal.proc_id(t) != gray.proc_of(t[0], t[1], t[2])
        {
            any_diff = true;
        }
    });
    assert!(any_diff, "expected the mapping families to differ");
}

#[test]
fn any_legal_mapping_drives_the_executor_identically() {
    // §4: "The solution we build is one particular assignment, out of a set
    // of legal mappings" — and results cannot depend on which legal mapping
    // is chosen. Run the same sweep under three different mappings of the
    // same shape and demand bit-identical global results.
    let eta = [8usize, 8, 8];
    let kernel = FirstOrderKernel::new(0, 0.6);
    let init = |g: &[usize]| ((g[0] * 5 + g[1] * 3 + g[2]) % 13) as f64 - 6.0;

    let mut outcomes = Vec::new();
    for mapping in [
        ModularMapping::construct(16, &[4, 4, 4]),
        ModularMapping::diagonal(4, 3),
        ModularMapping::construct_permuted(16, &[4, 4, 4], &[1, 2, 0]),
    ] {
        let mp = Multipartitioning {
            p: 16,
            partitioning: Partitioning::new(vec![4, 4, 4]),
            mapping,
        };
        let grid = TileGrid::new(&eta, &[4, 4, 4]);
        let results = run_threaded(16, |comm| {
            let mut store = multipartition::sweep::allocate_rank_store(
                comm.rank(),
                &mp,
                &grid,
                &[FieldDef::new("u", 0)],
            );
            store.init_field(0, init);
            let mut plan = SolverPlan::new(SweepOptions::default());
            plan.sweep(comm, &mut store, &mp, 1, Direction::Forward, &kernel, 1);
            store
        });
        let mut global = ArrayD::zeros(&eta);
        for store in &results {
            store.gather_into(0, &mut global);
        }
        outcomes.push(global);
    }
    let mut want = ArrayD::from_fn(&eta, init);
    serial_sweep(&mut [&mut want], 1, Direction::Forward, &kernel);
    for (k, got) in outcomes.iter().enumerate() {
        assert_eq!(got.max_abs_diff(&want), 0.0, "mapping family {k} diverged");
    }
}
