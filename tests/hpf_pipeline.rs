//! Directive-to-execution integration: an HPF-style program is parsed,
//! compiled to a multipartitioning, and the resulting layout actually
//! executes a distributed sweep bit-identically to serial — the full §5
//! tool-chain in miniature.

use multipartition::core::multipart::Direction;
use multipartition::hpf::{compile, parse, Layout};
use multipartition::prelude::*;
use multipartition::sweep::verify::serial_sweep;

#[test]
fn directives_drive_a_real_sweep() {
    let program = parse(
        "PROCESSORS P(6)\n\
         TEMPLATE T(12, 12, 12)\n\
         ALIGN U WITH T\n\
         DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P\n",
    )
    .unwrap();
    let compiled = compile(&program).unwrap();
    let t = compiled.template_of("U").unwrap();
    let mp = match &t.layout {
        Layout::Multipartitioned { mp, .. } => mp.clone(),
        other => panic!("expected MULTI layout, got {other:?}"),
    };
    mp.verify().unwrap();

    let eta = [12usize, 12, 12];
    let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
    let grid = TileGrid::new(&eta, &gam);
    let kernel = PrefixSumKernel::new(0);
    let init = |g: &[usize]| (g[0] * 3 + g[1] * 5 + g[2] * 7) as f64 % 11.0 - 5.0;

    let results = run_threaded(6, |comm| {
        let mut store = multipartition::sweep::allocate_rank_store(
            comm.rank(),
            &mp,
            &grid,
            &[FieldDef::new("u", 0)],
        );
        store.init_field(0, init);
        let mut plan = SolverPlan::new(SweepOptions::default());
        plan.sweep(comm, &mut store, &mp, 1, Direction::Forward, &kernel, 7);
        store
    });
    let mut global = ArrayD::zeros(&eta);
    for store in &results {
        store.gather_into(0, &mut global);
    }
    let mut want = ArrayD::from_fn(&eta, init);
    serial_sweep(&mut [&mut want], 1, Direction::Forward, &kernel);
    assert_eq!(global.max_abs_diff(&want), 0.0);
}

#[test]
fn compiled_plan_matches_direct_construction() {
    // The compiled sweep plan must equal what SweepPlan::build produces on
    // the same multipartitioning (the compiler adds no magic).
    let program = parse(
        "PROCESSORS P(8)\n\
         TEMPLATE T(32, 32, 16)\n\
         ALIGN A WITH T\n\
         DISTRIBUTE T(MULTI, MULTI, MULTI) ONTO P\n",
    )
    .unwrap();
    let compiled = compile(&program).unwrap();
    let t = compiled.template_of("A").unwrap();
    let mp = match &t.layout {
        Layout::Multipartitioned { mp, .. } => mp.clone(),
        _ => unreachable!(),
    };
    for dim in 0..3 {
        let via_compiler = compiled.sweep_plan("A", dim, Direction::Forward).unwrap();
        let direct = SweepPlan::build(&mp, dim, Direction::Forward);
        assert_eq!(via_compiler, direct, "dim {dim}");
        via_compiler.validate(&mp).unwrap();
    }
}

#[test]
fn partial_multi_runs_local_dimension() {
    // MULTI on dims {0, 2}: dim 1 sweeps are local; the compiled 2-D
    // multipartitioning still executes correctly over the full 3-D data.
    let program = parse(
        "PROCESSORS P(4)\n\
         TEMPLATE T(8, 6, 8)\n\
         ALIGN A WITH T\n\
         DISTRIBUTE T(MULTI, *, MULTI) ONTO P\n",
    )
    .unwrap();
    let compiled = compile(&program).unwrap();
    match &compiled.template_of("A").unwrap().layout {
        Layout::Multipartitioned { multi_dims, mp } => {
            assert_eq!(multi_dims.as_slice(), &[0, 2]);
            assert_eq!(mp.gammas(), &[4, 4]);
            assert!(compiled.sweep_plan("A", 1, Direction::Forward).is_none());
            assert!(compiled.sweep_plan("A", 0, Direction::Backward).is_some());
        }
        other => panic!("unexpected layout {other:?}"),
    }
}
