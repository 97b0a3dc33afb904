//! Randomized property tests: segmented solver kernels equal their
//! whole-line direct counterparts for *random* systems and *random*
//! segmentations — the invariant that makes distributed sweeps bit-exact.

use crate::penta::{penta_matvec, penta_solve, PentaBackwardKernel, PentaForwardKernel};
use crate::recurrence::{LineSweepKernel, SegmentCtx};
use crate::thomas::{thomas_solve, tridiag_matvec, ThomasBackwardKernel, ThomasForwardKernel};
use mp_core::multipart::Direction;
use mp_testkit::{cases, Rng};

// Field initializers of the executor tests, keeping tridiagonal and
// pentadiagonal sweeps away from zero pivots: off-diagonals small,
// diagonal dominant.
fn small(g: &[usize]) -> f64 {
    (((g[0] * 3 + g[1] * 5 + g[2] * 7) % 9) as f64 - 4.0) * 0.1
}
fn diagv(g: &[usize]) -> f64 {
    2.0 + ((g[0] + g[1] + g[2]) % 5) as f64 * 0.1
}
fn rhsv(g: &[usize]) -> f64 {
    ((g[0] * 11 + g[1] * 4 + g[2] * 2) % 17) as f64 - 8.0
}

/// Split `n` into segment bounds at random interior cut points.
fn splits(rng: &mut Rng, n: usize, max_cuts: usize) -> Vec<usize> {
    let mut bounds = vec![0usize, n];
    for _ in 0..rng.usize_in(0, max_cuts) {
        bounds.push(rng.usize_in(0, n));
    }
    bounds.sort_unstable();
    bounds.dedup();
    bounds
}

fn tridiag(n: usize, vals: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
    let v = |k: usize| vals[k % vals.len()];
    let a: Vec<f64> = (0..n)
        .map(|k| if k == 0 { 0.0 } else { v(k) * 0.45 })
        .collect();
    let c: Vec<f64> = (0..n)
        .map(|k| if k + 1 == n { 0.0 } else { v(k + 7) * 0.45 })
        .collect();
    let b: Vec<f64> = (0..n).map(|k| 1.2 + a[k].abs() + c[k].abs()).collect();
    let d: Vec<f64> = (0..n).map(|k| v(k + 13) * 4.0).collect();
    (a, b, c, d)
}

#[test]
fn thomas_segmented_equals_direct() {
    cases(0x7501, 64, |rng| {
        let n = rng.usize_in(1, 119);
        let nvals = rng.usize_in(8, 19);
        let vals = rng.f64_vec(nvals, -1.0, 1.0);
        let (a, b, c, d) = tridiag(n, &vals);
        let direct = thomas_solve(&a, &b, &c, &d);

        let bounds = splits(rng, n, 4);
        let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
        let bwd = ThomasBackwardKernel::new(0, 1);
        let mut cc = c.clone();
        let mut dd = d.clone();
        let mut carry = vec![0.0; fwd.carry_len()];
        let fctx = SegmentCtx::origin(1, 0, Direction::Forward);
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut seg = vec![
                a[lo..hi].to_vec(),
                b[lo..hi].to_vec(),
                cc[lo..hi].to_vec(),
                dd[lo..hi].to_vec(),
            ];
            fwd.sweep_segment(Direction::Forward, &mut carry, &mut seg, &fctx);
            cc[lo..hi].copy_from_slice(&seg[2]);
            dd[lo..hi].copy_from_slice(&seg[3]);
        }
        let mut carry = vec![0.0; bwd.carry_len()];
        let bctx = SegmentCtx::origin(1, 0, Direction::Backward);
        for w in bounds.windows(2).rev() {
            let (lo, hi) = (w[0], w[1]);
            let mut seg = vec![
                cc[lo..hi].iter().rev().copied().collect::<Vec<_>>(),
                dd[lo..hi].iter().rev().copied().collect::<Vec<_>>(),
            ];
            bwd.sweep_segment(Direction::Backward, &mut carry, &mut seg, &bctx);
            for (off, v) in seg[1].iter().rev().enumerate() {
                dd[lo + off] = *v;
            }
        }
        for (got, want) in dd.iter().zip(direct.iter()) {
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
        // And the solution actually solves the system.
        let r = tridiag_matvec(&a, &b, &c, &dd);
        for (rv, dv) in r.iter().zip(d.iter()) {
            assert!((rv - dv).abs() < 1e-7);
        }
    });
}

#[test]
fn penta_segmented_equals_direct() {
    cases(0x7502, 64, |rng| {
        let n = rng.usize_in(1, 99);
        let nvals = rng.usize_in(8, 19);
        let vals = rng.f64_vec(nvals, -1.0, 1.0);
        let v = |k: usize| vals[k % vals.len()];
        let e: Vec<f64> = (0..n)
            .map(|k| if k < 2 { 0.0 } else { v(k) * 0.3 })
            .collect();
        let a: Vec<f64> = (0..n)
            .map(|k| if k < 1 { 0.0 } else { v(k + 3) * 0.3 })
            .collect();
        let c: Vec<f64> = (0..n)
            .map(|k| if k + 1 >= n { 0.0 } else { v(k + 5) * 0.3 })
            .collect();
        let f: Vec<f64> = (0..n)
            .map(|k| if k + 2 >= n { 0.0 } else { v(k + 9) * 0.3 })
            .collect();
        let d: Vec<f64> = (0..n)
            .map(|k| 1.5 + e[k].abs() + a[k].abs() + c[k].abs() + f[k].abs())
            .collect();
        let b: Vec<f64> = (0..n).map(|k| v(k + 11) * 3.0).collect();
        let direct = penta_solve(&e, &a, &d, &c, &f, &b);

        let bounds = splits(rng, n, 3);
        let fwd = PentaForwardKernel::new(0, 1, 2, 3, 4, 5);
        let bwd = PentaBackwardKernel::new(0, 1, 2);
        let mut cc = c.clone();
        let mut ff = f.clone();
        let mut bb = b.clone();
        let mut carry = vec![0.0; fwd.carry_len()];
        let fctx = SegmentCtx::origin(1, 0, Direction::Forward);
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut seg = vec![
                e[lo..hi].to_vec(),
                a[lo..hi].to_vec(),
                d[lo..hi].to_vec(),
                cc[lo..hi].to_vec(),
                ff[lo..hi].to_vec(),
                bb[lo..hi].to_vec(),
            ];
            fwd.sweep_segment(Direction::Forward, &mut carry, &mut seg, &fctx);
            cc[lo..hi].copy_from_slice(&seg[3]);
            ff[lo..hi].copy_from_slice(&seg[4]);
            bb[lo..hi].copy_from_slice(&seg[5]);
        }
        let mut carry = vec![0.0; bwd.carry_len()];
        let bctx = SegmentCtx::origin(1, 0, Direction::Backward);
        for w in bounds.windows(2).rev() {
            let (lo, hi) = (w[0], w[1]);
            let mut seg = vec![
                cc[lo..hi].iter().rev().copied().collect::<Vec<_>>(),
                ff[lo..hi].iter().rev().copied().collect::<Vec<_>>(),
                bb[lo..hi].iter().rev().copied().collect::<Vec<_>>(),
            ];
            bwd.sweep_segment(Direction::Backward, &mut carry, &mut seg, &bctx);
            for (off, v) in seg[2].iter().rev().enumerate() {
                bb[lo + off] = *v;
            }
        }
        for (got, want) in bb.iter().zip(direct.iter()) {
            assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        }
        let r = penta_matvec(&e, &a, &d, &c, &f, &bb);
        for (rv, bv) in r.iter().zip(b.iter()) {
            assert!((rv - bv).abs() < 1e-7);
        }
    });
}

#[test]
fn random_executor_configs_match_serial() {
    // End-to-end property: random domain shapes and rank counts all
    // produce the serial result bitwise.
    use crate::compiled::SolverPlan;
    use crate::executor::{allocate_rank_store, SweepOptions};
    use crate::recurrence::FirstOrderKernel;
    use crate::verify::serial_sweep;
    use mp_core::cost::CostModel;
    use mp_core::multipart::Multipartitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    cases(0x7506, 10, |rng| {
        let p = rng.u64_in(2, 8);
        let dim = rng.usize_in(0, 2);
        let dir = if rng.bool() {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let a = rng.f64_in(-0.9, 0.9);
        let k = FirstOrderKernel::new(0, a);
        let mp = Multipartitioning::optimal(p, &[12, 12, 12], &CostModel::origin2000_like());
        // Each extent at least its tile count (else tiles would be empty),
        // plus random slack so extents are ragged.
        let eta: Vec<usize> = mp
            .gammas()
            .iter()
            .map(|&g| g as usize + rng.usize_in(0, 9))
            .collect();
        let grid = TileGrid::new(
            &eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let init = |g: &[usize]| ((g[0] * 5 + g[1] * 3 + g[2] * 7) % 11) as f64 - 5.0;

        let mut want = ArrayD::from_fn(&eta, init);
        serial_sweep(&mut [&mut want], dim, dir, &k);

        let fields = [FieldDef::new("u", 0)];
        let results = run_threaded(p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, init);
            let mut plan = SolverPlan::new(SweepOptions::default());
            plan.sweep(comm, &mut store, &mp, dim, dir, &k, 77);
            store
        });
        let mut global = ArrayD::zeros(&eta);
        for store in &results {
            store.gather_into(0, &mut global);
        }
        assert_eq!(
            global.max_abs_diff(&want),
            0.0,
            "p={p} eta={eta:?} dim={dim} {dir:?}"
        );
    });
}

#[test]
fn random_compiled_plans_match_per_call_path() {
    // The compiled-plan property: across randomized
    // (p, γ, η), executing through a cached
    // `SolverPlan` — 10 sweeps cycling every (dim, direction) — is bitwise
    // identical to building a fresh `CompiledSweep` for each of the 10
    // calls, sends exactly the same message and element counts, and
    // compiles each distinct (dim, direction) exactly once.
    use crate::compiled::{CompiledSweep, SolverPlan};
    use crate::executor::{allocate_rank_store, SweepOptions};
    use crate::recurrence::PrefixSumKernel;
    use mp_core::multipart::Multipartitioning;
    use mp_core::partition::Partitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    cases(0x7509, 8, |rng| {
        let (p, gammas): (u64, Vec<u64>) = match rng.usize_in(0, 5) {
            0 => (2, vec![2, 2, 1]),
            1 => (4, vec![2, 2, 2]),
            2 => (4, vec![4, 2, 2]),
            3 => (2, vec![4, 2, 2]),
            4 => (3, vec![3, 3, 1]),
            _ => (6, vec![6, 3, 2]),
        };
        let part = Partitioning::new(gammas);
        assert!(part.is_valid(p), "test premise");
        let mp = Multipartitioning::from_partitioning(p, part);
        let eta: Vec<usize> = mp
            .gammas()
            .iter()
            .map(|&g| {
                let g = g as usize;
                g * rng.usize_in(2, 4) + rng.usize_in(0, g.max(2) - 1)
            })
            .collect();
        let grid = TileGrid::new(
            &eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let opts = SweepOptions::default();
        let init = |g: &[usize]| ((g[0] * 5 + g[1] * 3 + g[2] * 7) % 13) as f64 - 6.0;
        let fields = [FieldDef::new("u", 0)];
        let k = PrefixSumKernel::new(0);
        // 10 sweeps cycling all six (dim, direction) pairs. Tags are keyed
        // to (dim, direction) — the solver pattern — so revisiting a pair is
        // a cache hit and the plan compiles each pair exactly once.
        let schedule: Vec<(usize, Direction, u64)> = (0..10)
            .map(|s| {
                let dim = s % 3;
                let (dir, d) = if (s / 3) % 2 == 0 {
                    (Direction::Forward, 0)
                } else {
                    (Direction::Backward, 1)
                };
                (dim, dir, (dim as u64 * 2 + d) * 1_000)
            })
            .collect();

        let fresh = run_threaded(p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, init);
            for &(dim, dir, tag) in &schedule {
                CompiledSweep::build(&mp, comm.rank(), &store, dim, dir, &k, tag, &opts)
                    .execute(comm, &mut store, &k);
            }
            (store, comm.sent_messages, comm.sent_elements)
        });
        let engine = run_threaded(p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, init);
            let mut plan = SolverPlan::new(opts.clone());
            for &(dim, dir, tag) in &schedule {
                plan.sweep(comm, &mut store, &mp, dim, dir, &k, tag);
            }
            (store, comm.sent_messages, comm.sent_elements, plan.builds())
        });

        let mut want = ArrayD::zeros(&eta);
        let mut got = ArrayD::zeros(&eta);
        let (mut fm, mut fe, mut em, mut ee) = (0u64, 0u64, 0u64, 0u64);
        for ((store_f, m_f, e_f), (store_e, m_e, e_e, builds)) in fresh.iter().zip(engine.iter()) {
            store_f.gather_into(0, &mut want);
            store_e.gather_into(0, &mut got);
            fm += m_f;
            fe += e_f;
            em += m_e;
            ee += e_e;
            assert_eq!(*builds, 6, "one compile per (dim, direction) pair");
        }
        assert_eq!(
            got.max_abs_diff(&want),
            0.0,
            "p={p} eta={eta:?} {opts:?}: cached plan not bitwise equal"
        );
        assert_eq!((em, ee), (fm, fe), "message schedule changed: {opts:?}");
    });
}

#[test]
fn random_engine_reuse_sends_identical_counts() {
    // A cached `SolverPlan` reused for 10 identical sweeps sends exactly
    // the same message and element counts as 10 freshly built
    // `CompiledSweep`s, and builds its plan exactly once.
    use crate::compiled::{CompiledSweep, SolverPlan};
    use crate::executor::{allocate_rank_store, SweepOptions};
    use crate::recurrence::FirstOrderKernel;
    use mp_core::cost::CostModel;
    use mp_core::multipart::Multipartitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    cases(0x7509, 6, |rng| {
        let p = rng.u64_in(2, 6);
        let dim = rng.usize_in(0, 2);
        let dir = if rng.bool() {
            Direction::Forward
        } else {
            Direction::Backward
        };
        let a = rng.f64_in(-0.9, 0.9);
        let k = FirstOrderKernel::new(0, a);
        let mp = Multipartitioning::optimal(p, &[12, 12, 12], &CostModel::origin2000_like());
        let eta: Vec<usize> = mp
            .gammas()
            .iter()
            .map(|&g| g as usize + rng.usize_in(0, 7))
            .collect();
        let grid = TileGrid::new(
            &eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let opts = SweepOptions::default();
        let init = |g: &[usize]| ((g[0] * 5 + g[1] * 3 + g[2] * 7) % 11) as f64 - 5.0;
        let fields = [FieldDef::new("u", 0)];

        let fresh = run_threaded(p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, init);
            for _ in 0..10 {
                CompiledSweep::build(&mp, comm.rank(), &store, dim, dir, &k, 55, &opts)
                    .execute(comm, &mut store, &k);
            }
            (store, comm.sent_messages, comm.sent_elements)
        });
        let engine = run_threaded(p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, init);
            let mut plan = SolverPlan::new(opts.clone());
            for _ in 0..10 {
                plan.sweep(comm, &mut store, &mp, dim, dir, &k, 55);
            }
            (store, comm.sent_messages, comm.sent_elements, plan.builds())
        });

        let mut want = ArrayD::zeros(&eta);
        let mut got = ArrayD::zeros(&eta);
        for ((store_f, fm, fe), (store_e, em, ee, builds)) in fresh.iter().zip(engine.iter()) {
            store_f.gather_into(0, &mut want);
            store_e.gather_into(0, &mut got);
            assert_eq!(
                (em, ee),
                (fm, fe),
                "p={p} eta={eta:?} dim={dim} {dir:?} {opts:?}: counters diverge"
            );
            assert_eq!(*builds, 1, "identical sweeps must compile exactly once");
        }
        assert_eq!(
            got.max_abs_diff(&want),
            0.0,
            "cached plan result not bitwise equal"
        );
    });
}

#[test]
fn fault_free_shim_is_invisible_and_injected_panics_fail_cleanly() {
    // The robustness property (seed 0x750C): a *fault-free* FaultPlan shim
    // threaded through full multipartitioned sweeps must be invisible —
    // field contents and every per-rank counter bitwise identical to the
    // bare transport — and an injected rank panic must surface on every
    // dependent rank as a typed `RankFailed` failure within the deadline
    // instead of a hang.
    use crate::compiled::SolverPlan;
    use crate::executor::{allocate_rank_store, SweepOptions};
    use crate::recurrence::PrefixSumKernel;
    use mp_core::multipart::Multipartitioning;
    use mp_core::partition::Partitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::{run_threaded_result, RunOpts};
    use mp_runtime::{CommErrorKind, FaultPlan};
    use std::time::Duration;

    cases(0x750C, 6, |rng| {
        let (p, gammas): (u64, Vec<u64>) = match rng.usize_in(0, 3) {
            0 => (2, vec![2, 2, 1]),
            1 => (4, vec![2, 2, 2]),
            2 => (3, vec![3, 3, 1]),
            _ => (6, vec![6, 3, 2]),
        };
        let mp = Multipartitioning::from_partitioning(p, Partitioning::new(gammas));
        let eta: Vec<usize> = mp
            .gammas()
            .iter()
            .map(|&g| {
                let g = g as usize;
                g * rng.usize_in(2, 3) + rng.usize_in(0, g.max(2) - 1)
            })
            .collect();
        let grid = TileGrid::new(
            &eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let opts = SweepOptions::default();
        let k = PrefixSumKernel::new(0);
        let init = |g: &[usize]| ((g[0] * 5 + g[1] * 3 + g[2] * 7) % 13) as f64 - 6.0;
        let fields = [FieldDef::new("u", 0)];
        let schedule: Vec<(usize, Direction, u64)> = (0..6)
            .map(|s| {
                let dim = s % 3;
                let (dir, d) = if rng.bool() {
                    (Direction::Forward, 0)
                } else {
                    (Direction::Backward, 1)
                };
                (dim, dir, (dim as u64 * 2 + d) * 1_000)
            })
            .collect();

        let run = |run_opts: RunOpts| {
            let (mp, grid, k, fields, schedule, opts) = (&mp, &grid, &k, &fields, &schedule, &opts);
            run_threaded_result(p, run_opts, move |comm| {
                let mut store = allocate_rank_store(comm.rank(), mp, grid, fields);
                store.init_field(0, init);
                let mut plan = SolverPlan::new(opts.clone());
                for &(dim, dir, tag) in schedule {
                    plan.sweep(comm, &mut store, mp, dim, dir, k, tag);
                }
                (
                    store,
                    [
                        comm.sent_messages,
                        comm.sent_elements,
                        comm.pool_misses,
                        comm.send_backpressure,
                    ],
                )
            })
        };

        // Fault-free shim: the hooks are armed but never fire, so nothing —
        // not the data, not a single counter — may differ from bare.
        let bare = run(RunOpts {
            deadline: Some(Duration::from_secs(30)),
            fault: None,
        });
        let shimmed = run(RunOpts {
            deadline: Some(Duration::from_secs(30)),
            fault: Some(FaultPlan::fault_free(0x750C)),
        });
        let mut want = ArrayD::zeros(&eta);
        let mut got = ArrayD::zeros(&eta);
        for (b, s) in bare.iter().zip(shimmed.iter()) {
            let (bs, bc) = b.as_ref().expect("bare run must succeed");
            let (ss, sc) = s.as_ref().expect("fault-free shim run must succeed");
            assert_eq!(sc, bc, "p={p} eta={eta:?} {opts:?}: shim changed counters");
            bs.gather_into(0, &mut want);
            ss.gather_into(0, &mut got);
        }
        assert_eq!(
            got.max_abs_diff(&want),
            0.0,
            "p={p} eta={eta:?} {opts:?}: fault-free shim not bitwise equal"
        );

        // Injected panic on a random rank at a random early comm op: every
        // rank must come back failed (typed, within the deadline), with the
        // victim carrying the injected message and at least one peer seeing
        // a RankFailed(victim) communication error.
        let victim = rng.u64_in(0, p - 1);
        let op = rng.u64_in(1, 4);
        let plan = FaultPlan::parse(&format!("panic:{victim}:{op}")).unwrap();
        let t0 = std::time::Instant::now();
        let failed = run(RunOpts {
            deadline: Some(Duration::from_secs(10)),
            fault: Some(plan),
        });
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "faulted run exceeded its bound"
        );
        let victim_err = failed[victim as usize]
            .as_ref()
            .expect_err("victim must fail");
        assert!(
            victim_err.message.contains("injected fault"),
            "victim message: {}",
            victim_err.message
        );
        let peer_rank_failed = failed
            .iter()
            .enumerate()
            .filter(|(r, _)| *r as u64 != victim)
            .filter_map(|(_, res)| res.as_ref().err())
            .filter_map(|f| f.comm.as_ref())
            .any(|c| c.kind == CommErrorKind::RankFailed(victim));
        assert!(
            peer_rank_failed,
            "p={p} victim={victim} op={op}: no peer observed RankFailed({victim})"
        );
    });
}

#[test]
fn prefix_sum_any_split_bitwise() {
    cases(0x7503, 64, |rng| {
        use crate::recurrence::PrefixSumKernel;
        let len = rng.usize_in(1, 63);
        let line = rng.f64_vec(len, -100.0, 100.0);
        let k = PrefixSumKernel::new(0);
        let ctx = SegmentCtx::origin(1, 0, Direction::Forward);
        let n = line.len();

        let mut whole = vec![line.clone()];
        let mut carry = vec![0.0; k.carry_len()];
        k.sweep_segment(Direction::Forward, &mut carry, &mut whole, &ctx);

        let bounds = splits(rng, n, 3);
        let mut parts = line.clone();
        let mut carry2 = vec![0.0; k.carry_len()];
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut seg = vec![parts[lo..hi].to_vec()];
            k.sweep_segment(Direction::Forward, &mut carry2, &mut seg, &ctx);
            parts[lo..hi].copy_from_slice(&seg[0]);
        }
        // bitwise: same additions in the same order
        assert_eq!(parts, whole[0]);
    });
}

#[test]
fn random_simd_executor_configs_match_scalar_bitwise() {
    // End-to-end: a full multipartitioned sweep with simd = auto is bitwise
    // equal to the same sweep with simd forced scalar — same field
    // contents, same per-rank message and element counts — across random
    // shapes and the four one-value kernels.
    use crate::compiled::SolverPlan;
    use crate::executor::{allocate_rank_store, SweepOptions};
    use crate::simd::SimdMode;
    use mp_core::multipart::Multipartitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    #[allow(clippy::too_many_arguments)]
    fn check<K: LineSweepKernel + Sync>(
        p: u64,
        mp: &Multipartitioning,
        grid: &TileGrid,
        eta: &[usize],
        fields: &[FieldDef],
        inits: &[fn(&[usize]) -> f64],
        k: &K,
        base: &SweepOptions,
        schedule: &[(usize, Direction, u64)],
    ) {
        let run = |opts: SweepOptions| {
            run_threaded(p, move |comm| {
                let mut store = allocate_rank_store(comm.rank(), mp, grid, fields);
                for (f, init) in inits.iter().enumerate() {
                    store.init_field(f, init);
                }
                let mut plan = SolverPlan::new(opts.clone());
                for &(dim, dir, tag) in schedule {
                    plan.sweep(comm, &mut store, mp, dim, dir, k, tag);
                }
                (store, comm.sent_messages, comm.sent_elements)
            })
        };
        let vectored = run(base.clone().with_simd(SimdMode::Auto));
        let scalar = run(base.clone().with_simd(SimdMode::Scalar));
        for ((_, m_v, e_v), (_, m_s, e_s)) in vectored.iter().zip(scalar.iter()) {
            assert_eq!(
                (m_v, e_v),
                (m_s, e_s),
                "p={p} eta={eta:?} {base:?}: simd changed the per-rank schedule"
            );
        }
        let mut got = ArrayD::zeros(eta);
        let mut want = ArrayD::zeros(eta);
        for f in 0..fields.len() {
            for ((vs, _, _), (ss, _, _)) in vectored.iter().zip(scalar.iter()) {
                vs.gather_into(f, &mut got);
                ss.gather_into(f, &mut want);
            }
            assert_eq!(
                got.max_abs_diff(&want),
                0.0,
                "p={p} eta={eta:?} field {f} {base:?}: simd not bitwise equal to scalar"
            );
        }
    }

    cases(0x750B, 10, |rng| {
        use mp_core::partition::Partitioning;
        let (p, gammas): (u64, Vec<u64>) = match rng.usize_in(0, 4) {
            0 => (2, vec![2, 2, 1]),
            1 => (4, vec![2, 2, 2]),
            2 => (4, vec![4, 2, 2]),
            3 => (3, vec![3, 3, 1]),
            _ => (6, vec![6, 3, 2]),
        };
        let mp = Multipartitioning::from_partitioning(p, Partitioning::new(gammas));
        // Extents with deliberate remainders so rows with nlanes % 4 ≠ 0
        // occur inside the executor, not just in the kernel-level test.
        let eta: Vec<usize> = mp
            .gammas()
            .iter()
            .map(|&g| {
                let g = g as usize;
                g * rng.usize_in(2, 4) + rng.usize_in(0, g.max(2) - 1)
            })
            .collect();
        let grid = TileGrid::new(
            &eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let base = SweepOptions::default();
        let fwd_sched: Vec<(usize, Direction, u64)> = (0..6)
            .map(|s| (s % 3, Direction::Forward, (s % 3) as u64 * 1_000))
            .collect();
        let bwd_sched: Vec<(usize, Direction, u64)> = (0..6)
            .map(|s| (s % 3, Direction::Backward, (s % 3) as u64 * 1_000))
            .collect();

        match rng.usize_in(0, 3) {
            0 => {
                let k = ThomasBackwardKernel::new(0, 1);
                let fields = [FieldDef::new("c", 0), FieldDef::new("d", 0)];
                check(
                    p,
                    &mp,
                    &grid,
                    &eta,
                    &fields,
                    &[small, rhsv],
                    &k,
                    &base,
                    &bwd_sched,
                );
            }
            1 => {
                let k = PentaBackwardKernel::new(0, 1, 2);
                let fields = [
                    FieldDef::new("c", 0),
                    FieldDef::new("f", 0),
                    FieldDef::new("b", 0),
                ];
                check(
                    p,
                    &mp,
                    &grid,
                    &eta,
                    &fields,
                    &[small, small, rhsv],
                    &k,
                    &base,
                    &bwd_sched,
                );
            }
            2 => {
                let k = ThomasForwardKernel::new(0, 1, 2, 3);
                let fields = [
                    FieldDef::new("a", 0),
                    FieldDef::new("b", 0),
                    FieldDef::new("c", 0),
                    FieldDef::new("d", 0),
                ];
                check(
                    p,
                    &mp,
                    &grid,
                    &eta,
                    &fields,
                    &[small, diagv, small, rhsv],
                    &k,
                    &base,
                    &fwd_sched,
                );
            }
            _ => {
                let k = PentaForwardKernel::new(0, 1, 2, 3, 4, 5);
                let fields = [
                    FieldDef::new("e", 0),
                    FieldDef::new("a", 0),
                    FieldDef::new("d", 0),
                    FieldDef::new("c", 0),
                    FieldDef::new("f", 0),
                    FieldDef::new("b", 0),
                ];
                check(
                    p,
                    &mp,
                    &grid,
                    &eta,
                    &fields,
                    &[small, small, diagv, small, small, rhsv],
                    &k,
                    &base,
                    &fwd_sched,
                );
            }
        }
    });
}

#[test]
fn random_inplace_configs_match_serial_bitwise() {
    // The in-place invariant: running a phase on tile storage changes
    // *where* the kernel reads and writes, never the results. Across random
    // ragged shapes (rows of different lengths, nlanes % 4 ≠ 0), SIMD
    // levels, and kernels — including the block-tridiagonal pair, whose 12
    // fields and 12-float carries run in place too — every sweep is bitwise
    // equal to the serial reference. Schedules include the last dimension,
    // whose sweep runs along the unit-stride axis with lanes a tile row
    // apart.
    use crate::block::tests::TestCoeffs;
    use crate::block::{BlockTriBackwardKernel, BlockTriForwardKernel};
    use crate::compiled::SolverPlan;
    use crate::executor::{allocate_rank_store, SweepOptions};
    use crate::recurrence::{FirstOrderKernel, PrefixSumKernel};
    use crate::simd::SimdMode;
    use crate::verify::serial_sweep;
    use mp_core::multipart::Multipartitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    /// Run `schedule` distributed (`fwd` on forward sweeps, `bwd` on
    /// backward ones) and serially; every field must agree bitwise.
    #[allow(clippy::too_many_arguments)]
    fn check<F: LineSweepKernel, B: LineSweepKernel>(
        p: u64,
        mp: &Multipartitioning,
        grid: &TileGrid,
        eta: &[usize],
        inits: &[fn(&[usize]) -> f64],
        (fwd, bwd): (&F, &B),
        opts: &SweepOptions,
        schedule: &[(usize, Direction, u64)],
    ) {
        let fields: Vec<FieldDef> = (0..inits.len())
            .map(|f| FieldDef::new(&format!("f{f}"), 0))
            .collect();
        let stores = run_threaded(p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), mp, grid, &fields);
            for (f, init) in inits.iter().enumerate() {
                store.init_field(f, init);
            }
            let mut plan = SolverPlan::new(opts.clone());
            for &(dim, dir, tag) in schedule {
                match dir {
                    Direction::Forward => plan.sweep(comm, &mut store, mp, dim, dir, fwd, tag),
                    Direction::Backward => plan.sweep(comm, &mut store, mp, dim, dir, bwd, tag),
                }
            }
            store
        });
        let mut want: Vec<ArrayD<f64>> = inits.iter().map(|i| ArrayD::from_fn(eta, i)).collect();
        for &(dim, dir, _) in schedule {
            let mut refs: Vec<&mut ArrayD<f64>> = want.iter_mut().collect();
            match dir {
                Direction::Forward => serial_sweep(&mut refs, dim, dir, fwd),
                Direction::Backward => serial_sweep(&mut refs, dim, dir, bwd),
            }
        }
        let mut got = ArrayD::zeros(eta);
        for (f, want) in want.iter().enumerate() {
            for store in &stores {
                store.gather_into(f, &mut got);
            }
            assert_eq!(
                got.max_abs_diff(want),
                0.0,
                "p={p} eta={eta:?} field {f} {opts:?}: not bitwise equal to serial"
            );
        }
    }

    cases(0x750E, 10, |rng| {
        use mp_core::partition::Partitioning;
        let (p, gammas): (u64, Vec<u64>) = match rng.usize_in(0, 4) {
            0 => (2, vec![2, 2, 1]),
            1 => (4, vec![2, 2, 2]),
            2 => (4, vec![4, 2, 2]),
            3 => (3, vec![3, 3, 1]),
            _ => (6, vec![6, 3, 2]),
        };
        let mp = Multipartitioning::from_partitioning(p, Partitioning::new(gammas));
        // Remainders on purpose: rows of every length, including lane
        // counts that are not a multiple of 4, have to stay bitwise.
        let eta: Vec<usize> = mp
            .gammas()
            .iter()
            .map(|&g| {
                let g = g as usize;
                g * rng.usize_in(2, 4) + rng.usize_in(0, g.max(2) - 1)
            })
            .collect();
        let grid = TileGrid::new(
            &eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let simd = if rng.bool() {
            SimdMode::Auto
        } else {
            SimdMode::Scalar
        };
        let opts = SweepOptions::default().with_simd(simd);
        // Every dim, including the last (lanes a tile row apart).
        let fwd_sched: Vec<(usize, Direction, u64)> = (0..6)
            .map(|s| (s % 3, Direction::Forward, (s % 3) as u64 * 1_000))
            .collect();
        let both_sched: Vec<(usize, Direction, u64)> = (0..8)
            .map(|s| {
                let dim = s % 3;
                let (dir, d) = if (s / 3) % 2 == 0 {
                    (Direction::Forward, 0)
                } else {
                    (Direction::Backward, 1)
                };
                (dim, dir, (dim as u64 * 2 + d) * 1_000)
            })
            .collect();
        let (grid, eta) = (&grid, &eta);

        match rng.usize_in(0, 4) {
            0 => {
                let k = FirstOrderKernel::new(0, rng.f64_in(-0.9, 0.9));
                check(p, &mp, grid, eta, &[rhsv], (&k, &k), &opts, &both_sched);
            }
            1 => {
                let k = PrefixSumKernel::new(0);
                check(p, &mp, grid, eta, &[rhsv], (&k, &k), &opts, &both_sched);
            }
            2 => {
                let k = ThomasForwardKernel::new(0, 1, 2, 3);
                let inits = [small, diagv, small, rhsv];
                check(p, &mp, grid, eta, &inits, (&k, &k), &opts, &fwd_sched);
            }
            3 => {
                let k = PentaForwardKernel::new(0, 1, 2, 3, 4, 5);
                let inits = [small, small, diagv, small, small, rhsv];
                check(p, &mp, grid, eta, &inits, (&k, &k), &opts, &fwd_sched);
            }
            _ => {
                let scratch: Vec<usize> = (0..9).collect();
                let rhs: Vec<usize> = (9..12).collect();
                let fwd = BlockTriForwardKernel::<3, _>::new(TestCoeffs, &scratch, &rhs);
                let bwd = BlockTriBackwardKernel::<3>::new(&scratch, &rhs);
                let mut inits: Vec<fn(&[usize]) -> f64> = vec![small; 9];
                inits.extend([rhsv, diagv, rhsv]);
                check(p, &mp, grid, eta, &inits, (&fwd, &bwd), &opts, &both_sched);
            }
        }
    });
}

#[test]
fn per_rank_options_leave_the_wire_unchanged() {
    // The wire depends on no option: with every rank running its own random
    // SIMD mode, a Thomas solve over every (dim, direction) — elimination
    // forward, substitution backward, both with vector bodies — matches the
    // serial reference bitwise, and every rank sends exactly the messages
    // and elements it sends when all ranks run scalar.
    use crate::compiled::SolverPlan;
    use crate::executor::{allocate_rank_store, SweepOptions};
    use crate::simd::SimdMode;
    use crate::verify::serial_sweep;
    use mp_core::multipart::Multipartitioning;
    use mp_core::partition::Partitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    let inits: [fn(&[usize]) -> f64; 4] = [small, diagv, small, rhsv];
    let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
    let bwd = ThomasBackwardKernel::new(2, 3);

    cases(0x7510, 8, |rng| {
        let (p, gammas): (u64, Vec<u64>) = match rng.usize_in(0, 4) {
            0 => (2, vec![2, 2, 1]),
            1 => (4, vec![2, 2, 2]),
            2 => (2, vec![4, 2, 2]),
            3 => (3, vec![3, 3, 1]),
            _ => (6, vec![6, 3, 2]),
        };
        let mp = Multipartitioning::from_partitioning(p, Partitioning::new(gammas));
        let eta: Vec<usize> = mp
            .gammas()
            .iter()
            .map(|&g| {
                let g = g as usize;
                g * rng.usize_in(2, 4) + rng.usize_in(0, g.max(2) - 1)
            })
            .collect();
        let grid = TileGrid::new(
            &eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let schedule: Vec<(usize, Direction, u64)> = (0..6)
            .map(|s| {
                let dim = s % 3;
                let (dir, d) = if s < 3 {
                    (Direction::Forward, 0)
                } else {
                    (Direction::Backward, 1)
                };
                (dim, dir, (dim as u64 * 2 + d) * 1_000)
            })
            .collect();
        let mixed: Vec<SweepOptions> = (0..p)
            .map(|_| {
                let simd = if rng.bool() {
                    SimdMode::Auto
                } else {
                    SimdMode::Scalar
                };
                SweepOptions::default().with_simd(simd)
            })
            .collect();

        let run = |per_rank: &[SweepOptions]| {
            let fields = ["a", "b", "c", "d"].map(|name| FieldDef::new(name, 0));
            run_threaded(p, |comm| {
                let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
                for (f, init) in inits.iter().enumerate() {
                    store.init_field(f, init);
                }
                let mut plan = SolverPlan::new(per_rank[comm.rank() as usize].clone());
                for &(dim, dir, tag) in &schedule {
                    match dir {
                        Direction::Forward => {
                            plan.sweep(comm, &mut store, &mp, dim, dir, &fwd, tag)
                        }
                        Direction::Backward => {
                            plan.sweep(comm, &mut store, &mp, dim, dir, &bwd, tag)
                        }
                    }
                }
                (store, comm.sent_messages, comm.sent_elements)
            })
        };
        let scalar = SweepOptions::default().with_simd(SimdMode::Scalar);
        let uniform = run(&vec![scalar; p as usize]);
        let varied = run(&mixed);

        let mut want: Vec<ArrayD<f64>> = inits.iter().map(|i| ArrayD::from_fn(&eta, i)).collect();
        for &(dim, dir, _) in &schedule {
            let mut refs: Vec<&mut ArrayD<f64>> = want.iter_mut().collect();
            match dir {
                Direction::Forward => serial_sweep(&mut refs, dim, dir, &fwd),
                Direction::Backward => serial_sweep(&mut refs, dim, dir, &bwd),
            }
        }
        for (r, ((_, m, e), (_, um, ue))) in varied.iter().zip(&uniform).enumerate() {
            assert_eq!(
                (m, e),
                (um, ue),
                "rank {r} with {:?}: options changed what it sent (p={p} eta={eta:?})",
                mixed[r]
            );
        }
        let mut got = ArrayD::zeros(&eta);
        for (f, want) in want.iter().enumerate() {
            for (store, _, _) in &varied {
                store.gather_into(f, &mut got);
            }
            assert_eq!(
                got.max_abs_diff(want),
                0.0,
                "p={p} eta={eta:?} field {f} {mixed:?}: per-rank options not bitwise equal to serial"
            );
        }
    });
}

#[test]
fn cost_model_json_round_trips_exactly() {
    // Calibration files carry machine constants spanning ~10 orders of
    // magnitude; the hand-rolled JSON codec must reproduce every f64 bit
    // for bit or a reloaded model would plan differently than the run
    // that wrote it.
    use mp_core::cost::{BandwidthScaling, CostModel};
    use mp_runtime::{profile_from_json, profile_to_json};

    cases(0x750D, 64, |rng| {
        let model = CostModel {
            k1: rng.f64_in(1e-12, 1e-3) * if rng.bool() { 1.0 } else { 1e-6 },
            k2: rng.f64_in(0.0, 1e-2),
            k3: rng.f64_in(0.0, 1e-5),
            scaling: if rng.bool() {
                BandwidthScaling::Scalable
            } else {
                BandwidthScaling::Fixed
            },
        };
        let back = profile_from_json(&profile_to_json(&model)).unwrap();
        assert_eq!(back, model, "model changed across JSON round-trip");
    });
}

#[test]
fn scratch_fields_in_sweep_order_match_serial() {
    // A Thomas solve whose eliminated super-diagonal `c` is a scratch field
    // (`FieldDef::scratch`), which each compiled sweep addresses in its own
    // order, lanes adjacent. Over random multipartitionings, ragged extents,
    // SIMD modes and sequences of (dim, direction) steps — an elimination
    // forward, alone or followed by the back substitution of the same
    // dimension, the one use a scratch field allows — the right-hand side
    // ends bitwise equal to the serial reference, and every rank sends
    // exactly the messages and elements it sends with `c` in tile order.
    // `c` enters every elimination holding one value everywhere, so its
    // layout cannot change the kernel's inputs.
    use crate::compiled::SolverPlan;
    use crate::executor::{allocate_rank_store, SweepOptions};
    use crate::simd::SimdMode;
    use crate::verify::serial_sweep;
    use mp_core::multipart::Multipartitioning;
    use mp_core::partition::Partitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    const C0: f64 = 0.3;
    let inits: [fn(&[usize]) -> f64; 4] = [small, diagv, |_| C0, rhsv];
    let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
    let bwd = ThomasBackwardKernel::new(2, 3);

    cases(0x7511, 10, |rng| {
        let (p, gammas): (u64, Vec<u64>) = match rng.usize_in(0, 4) {
            0 => (2, vec![2, 2, 1]),
            1 => (4, vec![2, 2, 2]),
            2 => (2, vec![4, 2, 2]),
            3 => (3, vec![3, 3, 1]),
            _ => (6, vec![6, 3, 2]),
        };
        let mp = Multipartitioning::from_partitioning(p, Partitioning::new(gammas));
        let eta: Vec<usize> = mp
            .gammas()
            .iter()
            .map(|&g| {
                let g = g as usize;
                g * rng.usize_in(1, 4) + rng.usize_in(0, g.max(2) - 1)
            })
            .collect();
        let grid = TileGrid::new(
            &eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        // Each step eliminates along `dim` and, if `back`, substitutes
        // back along it.
        let steps: Vec<(usize, bool)> = (0..rng.usize_in(1, 4))
            .map(|_| (rng.usize_in(0, 2), rng.bool()))
            .collect();
        let simd = if rng.bool() {
            SimdMode::Auto
        } else {
            SimdMode::Scalar
        };
        let opts = SweepOptions::default().with_simd(simd);

        let run = |c: FieldDef| {
            let fields = [
                FieldDef::new("a", 0),
                FieldDef::new("b", 0),
                c,
                FieldDef::new("d", 0),
            ];
            run_threaded(p, |comm| {
                let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
                for (f, init) in inits.iter().enumerate() {
                    store.init_field(f, init);
                }
                let mut plan = SolverPlan::new(opts.clone());
                for &(dim, back) in &steps {
                    let tag = dim as u64 * 2_000;
                    store.init_field(2, inits[2]);
                    plan.sweep(comm, &mut store, &mp, dim, Direction::Forward, &fwd, tag);
                    if back {
                        let (dir, tag) = (Direction::Backward, tag + 1_000);
                        plan.sweep(comm, &mut store, &mp, dim, dir, &bwd, tag);
                    }
                }
                (store, comm.sent_messages, comm.sent_elements)
            })
        };
        let scratch = run(FieldDef::scratch("c"));
        let tiled = run(FieldDef::new("c", 0));

        let mut want: Vec<ArrayD<f64>> = inits.iter().map(|i| ArrayD::from_fn(&eta, i)).collect();
        for &(dim, back) in &steps {
            want[2] = ArrayD::from_fn(&eta, inits[2]);
            let mut refs: Vec<&mut ArrayD<f64>> = want.iter_mut().collect();
            serial_sweep(&mut refs, dim, Direction::Forward, &fwd);
            if back {
                serial_sweep(&mut refs, dim, Direction::Backward, &bwd);
            }
        }
        let at = format!("p={p} eta={eta:?} steps={steps:?} {simd:?}");
        for (r, ((_, m, e), (_, tm, te))) in scratch.iter().zip(&tiled).enumerate() {
            assert_eq!(
                (m, e),
                (tm, te),
                "rank {r}: scratch layout changed the wire ({at})"
            );
        }
        // Every field but the scratch one, gathered in tile order.
        for (stores, layout) in [(&scratch, "scratch"), (&tiled, "tiled")] {
            for f in [0, 1, 3] {
                let mut got = ArrayD::zeros(&eta);
                for (store, _, _) in stores {
                    store.gather_into(f, &mut got);
                }
                assert_eq!(
                    got.max_abs_diff(&want[f]),
                    0.0,
                    "{layout} c, field {f}: not bitwise equal to serial ({at})"
                );
            }
        }
    });
}
