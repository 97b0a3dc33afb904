//! A steady-state SP or BT timestep allocates nothing on the rank thread.
//!
//! A counting global allocator tallies every allocation per thread (a
//! `const`-initialised thread-local, so the counter itself never
//! allocates), as in `crates/sweep/tests/steady_state_alloc.rs`. After one
//! warm-up `iterate` — plan builds, buffer-pool fill — five more must leave
//! every rank thread's count unchanged: the halo exchange, `compute_rhs`,
//! the six sweeps and `add` all run on storage, kernels and buffers the
//! solver already holds.

use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_nasbt::{BtProblem, ParallelBt};
use mp_nassp::{ParallelSp, SpProblem};
use mp_runtime::threaded::{run_threaded, ThreadedComm};
use mp_runtime::Communicator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Per-rank allocations over 5 steady-state `step`s of the solver `init`
/// builds on a `n³` grid, after one warm-up step.
fn steady_allocs<S>(
    p: u64,
    n: usize,
    init: impl Fn(u64, Multipartitioning) -> S + Sync,
    step: impl Fn(&mut S, &mut ThreadedComm) + Sync,
) -> Vec<u64> {
    let mp = Multipartitioning::optimal(p, &[n as u64; 3], &CostModel::origin2000_like());
    run_threaded(p, |comm| {
        let mut solver = init(comm.rank(), mp.clone());
        step(&mut solver, comm);
        let before = allocs();
        for _ in 0..5 {
            step(&mut solver, comm);
        }
        allocs() - before
    })
}

#[test]
fn sp_steps_allocate_nothing() {
    for prob in [
        SpProblem::new([12, 12, 12], 1e-3),
        SpProblem::pentadiagonal([12, 12, 12], 1e-3),
    ] {
        for p in [1, 2] {
            let counts = steady_allocs(
                p,
                12,
                |rank, mp| ParallelSp::new(rank, prob, mp),
                |sp, comm| sp.iterate(comm),
            );
            assert_eq!(counts, vec![0; p as usize], "{:?}, p = {p}", prob.solver);
        }
    }
}

#[test]
fn bt_steps_allocate_nothing() {
    let prob = BtProblem::new([8, 8, 8], 2e-3);
    for p in [1, 2] {
        let counts = steady_allocs(
            p,
            8,
            |rank, mp| ParallelBt::new(rank, prob, mp),
            |bt, comm| bt.iterate(comm),
        );
        assert_eq!(counts, vec![0; p as usize], "p = {p}");
    }
}
