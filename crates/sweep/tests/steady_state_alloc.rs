//! Steady-state sweeps allocate nothing on the rank thread.
//!
//! A counting global allocator tallies every allocation per thread (a
//! `const`-initialised thread-local, so the counter itself never
//! allocates). After two warm-up sweeps — plan build, buffer-pool fill —
//! ten more executes of the same compiled sweep must leave the rank
//! thread's count unchanged. Each run repeats one `(dim, direction, tag)` sweep, so
//! every message a rank receives carries the tag it is waiting for and the
//! transport never stashes: the count is deterministic.

use mp_core::multipart::{Direction, Multipartitioning};
use mp_core::partition::Partitioning;
use mp_grid::{FieldDef, TileGrid};
use mp_runtime::{run_threaded, Communicator};
use mp_sweep::block::{BlockCoeffs, Mat};
use mp_sweep::{
    allocate_rank_store, BlockTriBackwardKernel, BlockTriForwardKernel, FirstOrderKernel,
    LineSweepKernel, SolverPlan, SweepOptions,
};
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

/// Per-rank allocation counts across 10 steady-state `dir` sweeps of
/// `dim` by `kernel`, whose fields are numbered from 0. Every phase runs in
/// place on tile storage; a sweep of the last dim walks rows whose lanes
/// lie a tile row apart.
fn steady_state_allocs<K: LineSweepKernel>(
    p: u64,
    gammas: &[u64],
    eta: &[usize],
    (dim, dir): (usize, Direction),
    kernel: &K,
) -> Vec<u64> {
    let mp = Multipartitioning::from_partitioning(p, Partitioning::new(gammas.to_vec()));
    let grid = TileGrid::new(eta, &gammas.iter().map(|&g| g as usize).collect::<Vec<_>>());
    let fields: Vec<FieldDef> = (0..kernel.fields().len())
        .map(|f| FieldDef::new(&format!("f{f}"), 0))
        .collect();
    run_threaded(p, |comm| {
        let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
        for f in 0..fields.len() {
            store.init_field(f, |g| (g[0] * 7 + g[1] * 3 + g[2] + f) as f64 * 0.01);
        }
        let mut plan = SolverPlan::new(SweepOptions::default());
        let mut before = 0;
        for i in 0..12 {
            if i == 2 {
                before = allocs(); // after two warm-up sweeps
            }
            plan.sweep(comm, &mut store, &mp, dim, dir, kernel, 1000);
        }
        let n = allocs() - before;
        assert_eq!(plan.builds(), 1, "steady state rebuilt the plan");
        n
    })
}

#[test]
fn self_neighbor_sweeps_allocate_nothing() {
    // p = 1: every phase boundary is a local hand-off on the rank thread.
    let kernel = FirstOrderKernel::new(0, 0.8);
    for dim in [0, 2] {
        let at = (dim, Direction::Forward);
        let counts = steady_state_allocs(1, &[3, 2, 2], &[9, 8, 8], at, &kernel);
        assert_eq!(counts, vec![0], "dim {dim}");
    }
}

#[test]
fn two_rank_sweeps_allocate_nothing() {
    // p = 2: carries cross the ring transport at every phase boundary.
    let kernel = FirstOrderKernel::new(0, 0.8);
    for dim in [0, 2] {
        let at = (dim, Direction::Forward);
        let counts = steady_state_allocs(2, &[2, 2, 2], &[8, 8, 8], at, &kernel);
        assert_eq!(counts, vec![0, 0], "dim {dim}");
    }
}

/// Position-dependent 3×3 blocks: BT's kernel shape at N = 3. They are
/// diagonally dominant except where the coordinates sum to a multiple of
/// 4: there `B = 0.5·I + 3·P` (`P` a cyclic shift) makes partial pivoting
/// swap rows, which sends the vector body's lane group to its per-lane
/// scalar inverse.
struct Coeffs;

impl BlockCoeffs<3> for Coeffs {
    fn blocks(&self, g: &[usize], axis: usize) -> (Mat<3>, Mat<3>, Mat<3>) {
        let sum = g.iter().sum::<usize>();
        let w = 0.01 * (sum % 5) as f64;
        let mut b = [[w; 3]; 3];
        for (r, row) in b.iter_mut().enumerate() {
            if sum % 4 == 0 {
                *row = [0.0; 3];
                row[r] = 0.5;
                row[(r + 1) % 3] = 3.0;
            } else {
                row[r] = 3.0 + g[axis] as f64 * 0.01;
            }
        }
        ([[-0.1 - w; 3]; 3], b, [[-0.2 + w; 3]; 3])
    }
}

#[test]
fn block_tridiagonal_sweeps_allocate_nothing() {
    // The block kernels generate their coefficients per element from the
    // global position, on rows along the last axis (dim 0) and along the
    // middle one (dim 2), including the pivoting fallback's elements.
    let scratch: Vec<usize> = (0..9).collect();
    let rhs: Vec<usize> = (9..12).collect();
    let fwd = BlockTriForwardKernel::<3, _>::new(Coeffs, &scratch, &rhs);
    let bwd = BlockTriBackwardKernel::<3>::new(&scratch, &rhs);
    for dim in [0, 2] {
        let at = (dim, Direction::Forward);
        let counts = steady_state_allocs(2, &[2, 2, 2], &[8, 8, 8], at, &fwd);
        assert_eq!(counts, vec![0, 0], "forward, dim {dim}");
        let at = (dim, Direction::Backward);
        let counts = steady_state_allocs(2, &[2, 2, 2], &[8, 8, 8], at, &bwd);
        assert_eq!(counts, vec![0, 0], "backward, dim {dim}");
    }
}
