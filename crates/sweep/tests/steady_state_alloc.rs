//! Steady-state sweeps allocate nothing on the rank thread.
//!
//! A counting global allocator tallies every allocation per thread (a
//! `const`-initialised thread-local, so the counter itself never
//! allocates). After two warm-up sweeps — plan build, buffer-pool fill,
//! carry-queue growth — ten more executes of the same compiled sweep must
//! leave the rank thread's count unchanged, for one carry chunk per phase
//! and for three. Each run repeats one `(dim, direction, tag)` sweep, so
//! every message a rank receives carries the tag it is waiting for and the
//! transport never stashes: the count is deterministic.

use mp_core::multipart::{Direction, Multipartitioning};
use mp_core::partition::Partitioning;
use mp_grid::{FieldDef, TileGrid};
use mp_runtime::{run_threaded, Communicator};
use mp_sweep::{allocate_rank_store, FirstOrderKernel, InplaceMode, SweepEngine, SweepOptions};
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

/// Per-rank allocation counts across 10 steady-state sweeps of `dim`.
fn steady_state_allocs(
    p: u64,
    gammas: &[u64],
    eta: &[usize],
    dim: usize,
    chunks: usize,
) -> Vec<u64> {
    let mp = Multipartitioning::from_partitioning(p, Partitioning::new(gammas.to_vec()));
    let grid = TileGrid::new(eta, &gammas.iter().map(|&g| g as usize).collect::<Vec<_>>());
    let fields = [FieldDef::new("u", 0)];
    let kernel = FirstOrderKernel::new(0, 0.8);
    // In-place forced on: dims other than the last run zero-copy, the last
    // dim always gathers through packed scratch — both modes are covered.
    let opts = SweepOptions::new(4, 1)
        .with_pipeline_chunks(chunks)
        .with_inplace(InplaceMode::On);
    run_threaded(p, |comm| {
        let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
        store.init_field(0, |g| (g[0] * 7 + g[1] * 3 + g[2]) as f64 * 0.01);
        let mut engine = SweepEngine::new(opts.clone());
        let fwd = Direction::Forward;
        let mut before = 0;
        for i in 0..12 {
            if i == 2 {
                before = allocs(); // after two warm-up sweeps
            }
            engine.sweep(comm, &mut store, &mp, dim, fwd, &kernel, 1000);
        }
        let n = allocs() - before;
        assert_eq!(engine.builds(), 1, "steady state rebuilt the plan");
        n
    })
}

#[test]
fn self_neighbor_sweeps_allocate_nothing() {
    // p = 1: every phase boundary is a local hand-off on the rank thread.
    for chunks in [1, 3] {
        for dim in [0, 2] {
            let counts = steady_state_allocs(1, &[3, 2, 2], &[9, 8, 8], dim, chunks);
            assert_eq!(counts, vec![0], "dim {dim}, {chunks} chunk(s) per phase");
        }
    }
}

#[test]
fn two_rank_sweeps_allocate_nothing() {
    // p = 2: carries cross the ring transport at every phase boundary.
    for chunks in [1, 3] {
        for dim in [0, 2] {
            let counts = steady_state_allocs(2, &[2, 2, 2], &[8, 8, 8], dim, chunks);
            assert_eq!(counts, vec![0, 0], "dim {dim}, {chunks} chunk(s) per phase");
        }
    }
}
