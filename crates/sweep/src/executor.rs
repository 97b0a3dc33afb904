//! The multipartitioned sweep executor (functional backend).
//!
//! Executes a line sweep along one dimension of a multipartitioned array,
//! per the paper's schedule: `γ_dim` computation phases (one per slab),
//! separated by communication phases in which each rank ships **one
//! aggregated message** — the per-line carries of *all* its tiles in the
//! slab — to the single rank owning the downstream neighbor tiles (the
//! neighbor property makes that rank unique).
//!
//! Message ordering contract: carries are packed per tile (ranks' tiles in
//! lexicographic coordinate order) and per line (row-major over the tile's
//! cross-section). Because the receiving rank's tiles in the next slab are
//! exactly the senders' tiles shifted one step along the swept dimension,
//! both sides enumerate lines in the same order and no per-line addressing
//! is needed on the wire.
//!
//! Execution within a phase runs **in place, one row at a time**. A
//! phase's *lane axis* is the last axis of the tile it does not sweep
//! ([`lane_axis`]), and a *row* is the set of a tile's lines that differ
//! only along that axis. Each row is handed to the kernel as one lane view
//! of tile storage ([`LineSweepKernel::sweep_lanes`]), with the context of
//! its lane 0: lanes the tile's stride along the lane axis apart, elements
//! `±` its stride along the swept dimension. Lines
//! are numbered row-major with the swept axis reduced to 1, so a row's
//! lines are consecutive, and so are their carries: because the line-major
//! carry layout *is* the wire layout, the incoming message is evolved in
//! place and sent on by move — the communication schedule (message count,
//! payload sizes, byte order) is identical to per-line execution. A phase's
//! rows run one after another on the rank's own thread (ranks are the
//! engine's only parallelism), and one row scratch is reused across the γ
//! phases, so steady-state phases allocate nothing.
//!
//! The phase loop itself belongs to the compiled sweep
//! ([`crate::compiled`]); every sweep, a one-off one included, runs through
//! a [`crate::compiled::SolverPlan`], which also runs the halo exchange of
//! stencil phases (e.g. SP's `compute_rhs`) with the same per-direction
//! aggregation.

use crate::compiled::{PhasePlan, PlanKey};
use crate::recurrence::{lane_axis, LineSweepKernel, SegmentCtx};
use crate::simd::{SimdLevel, SimdMode};
use mp_core::multipart::{Direction, Multipartitioning};
use mp_grid::{LaneField, Lanes, RankStore, TileGrid};

/// Tuning knobs for the sweep executor. Options only change *how* each
/// phase's compute is organized, never what goes on the wire: every
/// setting produces bitwise-identical fields and the same aggregated
/// message schedule, so ranks of one sweep may even run different options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Which kernel vectorization level to use (see [`crate::simd`]):
    /// [`SimdMode::Auto`] (the default) resolves to the widest path the CPU
    /// supports at plan-build time, [`SimdMode::Scalar`] forces the
    /// portable scalar path. Results are bitwise identical in every mode;
    /// the knob exists for A/B measurement and as an escape hatch.
    pub simd: SimdMode,
}

impl SweepOptions {
    /// Same options with an explicit kernel vectorization mode.
    pub fn with_simd(mut self, simd: SimdMode) -> Self {
        self.simd = simd;
        self
    }

    /// Options from the environment — the single documented place every
    /// entry point (CLI, examples, benches) reads the sweep knobs from:
    ///
    /// | variable        | meaning                      | default |
    /// |-----------------|------------------------------|---------|
    /// | `MP_SWEEP_SIMD` | kernel path: `auto`/`scalar` | auto    |
    ///
    /// A malformed value (empty, an unknown mode word) falls back to the
    /// default rather than panicking — env knobs must never abort a run —
    /// but earns one stderr warning per process naming the rejected value
    /// and the fallback used, so a typo is visible instead of silently
    /// running untuned.
    pub fn from_env() -> Self {
        SweepOptions {
            simd: SimdMode::from_env(),
        }
    }
}

impl Default for SweepOptions {
    /// [`SweepOptions::from_env`].
    fn default() -> Self {
        SweepOptions::from_env()
    }
}

/// Per-(tile, field) storage for one phase. Built from the store at the
/// start of every phase, so `ptr..ptr+len` is always a whole field buffer;
/// the pointer is dereferenced only through the bounds-checked lane views
/// below.
pub(crate) struct FieldMeta {
    /// Start of the field's raw storage (ghost layers included).
    ptr: *mut f64,
    /// Elements in the field's raw storage.
    len: usize,
    /// Offset of the interior origin in the raw buffer.
    base_off: usize,
}

impl FieldMeta {
    /// Addressing for one field's raw storage `raw` in this phase.
    pub(crate) fn new(raw: &mut [f64], base_off: usize) -> Self {
        FieldMeta {
            ptr: raw.as_mut_ptr(),
            len: raw.len(),
            base_off,
        }
    }
}

/// Reusable per-row buffers — one set per compiled plan, so phases never
/// allocate.
pub(crate) struct RowScratch {
    /// The current row's context, which locates its lane 0; mutated in
    /// place.
    ctx: SegmentCtx,
    /// The current row's coordinates within its tile (lane and swept axes
    /// at 0).
    coord: Vec<usize>,
    /// The per-field table of the lane view each kernel call runs on.
    lane_fields: Vec<LaneField>,
}

impl RowScratch {
    /// Scratch for the rows of a `d`-dimensional sweep of `dim` in `dir`
    /// over `nfields` fields.
    pub(crate) fn new(d: usize, dim: usize, dir: Direction, nfields: usize) -> Self {
        RowScratch {
            ctx: SegmentCtx::new(vec![0; d], dim, dir),
            coord: vec![0; d],
            lane_fields: Vec::with_capacity(nfields),
        }
    }
}

/// Run the rows of phase `pp`, tile by tile in store order and row-major
/// within a tile, on the calling rank thread against the phase's carry
/// message `cbuf` (line-major, `key.carry_len` per line), over the phase's
/// field views `fms` at the plan's SIMD level. Each row is one lane view of
/// tile storage, and its carries are the next `row length · carry_len`
/// elements of `cbuf`. Returns the number of rows run.
pub(crate) fn run_rows<K: LineSweepKernel + ?Sized>(
    pp: &PhasePlan,
    fms: &[FieldMeta],
    key: &PlanKey,
    simd: SimdLevel,
    kernel: &K,
    cbuf: &mut [f64],
    w: &mut RowScratch,
) -> usize {
    let RowScratch {
        ctx,
        coord,
        lane_fields,
    } = w;
    let (d, nf, dim, clen) = (key.gammas.len(), key.fields.len(), key.dim, key.carry_len);
    let la = lane_axis(d, dim);
    let reversed = key.direction == Direction::Backward;
    let mut carries = cbuf;
    let mut rows = 0;
    for (t, &seg_len) in pp.seg_lens.iter().enumerate() {
        let red = &pp.red_exts[t * d..(t + 1) * d];
        let origin = &pp.origins[t * d..(t + 1) * d];
        let ext = red[la];
        let first = if reversed {
            origin[dim] + seg_len - 1
        } else {
            origin[dim]
        };
        let nrows = red.iter().product::<usize>() / ext;
        coord.fill(0);
        for _ in 0..nrows {
            // Lane 0 of the row; the lanes differ along the lane axis alone.
            for ((g, &o), &c) in ctx.global_start.iter_mut().zip(origin).zip(coord.iter()) {
                *g = o + c;
            }
            ctx.global_start[dim] = first;
            let parts = (0..nf).map(|f| {
                let fm = &fms[t * nf + f];
                let strides = &pp.fm_strides[(t * nf + f) * d..(t * nf + f + 1) * d];
                let fwd =
                    fm.base_off + coord.iter().zip(strides).map(|(c, s)| c * s).sum::<usize>();
                let sd = strides[dim];
                let (offset, stride) = if reversed {
                    (fwd + (seg_len - 1) * sd, -(sd as isize))
                } else {
                    (fwd, sd as isize)
                };
                (fm.ptr, fm.len, offset, stride, strides[la] as isize)
            });
            // SAFETY: each `fm` was refreshed from the store this phase,
            // and `execute` holds the store mutably for the whole phase, so
            // it views a live buffer of `fm.len` elements. Rows run one at a
            // time on the rank thread and the carries are a separate
            // buffer, so nothing else touches the view's elements while it
            // lives; `from_raw` checks the row's corners against each
            // buffer.
            let mut lanes = unsafe { Lanes::from_raw(parts, ext, seg_len, lane_fields) };
            let (row_carries, rest) = std::mem::take(&mut carries).split_at_mut(ext * clen);
            kernel.sweep_lanes(simd, key.direction, row_carries, &mut lanes, ctx);
            carries = rest;
            // Next row: row-major over every axis but the lane axis (the
            // swept axis has extent 1 and always wraps).
            for k in (0..d).rev().filter(|&k| k != la) {
                coord[k] += 1;
                if coord[k] < red[k] {
                    break;
                }
                coord[k] = 0;
            }
        }
        rows += nrows;
    }
    debug_assert!(carries.is_empty(), "rows did not cover the carry message");
    rows
}

/// Allocate this rank's storage for a multipartitioning.
pub fn allocate_rank_store(
    rank: u64,
    mp: &Multipartitioning,
    grid: &TileGrid,
    field_defs: &[mp_grid::FieldDef],
) -> RankStore {
    let coords = mp.tiles_of(rank);
    RankStore::allocate(rank, grid, &coords, field_defs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::SolverPlan;
    use crate::recurrence::{FirstOrderKernel, PrefixSumKernel};
    use crate::verify::serial_sweep;
    use mp_core::cost::CostModel;
    use mp_core::partition::Partitioning;
    use mp_grid::{ArrayD, FieldDef};
    use mp_runtime::comm::Communicator;
    use mp_runtime::threaded::run_threaded;

    fn init_value(g: &[usize]) -> f64 {
        // deterministic, position-dependent
        (g.iter()
            .enumerate()
            .map(|(k, &v)| (k + 1) * (v * 7 + 3) % 23)
            .sum::<usize>()) as f64
            - 11.0
    }

    /// Run a sweep on p ranks and gather the field back into a global array.
    fn run_distributed_sweep(
        mp: &Multipartitioning,
        eta: &[usize],
        dim: usize,
        dir: Direction,
        kernel: &(impl LineSweepKernel + Clone + Send),
    ) -> ArrayD<f64> {
        let grid = TileGrid::new(
            eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let fields = [FieldDef::new("u", 0)];
        let stores = run_threaded(mp.p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), mp, &grid, &fields);
            store.init_field(0, init_value);
            SolverPlan::new(SweepOptions::default())
                .sweep(comm, &mut store, mp, dim, dir, kernel, 1000);
            store
        });
        let mut global = ArrayD::zeros(eta);
        for store in &stores {
            store.gather_into(0, &mut global);
        }
        global
    }

    fn serial_reference(
        eta: &[usize],
        dim: usize,
        dir: Direction,
        kernel: &impl LineSweepKernel,
    ) -> ArrayD<f64> {
        let mut global = ArrayD::from_fn(eta, init_value);
        serial_sweep(&mut [&mut global], dim, dir, kernel);
        global
    }

    #[test]
    fn env_knob_invalid_values_fall_back() {
        // SweepOptions::from_env parsing: MP_SWEEP_SIMD picks the dispatch
        // mode; anything unrecognized (including garbage and the level name
        // `avx2`) falls back to auto rather than erroring. It is the only
        // test that sets the variable; every setting sweeps bitwise alike,
        // so tests reading it meanwhile are unaffected.
        for (val, want) in [
            ("scalar", SimdMode::Scalar),
            ("AVX2", SimdMode::Auto),
            (" auto ", SimdMode::Auto),
            ("banana", SimdMode::Auto),
            ("", SimdMode::Auto),
        ] {
            std::env::set_var("MP_SWEEP_SIMD", val);
            assert_eq!(SweepOptions::from_env().simd, want, "value {val:?}");
        }
        std::env::remove_var("MP_SWEEP_SIMD");
        let o = SweepOptions::default(); // Default == from_env
        assert_eq!(o.simd, SimdMode::Auto, "simd defaults to auto");
    }

    #[test]
    fn prefix_sum_matches_serial_p8() {
        let mp = Multipartitioning::from_partitioning(8, Partitioning::new(vec![4, 4, 2]));
        let eta = [16usize, 16, 8];
        let k = PrefixSumKernel::new(0);
        for dim in 0..3 {
            for dir in [Direction::Forward, Direction::Backward] {
                let got = run_distributed_sweep(&mp, &eta, dim, dir, &k);
                let want = serial_reference(&eta, dim, dir, &k);
                assert_eq!(
                    got.max_abs_diff(&want),
                    0.0,
                    "dim {dim} {dir:?} not bitwise equal"
                );
            }
        }
    }

    #[test]
    fn first_order_matches_serial_diagonal_p9() {
        let mp = Multipartitioning::diagonal(9, 3);
        let eta = [12usize, 12, 12];
        let k = FirstOrderKernel::new(0, 0.8);
        for dim in 0..3 {
            let got = run_distributed_sweep(&mp, &eta, dim, Direction::Forward, &k);
            let want = serial_reference(&eta, dim, Direction::Forward, &k);
            assert_eq!(got.max_abs_diff(&want), 0.0, "dim {dim}");
        }
    }

    #[test]
    fn generalized_p6_matches_serial() {
        // p = 6 is impossible for diagonal 3-D multipartitioning — the
        // headline capability of the paper.
        let mp = Multipartitioning::optimal(6, &[12, 12, 12], &CostModel::origin2000_like());
        let eta = [12usize, 12, 12];
        let k = PrefixSumKernel::new(0);
        for dim in 0..3 {
            for dir in [Direction::Forward, Direction::Backward] {
                let got = run_distributed_sweep(&mp, &eta, dim, dir, &k);
                let want = serial_reference(&eta, dim, dir, &k);
                assert_eq!(got.max_abs_diff(&want), 0.0, "dim {dim} {dir:?}");
            }
        }
    }

    #[test]
    fn self_neighbor_partitioning_works() {
        // p = 2, b = (4,2,2): moving along dim 0 stays on the same rank
        // (neighbor offset ≡ 0), exercising the local carry hand-off.
        let mp = Multipartitioning::from_partitioning(2, Partitioning::new(vec![4, 2, 2]));
        assert_eq!(mp.neighbor_rank(0, 0, 1), 0, "test premise: self-neighbor");
        let eta = [8usize, 8, 8];
        let k = PrefixSumKernel::new(0);
        for dim in 0..3 {
            let got = run_distributed_sweep(&mp, &eta, dim, Direction::Forward, &k);
            let want = serial_reference(&eta, dim, Direction::Forward, &k);
            assert_eq!(got.max_abs_diff(&want), 0.0, "dim {dim}");
        }
    }

    #[test]
    fn ragged_extents_match_serial() {
        // η not divisible by γ: geometry layer spreads the remainder, so
        // tiles of one phase have rows of different lengths.
        let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![2, 2, 2]));
        let eta = [7usize, 9, 5];
        let k = PrefixSumKernel::new(0);
        for dim in 0..3 {
            let got = run_distributed_sweep(&mp, &eta, dim, Direction::Forward, &k);
            let want = serial_reference(&eta, dim, Direction::Forward, &k);
            assert_eq!(got.max_abs_diff(&want), 0.0, "dim {dim}");
        }
    }

    #[test]
    fn two_d_multipartitioning() {
        let mp = Multipartitioning::from_partitioning(3, Partitioning::new(vec![3, 3]));
        let eta = [9usize, 9];
        let k = FirstOrderKernel::new(0, -0.5);
        for dim in 0..2 {
            for dir in [Direction::Forward, Direction::Backward] {
                let got = run_distributed_sweep(&mp, &eta, dim, dir, &k);
                let want = serial_reference(&eta, dim, dir, &k);
                assert_eq!(got.max_abs_diff(&want), 0.0, "dim {dim} {dir:?}");
            }
        }
    }

    #[test]
    fn serial_comm_single_rank_sweep() {
        // p = 1: every neighbor is self; the executor must run entirely on
        // local carries through a SerialComm without touching the network.
        use mp_runtime::comm::SerialComm;
        let mp = Multipartitioning::from_partitioning(1, Partitioning::new(vec![3, 2, 2]));
        let eta = [9usize, 8, 8];
        let grid = TileGrid::new(&eta, &[3, 2, 2]);
        let k = PrefixSumKernel::new(0);
        let mut comm = SerialComm;
        let mut store = allocate_rank_store(0, &mp, &grid, &[FieldDef::new("u", 0)]);
        store.init_field(0, init_value);
        let mut plan = SolverPlan::new(SweepOptions::default());
        for dim in 0..3 {
            plan.sweep(&mut comm, &mut store, &mp, dim, Direction::Forward, &k, 0);
        }
        let mut global = ArrayD::zeros(&eta);
        store.gather_into(0, &mut global);
        let mut want = ArrayD::from_fn(&eta, init_value);
        for dim in 0..3 {
            serial_sweep(&mut [&mut want], dim, Direction::Forward, &k);
        }
        assert_eq!(global.max_abs_diff(&want), 0.0);
    }

    #[test]
    #[should_panic(expected = "does not hold this rank's tiles")]
    fn mismatched_store_detected() {
        // Allocate rank 1's tiles of a 2-rank world but sweep with a 1-rank
        // multipartitioning: the ownership check must fire before any
        // communication happens.
        use mp_runtime::comm::SerialComm;
        let mp2 = Multipartitioning::from_partitioning(2, Partitioning::new(vec![2, 2, 1]));
        let grid = TileGrid::new(&[4, 4, 4], &[2, 2, 1]);
        let mut store = allocate_rank_store(1, &mp2, &grid, &[FieldDef::new("u", 0)]);
        let mp1 = Multipartitioning::from_partitioning(1, Partitioning::new(vec![2, 2, 1]));
        let k = PrefixSumKernel::new(0);
        let mut comm = SerialComm;
        let mut plan = SolverPlan::new(SweepOptions::default());
        plan.sweep(&mut comm, &mut store, &mp1, 0, Direction::Forward, &k, 0);
    }

    #[test]
    fn wide_halo_exchange_width_2() {
        // Real SP ships 2-wide halos; the exchange must fill both ghost
        // layers wherever an interior neighbor exists.
        let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![4, 4, 1]));
        let eta = [8usize, 8, 4];
        let grid = TileGrid::new(&eta, &[4, 4, 1]);
        let fields = [FieldDef::new("u", 2)];
        run_threaded(4, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, |g| (g[0] * 100 + g[1] * 10 + g[2]) as f64);
            SolverPlan::new(SweepOptions::default())
                .exchange_halos(comm, &mut store, &mp, 0, 2, 4_000);
            for tile in &store.tiles {
                let arr = tile.field(0);
                let origin = &tile.region.origin;
                for dim in 0..2 {
                    if origin[dim] >= 2 {
                        for depth in 1..=2isize {
                            let mut idx = vec![0isize; 3];
                            idx[dim] = -depth;
                            let g: Vec<usize> = (0..3)
                                .map(|k| (origin[k] as isize + idx[k]) as usize)
                                .collect();
                            let want = (g[0] * 100 + g[1] * 10 + g[2]) as f64;
                            assert_eq!(arr.get(&idx), want, "tile {:?}", tile.coord);
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn halo_exchange_fills_ghosts() {
        let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![2, 2, 2]));
        let eta = [8usize, 8, 8];
        let grid = TileGrid::new(&eta, &[2, 2, 2]);
        let fields = [FieldDef::new("u", 1)];
        run_threaded(4, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, |g| (g[0] * 100 + g[1] * 10 + g[2]) as f64);
            SolverPlan::new(SweepOptions::default())
                .exchange_halos(comm, &mut store, &mp, 0, 1, 5000);
            // Every interior-adjacent ghost must equal the global value.
            for tile in &store.tiles {
                let arr = tile.field(0);
                let origin = &tile.region.origin;
                let ext = arr.interior().to_vec();
                for dim in 0..3 {
                    // low ghost plane
                    if origin[dim] > 0 {
                        let mut idx = vec![0isize; 3];
                        // sample a few points on the ghost plane
                        for a in 0..ext[(dim + 1) % 3] {
                            idx[dim] = -1;
                            idx[(dim + 1) % 3] = a as isize;
                            idx[(dim + 2) % 3] = 0;
                            let g: Vec<usize> = (0..3)
                                .map(|k| (origin[k] as isize + idx[k]) as usize)
                                .collect();
                            let want = (g[0] * 100 + g[1] * 10 + g[2]) as f64;
                            assert_eq!(arr.get(&idx), want, "tile {:?} dim {dim}", tile.coord);
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn halo_exchange_generalized_p8() {
        // Multiple tiles per rank per direction: aggregation path.
        let mp = Multipartitioning::from_partitioning(8, Partitioning::new(vec![4, 4, 2]));
        let eta = [8usize, 8, 4];
        let grid = TileGrid::new(&eta, &[4, 4, 2]);
        let fields = [FieldDef::new("u", 1)];
        run_threaded(8, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, |g| (g[0] * 100 + g[1] * 10 + g[2]) as f64 + 1.0);
            SolverPlan::new(SweepOptions::default())
                .exchange_halos(comm, &mut store, &mp, 0, 1, 9000);
            for tile in &store.tiles {
                let arr = tile.field(0);
                let origin = &tile.region.origin;
                let end: Vec<usize> = (0..3).map(|k| origin[k] + tile.region.extent[k]).collect();
                // check all 6 ghost face centers where interior
                for dim in 0..3 {
                    for (side, offs) in [(0, -1isize), (1, 1)] {
                        let interior_exists = if side == 0 {
                            origin[dim] > 0
                        } else {
                            end[dim] < eta[dim]
                        };
                        if !interior_exists {
                            continue;
                        }
                        let mut idx: Vec<isize> = vec![0; 3];
                        idx[dim] = if side == 0 {
                            -1
                        } else {
                            arr.interior()[dim] as isize
                        };
                        let g: Vec<usize> = (0..3)
                            .map(|k| {
                                if k == dim {
                                    (if side == 0 {
                                        origin[k] as isize + offs
                                    } else {
                                        end[k] as isize
                                    }) as usize
                                } else {
                                    origin[k]
                                }
                            })
                            .collect();
                        let want = (g[0] * 100 + g[1] * 10 + g[2]) as f64 + 1.0;
                        assert_eq!(
                            arr.get(&idx),
                            want,
                            "tile {:?} dim {dim} side {side}",
                            tile.coord
                        );
                    }
                }
            }
        });
    }
}
