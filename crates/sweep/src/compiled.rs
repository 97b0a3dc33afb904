//! Compiled sweep plans: build once, execute many.
//!
//! The paper's §5 compiler view is that a multipartitioned sweep is
//! *static*: tile ownership, slab order, the unique neighbor per phase, and
//! every message size are fully determined by `(Multipartitioning, dim,
//! direction)` before the first timestep runs; NAS SP/BT run the same six
//! directional sweeps for hundreds of timesteps. This module hoists that
//! work into a compiled sweep — built once per `(mp, dim, direction,
//! kernel shape, options)` — that owns the precomputed slab order,
//! upstream/downstream peer ranks, per-phase tile metadata, the expected
//! carry-message length of every phase, and long-lived row scratch.
//! Executing a compiled sweep only refreshes the per-field raw pointers
//! (storage may move between calls) and runs the communication/compute
//! loop. [`SolverPlan`] caches one per `(dim, direction)` and is the one
//! entry point: a one-off sweep is a [`SolverPlan::sweep`] call.
//!
//! **The schedule is the paper's.** Every phase boundary ships exactly one
//! aggregated carry message from each rank to its unique downstream
//! neighbor, so the wire depends only on `(multipartitioning, dim,
//! direction, kernel shape)` — never on an option: the SIMD level changes
//! how a phase computes, not what it sends. The carry buffer is relayed by
//! ownership: received, evolved in place by the phase's rows and sent
//! onward by move, so no carry is ever copied.
//!
//! **Scratch fields.** A field declared [`mp_grid::FieldDef::scratch`] is
//! addressed in sweep order, lanes adjacent, with strides every plan of
//! one dimension shares, so a backward sweep reads it where the forward
//! sweep of the same dimension wrote it (DESIGN.md §15).
//!
//! **Contract.** The plan caches *metadata*, never data. It is valid as
//! long as the multipartitioning, store geometry (tile set and extents,
//! and which fields are scratch), kernel shape (field list + carry
//! length), tag base, and options are unchanged; [`SolverPlan`] re-keys on
//! all of those except store geometry, which is fixed per plan (allocate a
//! new one per grid and field list).
//!
//! In debug builds every compiled sweep is cross-checked against
//! [`mp_core::plan::SweepPlan`] at build time, making the schedule module
//! the source of truth for the executor rather than documentation-only.

use crate::executor::{run_rows, FieldMeta, RowScratch, SweepOptions};
use crate::recurrence::{lane_axis, LineSweepKernel};
use crate::simd::{SimdLevel, SimdMode};
use mp_core::multipart::{Direction, Multipartitioning};
use mp_core::plan::SweepPlan;
use mp_grid::{HaloPlan, RankStore};
use mp_runtime::comm::{Communicator, Tag};
use std::time::Instant;

/// What a [`CompiledSweep`] was built for — compared by
/// [`CompiledSweep::matches`] to decide when a cached plan can be reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlanKey {
    /// Processor count of the multipartitioning.
    p: u64,
    /// Tile-grid shape of the multipartitioning (one entry per dimension).
    pub(crate) gammas: Vec<u64>,
    /// Swept dimension.
    pub(crate) dim: usize,
    /// Sweep direction.
    pub(crate) direction: Direction,
    /// Wire tags are `tag_base + phase` in / `tag_base + phase + 1` out.
    tag_base: Tag,
    /// Kernel field indices, in kernel order.
    pub(crate) fields: Vec<usize>,
    /// Kernel carry length per line.
    pub(crate) carry_len: usize,
    /// Requested SIMD dispatch mode (resolved to a concrete level once at
    /// build time).
    simd: SimdMode,
}

/// Everything one phase needs, computed once at build time: tile metadata
/// in store order.
/// Raw field pointers are *not* here — storage may move between executes,
/// so they are refreshed into the plan's `FieldMeta` arena each phase.
#[derive(Debug)]
pub(crate) struct PhasePlan {
    /// Store indices of this phase's tiles, in store (= packing) order.
    tiles: Vec<usize>,
    /// Per-tile global origins, flattened `tile * d + k`.
    pub(crate) origins: Vec<usize>,
    /// Per-tile cross-section extents (swept dim forced to 1), same layout.
    pub(crate) red_exts: Vec<usize>,
    /// Per-tile segment length along the swept dimension.
    pub(crate) seg_lens: Vec<usize>,
    /// Per-(tile, field) strides, flattened `(tile * nf + f) * d + k`.
    pub(crate) fm_strides: Vec<usize>,
    /// Per-(tile, field) interior-origin offsets, flattened `tile * nf + f`.
    base_offs: Vec<usize>,
    /// Elements in the phase's carry message (lines × kernel carry length).
    carry_len: usize,
}

/// A fully compiled directional sweep for one rank: schedule + metadata +
/// scratch arenas. Built once with [`CompiledSweep::build`], executed many
/// times with [`CompiledSweep::execute`], through [`SolverPlan`].
pub(crate) struct CompiledSweep {
    key: PlanKey,
    rank: u64,
    /// Rank carries arrive from (one step opposite the sweep direction).
    upstream: u64,
    /// Rank carries ship to.
    downstream: u64,
    phases: Vec<PhasePlan>,
    /// Per-(tile, field) raw views, refreshed from the store each phase.
    fms: Vec<FieldMeta>,
    /// Row scratch, reused across phases and executes.
    scratch: RowScratch,
    /// SIMD level resolved once at build time from `key.simd` and the
    /// hardware — steady-state execution never re-detects features.
    simd: SimdLevel,
}

impl CompiledSweep {
    /// Compile the sweep of `dim` in `dir` over `mp` for `rank`, whose
    /// tiles live in `store`. Only reads geometry — `store`'s data is
    /// untouched, and the plan never holds pointers into it between
    /// executes.
    ///
    /// In debug builds the result is cross-checked against
    /// [`SweepPlan::build`] + [`SweepPlan::validate`]
    /// (see [`CompiledSweep::validate_against`]).
    ///
    /// # Panics
    /// Panics if the store does not hold exactly this rank's tiles for
    /// every slab.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build<K: LineSweepKernel + ?Sized>(
        mp: &Multipartitioning,
        rank: u64,
        store: &RankStore,
        dim: usize,
        dir: Direction,
        kernel: &K,
        tag_base: Tag,
        opts: &SweepOptions,
    ) -> Self {
        let d = mp.dims();
        let gamma = mp.gammas()[dim];
        let step = dir.step();
        let slab_order: Vec<u64> = match dir {
            Direction::Forward => (0..gamma).collect(),
            Direction::Backward => (0..gamma).rev().collect(),
        };
        let clen = kernel.carry_len();
        let nfields = kernel.fields().len();

        let mut phases = Vec::with_capacity(slab_order.len());
        for &slab in &slab_order {
            let mut pp = PhasePlan {
                tiles: Vec::new(),
                origins: Vec::new(),
                red_exts: Vec::new(),
                seg_lens: Vec::new(),
                fm_strides: Vec::new(),
                base_offs: Vec::new(),
                carry_len: 0,
            };
            for (ti, tile) in store.tiles.iter().enumerate() {
                if tile.coord[dim] != slab {
                    continue;
                }
                pp.tiles.push(ti);
                pp.origins.extend_from_slice(&tile.region.origin);
                {
                    let ext = tile.field(kernel.fields()[0]).interior();
                    pp.seg_lens.push(ext[dim]);
                    let ro = pp.red_exts.len();
                    pp.red_exts.extend_from_slice(ext);
                    pp.red_exts[ro + dim] = 1;
                }
                for &f in kernel.fields() {
                    let arr = tile.field(f);
                    if store.field_defs[f].scratch {
                        assert_eq!(arr.halo(), 0, "scratch field {f} has ghost layers");
                        sweep_order_strides(arr.interior(), dim, &mut pp.fm_strides);
                        pp.base_offs.push(0);
                    } else {
                        pp.fm_strides.extend_from_slice(arr.strides());
                        pp.base_offs.push(arr.interior_origin_offset());
                    }
                }
            }
            assert_eq!(
                pp.tiles.len() as u64,
                mp.tiles_per_proc_per_slab(dim),
                "rank {rank}: store does not hold this rank's tiles for slab {slab} \
                 (was it allocated with allocate_rank_store for this multipartitioning?)"
            );

            let lines: usize = pp
                .red_exts
                .chunks(d)
                .map(|r| r.iter().product::<usize>())
                .sum();
            pp.carry_len = lines * clen;
            phases.push(pp);
        }

        let cs = CompiledSweep {
            key: PlanKey {
                p: mp.p,
                gammas: mp.gammas().to_vec(),
                dim,
                direction: dir,
                tag_base,
                fields: kernel.fields().to_vec(),
                carry_len: clen,
                simd: opts.simd,
            },
            rank,
            upstream: mp.neighbor_rank(rank, dim, -step),
            downstream: mp.neighbor_rank(rank, dim, step),
            phases,
            fms: Vec::with_capacity(mp.tiles_per_proc_per_slab(dim) as usize * nfields),
            scratch: RowScratch::new(d, dim, dir, nfields),
            simd: opts.simd.resolve(),
        };
        if cfg!(debug_assertions) {
            cs.validate_against(mp, store)
                .expect("compiled sweep disagrees with SweepPlan");
        }
        cs
    }

    /// True when the plan can serve a call with these parameters without
    /// rebuilding: same multipartitioning shape, sweep, tags, kernel shape,
    /// and options.
    pub(crate) fn matches<K: LineSweepKernel + ?Sized>(
        &self,
        mp: &Multipartitioning,
        dim: usize,
        dir: Direction,
        tag_base: Tag,
        kernel: &K,
        opts: &SweepOptions,
    ) -> bool {
        self.key.p == mp.p
            && self.key.gammas == mp.gammas()
            && self.key.dim == dim
            && self.key.direction == dir
            && self.key.tag_base == tag_base
            && self.key.fields == kernel.fields()
            && self.key.carry_len == kernel.carry_len()
            && self.key.simd == opts.simd
    }

    /// The distinct message lengths (in elements) this plan sends, for
    /// pre-sizing a communicator's buffer pool
    /// ([`Communicator::reserve_buffers`]).
    pub(crate) fn message_lens(&self) -> Vec<usize> {
        let nphases = self.phases.len();
        let mut lens: Vec<usize> = self.phases[..nphases.saturating_sub(1)]
            .iter()
            .map(|pp| pp.carry_len)
            .collect();
        lens.sort_unstable();
        lens.dedup();
        lens
    }

    /// Elements this plan touches per execute: every interior point of
    /// every tile the rank owns, summed across phases. Computed from the
    /// compiled geometry (`red_exts`-product lines × segment length per
    /// tile), so it is exact — the basis for the CLI's predicted-vs-
    /// measured compute comparison (`k1 · elements` vs the traced
    /// compute-span time).
    pub(crate) fn elements_per_execute(&self) -> u64 {
        let d = self.key.gammas.len();
        let mut total = 0u64;
        for pp in &self.phases {
            for (t, &seg) in pp.seg_lens.iter().enumerate() {
                let lines: usize = pp.red_exts[t * d..(t + 1) * d].iter().product();
                total += (lines * seg) as u64;
            }
        }
        total
    }

    /// Cross-check this compiled plan against the schedule module:
    /// [`SweepPlan::build`]'s structural invariants must hold
    /// ([`SweepPlan::validate`]), and this rank's phase rows must agree
    /// with the compiled tile order and peer ranks exactly. Run
    /// automatically at build time in debug builds.
    pub(crate) fn validate_against(
        &self,
        mp: &Multipartitioning,
        store: &RankStore,
    ) -> Result<(), String> {
        let plan = SweepPlan::build(mp, self.key.dim, self.key.direction);
        plan.validate(mp)?;
        if plan.num_phases() != self.phases.len() {
            return Err(format!(
                "phase count mismatch: plan {} vs compiled {}",
                plan.num_phases(),
                self.phases.len()
            ));
        }
        let last = self.phases.len() - 1;
        for (k, rp) in plan.rank_phases(self.rank).enumerate() {
            let pp = &self.phases[k];
            if rp.tiles.len() != pp.tiles.len() {
                return Err(format!(
                    "phase {k}: plan has {} tiles, compiled has {}",
                    rp.tiles.len(),
                    pp.tiles.len()
                ));
            }
            for (want, &ti) in rp.tiles.iter().zip(&pp.tiles) {
                let got = &store.tiles[ti].coord;
                if want != got {
                    return Err(format!(
                        "phase {k}: plan tile {want:?} vs compiled tile {got:?}"
                    ));
                }
            }
            let want_recv = (k > 0).then_some(self.upstream);
            if rp.recv_from != want_recv {
                return Err(format!(
                    "phase {k}: plan recv_from {:?} vs compiled {:?}",
                    rp.recv_from, want_recv
                ));
            }
            let want_send = (k < last).then_some(self.downstream);
            if rp.send_to != want_send {
                return Err(format!(
                    "phase {k}: plan send_to {:?} vs compiled {:?}",
                    rp.send_to, want_send
                ));
            }
        }
        Ok(())
    }

    /// Execute the compiled sweep: refresh the per-field raw views from
    /// `store` and run the paper's phase loop. Each phase takes its carry
    /// buffer — a zero-filled one at phase 0 (every line enters the domain
    /// with a zero carry), else the one the previous phase handed over on this rank
    /// (self-neighbor) or received from the upstream rank — evolves it in
    /// place through the phase's rows, and passes it on by move:
    /// one aggregated message to the downstream rank per phase boundary,
    /// back to the communicator's buffer pool after the last phase.
    ///
    /// # Panics
    /// Panics if `comm`'s rank or the kernel's shape differ from what the
    /// plan was built for, or if a received carry message has the wrong
    /// length.
    pub(crate) fn execute<C: Communicator, K: LineSweepKernel + ?Sized>(
        &mut self,
        comm: &mut C,
        store: &mut RankStore,
        kernel: &K,
    ) {
        assert_eq!(comm.rank(), self.rank, "compiled sweep used on wrong rank");
        assert!(
            kernel.fields() == self.key.fields && kernel.carry_len() == self.key.carry_len,
            "kernel shape differs from the one the sweep was compiled for"
        );
        let (rank, upstream, downstream) = (self.rank, self.upstream, self.downstream);
        let CompiledSweep {
            key,
            phases,
            fms,
            scratch,
            simd,
            ..
        } = self;
        let clen = key.carry_len;
        let nphases = phases.len();
        // The carry a self-neighbor boundary hands to the next phase.
        let mut held: Option<Vec<f64>> = None;

        for (phase, pp) in phases.iter().enumerate() {
            let tag = key.tag_base + phase as u64;
            refresh_fms(fms, pp, store, &key.fields);

            let mut cbuf: Vec<f64> = if phase == 0 {
                let mut b = comm.take_send_buffer();
                b.clear();
                b.resize(pp.carry_len, 0.0);
                b
            } else if upstream == rank {
                held.take()
                    .expect("self-neighbor carry hand-off out of sync")
            } else {
                comm.recv(upstream, tag)
            };
            assert_eq!(
                cbuf.len(),
                pp.carry_len,
                "carry message length mismatch (phase {phase}): sender and receiver \
                 disagree on the kernel shape or the multipartitioning"
            );

            let t_run = comm.tracer().is_some().then(Instant::now);
            let rows = run_rows(pp, fms, key, *simd, kernel, &mut cbuf, scratch);
            if let (Some(t0), Some(tr)) = (t_run, comm.tracer()) {
                tr.compute(
                    t0,
                    phase as u64,
                    rows as u64,
                    (pp.carry_len / clen.max(1)) as u64,
                );
            }

            if phase + 1 == nphases {
                comm.recycle(cbuf);
            } else if downstream == rank {
                held = Some(cbuf);
            } else {
                comm.send(downstream, tag + 1, cbuf);
            }
        }
    }
}

/// Append the strides a scratch field ([`mp_grid::FieldDef::scratch`]) of
/// a tile with interior extents `ext` is addressed by in a sweep of `dim`:
/// [`lane_axis`] 1, swept axis the lane extent, then the remaining axes
/// outward in row-major order, from offset 0. A row's lanes are adjacent
/// in every dimension, and the forward and backward plans of one dimension
/// compute the same strides, so the backward sweep reads each element
/// where the forward sweep wrote it.
fn sweep_order_strides(ext: &[usize], dim: usize, out: &mut Vec<usize>) {
    let at = out.len();
    out.resize(at + ext.len(), 0);
    let strides = &mut out[at..];
    let mut next = 1;
    let la = lane_axis(ext.len(), dim);
    let others = (0..ext.len()).rev().filter(|&k| k != dim && k != la);
    for k in [la, dim].into_iter().chain(others) {
        strides[k] = next;
        next *= ext[k];
    }
}

/// Refresh the raw per-(tile, field) views from the store — the only part
/// of the plan that cannot be cached across executes.
fn refresh_fms(fms: &mut Vec<FieldMeta>, pp: &PhasePlan, store: &mut RankStore, fields: &[usize]) {
    fms.clear();
    let nf = fields.len();
    for (t, &ti) in pp.tiles.iter().enumerate() {
        for (fi, &f) in fields.iter().enumerate() {
            let slot = t * nf + fi;
            fms.push(FieldMeta::new(
                store.tiles[ti].field_mut(f).raw_mut(),
                pp.base_offs[slot],
            ));
        }
    }
}

/// A per-rank solver plan: one cached compiled sweep per `(dim,
/// direction)` plus the compiled [`HaloPlan`] for stencil exchanges —
/// everything a timestepping driver (NAS SP/BT) builds up front and reuses
/// across timesteps. A sweep plan is rebuilt only when its key changes
/// (multipartitioning shape, kernel shape, tag base, or options); build
/// cost and count are tracked so callers can report amortization and
/// assert zero steady-state rebuilds.
pub struct SolverPlan {
    opts: SweepOptions,
    /// Slot `dim * 2 + dir_idx` (`Forward` = 0, `Backward` = 1).
    slots: Vec<Option<CompiledSweep>>,
    halo: Option<HaloPlan>,
    builds: u64,
    build_ns: u64,
    elements_swept: u64,
}

impl SolverPlan {
    /// An empty plan executing sweeps with `opts`.
    pub fn new(opts: SweepOptions) -> Self {
        SolverPlan {
            opts,
            slots: Vec::new(),
            halo: None,
            builds: 0,
            build_ns: 0,
            elements_swept: 0,
        }
    }

    /// Plans built so far (sweep plans + halo plans). A steady-state run
    /// settles at one per distinct `(dim, direction)` swept plus one halo
    /// plan, and never rebuilds.
    pub fn builds(&self) -> u64 {
        self.builds
    }

    /// Total nanoseconds spent building plans (sweeps + halos).
    pub fn build_ns(&self) -> u64 {
        self.build_ns
    }

    /// Elements swept so far across every [`SolverPlan::sweep`] call
    /// (exact, from the compiled tile geometry). Pairs with
    /// traced compute time to report `k1 · elements` model error.
    pub fn elements_swept(&self) -> u64 {
        self.elements_swept
    }

    /// Always 0: the engine spawns no threads, since every phase runs on
    /// the rank's own thread. Kept only because perfbench's steady-state
    /// check still calls it; it goes with the next change to that
    /// benchmark.
    pub fn pool_threads_spawned(&self) -> usize {
        0
    }

    /// Execute one directional sweep, compiling it first if the cached
    /// plan for `(dim, dir)` is missing or keyed differently. On build,
    /// the communicator's buffer pool is pre-sized for the plan's message
    /// lengths and a `plan_build` span is recorded when tracing is on.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep<C: Communicator, K: LineSweepKernel + ?Sized>(
        &mut self,
        comm: &mut C,
        store: &mut RankStore,
        mp: &Multipartitioning,
        dim: usize,
        dir: Direction,
        kernel: &K,
        tag_base: Tag,
    ) {
        let slot = dim * 2
            + match dir {
                Direction::Forward => 0,
                Direction::Backward => 1,
            };
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, || None);
        }
        let reusable = matches!(
            &self.slots[slot],
            Some(cs) if cs.matches(mp, dim, dir, tag_base, kernel, &self.opts)
        );
        if !reusable {
            // Build timing is unconditional: it happens once per run, so
            // the zero-overhead telemetry contract (clock never read in
            // steady state when tracing is off) is preserved.
            let t0 = Instant::now();
            let cs = CompiledSweep::build(
                mp,
                comm.rank(),
                store,
                dim,
                dir,
                kernel,
                tag_base,
                &self.opts,
            );
            self.builds += 1;
            self.build_ns += t0.elapsed().as_nanos() as u64;
            comm.reserve_buffers(&cs.message_lens());
            if let Some(tr) = comm.tracer() {
                tr.plan_build(t0);
            }
            self.slots[slot] = Some(cs);
        }
        let cs = self.slots[slot].as_mut().expect("slot just filled");
        self.elements_swept += cs.elements_per_execute();
        cs.execute(comm, store, kernel);
    }

    /// Exchange the `width` ghost layers of `field` across all tile faces,
    /// in both directions of every dimension, using the compiled halo
    /// schedule, built on first use (or if `width` changes). One plan
    /// serves every field and tag base — the schedule depends only on tile
    /// geometry and width. Each rank sends at most one message per neighbor
    /// per direction; ghosts at the physical domain boundary are left
    /// untouched. Faces are packed into a pooled buffer
    /// ([`Communicator::take_send_buffer`]) and consumed messages are
    /// recycled.
    pub fn exchange_halos<C: Communicator>(
        &mut self,
        comm: &mut C,
        store: &mut RankStore,
        mp: &Multipartitioning,
        field: usize,
        width: usize,
        tag_base: Tag,
    ) {
        let rebuild = self.halo.as_ref().is_none_or(|h| h.width() != width);
        if rebuild {
            let t0 = Instant::now();
            let rank = comm.rank();
            let plan = HaloPlan::build(store, mp.gammas(), width, |dm, st| {
                mp.neighbor_rank(rank, dm, st)
            });
            self.builds += 1;
            self.build_ns += t0.elapsed().as_nanos() as u64;
            comm.reserve_buffers(&[plan.max_send_len()]);
            if let Some(tr) = comm.tracer() {
                tr.plan_build(t0);
            }
            self.halo = Some(plan);
        }
        let plan = self.halo.as_ref().expect("halo plan just built");
        let rank = comm.rank();
        for dp in plan.dirs() {
            let tag = tag_base + dp.tag_off;

            let t_pack = comm.tracer().is_some().then(Instant::now);
            let mut payload = comm.take_send_buffer();
            payload.clear();
            for &t in &dp.send_tiles {
                store.tiles[t].field(field).pack_face_into(
                    dp.dim,
                    dp.side_send,
                    width,
                    &mut payload,
                );
            }
            debug_assert_eq!(payload.len(), dp.send_len, "halo plan stale for store");
            if let (Some(t0), Some(tr)) = (t_pack, comm.tracer()) {
                tr.pack(t0);
            }

            let received: Vec<f64> = if dp.to == rank {
                payload
            } else {
                comm.send(dp.to, tag, payload);
                comm.recv(dp.from, tag)
            };
            assert_eq!(
                received.len(),
                dp.recv_len,
                "halo message not fully consumed"
            );

            let t_unpack = comm.tracer().is_some().then(Instant::now);
            let mut cursor = 0usize;
            for (&t, &n) in dp.recv_tiles.iter().zip(&dp.recv_lens) {
                store.tiles[t].field_mut(field).unpack_ghost(
                    dp.dim,
                    dp.side_recv,
                    width,
                    &received[cursor..cursor + n],
                );
                cursor += n;
            }
            if let (Some(t0), Some(tr)) = (t_unpack, comm.tracer()) {
                tr.unpack(t0);
            }
            comm.recycle(received);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::allocate_rank_store;
    use crate::recurrence::{FirstOrderKernel, PrefixSumKernel};
    use mp_core::cost::CostModel;
    use mp_core::partition::Partitioning;
    use mp_grid::{ArrayD, FieldDef, TileGrid};
    use mp_runtime::threaded::run_threaded;

    fn init_value(g: &[usize]) -> f64 {
        (g.iter()
            .enumerate()
            .map(|(k, &v)| (k + 1) * (v * 7 + 3) % 23)
            .sum::<usize>()) as f64
            - 11.0
    }

    fn grid_for(mp: &Multipartitioning, eta: &[usize]) -> TileGrid {
        TileGrid::new(
            eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        )
    }

    /// 10 sweeps through a cached plan vs 10 freshly built ones:
    /// bitwise-identical fields, identical message/element counters, and
    /// exactly one plan build.
    #[test]
    fn engine_reuse_matches_fresh_calls() {
        let mp = Multipartitioning::optimal(6, &[12, 12, 12], &CostModel::origin2000_like());
        let eta = [12usize, 13, 11];
        let k = FirstOrderKernel::new(0, 0.8);
        let fields = [FieldDef::new("u", 0)];
        let opts = SweepOptions::default();
        let grid = grid_for(&mp, &eta);
        let fresh = run_threaded(mp.p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, init_value);
            for _ in 0..10 {
                let rank = comm.rank();
                let fwd = Direction::Forward;
                CompiledSweep::build(&mp, rank, &store, 1, fwd, &k, 1000, &opts)
                    .execute(comm, &mut store, &k);
            }
            (store, comm.sent_messages, comm.sent_elements)
        });
        let cached = run_threaded(mp.p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, init_value);
            let mut plan = SolverPlan::new(opts.clone());
            for _ in 0..10 {
                plan.sweep(comm, &mut store, &mp, 1, Direction::Forward, &k, 1000);
            }
            assert_eq!(plan.builds(), 1, "solver plan rebuilt a cached sweep");
            (store, comm.sent_messages, comm.sent_elements)
        });
        let mut a = ArrayD::zeros(&eta);
        let mut b = ArrayD::zeros(&eta);
        let (mut fm, mut fe, mut cm, mut ce) = (0u64, 0u64, 0u64, 0u64);
        for ((fs, m1, e1), (cs, m2, e2)) in fresh.iter().zip(cached.iter()) {
            fs.gather_into(0, &mut a);
            cs.gather_into(0, &mut b);
            fm += m1;
            fe += e1;
            cm += m2;
            ce += e2;
        }
        assert_eq!(a.max_abs_diff(&b), 0.0, "not bitwise equal");
        assert_eq!((fm, fe), (cm, ce), "plan reuse changed the schedule");
    }

    #[test]
    fn elements_swept_counts_whole_domain_per_execute() {
        // Each execute touches every interior point of the rank's tiles
        // exactly once, so the per-execute counts summed across ranks must
        // equal the domain size, and the plan's counter must scale
        // linearly with the number of sweeps.
        let mp = Multipartitioning::optimal(6, &[12, 12, 12], &CostModel::origin2000_like());
        let eta = [12usize, 13, 11];
        let domain = (eta[0] * eta[1] * eta[2]) as u64;
        let k = PrefixSumKernel::new(0);
        let fields = [FieldDef::new("u", 0)];
        let grid = grid_for(&mp, &eta);
        let opts = SweepOptions::default();
        let per_rank: u64 = (0..mp.p)
            .map(|rank| {
                let store = allocate_rank_store(rank, &mp, &grid, &fields);
                CompiledSweep::build(&mp, rank, &store, 0, Direction::Forward, &k, 0, &opts)
                    .elements_per_execute()
            })
            .sum();
        assert_eq!(per_rank, domain);
        let counted = run_threaded(mp.p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, init_value);
            let mut plan = SolverPlan::new(SweepOptions::default());
            for _ in 0..3 {
                plan.sweep(comm, &mut store, &mp, 0, Direction::Forward, &k, 1000);
                plan.sweep(comm, &mut store, &mp, 1, Direction::Backward, &k, 2000);
            }
            plan.elements_swept()
        });
        assert_eq!(counted.iter().sum::<u64>(), 3 * 2 * domain);
    }

    /// The dedicated validation test: every compiled sweep passes
    /// [`CompiledSweep::validate_against`] (release builds included), and
    /// a plan validated against the wrong multipartitioning is rejected.
    #[test]
    fn compiled_plans_validate_against_sweep_plan() {
        let opts = SweepOptions::default();
        let k = PrefixSumKernel::new(0);
        let fields = [FieldDef::new("u", 0)];
        for (p, gammas) in [
            (2u64, vec![2u64, 2, 1]),
            (4, vec![2, 2, 2]),
            (6, vec![0, 0, 0]),
        ] {
            let mp = if gammas[0] == 0 {
                Multipartitioning::optimal(p, &[12, 12, 12], &CostModel::origin2000_like())
            } else {
                Multipartitioning::from_partitioning(p, Partitioning::new(gammas))
            };
            let eta: Vec<usize> = mp.gammas().iter().map(|&g| 2 * g as usize).collect();
            let grid = grid_for(&mp, &eta);
            for rank in 0..mp.p {
                let store = allocate_rank_store(rank, &mp, &grid, &fields);
                for dim in 0..mp.dims() {
                    for dir in [Direction::Forward, Direction::Backward] {
                        let cs = CompiledSweep::build(&mp, rank, &store, dim, dir, &k, 0, &opts);
                        cs.validate_against(&mp, &store)
                            .expect("valid plan rejected");
                    }
                }
            }
        }
        // Wrong multipartitioning: same p but different tile shape — the
        // cross-check must fail.
        let mp = Multipartitioning::from_partitioning(2, Partitioning::new(vec![2, 2, 1]));
        let other = Multipartitioning::from_partitioning(2, Partitioning::new(vec![2, 1, 2]));
        let grid = grid_for(&mp, &[4, 4, 4]);
        let store = allocate_rank_store(0, &mp, &grid, &fields);
        let cs = CompiledSweep::build(&mp, 0, &store, 0, Direction::Forward, &k, 0, &opts);
        assert!(cs.validate_against(&other, &store).is_err());
    }

    #[test]
    fn engine_rebuilds_on_key_change() {
        let mp = Multipartitioning::from_partitioning(1, Partitioning::new(vec![2, 2, 1]));
        let grid = grid_for(&mp, &[4, 4, 2]);
        let k = PrefixSumKernel::new(0);
        let k2 = FirstOrderKernel::new(0, 0.5);
        let mut comm = mp_runtime::comm::SerialComm;
        let mut store = allocate_rank_store(0, &mp, &grid, &[FieldDef::new("u", 0)]);
        store.init_field(0, init_value);
        let mut plan = SolverPlan::new(SweepOptions::default());
        plan.sweep(&mut comm, &mut store, &mp, 0, Direction::Forward, &k, 0);
        plan.sweep(&mut comm, &mut store, &mp, 0, Direction::Forward, &k, 0);
        assert_eq!(plan.builds(), 1);
        // Different direction → its own slot.
        plan.sweep(&mut comm, &mut store, &mp, 0, Direction::Backward, &k, 0);
        assert_eq!(plan.builds(), 2);
        // Different tag base → rebuild in place.
        plan.sweep(&mut comm, &mut store, &mp, 0, Direction::Forward, &k, 7);
        assert_eq!(plan.builds(), 3);
        // A different kernel of the *same shape* (fields + carry length)
        // reuses the plan — plans depend only on the shape.
        plan.sweep(&mut comm, &mut store, &mp, 0, Direction::Forward, &k2, 7);
        assert_eq!(plan.builds(), 3);
        // Different kernel shape (field list) → rebuild.
        let mut store2 = allocate_rank_store(
            0,
            &mp,
            &grid,
            &[FieldDef::new("u", 0), FieldDef::new("v", 0)],
        );
        store2.init_field(1, init_value);
        let k3 = PrefixSumKernel::new(1);
        plan.sweep(&mut comm, &mut store2, &mp, 0, Direction::Forward, &k3, 7);
        assert_eq!(plan.builds(), 4);
        // Steady state again.
        plan.sweep(&mut comm, &mut store2, &mp, 0, Direction::Forward, &k3, 7);
        assert_eq!(plan.builds(), 4);
        assert!(plan.build_ns() > 0);
    }

    /// A scratch field has lane stride 1 in every sweep dimension, and the
    /// forward and backward plans of one dimension map each (line, k) of a
    /// tile to the same storage element, one element each.
    #[test]
    fn scratch_fields_are_addressed_in_sweep_order() {
        use crate::thomas::ThomasBackwardKernel;
        use mp_grid::Shape;
        use std::collections::BTreeMap;

        let mp = Multipartitioning::from_partitioning(2, Partitioning::new(vec![2, 2, 1]));
        let grid = grid_for(&mp, &[7, 6, 5]);
        let fields = [FieldDef::new("d", 1), FieldDef::scratch("c")];
        // Kernel slot 0 is the scratch field.
        let k = ThomasBackwardKernel::new(1, 0);
        let opts = SweepOptions::default();
        for rank in 0..mp.p {
            let store = allocate_rank_store(rank, &mp, &grid, &fields);
            for dim in 0..3 {
                // (tile, element index) -> storage element, per direction,
                // from each plan's own strides and offsets.
                let maps = [Direction::Forward, Direction::Backward].map(|dir| {
                    let cs = CompiledSweep::build(&mp, rank, &store, dim, dir, &k, 0, &opts);
                    let mut map = BTreeMap::new();
                    for pp in &cs.phases {
                        for (t, &ti) in pp.tiles.iter().enumerate() {
                            let strides = &pp.fm_strides[2 * t * 3..(2 * t + 1) * 3];
                            assert_eq!(
                                strides[lane_axis(3, dim)],
                                1,
                                "dim {dim}: lanes not adjacent"
                            );
                            let base = pp.base_offs[2 * t];
                            let ext = &store.tiles[ti].region.extent;
                            Shape::new(ext).for_each_index(|idx| {
                                let at: usize = idx.iter().zip(strides).map(|(i, s)| i * s).sum();
                                map.insert((ti, idx.to_vec()), base + at);
                            });
                        }
                    }
                    map
                });
                assert_eq!(maps[0], maps[1], "dim {dim}: forward and backward disagree");
                for (ti, tile) in store.tiles.iter().enumerate() {
                    let mut at: Vec<usize> = maps[0]
                        .iter()
                        .filter(|((t, _), _)| *t == ti)
                        .map(|(_, &a)| a)
                        .collect();
                    at.sort_unstable();
                    let len = tile.field(1).raw().len();
                    assert_eq!(
                        at,
                        (0..len).collect::<Vec<_>>(),
                        "dim {dim}: not one-to-one"
                    );
                }
            }
        }
    }

    #[test]
    fn message_lens_cover_the_wire() {
        // One aggregated message per phase boundary.
        let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![2, 2, 2]));
        let grid = grid_for(&mp, &[8, 8, 8]);
        let k = PrefixSumKernel::new(0);
        let store = allocate_rank_store(0, &mp, &grid, &[FieldDef::new("u", 0)]);
        let opts = SweepOptions::default();
        let cs = CompiledSweep::build(&mp, 0, &store, 0, Direction::Forward, &k, 0, &opts);
        // γ_0 = 2 → one boundary; each rank owns 1 tile of 4×4×4 per
        // slab → 16 lines, clen 1 → one 16-element message.
        assert_eq!(cs.message_lens(), vec![16]);
    }

    #[test]
    fn solver_plan_halo_built_once() {
        let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![2, 2, 2]));
        let eta = [8usize, 8, 8];
        let grid = grid_for(&mp, &eta);
        let fields = [FieldDef::new("u", 1)];
        run_threaded(4, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, |g| (g[0] * 100 + g[1] * 10 + g[2]) as f64);
            let mut plan = SolverPlan::new(SweepOptions::default());
            for _ in 0..3 {
                plan.exchange_halos(comm, &mut store, &mp, 0, 1, 5000);
            }
            assert_eq!(plan.builds(), 1, "halo plan rebuilt");
            assert!(plan.build_ns() > 0);
            // Every ghost with an interior neighbor holds its global value.
            for tile in &store.tiles {
                let arr = tile.field(0);
                let origin = &tile.region.origin;
                for dim in 0..3 {
                    if origin[dim] > 0 {
                        let mut idx = vec![0isize; 3];
                        idx[dim] = -1;
                        let g: Vec<usize> = (0..3)
                            .map(|k| (origin[k] as isize + idx[k]) as usize)
                            .collect();
                        let want = (g[0] * 100 + g[1] * 10 + g[2]) as f64;
                        assert_eq!(arr.get(&idx), want, "tile {:?}", tile.coord);
                    }
                }
            }
        });
    }

    /// After warm-up, sweeping through a solver plan rebuilds no plan and
    /// allocates zero transport buffers (recycle pool always hits).
    #[test]
    fn steady_state_spawns_and_allocates_nothing() {
        let mp = Multipartitioning::optimal(6, &[12, 12, 12], &CostModel::origin2000_like());
        let eta = [12usize, 13, 11];
        let k = FirstOrderKernel::new(0, 0.8);
        let fields = [FieldDef::new("u", 0)];
        let grid = grid_for(&mp, &eta);
        run_threaded(mp.p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
            store.init_field(0, init_value);
            let mut plan = SolverPlan::new(SweepOptions::default());
            // Warm-up: builds the plans and populates the
            // communicator's recycle pool.
            for dim in 0..3 {
                plan.sweep(comm, &mut store, &mp, dim, Direction::Forward, &k, 1000);
                plan.sweep(comm, &mut store, &mp, dim, Direction::Backward, &k, 2000);
            }
            comm.barrier();
            let misses = comm.pool_misses;
            // Steady state: 10 more timesteps of all six sweeps.
            for _ in 0..10 {
                for dim in 0..3 {
                    plan.sweep(comm, &mut store, &mp, dim, Direction::Forward, &k, 1000);
                    plan.sweep(comm, &mut store, &mp, dim, Direction::Backward, &k, 2000);
                }
            }
            comm.barrier();
            assert_eq!(
                comm.pool_misses, misses,
                "steady state allocated transport buffers"
            );
            assert_eq!(plan.builds(), 6, "steady state rebuilt plans");
        });
    }

    #[test]
    #[should_panic(expected = "kernel shape differs")]
    fn execute_rejects_wrong_kernel_shape() {
        let mp = Multipartitioning::from_partitioning(1, Partitioning::new(vec![2, 2, 1]));
        let grid = grid_for(&mp, &[4, 4, 2]);
        let mut store = allocate_rank_store(0, &mp, &grid, &[FieldDef::new("u", 0)]);
        let mut comm = mp_runtime::comm::SerialComm;
        let k = PrefixSumKernel::new(0);
        let mut cs = CompiledSweep::build(
            &mp,
            0,
            &store,
            0,
            Direction::Forward,
            &k,
            0,
            &SweepOptions::default(),
        );
        // Same kernel type on a different field: the shape (field list)
        // differs, so execute must refuse. (The assert fires before any
        // field access, so the missing field 1 is never touched.)
        let k2 = PrefixSumKernel::new(1);
        cs.execute(&mut comm, &mut store, &k2);
    }
}
