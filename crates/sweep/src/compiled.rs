//! Compiled sweep plans: build once, execute many.
//!
//! The paper's §5 compiler view is that a multipartitioned sweep is
//! *static*: tile ownership, slab order, the unique neighbor per phase, and
//! every message size are fully determined by `(Multipartitioning, dim,
//! direction)` before the first timestep runs; NAS SP/BT run the same six
//! directional sweeps for hundreds of timesteps. This module hoists that
//! work into a [`CompiledSweep`] — built once per `(mp, dim, direction,
//! kernel shape, options)` — that owns the precomputed slab order,
//! upstream/downstream peer ranks, per-phase tile metadata and block-job
//! tables, the expected carry-message length of every phase, and
//! long-lived scratch arenas. Executing a compiled sweep only refreshes
//! the per-field raw pointers (storage may move between calls) and runs
//! the communication/compute loop.
//!
//! **The schedule is the paper's.** Every phase boundary ships exactly one
//! aggregated carry message from each rank to its unique downstream
//! neighbor, so the wire depends only on `(multipartitioning, dim,
//! direction, kernel shape)` — never on an option: block width and SIMD
//! level change how a phase computes, not what it sends. The
//! carry buffer is relayed by ownership: received, evolved in place by
//! the phase's block jobs and sent onward by move, so no carry is ever
//! copied.
//!
//! **Contract.** The plan caches *metadata*, never data. It is valid as
//! long as the multipartitioning, store geometry (tile set and extents),
//! kernel shape (field list + carry length), tag base, and options are
//! unchanged; [`SolverPlan`] re-keys on all of those except store
//! geometry, which is fixed per plan (allocate a new one per grid).
//!
//! In debug builds every `CompiledSweep` is cross-checked against
//! [`mp_core::plan::SweepPlan`] at build time, making the schedule module
//! the source of truth for the executor rather than documentation-only.

use crate::executor::{
    exchange_halos_planned, run_jobs, BlockJob, BlockScratch, FieldMeta, SharedPhase, SweepOptions,
};
use crate::recurrence::LineSweepKernel;
use crate::simd::{SimdLevel, SimdMode};
use mp_core::multipart::{Direction, Multipartitioning};
use mp_core::plan::SweepPlan;
use mp_grid::{HaloPlan, RankStore};
use mp_runtime::comm::{CommError, Communicator, Tag};
use mp_runtime::panic_payload_message;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// A sweep that failed cleanly instead of completing: the unwind was
/// caught at the executor boundary, the surrounding run was aborted
/// ([`Communicator::abort`]) so peer ranks fail fast instead of
/// deadlocking, and the cause comes back as a value.
#[derive(Debug)]
pub struct SweepError {
    /// Human-readable description (panic message, or the rendered
    /// [`CommError`]).
    pub message: String,
    /// The typed communication error, when the failure was a bounded
    /// receive giving up (deadline or peer failure) rather than a local
    /// panic.
    pub comm: Option<CommError>,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sweep failed: {}", self.message)
    }
}

impl std::error::Error for SweepError {}

impl SweepError {
    /// Classify a caught unwind payload and abort the surrounding run.
    fn from_unwind<C: Communicator>(
        comm: &mut C,
        payload: Box<dyn std::any::Any + Send>,
    ) -> SweepError {
        comm.abort();
        SweepError {
            message: panic_payload_message(payload.as_ref()),
            comm: payload.downcast_ref::<CommError>().cloned(),
        }
    }
}

/// What a [`CompiledSweep`] was built for — compared by [`SolverPlan`] to
/// decide when a cached plan can be reused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanKey {
    /// Processor count of the multipartitioning.
    pub p: u64,
    /// Tile-grid shape of the multipartitioning.
    pub gammas: Vec<u64>,
    /// Swept dimension.
    pub dim: usize,
    /// Sweep direction.
    pub direction: Direction,
    /// Wire tags are `tag_base + phase` in / `tag_base + phase + 1` out.
    pub tag_base: Tag,
    /// Kernel field indices, in kernel order.
    pub fields: Vec<usize>,
    /// Kernel carry length per line.
    pub carry_len: usize,
    /// Lines per block job.
    pub block_width: usize,
    /// Requested SIMD dispatch mode (resolved to a concrete level once at
    /// build time — see [`CompiledSweep::simd_level`]).
    pub simd: SimdMode,
}

/// Everything one phase needs, computed once at build time: tile metadata
/// in store order and the carved job table.
/// Raw field pointers are *not* here — storage may move between executes,
/// so they are refreshed into the plan's `FieldMeta` arena each phase.
#[derive(Debug)]
struct PhasePlan {
    /// Store indices of this phase's tiles, in store (= packing) order.
    tiles: Vec<usize>,
    /// Per-tile global origins, flattened `tile * d + k`.
    origins: Vec<usize>,
    /// Per-tile cross-section extents (swept dim forced to 1), same layout.
    red_exts: Vec<usize>,
    /// Per-tile segment length along the swept dimension.
    seg_lens: Vec<usize>,
    /// Per-(tile, field) strides, flattened `(tile * nf + f) * d + k`.
    fm_strides: Vec<usize>,
    /// Per-(tile, field) interior-origin offsets, flattened `tile * nf + f`.
    base_offs: Vec<usize>,
    /// Per-(tile, field) stride along the swept dimension, same layout.
    stride_dims: Vec<usize>,
    /// Block jobs covering the phase's carry message contiguously.
    jobs: Vec<BlockJob>,
    /// Elements in the phase's carry message (lines × kernel carry length).
    carry_len: usize,
    /// Run this phase's jobs in place on tile storage instead of
    /// gather/scatter through block scratch. Decided once at build time
    /// from the phase geometry.
    inplace: bool,
}

/// A fully compiled directional sweep for one rank: schedule + metadata +
/// scratch arenas. Built once with [`CompiledSweep::build`], executed many
/// times with [`CompiledSweep::execute`].
pub struct CompiledSweep {
    key: PlanKey,
    rank: u64,
    d: usize,
    /// Rank carries arrive from (one step opposite the sweep direction).
    upstream: u64,
    /// Rank carries ship to.
    downstream: u64,
    phases: Vec<PhasePlan>,
    /// Per-(tile, field) raw views, refreshed from the store each phase.
    fms: Vec<FieldMeta>,
    /// Block buffers, reused across phases and executes.
    scratch: BlockScratch,
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
    pub fn build<K: LineSweepKernel + ?Sized>(
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
        let bw = opts.block_width.max(1);
        let simd_level = opts.simd.resolve();

        let mut phases = Vec::with_capacity(slab_order.len());
        for &slab in &slab_order {
            let mut pp = PhasePlan {
                tiles: Vec::new(),
                origins: Vec::new(),
                red_exts: Vec::new(),
                seg_lens: Vec::new(),
                fm_strides: Vec::new(),
                base_offs: Vec::new(),
                stride_dims: Vec::new(),
                jobs: Vec::new(),
                carry_len: 0,
                inplace: false,
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
                    pp.fm_strides.extend_from_slice(arr.strides());
                    pp.base_offs.push(arr.interior_origin_offset());
                    pp.stride_dims.push(arr.strides()[dim]);
                }
            }
            assert_eq!(
                pp.tiles.len() as u64,
                mp.tiles_per_proc_per_slab(dim),
                "rank {rank}: store does not hold this rank's tiles for slab {slab} \
                 (was it allocated with allocate_rank_store for this multipartitioning?)"
            );

            // Carve the slab's lines into jobs of at most `bw` lines each,
            // with carry offsets into the phase's carry message.
            let ntiles = pp.tiles.len();
            let mut line_base = 0usize;
            for t in 0..ntiles {
                let nl_t: usize = pp.red_exts[t * d..(t + 1) * d].iter().product();
                let mut l0 = 0usize;
                while l0 < nl_t {
                    let nl = bw.min(nl_t - l0);
                    pp.jobs.push(BlockJob {
                        tile: t,
                        line0: l0,
                        nlines: nl,
                        carry_off: (line_base + l0) * clen,
                    });
                    l0 += nl;
                }
                line_base += nl_t;
            }
            pp.carry_len = line_base * clen;

            // The phase runs in place when its swept dimension is not the
            // tile's last (unit-stride) axis — lines contiguous along the
            // last axis then form unit-lane views of tile storage — and
            // every field's last-axis stride really is 1 (row-major
            // storage; checked, not assumed). Along the last axis the
            // lines *are* the unit-stride axis, and gathering them is the
            // transpose that gives the kernels unit-stride lanes. The job
            // table above is mode-independent, so the wire schedule cannot
            // change.
            let lane_unit =
                (0..pp.tiles.len() * nfields).all(|s| pp.fm_strides[s * d + (d - 1)] == 1);
            pp.inplace = dim + 1 < d && lane_unit;
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
                block_width: bw,
                simd: opts.simd,
            },
            rank,
            d,
            upstream: mp.neighbor_rank(rank, dim, -step),
            downstream: mp.neighbor_rank(rank, dim, step),
            phases,
            fms: Vec::with_capacity(mp.tiles_per_proc_per_slab(dim) as usize * nfields),
            scratch: BlockScratch::new(nfields),
            simd: simd_level,
        };
        #[cfg(debug_assertions)]
        cs.validate_against(mp, store)
            .expect("compiled sweep disagrees with SweepPlan");
        cs
    }

    /// What this plan was built for.
    pub fn key(&self) -> &PlanKey {
        &self.key
    }

    /// The SIMD level every block job runs at, resolved once at build time
    /// from the requested [`SweepOptions::simd`] mode and the hardware.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// The per-phase execution mode, in phase order: `true` means the
    /// phase runs in place on tile storage (carries written directly into
    /// the send buffer), `false` means it gathers through packed
    /// line-minor scratch. Decided once at build time from the geometry;
    /// `mpart profile` reports these.
    pub fn phase_inplace(&self) -> Vec<bool> {
        self.phases.iter().map(|pp| pp.inplace).collect()
    }

    /// True when the plan can serve a call with these parameters without
    /// rebuilding: same multipartitioning shape, sweep, tags, kernel shape,
    /// and options.
    pub fn matches<K: LineSweepKernel + ?Sized>(
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
            && self.key.block_width == opts.block_width.max(1)
            && self.key.simd == opts.simd
    }

    /// The distinct message lengths (in elements) this plan sends, for
    /// pre-sizing a communicator's buffer pool
    /// ([`Communicator::reserve_buffers`]).
    pub fn message_lens(&self) -> Vec<usize> {
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
    pub fn elements_per_execute(&self) -> u64 {
        let d = self.d;
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
    pub fn validate_against(
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
    /// buffer — a fresh one filled with the kernel's initial carries at
    /// phase 0, else the one the previous phase handed over on this rank
    /// (self-neighbor) or received from the upstream rank — evolves it in
    /// place through the phase's block jobs, and passes it on by move:
    /// one aggregated message to the downstream rank per phase boundary,
    /// back to the communicator's buffer pool after the last phase.
    ///
    /// # Panics
    /// Panics if `comm`'s rank or the kernel's shape differ from what the
    /// plan was built for, or if a received carry message has the wrong
    /// length.
    pub fn execute<C: Communicator, K: LineSweepKernel + ?Sized>(
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
            d,
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
            let shared = shared_phase(pp, fms, kernel, key, *d, *simd);

            let mut cbuf: Vec<f64> = if phase == 0 {
                let mut b = comm.take_send_buffer();
                b.clear();
                b.resize(pp.carry_len, 0.0);
                if clen > 0 {
                    for c in b.chunks_exact_mut(clen) {
                        kernel.fill_initial_carry(key.direction, c);
                    }
                }
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
            run_jobs(&shared, &mut cbuf, scratch);
            if let (Some(t0), Some(tr)) = (t_run, comm.tracer()) {
                tr.compute(
                    t0,
                    phase as u64,
                    pp.jobs.len() as u64,
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

    /// Like [`CompiledSweep::execute`], but any unwind inside the sweep —
    /// a kernel assertion, a receive deadline, or a peer rank's failure —
    /// comes back as a typed [`SweepError`] after aborting the surrounding
    /// run ([`Communicator::abort`]), so the other ranks unwind with `RankFailed` instead of deadlocking on the
    /// messages this sweep will never send.
    ///
    /// ```
    /// use mp_core::cost::CostModel;
    /// use mp_core::multipart::{Direction, Multipartitioning};
    /// use mp_grid::{FieldDef, TileGrid};
    /// use mp_runtime::{run_threaded, Communicator};
    /// use mp_sweep::{allocate_rank_store, CompiledSweep, PrefixSumKernel, SweepOptions};
    ///
    /// let mp = Multipartitioning::optimal(2, &[4, 4], &CostModel::origin2000_like());
    /// let gammas: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
    /// let results = run_threaded(2, |comm| {
    ///     let grid = TileGrid::new(&[4, 4], &gammas);
    ///     let fields = [FieldDef::new("u", 0)];
    ///     let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
    ///     store.init_field(0, |_| 1.0);
    ///     let kernel = PrefixSumKernel::new(0);
    ///     let mut plan = CompiledSweep::build(
    ///         &mp, comm.rank(), &store, 0, Direction::Forward,
    ///         &kernel, 77, &SweepOptions::default(),
    ///     );
    ///     plan.try_execute(comm, &mut store, &kernel)
    /// });
    /// assert!(results.iter().all(|r| r.is_ok()));
    /// ```
    pub fn try_execute<C: Communicator, K: LineSweepKernel + ?Sized>(
        &mut self,
        comm: &mut C,
        store: &mut RankStore,
        kernel: &K,
    ) -> Result<(), SweepError> {
        match catch_unwind(AssertUnwindSafe(|| self.execute(comm, store, kernel))) {
            Ok(()) => Ok(()),
            Err(payload) => Err(SweepError::from_unwind(comm, payload)),
        }
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
                pp.stride_dims[slot],
            ));
        }
    }
}

/// The view one phase's block jobs run against, assembled from the
/// precompiled metadata plus the freshly refreshed field views.
fn shared_phase<'a, K: LineSweepKernel + ?Sized>(
    pp: &'a PhasePlan,
    fms: &'a [FieldMeta],
    kernel: &'a K,
    key: &PlanKey,
    d: usize,
    simd: SimdLevel,
) -> SharedPhase<'a, K> {
    SharedPhase {
        jobs: &pp.jobs,
        fms,
        fm_strides: &pp.fm_strides,
        origins: &pp.origins,
        red_exts: &pp.red_exts,
        seg_lens: &pp.seg_lens,
        kernel,
        dir: key.direction,
        dim: key.dim,
        d,
        nfields: key.fields.len(),
        clen: key.carry_len,
        simd,
        inplace: pp.inplace,
    }
}

/// A per-rank solver plan: one cached [`CompiledSweep`] per `(dim,
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
    /// (exact, from [`CompiledSweep::elements_per_execute`]). Pairs with
    /// traced compute time to report `k1 · elements` model error.
    pub fn elements_swept(&self) -> u64 {
        self.elements_swept
    }

    /// The currently cached sweep plans, in slot order (`dim * 2 + dir`).
    /// `mpart profile` walks these to report each plan's per-phase
    /// execution mode ([`CompiledSweep::phase_inplace`]).
    pub fn plans(&self) -> impl Iterator<Item = &CompiledSweep> {
        self.slots.iter().filter_map(|s| s.as_ref())
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

    /// Exchange `width` ghost layers of `field` using the compiled halo
    /// schedule, building it on first use (or if `width` changes). One
    /// plan serves every field and tag base — the schedule depends only on
    /// tile geometry and width.
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
        exchange_halos_planned(comm, store, field, tag_base, plan);
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
        for opts in [SweepOptions::new(4), SweepOptions::new(32)] {
            let grid = grid_for(&mp, &eta);
            let o = opts.clone();
            let fresh = run_threaded(mp.p, |comm| {
                let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
                store.init_field(0, init_value);
                for _ in 0..10 {
                    let rank = comm.rank();
                    let fwd = Direction::Forward;
                    CompiledSweep::build(&mp, rank, &store, 1, fwd, &k, 1000, &o)
                        .execute(comm, &mut store, &k);
                }
                (store, comm.sent_messages, comm.sent_elements)
            });
            let o = opts.clone();
            let cached = run_threaded(mp.p, |comm| {
                let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
                store.init_field(0, init_value);
                let mut plan = SolverPlan::new(o.clone());
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
            assert_eq!(a.max_abs_diff(&b), 0.0, "{opts:?} not bitwise equal");
            assert_eq!((fm, fe), (cm, ce), "{opts:?} changed the schedule");
        }
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
        let opts = SweepOptions::new(8);
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
            let mut plan = SolverPlan::new(SweepOptions::new(8));
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
        let opts = SweepOptions::new(8);
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
        let mut plan = SolverPlan::new(SweepOptions::new(4));
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

    #[test]
    fn message_lens_cover_the_wire() {
        // One aggregated message per phase boundary, whatever the options.
        let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![2, 2, 2]));
        let grid = grid_for(&mp, &[8, 8, 8]);
        let k = PrefixSumKernel::new(0);
        let store = allocate_rank_store(0, &mp, &grid, &[FieldDef::new("u", 0)]);
        for opts in [SweepOptions::new(1), SweepOptions::new(7)] {
            let cs = CompiledSweep::build(&mp, 0, &store, 0, Direction::Forward, &k, 0, &opts);
            // γ_0 = 2 → one boundary; each rank owns 1 tile of 4×4×4 per
            // slab → 16 lines, clen 1 → one 16-element message.
            assert_eq!(cs.message_lens(), vec![16], "{opts:?}");
        }
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
            let mut plan = SolverPlan::new(SweepOptions::new(8));
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
        for opts in [SweepOptions::new(4), SweepOptions::new(8)] {
            let grid = grid_for(&mp, &eta);
            let o = opts.clone();
            run_threaded(mp.p, |comm| {
                let mut store = allocate_rank_store(comm.rank(), &mp, &grid, &fields);
                store.init_field(0, init_value);
                let mut plan = SolverPlan::new(o.clone());
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
    }

    #[test]
    fn geometry_alone_decides_in_place() {
        // Every dimension but the last runs in place; the last (its lines
        // are the unit-stride axis) packs — for a hot kernel and a
        // generated-coefficient one alike.
        use crate::block::tests::TestCoeffs;
        use crate::block::BlockTriForwardKernel;
        use crate::thomas::ThomasForwardKernel;
        let mp = Multipartitioning::from_partitioning(1, Partitioning::new(vec![2, 2, 1]));
        let grid = grid_for(&mp, &[4, 4, 2]);
        let fields: Vec<FieldDef> = (0..12)
            .map(|f| FieldDef::new(&format!("f{f}"), 0))
            .collect();
        let store = allocate_rank_store(0, &mp, &grid, &fields);
        let scratch: Vec<usize> = (0..9).collect();
        let rhs: Vec<usize> = (9..12).collect();
        let hot = ThomasForwardKernel::new(0, 1, 2, 3);
        let generated = BlockTriForwardKernel::<3, _>::new(TestCoeffs, &scratch, &rhs);
        let opts = SweepOptions::new(1);
        for k in [&hot as &dyn LineSweepKernel, &generated] {
            for dim in 0..3 {
                let cs = CompiledSweep::build(&mp, 0, &store, dim, Direction::Forward, k, 0, &opts);
                let modes = cs.phase_inplace();
                assert!(
                    modes.iter().all(|&inplace| inplace == (dim < 2)),
                    "{} dim {dim}: {modes:?}",
                    k.kernel_name()
                );
            }
        }
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
            &SweepOptions::new(4),
        );
        // Same kernel type on a different field: the shape (field list)
        // differs, so execute must refuse. (The assert fires before any
        // field access, so the missing field 1 is never touched.)
        let k2 = PrefixSumKernel::new(1);
        cs.execute(&mut comm, &mut store, &k2);
    }
}
