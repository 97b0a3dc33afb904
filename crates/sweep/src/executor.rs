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
//! Execution within a phase is **blocked**: each tile's lines are processed
//! in blocks of [`SweepOptions::block_width`], each block handed to the
//! kernel as a lane view ([`LineSweepKernel::sweep_lanes`]) whose lanes are
//! unit-stride, so kernels run a vectorizable inner loop across lines. A
//! phase whose swept dimension is not the tile's last axis sweeps tile
//! storage in place (its lines already form such views); a phase along the
//! last axis gathers each block into contiguous line-minor buffers first
//! and scatters it back after. Because the line-major
//! carry layout *is* the wire layout, the incoming message is evolved in
//! place and sent on by move — the communication schedule (message count,
//! payload sizes, byte order) is identical to per-line execution. A phase's
//! blocks run one after another on the rank's own thread (ranks are the
//! engine's only parallelism), and the one block scratch is reused across
//! the γ phases, so steady-state phases allocate nothing.
//!
//! The phase loop itself is [`crate::compiled::CompiledSweep::execute`];
//! timestepping drivers run it through a cached
//! [`crate::compiled::SolverPlan`]. This module also provides the halo
//! exchange used by stencil phases (e.g. SP's `compute_rhs`), with the
//! same per-direction aggregation.

use crate::recurrence::{LineSweepKernel, SegmentCtx};
use crate::simd::{SimdLevel, SimdMode};
use mp_core::multipart::{Direction, Multipartitioning};
use mp_grid::lines::{gather_line_raw, scatter_line_raw};
use mp_grid::{AlignedVec, HaloPlan, LaneField, Lanes, RankStore, TileGrid};
use mp_runtime::comm::{Communicator, Tag};
use std::time::Instant;

/// Tuning knobs for the sweep executor. Options only change *how* each
/// phase's compute is organized, never what goes on the wire: every
/// setting produces bitwise-identical fields and the same aggregated
/// message schedule, so ranks of one sweep may even run different options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Lines per block: each tile's cross-section is processed in chunks of
    /// this many lines, packed line-minor so kernel inner loops are unit
    /// stride. `1` degenerates to per-line execution (same results —
    /// blocked kernels are bit-identical per line at any width).
    pub block_width: usize,
    /// Which kernel vectorization level to use (see [`crate::simd`]):
    /// [`SimdMode::Auto`] (the default) resolves to the widest path the CPU
    /// supports at plan-build time, [`SimdMode::Scalar`] forces the
    /// portable scalar path. Results are bitwise identical in every mode;
    /// the knob exists for A/B measurement and as an escape hatch.
    pub simd: SimdMode,
}

impl SweepOptions {
    /// Options with an explicit block width.
    pub fn new(block_width: usize) -> Self {
        SweepOptions {
            block_width: block_width.max(1),
            simd: SimdMode::Auto,
        }
    }

    /// Same options with an explicit kernel vectorization mode.
    pub fn with_simd(mut self, simd: SimdMode) -> Self {
        self.simd = simd;
        self
    }

    /// Options from the environment — the single documented place every
    /// entry point (CLI, examples, benches) reads the sweep knobs from:
    ///
    /// | variable         | meaning                      | default |
    /// |------------------|------------------------------|---------|
    /// | `MP_SWEEP_BLOCK` | lines per block              | 32      |
    /// | `MP_SWEEP_SIMD`  | kernel path: `auto`/`scalar` | auto    |
    ///
    /// Malformed or out-of-range values (empty, non-numeric, `0` for the
    /// block width, an unknown mode word) fall back to the default rather
    /// than panicking — env knobs must never abort a run — but each such
    /// variable earns one stderr warning per process naming the rejected
    /// value and the fallback used, so a typo is visible instead of
    /// silently running untuned.
    pub fn from_env() -> Self {
        SweepOptions::new(env_usize("MP_SWEEP_BLOCK", 32)).with_simd(SimdMode::from_env())
    }
}

/// Emit (at most once per process per variable) a stderr warning that an
/// environment knob held an invalid value and which fallback is in force.
/// Returns whether this call emitted the warning — the one-shot guard, not
/// the validity check, which callers do themselves.
pub(crate) fn warn_invalid_env(name: &str, value: &str, fallback: &str) -> bool {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static WARNED: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();
    let warned = WARNED.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut set = warned.lock().unwrap();
    if !set.insert(name.to_string()) {
        return false;
    }
    eprintln!("warning: ignoring invalid {name}={value:?}; using {fallback}");
    true
}

/// Serializes tests that set the real `MP_SWEEP_*` variables — process
/// environment is global, so concurrent mutation races otherwise.
#[cfg(test)]
pub(crate) fn env_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `default` unless `name` is set to a positive integer (see
/// [`SweepOptions::from_env`] for the fall-back contract); a set-but-
/// invalid value warns once via [`warn_invalid_env`].
pub(crate) fn env_usize(name: &str, default: usize) -> usize {
    let Ok(s) = std::env::var(name) else {
        return default;
    };
    match s.trim().parse::<usize>() {
        Ok(v) if v > 0 => v,
        _ => {
            warn_invalid_env(name, &s, &format!("default {default}"));
            default
        }
    }
}

impl Default for SweepOptions {
    /// [`SweepOptions::from_env`].
    fn default() -> Self {
        SweepOptions::from_env()
    }
}

/// Per-(tile, field) addressing for one phase: where the field's storage
/// lives and how to turn a line base into an element offset. Built from
/// the store at the start of every phase, so `ptr..ptr+len` is always a
/// whole field buffer; the pointer is dereferenced only through the
/// bounds-checked line accessors and lane views below.
pub(crate) struct FieldMeta {
    /// Start of the field's raw storage (ghost layers included).
    ptr: *mut f64,
    /// Elements in the field's raw storage.
    len: usize,
    /// Offset of the interior origin in the raw buffer.
    base_off: usize,
    /// Stride along the swept dimension.
    stride_dim: usize,
}

impl FieldMeta {
    /// Addressing for one field's raw storage `raw` in this phase.
    pub(crate) fn new(raw: &mut [f64], base_off: usize, stride_dim: usize) -> Self {
        FieldMeta {
            ptr: raw.as_mut_ptr(),
            len: raw.len(),
            base_off,
            stride_dim,
        }
    }
}

/// One unit of work: a contiguous run of lines of one slab tile.
#[derive(Debug)]
pub(crate) struct BlockJob {
    /// Slot into the phase's per-tile metadata (0-based within the slab).
    pub(crate) tile: usize,
    /// First line (row-major cross-section index) of the block.
    pub(crate) line0: usize,
    /// Lines in this block.
    pub(crate) nlines: usize,
    /// Start of the block's carries, in elements from the start of the
    /// phase's carry message.
    pub(crate) carry_off: usize,
}

/// Reusable per-block buffers — one set per compiled plan, so phases never
/// allocate in steady state.
pub(crate) struct BlockScratch {
    /// One line-minor block buffer per kernel field (64-byte aligned so the
    /// vectorized kernels can use aligned loads).
    bufs: Vec<AlignedVec>,
    /// Per-line contexts, mutated in place.
    ctxs: Vec<SegmentCtx>,
    /// Per-(line, field) element offsets, flattened `l * nfields + f`.
    offsets: Vec<usize>,
    /// Mixed-radix odometer over the reduced cross-section extents.
    base: Vec<usize>,
    /// The per-field table of the lane view each kernel call runs on.
    lane_fields: Vec<LaneField>,
}

impl BlockScratch {
    pub(crate) fn new(nfields: usize) -> Self {
        BlockScratch {
            bufs: vec![AlignedVec::new(); nfields],
            ctxs: Vec::new(),
            offsets: Vec::new(),
            base: Vec::new(),
            lane_fields: Vec::with_capacity(nfields),
        }
    }
}

/// Everything the block jobs of one phase read: the compiled metadata plus
/// the freshly refreshed field views.
pub(crate) struct SharedPhase<'a, K: ?Sized> {
    pub(crate) jobs: &'a [BlockJob],
    pub(crate) fms: &'a [FieldMeta],
    /// Per-(tile, field) strides, flattened `(tile * nfields + f) * d + k`.
    pub(crate) fm_strides: &'a [usize],
    /// Per-tile global origins, flattened `tile * d + k`.
    pub(crate) origins: &'a [usize],
    /// Per-tile cross-section extents (swept dim forced to 1), same layout.
    pub(crate) red_exts: &'a [usize],
    /// Per-tile segment length along the swept dimension.
    pub(crate) seg_lens: &'a [usize],
    pub(crate) kernel: &'a K,
    pub(crate) dir: Direction,
    pub(crate) dim: usize,
    pub(crate) d: usize,
    pub(crate) nfields: usize,
    pub(crate) clen: usize,
    /// Vectorization level resolved once at plan-build time — steady-state
    /// execution never re-detects CPU features.
    pub(crate) simd: SimdLevel,
    /// Run block jobs in place on tile storage (decided per phase from its
    /// geometry at plan-build time). The job table is identical either
    /// way, so the wire schedule cannot change.
    pub(crate) inplace: bool,
}

/// Shared prologue of the packed and in-place block runners: decode
/// `job.line0` into a cross-section base and fill `ctxs[..nlines]` and
/// `offsets[..nlines*nfields]` (per-line segment contexts and per-(line,
/// field) element offsets of each line's *forward* origin).
fn decode_lines<K: LineSweepKernel + ?Sized>(
    sh: &SharedPhase<'_, K>,
    job: &BlockJob,
    ctxs: &mut Vec<SegmentCtx>,
    offsets: &mut Vec<usize>,
    base: &mut Vec<usize>,
) {
    let d = sh.d;
    let nf = sh.nfields;
    let t = job.tile;
    let nl = job.nlines;
    let seg_len = sh.seg_lens[t];
    let red = &sh.red_exts[t * d..(t + 1) * d];
    let origin = &sh.origins[t * d..(t + 1) * d];
    let reversed = sh.dir == Direction::Backward;
    let step = sh.dir.step();

    // Decode line0 into a cross-section base (row-major, last axis fastest;
    // the swept axis has reduced extent 1 so its component stays 0).
    base.resize(d, 0);
    let mut rem = job.line0;
    for k in (0..d).rev() {
        base[k] = rem % red[k];
        rem /= red[k];
    }
    debug_assert_eq!(rem, 0, "line0 outside tile cross-section");

    if ctxs.len() < nl {
        let proto = SegmentCtx::new(vec![0; d], sh.dim, sh.dir);
        ctxs.resize(nl, proto);
    }
    offsets.resize(nl * nf, 0);
    for l in 0..nl {
        for f in 0..nf {
            let fm = &sh.fms[t * nf + f];
            let strides = &sh.fm_strides[(t * nf + f) * d..(t * nf + f + 1) * d];
            offsets[l * nf + f] = fm.base_off
                + base
                    .iter()
                    .zip(strides.iter())
                    .map(|(&b, &s)| b * s)
                    .sum::<usize>();
        }
        let ctx = &mut ctxs[l];
        ctx.axis = sh.dim;
        ctx.step = step;
        ctx.global_start.clear();
        ctx.global_start
            .extend(base.iter().zip(origin.iter()).map(|(&b, &o)| b + o));
        ctx.global_start[sh.dim] = if reversed {
            origin[sh.dim] + seg_len - 1
        } else {
            origin[sh.dim]
        };
        if l + 1 < nl {
            for k in (0..d).rev() {
                base[k] += 1;
                if base[k] < red[k] {
                    break;
                }
                base[k] = 0;
            }
        }
    }
}

/// Run one block job packed: gather its lines into the line-minor block
/// buffers, sweep them as lanes of stride `nlines`, and scatter back.
fn run_block<K: LineSweepKernel + ?Sized>(
    sh: &SharedPhase<'_, K>,
    job: &BlockJob,
    carries: &mut [f64],
    w: &mut BlockScratch,
) {
    let BlockScratch {
        bufs,
        ctxs,
        offsets,
        lane_fields,
        ..
    } = w;
    let nf = sh.nfields;
    let t = job.tile;
    let nl = job.nlines;
    let seg_len = sh.seg_lens[t];
    let reversed = sh.dir == Direction::Backward;

    for (f, buf) in bufs.iter_mut().enumerate() {
        buf.resize(seg_len * nl, 0.0);
        let fm = &sh.fms[t * nf + f];
        for l in 0..nl {
            // SAFETY: `fm` was refreshed from the store this phase, and
            // `execute` holds the store mutably for the whole phase, so it
            // views a live buffer of `fm.len` elements that nothing else
            // touches while this job runs (jobs run one at a time on the
            // rank thread). The line's bounds are asserted inside, and
            // `buf` is a separate allocation.
            unsafe {
                gather_line_raw(
                    fm.ptr as *const f64,
                    fm.len,
                    offsets[l * nf + f],
                    fm.stride_dim,
                    reversed,
                    buf,
                    l,
                    nl,
                );
            }
        }
    }

    let mut lanes = Lanes::packed(bufs, nl, seg_len, lane_fields);
    sh.kernel
        .sweep_lanes(sh.simd, sh.dir, carries, &mut lanes, &ctxs[..nl]);

    for (f, buf) in bufs.iter().enumerate() {
        let fm = &sh.fms[t * nf + f];
        for l in 0..nl {
            // SAFETY: as for the gather above.
            unsafe {
                scatter_line_raw(
                    fm.ptr,
                    fm.len,
                    offsets[l * nf + f],
                    fm.stride_dim,
                    reversed,
                    buf,
                    l,
                    nl,
                );
            }
        }
    }
}

/// Run one block job **in place**: sweep the lines where they live in tile
/// storage, with the carries evolved directly in the outgoing message
/// buffer. No gather, no scatter, no block scratch.
///
/// The job's lines are processed as maximal runs contiguous along the
/// tile's last (unit-stride) axis: within a run, lane `l` is exactly
/// `base + l`, so each run is a lane view with the tile's stride along the
/// swept dimension in place of the packed `nlines` — the kernels run the
/// same arithmetic either way. Runs never cross a last-axis row (ghost
/// layers break contiguity there), but the job/carry tables are the packed
/// ones, so the wire schedule is untouched.
///
/// Plan-build preconditions (checked there, debug-asserted here): the
/// swept dimension is not the last axis and every field's last-axis stride
/// is 1.
fn run_block_inplace<K: LineSweepKernel + ?Sized>(
    sh: &SharedPhase<'_, K>,
    job: &BlockJob,
    carries: &mut [f64],
    w: &mut BlockScratch,
) {
    let BlockScratch {
        ctxs,
        offsets,
        lane_fields,
        ..
    } = w;
    let d = sh.d;
    let nf = sh.nfields;
    let t = job.tile;
    let nl = job.nlines;
    let seg_len = sh.seg_lens[t];
    let reversed = sh.dir == Direction::Backward;
    debug_assert!(sh.dim + 1 < d, "in-place needs a non-unit-stride sweep dim");

    // Walk maximal unit-stride lane runs along the last axis. Row-major
    // line order means the last-axis coordinate of line `line0 + r` is
    // `(line0 + r) mod red[d-1]`.
    let last = sh.red_exts[(t + 1) * d - 1];
    let mut r0 = 0usize;
    while r0 < nl {
        let run = (last - (job.line0 + r0) % last).min(nl - r0);
        let parts = (0..nf).map(|f| {
            let fm = &sh.fms[t * nf + f];
            debug_assert_eq!(
                sh.fm_strides[(t * nf + f) * d + d - 1],
                1,
                "lane axis must be unit stride"
            );
            let fwd = offsets[r0 * nf + f];
            let sd = fm.stride_dim as isize;
            if reversed {
                let far = fwd + (seg_len - 1) * fm.stride_dim;
                (fm.ptr, fm.len, far, -sd)
            } else {
                (fm.ptr, fm.len, fwd, sd)
            }
        });
        // SAFETY: as in `run_block`, each field's storage is a live buffer
        // that nothing else touches while the view lives (jobs run one at
        // a time on the rank thread, and the carries are a separate
        // buffer); `from_raw` checks the run's corners against each buffer.
        let mut lanes = unsafe { Lanes::from_raw(parts, run, seg_len, lane_fields) };
        sh.kernel.sweep_lanes(
            sh.simd,
            sh.dir,
            &mut carries[r0 * sh.clen..(r0 + run) * sh.clen],
            &mut lanes,
            &ctxs[r0..r0 + run],
        );
        r0 += run;
    }
}

/// Run the phase's block jobs in order on the calling rank thread, each in
/// its phase's mode, against the phase's carry message `cbuf` (line-major,
/// `clen` per line). A job's carries are its own sub-range of `cbuf`.
pub(crate) fn run_jobs<K: LineSweepKernel + ?Sized>(
    sh: &SharedPhase<'_, K>,
    cbuf: &mut [f64],
    w: &mut BlockScratch,
) {
    for job in sh.jobs {
        let carries = &mut cbuf[job.carry_off..job.carry_off + job.nlines * sh.clen];
        decode_lines(sh, job, &mut w.ctxs, &mut w.offsets, &mut w.base);
        if sh.inplace {
            run_block_inplace(sh, job, carries, w);
        } else {
            run_block(sh, job, carries, w);
        }
    }
}

/// Exchange the ghost layers of `field` across all tile faces, in both
/// directions of every dimension, along a precomputed [`HaloPlan`] (its
/// width is the number of layers shipped). Each rank sends at most one
/// message per neighbor per direction; ghosts at the physical domain
/// boundary are left untouched. Faces are packed into a pooled buffer
/// ([`Communicator::take_send_buffer`]) and consumed messages are
/// recycled. Timestepping drivers hold the plan in a
/// [`crate::compiled::SolverPlan`] ([`crate::compiled::SolverPlan::exchange_halos`]).
pub fn exchange_halos_planned<C: Communicator>(
    comm: &mut C,
    store: &mut RankStore,
    field: usize,
    tag_base: Tag,
    plan: &HaloPlan,
) {
    let rank = comm.rank();
    let width = plan.width();
    for dp in plan.dirs() {
        let tag = tag_base + dp.tag_off;

        let t_pack = comm.tracer().is_some().then(Instant::now);
        let mut payload = comm.take_send_buffer();
        payload.clear();
        for &t in &dp.send_tiles {
            store.tiles[t]
                .field(field)
                .pack_face_into(dp.dim, dp.side_send, width, &mut payload);
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
        run_distributed_sweep_opts(mp, eta, dim, dir, kernel, &SweepOptions::default()).0
    }

    /// As [`run_distributed_sweep`], but with explicit options, also
    /// returning the total messages and elements sent across all ranks.
    fn run_distributed_sweep_opts(
        mp: &Multipartitioning,
        eta: &[usize],
        dim: usize,
        dir: Direction,
        kernel: &(impl LineSweepKernel + Clone + Send),
        opts: &SweepOptions,
    ) -> (ArrayD<f64>, u64, u64) {
        let grid = TileGrid::new(
            eta,
            &mp.gammas().iter().map(|&g| g as usize).collect::<Vec<_>>(),
        );
        let fields = [FieldDef::new("u", 0)];
        let results = run_threaded(mp.p, |comm| {
            let mut store = allocate_rank_store(comm.rank(), mp, &grid, &fields);
            store.init_field(0, init_value);
            SolverPlan::new(opts.clone()).sweep(comm, &mut store, mp, dim, dir, kernel, 1000);
            (store, comm.sent_messages, comm.sent_elements)
        });
        let mut global = ArrayD::zeros(eta);
        let mut msgs = 0;
        let mut elems = 0;
        for (store, m, e) in &results {
            store.gather_into(0, &mut global);
            msgs += m;
            elems += e;
        }
        (global, msgs, elems)
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
    fn invalid_env_warns_once_per_variable() {
        // One stderr warning per process per variable: the first rejection
        // of a given knob emits, every later one is suppressed, and a
        // different knob still gets its own warning. Distinct made-up
        // names keep this independent of the real-knob tests elsewhere.
        assert!(warn_invalid_env(
            "MP_SWEEP_TEST_KNOB_A",
            "banana",
            "default 32"
        ));
        assert!(!warn_invalid_env(
            "MP_SWEEP_TEST_KNOB_A",
            "banana",
            "default 32"
        ));
        assert!(!warn_invalid_env(
            "MP_SWEEP_TEST_KNOB_A",
            "other",
            "default 32"
        ));
        assert!(warn_invalid_env("MP_SWEEP_TEST_KNOB_B", "0", "default 1"));

        // env_usize feeds the same guard: set-but-invalid yields the
        // default after exactly one warning, valid yields the value, and
        // unset yields the default without warning.
        std::env::set_var("MP_SWEEP_TEST_KNOB_C", "nope");
        assert_eq!(env_usize("MP_SWEEP_TEST_KNOB_C", 4), 4);
        assert!(!warn_invalid_env(
            "MP_SWEEP_TEST_KNOB_C",
            "nope",
            "default 4"
        ));
        assert_eq!(env_usize("MP_SWEEP_TEST_KNOB_C", 4), 4);
        std::env::set_var("MP_SWEEP_TEST_KNOB_C", "7");
        assert_eq!(env_usize("MP_SWEEP_TEST_KNOB_C", 4), 7);
        std::env::remove_var("MP_SWEEP_TEST_KNOB_C");
        assert_eq!(env_usize("MP_SWEEP_TEST_KNOB_C", 4), 4);
        assert_eq!(env_usize("MP_SWEEP_TEST_KNOB_D", 4), 4);
        assert!(warn_invalid_env("MP_SWEEP_TEST_KNOB_D", "x", "default 4"));
    }

    #[test]
    fn env_knob_invalid_values_fall_back() {
        // SweepOptions::from_env parsing: garbage and zero fall back to
        // each knob's default instead of panicking. (Serialized with every
        // other env-mutating test via the shared lock.)
        let _guard = env_test_lock();
        for bad in ["", "banana", "0", "-3", "1.5"] {
            std::env::set_var("MP_SWEEP_BLOCK", bad);
            let o = SweepOptions::from_env();
            assert_eq!(o.block_width, 32, "value {bad:?}");
        }
        std::env::set_var("MP_SWEEP_BLOCK", "16");
        let o = SweepOptions::from_env();
        assert_eq!(o.block_width, 16);
        // MP_SWEEP_SIMD picks the dispatch mode; anything unrecognized
        // (including garbage and the level name `avx2`) falls back to auto
        // rather than erroring.
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
        std::env::remove_var("MP_SWEEP_BLOCK");
        std::env::remove_var("MP_SWEEP_SIMD");
        let o = SweepOptions::default(); // Default == from_env
        assert_eq!(o.block_width, 32);
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
    fn blocked_options_preserve_results_and_messages() {
        // Any block width yields bitwise-identical fields AND an identical
        // communication schedule — same message count, same total payload
        // elements.
        let mp = Multipartitioning::optimal(6, &[12, 12, 12], &CostModel::origin2000_like());
        let eta = [12usize, 13, 11];
        let k = FirstOrderKernel::new(0, 0.8);
        for dim in 0..3 {
            for dir in [Direction::Forward, Direction::Backward] {
                let want = serial_reference(&eta, dim, dir, &k);
                let (base, base_msgs, base_elems) =
                    run_distributed_sweep_opts(&mp, &eta, dim, dir, &k, &SweepOptions::new(1));
                assert_eq!(base.max_abs_diff(&want), 0.0, "bw=1 dim {dim} {dir:?}");
                assert!(base_msgs > 0, "premise: the sweep communicates");
                for opts in [
                    SweepOptions::new(5),
                    SweepOptions::new(32),
                    SweepOptions::new(1000),
                ] {
                    let (got, msgs, elems) =
                        run_distributed_sweep_opts(&mp, &eta, dim, dir, &k, &opts);
                    assert_eq!(
                        got.max_abs_diff(&want),
                        0.0,
                        "{opts:?} dim {dim} {dir:?} not bitwise equal"
                    );
                    assert_eq!(msgs, base_msgs, "{opts:?} changed the message count");
                    assert_eq!(elems, base_elems, "{opts:?} changed the payload sizes");
                }
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
        // η not divisible by γ: geometry layer spreads the remainder. Run
        // two block widths to cover uneven block tails.
        let mp = Multipartitioning::from_partitioning(4, Partitioning::new(vec![2, 2, 2]));
        let eta = [7usize, 9, 5];
        let k = PrefixSumKernel::new(0);
        for dim in 0..3 {
            for opts in [SweepOptions::new(32), SweepOptions::new(7)] {
                let (got, _, _) =
                    run_distributed_sweep_opts(&mp, &eta, dim, Direction::Forward, &k, &opts);
                let want = serial_reference(&eta, dim, Direction::Forward, &k);
                assert_eq!(got.max_abs_diff(&want), 0.0, "dim {dim} {opts:?}");
            }
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
                let end = tile.region.end();
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
