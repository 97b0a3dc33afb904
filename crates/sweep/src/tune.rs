//! Host calibration and analytic auto-tuning of the sweep knobs.
//!
//! [`calibrate_host`] runs the `mp-runtime` calibration microbenchmarks
//! against the *real* hot kernels of this crate — Thomas and pentadiagonal
//! elimination/substitution plus the recurrence kernels, each timed through
//! [`LineSweepKernel::sweep_lanes`] on a packed block at the default plan
//! block width — and the ring-transport ping-pong, producing a measured
//! [`MachineProfile`]. Per-kernel `K1` entries are keyed
//! `"<kernel>@<simd>"` (see [`k1_key`]), with the [`K1_DEFAULT`] entry set
//! to the mean of the hot solver kernels at the level the host actually
//! dispatches.
//!
//! [`TunedOptions::derive`] turns a [`PlanShape`] into concrete
//! [`SweepOptions`]: block width and worker threads. Explicit
//! environment knobs (`MP_SWEEP_BLOCK` / `MP_SWEEP_THREADS` /
//! `MP_SWEEP_SIMD`) always win over derived values — tuning fills in what
//! the user left unspecified, never overrides what they said.
//!
//! Because every sweep option produces bitwise-identical fields and an
//! identical communication schedule (the engine's core invariant), tuning
//! is purely a performance decision: `tuned_vs_default` property tests
//! assert the results cannot differ.

use crate::executor::{env_usize_opt, SweepOptions};
use crate::penta::{PentaBackwardKernel, PentaForwardKernel};
use crate::recurrence::{FirstOrderKernel, LineSweepKernel, PrefixSumKernel, SegmentCtx};
use crate::simd::{SimdLevel, SimdMode};
use crate::thomas::{ThomasBackwardKernel, ThomasForwardKernel};
use mp_core::machine::{MachineProfile, K1_DEFAULT};
use mp_core::multipart::Direction;
use mp_grid::{AlignedVec, Lanes};
use mp_runtime::calibrate::{CalibrationOpts, Calibrator, TransportFit};

/// The `K1` map key for `kernel` timed at `level`: `"<kernel>@<simd>"`
/// (e.g. `"penta_forward@avx2"`).
pub fn k1_key(kernel: &str, level: SimdLevel) -> String {
    format!("{kernel}@{}", level.name())
}

/// Block width the kernel microbenchmarks run at — the default plan block
/// width, so the measured seconds-per-element reflect the line-minor
/// layout and lane count steady-state execution uses.
pub const CALIBRATION_BLOCK_WIDTH: usize = 32;

/// One kernel microbenchmark: name, kernel, sweep direction, and the
/// per-field fill values (chosen diagonally dominant so repeated
/// elimination stays pivot-safe and away from subnormals).
struct KernelSpec {
    name: &'static str,
    kernel: Box<dyn LineSweepKernel>,
    dir: Direction,
    fills: Vec<f64>,
    /// Contributes to the `K1` default (the hot solver kernels do; the
    /// synthetic recurrence kernels are measured but excluded).
    hot: bool,
}

fn kernel_specs() -> Vec<KernelSpec> {
    vec![
        KernelSpec {
            name: "thomas_forward",
            kernel: Box::new(ThomasForwardKernel::new(0, 1, 2, 3)),
            dir: Direction::Forward,
            fills: vec![-1.0, 4.0, -1.0, 1.0],
            hot: true,
        },
        KernelSpec {
            name: "thomas_backward",
            kernel: Box::new(ThomasBackwardKernel::new(0, 1)),
            dir: Direction::Backward,
            fills: vec![-0.25, 1.0],
            hot: true,
        },
        KernelSpec {
            name: "penta_forward",
            kernel: Box::new(PentaForwardKernel::new(0, 1, 2, 3, 4, 5)),
            dir: Direction::Forward,
            fills: vec![-1.0, -1.0, 6.0, -1.0, -1.0, 1.0],
            hot: true,
        },
        KernelSpec {
            name: "penta_backward",
            kernel: Box::new(PentaBackwardKernel::new(0, 1, 2)),
            dir: Direction::Backward,
            fills: vec![-0.2, -0.2, 1.0],
            hot: true,
        },
        KernelSpec {
            name: "prefix_sum",
            kernel: Box::new(PrefixSumKernel::new(0)),
            dir: Direction::Forward,
            fills: vec![1.0e-6],
            hot: false,
        },
        KernelSpec {
            name: "first_order",
            kernel: Box::new(FirstOrderKernel::new(0, 0.5)),
            dir: Direction::Forward,
            fills: vec![1.0e-6],
            hot: false,
        },
    ]
}

/// Time one blocked kernel at `level` and record it under `key`.
/// Each timed call resets the carries and runs one full `sweep_lanes` over
/// an `nlines × seg_len` packed block — the entry point
/// [`crate::compiled::CompiledSweep`] executes.
fn bench_kernel(
    cal: &mut Calibrator,
    key: &str,
    level: SimdLevel,
    spec: &KernelSpec,
    nlines: usize,
    seg_len: usize,
) -> f64 {
    let clen = spec.kernel.carry_len();
    let mut block: Vec<AlignedVec> = spec
        .fills
        .iter()
        .map(|&v| AlignedVec::from_slice(&vec![v; nlines * seg_len]))
        .collect();
    let mut carries = vec![0.0f64; nlines * clen];
    let init = spec.kernel.initial_carry(spec.dir);
    let ctxs = vec![SegmentCtx::origin(3, 0, spec.dir); nlines];
    let kernel = spec.kernel.as_ref();
    let dir = spec.dir;
    let mut table = Vec::new();
    cal.measure_kernel(key, (nlines * seg_len) as u64, || {
        for l in 0..nlines {
            carries[l * clen..(l + 1) * clen].copy_from_slice(&init);
        }
        let mut lanes = Lanes::packed(&mut block, nlines, seg_len, &mut table);
        kernel.sweep_lanes(level, dir, &mut carries, &mut lanes, &ctxs);
    })
}

/// Measure this host: every hot kernel at the dispatch level the plans
/// will resolve (plus the scalar baseline when they differ) and the
/// ring-transport Hockney pair. `fast` selects
/// [`CalibrationOpts::fast`] sizing (CI smoke; well under a second)
/// instead of [`CalibrationOpts::full`].
///
/// The returned profile has `Measured` provenance, per-kernel `K1`
/// entries keyed by [`k1_key`], a [`K1_DEFAULT`] set to the mean of the
/// hot solver kernels at the resolved level, and the fitted `K2`/`K3`
/// with `Fixed` bandwidth scaling (in-process ring links are point-to-
/// point: per-pair cost does not shrink as ranks are added).
pub fn calibrate_host(fast: bool) -> (MachineProfile, TransportFit) {
    let opts = if fast {
        CalibrationOpts::fast()
    } else {
        CalibrationOpts::full()
    };
    let seg_len = if fast { 1024 } else { 4096 };
    let nlines = CALIBRATION_BLOCK_WIDTH;
    let mut cal = Calibrator::new(opts);
    let resolved = SimdMode::Auto.resolve();
    let mut hot_keys: Vec<String> = Vec::new();
    for spec in kernel_specs() {
        let levels: &[SimdLevel] = if resolved == SimdLevel::Scalar {
            &[SimdLevel::Scalar]
        } else {
            &[resolved, SimdLevel::Scalar]
        };
        for &level in levels {
            let key = k1_key(spec.name, level);
            bench_kernel(&mut cal, &key, level, &spec, nlines, seg_len);
            if spec.hot && level == resolved {
                hot_keys.push(key);
            }
        }
    }
    let refs: Vec<&str> = hot_keys.iter().map(String::as_str).collect();
    cal.set_default_from(&refs);
    cal.finish_with_transport()
}

/// The geometry a tuned run will execute — everything
/// [`TunedOptions::derive`] needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanShape {
    /// Ranks.
    pub p: u64,
    /// Global array extents.
    pub eta: Vec<usize>,
}

impl PlanShape {
    /// Lines per rank per phase for a sweep along `dim` (the slab's
    /// cross-section divided evenly among ranks, rounded up).
    fn lines_per_rank(&self, dim: usize) -> usize {
        let cross: usize = self
            .eta
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != dim)
            .map(|(_, &e)| e)
            .product();
        cross.div_ceil(self.p.max(1) as usize)
    }
}

/// Sweep options derived from the plan shape and the host plus the
/// explicit environment overrides — the record of *what* tuning decided and *why*,
/// so `mpart profile` can print it.
#[derive(Debug, Clone)]
pub struct TunedOptions {
    /// The analytically derived values, before environment overrides.
    pub derived: SweepOptions,
    /// The options a run should actually use (derived values with any
    /// explicit env knob substituted).
    pub options: SweepOptions,
    /// Human-readable decision log, one entry per knob.
    pub notes: Vec<String>,
}

impl TunedOptions {
    /// Pick sweep knobs for `shape` on this host:
    ///
    /// * **block width** — the SIMD batch sweet spot
    ///   ([`CALIBRATION_BLOCK_WIDTH`]), shrunk to the per-phase line
    ///   count when the problem is too small to fill a block;
    /// * **threads** — hardware threads divided by ranks (every rank is
    ///   an OS thread already), clamped to `[1, 8]`.
    ///
    /// Every knob an explicit `MP_SWEEP_*` variable sets wins over the
    /// derived value (invalid values warn once and fall back to the
    /// *tuned* value — tuning is the fallback, not the override).
    pub fn derive(shape: &PlanShape) -> TunedOptions {
        let d = shape.eta.len();
        let lines_min = (0..d).map(|i| shape.lines_per_rank(i)).min().unwrap_or(1);
        let block = lines_min.clamp(1, CALIBRATION_BLOCK_WIDTH);

        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (hw / shape.p.max(1) as usize).clamp(1, 8);

        let derived = SweepOptions::new(block, threads);

        let mut notes = Vec::new();
        let block_env = env_usize_opt("MP_SWEEP_BLOCK", &format!("tuned {block}"));
        let threads_env = env_usize_opt("MP_SWEEP_THREADS", &format!("tuned {threads}"));
        notes.push(knob_note("block", block, block_env));
        notes.push(knob_note("threads", threads, threads_env));

        let simd = SimdMode::from_env();
        if std::env::var_os("MP_SWEEP_SIMD").is_some() {
            notes.push(format!("simd: {simd} (MP_SWEEP_SIMD)"));
        }
        let options = SweepOptions::new(block_env.unwrap_or(block), threads_env.unwrap_or(threads))
            .with_simd(simd);

        TunedOptions {
            derived,
            options,
            notes,
        }
    }

    /// The default `K1` a tuned run should predict compute with: the
    /// profile's [`K1_DEFAULT`] entry (mean of the hot solver kernels on
    /// a measured profile).
    pub fn k1(profile: &MachineProfile) -> f64 {
        profile.k1_for(K1_DEFAULT)
    }
}

fn knob_note(name: &str, derived: usize, env: Option<usize>) -> String {
    match env {
        Some(v) if v != derived => format!("{name}: {v} (env override; tuned value {derived})"),
        Some(v) => format!("{name}: {v} (env, agrees with tuning)"),
        None => format!("{name}: {derived} (tuned)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_core::cost::BandwidthScaling;
    use mp_core::machine::Provenance;

    fn shape() -> PlanShape {
        PlanShape {
            p: 6,
            eta: vec![60, 60, 60],
        }
    }

    #[test]
    fn derive_clamps_block_to_available_lines() {
        // Tiny domain: 4×4 cross-section over 6 ranks → 3 lines per rank.
        let tiny = PlanShape {
            p: 6,
            eta: vec![4, 4, 4],
        };
        let t = TunedOptions::derive(&tiny);
        assert_eq!(t.derived.block_width, 3);
        // Large domain: full block width.
        let t = TunedOptions::derive(&shape());
        assert_eq!(t.derived.block_width, CALIBRATION_BLOCK_WIDTH);
        assert!(t.derived.threads >= 1);
    }

    #[test]
    fn env_overrides_beat_derived_values() {
        let _guard = crate::executor::env_test_lock();
        std::env::set_var("MP_SWEEP_BLOCK", "7");
        let t = TunedOptions::derive(&shape());
        assert_eq!(t.options.block_width, 7);
        assert_eq!(t.derived.block_width, CALIBRATION_BLOCK_WIDTH);
        std::env::remove_var("MP_SWEEP_BLOCK");
        let t = TunedOptions::derive(&shape());
        assert_eq!(t.options.block_width, t.derived.block_width);
    }

    #[test]
    fn calibrate_host_fast_produces_measured_profile() {
        let (profile, fit) = calibrate_host(true);
        assert_eq!(profile.provenance, Provenance::Measured);
        assert_eq!(profile.scaling, BandwidthScaling::Fixed);
        assert!(profile.k2 > 0.0, "k2 = {}", profile.k2);
        assert!(profile.k3 >= 0.0, "k3 = {}", profile.k3);
        assert!(!fit.samples.is_empty());
        // Every hot kernel present at the resolved level, plus a default.
        let resolved = SimdMode::Auto.resolve();
        for name in [
            "thomas_forward",
            "thomas_backward",
            "penta_forward",
            "penta_backward",
            "prefix_sum",
            "first_order",
        ] {
            let k1 = profile.k1_for(&k1_key(name, resolved));
            assert!(k1 > 0.0 && k1 < 1e-3, "{name}: k1 = {k1}");
        }
        assert!(profile.k1_default() > 0.0);
        assert!(profile.k1.contains_key(K1_DEFAULT));
    }
}
