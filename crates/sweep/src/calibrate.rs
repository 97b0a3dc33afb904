//! Host calibration: the sweep kernels and the transport, timed into a
//! measured [`MachineProfile`].
//!
//! [`calibrate_host`] times six kernels of this crate, each through
//! [`LineSweepKernel::sweep_lanes`] on a packed block at the default plan
//! block width ([`CALIBRATION_BLOCK_WIDTH`]): Thomas and pentadiagonal
//! elimination and substitution over stored coefficients, and two
//! synthetic recurrences (a prefix sum and a first-order recurrence). It
//! then fits the ring transport's ping-pong. Per-kernel `K1` entries are
//! keyed `"<kernel>@<simd>"` (see [`k1_key`]), and the
//! [`K1_DEFAULT`](mp_core::machine::K1_DEFAULT) entry is the mean of the
//! four Thomas/penta kernels at the level the host actually dispatches.
//!
//! Of these, only the Thomas and penta substitution kernels are ones a
//! solver runs (SP's backward sweeps). SP's forward sweeps generate their
//! coefficients inside `SpTriForwardKernel` and `SpPentaForwardKernel`, and
//! BT's 5×5 block kernels are not timed yet.

use crate::penta::{PentaBackwardKernel, PentaForwardKernel};
use crate::recurrence::{FirstOrderKernel, LineSweepKernel, PrefixSumKernel, SegmentCtx};
use crate::simd::{SimdLevel, SimdMode};
use crate::thomas::{ThomasBackwardKernel, ThomasForwardKernel};
use mp_core::machine::MachineProfile;
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
    /// Contributes to the `K1` default (the Thomas/penta kernels do; the
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

/// Measure this host: every kernel at the dispatch level the plans
/// will resolve (plus the scalar baseline when they differ) and the
/// ring-transport Hockney pair. `fast` selects
/// [`CalibrationOpts::fast`] sizing (CI smoke; well under a second)
/// instead of [`CalibrationOpts::full`].
///
/// The returned profile has `Measured` provenance, per-kernel `K1`
/// entries keyed by [`k1_key`], a
/// [`K1_DEFAULT`](mp_core::machine::K1_DEFAULT) entry set to the mean of the
/// Thomas/penta kernels at the resolved level, and the fitted `K2`/`K3`
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

#[cfg(test)]
mod tests {
    use super::*;
    use mp_core::cost::BandwidthScaling;
    use mp_core::machine::{Provenance, K1_DEFAULT};

    #[test]
    fn calibrate_host_fast_produces_measured_profile() {
        let (profile, fit) = calibrate_host(true);
        assert_eq!(profile.provenance, Provenance::Measured);
        assert_eq!(profile.scaling, BandwidthScaling::Fixed);
        assert!(profile.k2 > 0.0, "k2 = {}", profile.k2);
        assert!(profile.k3 >= 0.0, "k3 = {}", profile.k3);
        assert!(!fit.samples.is_empty());
        // Every kernel present at the resolved level, plus a default.
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
