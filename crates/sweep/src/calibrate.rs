//! Host calibration: the sweep kernels and the transport, timed into a
//! measured [`CostModel`].
//!
//! [`calibrate_host`] times four kernels of this crate at the SIMD level
//! plans dispatch to, each once through [`LineSweepKernel::sweep_lanes`]
//! on a packed line-minor block of 32 lanes: Thomas and pentadiagonal
//! elimination and substitution over stored coefficients. `K1` is their
//! mean time per element. It then fits the ring transport's ping-pong for
//! `K2` and `K3`.
//!
//! Of these, only the Thomas and penta substitution kernels are ones a
//! solver runs (SP's backward sweeps). SP's forward sweeps generate their
//! coefficients inside `SpTriForwardKernel` and `SpPentaForwardKernel`, and
//! BT's 5×5 block kernels are not timed yet.

use crate::penta::{PentaBackwardKernel, PentaForwardKernel};
use crate::recurrence::{LineSweepKernel, SegmentCtx};
use crate::simd::{SimdLevel, SimdMode};
use crate::thomas::{ThomasBackwardKernel, ThomasForwardKernel};
use mp_core::cost::{BandwidthScaling, CostModel};
use mp_core::multipart::Direction;
use mp_grid::Lanes;
use mp_runtime::calibrate::{calibrate_transport, measure_min_secs, CalibrationOpts, TransportFit};

/// Lanes in the packed block each kernel microbenchmark sweeps.
const TIMED_BLOCK_LANES: usize = 32;

/// Seconds per element of `kernel` at `level`, the minimum over
/// `opts.reps` timed calls. Each call zeroes the carries and runs one full
/// `sweep_lanes` over a packed `TIMED_BLOCK_LANES × seg_len` block — the
/// entry point a compiled sweep's rows call. Field `f` is
/// filled with `fills[f]`, chosen diagonally dominant so repeated
/// elimination stays pivot-safe and away from subnormals.
fn bench_kernel(
    opts: &CalibrationOpts,
    level: SimdLevel,
    seg_len: usize,
    kernel: &dyn LineSweepKernel,
    dir: Direction,
    fills: &[f64],
) -> f64 {
    let nlines = TIMED_BLOCK_LANES;
    let clen = kernel.carry_len();
    let mut block: Vec<Vec<f64>> = fills.iter().map(|&v| vec![v; nlines * seg_len]).collect();
    let mut carries = vec![0.0f64; nlines * clen];
    let ctx = SegmentCtx::origin(3, 0, dir);
    let mut table = Vec::new();
    let secs = measure_min_secs(opts.warmup, opts.reps, || {
        carries.fill(0.0);
        let mut lanes = Lanes::packed(&mut block, nlines, seg_len, &mut table);
        kernel.sweep_lanes(level, dir, &mut carries, &mut lanes, &ctx);
    });
    (secs / (nlines * seg_len) as f64).max(1e-12)
}

/// Measure this host: `K1` from the four Thomas/penta kernels at the
/// level plans dispatch to, and the ring-transport Hockney pair. `fast`
/// selects [`CalibrationOpts::fast`] sizing (CI smoke; well under a
/// second) instead of [`CalibrationOpts::full`].
///
/// The returned model has `Fixed` bandwidth scaling (in-process ring links
/// are point-to-point: per-pair cost does not shrink as ranks are added).
pub fn calibrate_host(fast: bool) -> (CostModel, TransportFit) {
    let opts = if fast {
        CalibrationOpts::fast()
    } else {
        CalibrationOpts::full()
    };
    let seg_len = if fast { 1024 } else { 4096 };
    let level = SimdMode::Auto.resolve();
    let (fwd, bwd) = (Direction::Forward, Direction::Backward);
    let bench = |kernel: &dyn LineSweepKernel, dir, fills: &[f64]| {
        bench_kernel(&opts, level, seg_len, kernel, dir, fills)
    };
    let times = [
        bench(
            &ThomasForwardKernel::new(0, 1, 2, 3),
            fwd,
            &[-1.0, 4.0, -1.0, 1.0],
        ),
        bench(&ThomasBackwardKernel::new(0, 1), bwd, &[-0.25, 1.0]),
        bench(
            &PentaForwardKernel::new(0, 1, 2, 3, 4, 5),
            fwd,
            &[-1.0, -1.0, 6.0, -1.0, -1.0, 1.0],
        ),
        bench(&PentaBackwardKernel::new(0, 1, 2), bwd, &[-0.2, -0.2, 1.0]),
    ];
    let k1 = times.iter().sum::<f64>() / times.len() as f64;
    let fit = calibrate_transport(&opts);
    let model = CostModel {
        k1,
        k2: fit.k2,
        k3: fit.k3,
        scaling: BandwidthScaling::Fixed,
    };
    (model, fit)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrate_host_fast_produces_measured_profile() {
        let (model, fit) = calibrate_host(true);
        assert_eq!(model.scaling, BandwidthScaling::Fixed);
        assert!(model.k1 > 0.0 && model.k1 < 1e-3, "k1 = {}", model.k1);
        assert!(model.k2 > 0.0, "k2 = {}", model.k2);
        assert!(model.k3 >= 0.0, "k3 = {}", model.k3);
        assert_eq!((model.k2, model.k3), (fit.k2, fit.k3));
        assert!(!fit.samples.is_empty());
    }
}
