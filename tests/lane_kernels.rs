//! Every in-repo line kernel's blocked body (`LineSweepKernel::sweep_lanes`)
//! is bitwise equal to the per-line reference (`per_line_sweep_lanes`, i.e.
//! `sweep_segment` lane by lane) — on packed line-minor scratch and on the
//! two padded tile layouts the executor's rows use, each walked forward and
//! from the far end: lanes side by side (a sweep across the unit-stride
//! axis) and each lane contiguous, lanes a padded row apart (a sweep along
//! it). Every kernel runs at the scalar level and at the host's SIMD level,
//! for random lane counts (including `nlanes % 4 ≠ 0`), segment lengths,
//! carries and data.

use mp_core::multipart::Direction;
use mp_grid::{AlignedVec, Lanes};
use mp_nassp::kernels::{SpPentaForwardKernel, SpTriForwardKernel};
use mp_nassp::SpProblem;
use mp_sweep::block::{BlockCoeffs, Mat};
use mp_sweep::recurrence::per_line_sweep_lanes;
use mp_sweep::simd::{SimdLevel, SimdMode};
use mp_sweep::{
    BatchedKernel, BlockTriBackwardKernel, BlockTriForwardKernel, FirstOrderKernel,
    LineSweepKernel, PentaBackwardKernel, PentaForwardKernel, PrefixSumKernel, SegmentCtx,
    ThomasBackwardKernel, ThomasForwardKernel,
};
use mp_testkit::{cases, Rng};

/// Position-dependent, diagonally dominant 3×3 blocks.
struct Coeffs;

impl BlockCoeffs<3> for Coeffs {
    fn blocks(&self, g: &[usize], axis: usize) -> (Mat<3>, Mat<3>, Mat<3>) {
        let w = 0.02 * (g.iter().sum::<usize>() % 5) as f64;
        let mut b = [[w; 3]; 3];
        for (r, row) in b.iter_mut().enumerate() {
            row[r] = 2.5 + 0.01 * g[axis] as f64;
        }
        ([[-0.1 - w; 3]; 3], b, [[-0.12 + w; 3]; 3])
    }
}

/// Sweep `data` (one line-minor `nl × n` block per field) through
/// `kernel.sweep_lanes` and compare with the per-line reference.
fn assert_matches_reference<K: LineSweepKernel>(
    kernel: &K,
    dir: Direction,
    (nl, n): (usize, usize),
    data: &[Vec<f64>],
    carries: &[f64],
    ctxs: &[SegmentCtx],
) {
    let name = std::any::type_name::<K>();
    let packed = || -> Vec<AlignedVec> { data.iter().map(|d| AlignedVec::from_slice(d)).collect() };
    let mut want = packed();
    let mut want_c = carries.to_vec();
    let mut table = Vec::new();
    let mut lanes = Lanes::packed(&mut want, nl, n, &mut table);
    per_line_sweep_lanes(kernel, dir, &mut want_c, &mut lanes, ctxs);

    for level in [SimdLevel::Scalar, SimdMode::Auto.resolve()] {
        // Packed scratch: element stride nlanes.
        let mut got = packed();
        let mut got_c = carries.to_vec();
        let mut lanes = Lanes::packed(&mut got, nl, n, &mut table);
        kernel.sweep_lanes(level, dir, &mut got_c, &mut lanes, ctxs);
        assert_eq!(got_c, want_c, "{name} {level} packed carries");
        assert_eq!(got, want, "{name} {level} packed fields");

        // Two padded tile layouts, walked forward and from the far end
        // (the padding must stay untouched):
        // * rows of nl + 3 elements, a lane per column — the rows of a sweep
        //   across the unit-stride axis (lane stride 1);
        // * a lane per row of n + 3 elements — the rows of a sweep along
        //   the unit-stride axis (element stride ±1, lanes n + 3 apart).
        for (lane_gap, elem_gap, len) in [(1, nl + 3, n * (nl + 3)), (n + 3, 1, nl * (n + 3))] {
            for reversed in [false, true] {
                let slot = |k: usize| if reversed { n - 1 - k } else { k };
                let at_kl = |k: usize, l: usize| l * lane_gap + slot(k) * elem_gap;
                let mut tiles: Vec<Vec<f64>> = data
                    .iter()
                    .map(|d| {
                        let mut t = vec![f64::NAN; len];
                        for k in 0..n {
                            for l in 0..nl {
                                t[at_kl(k, l)] = d[k * nl + l];
                            }
                        }
                        t
                    })
                    .collect();
                let stride = if reversed {
                    -(elem_gap as isize)
                } else {
                    elem_gap as isize
                };
                let parts = tiles.iter_mut().map(|t| {
                    (
                        t.as_mut_ptr(),
                        t.len(),
                        at_kl(0, 0),
                        stride,
                        lane_gap as isize,
                    )
                });
                let mut got_c = carries.to_vec();
                // SAFETY: each tile is a live Vec that only this view touches
                // until the call returns.
                let mut lanes = unsafe { Lanes::from_raw(parts, nl, n, &mut table) };
                kernel.sweep_lanes(level, dir, &mut got_c, &mut lanes, ctxs);
                let at = format!("{name} {level} lane stride {lane_gap} stride {stride}");
                assert_eq!(got_c, want_c, "{at} carries");
                let mut inside = vec![false; len];
                for (f, (tile, want)) in tiles.iter().zip(&want).enumerate() {
                    for k in 0..n {
                        for l in 0..nl {
                            inside[at_kl(k, l)] = true;
                            assert_eq!(tile[at_kl(k, l)], want[k * nl + l], "{at} field {f}");
                        }
                    }
                    let untouched = tile.iter().zip(&inside).all(|(v, &i)| i || v.is_nan());
                    assert!(untouched, "{at}: padding written");
                }
            }
        }
    }
}

/// `nfields` line-minor blocks of `nl × n` values in `[lo, hi)`.
fn blocks(rng: &mut Rng, nfields: usize, nl: usize, n: usize, lo: f64, hi: f64) -> Vec<Vec<f64>> {
    (0..nfields).map(|_| rng.f64_vec(nl * n, lo, hi)).collect()
}

/// A line-minor block whose every element is `2.5` plus noise: a diagonal
/// that keeps the eliminations far from zero pivots.
fn diagonal(rng: &mut Rng, nl: usize, n: usize) -> Vec<f64> {
    rng.f64_vec(nl * n, 2.0, 3.0)
}

/// Per-lane carries: `pattern(rng)` for each lane, concatenated.
fn carries(rng: &mut Rng, nl: usize, mut pattern: impl FnMut(&mut Rng) -> Vec<f64>) -> Vec<f64> {
    (0..nl).flat_map(|_| pattern(rng)).collect()
}

#[test]
fn every_kernel_sweeps_lanes_like_the_per_line_reference() {
    cases(0x750F, 32, |rng| {
        let nl = rng.usize_in(1, 13);
        let n = rng.usize_in(1, 24);
        let shape = (nl, n);
        let origin =
            |dir| -> Vec<SegmentCtx> { (0..nl).map(|_| SegmentCtx::origin(3, 0, dir)).collect() };
        // Lanes at different global positions, along axis 1 of a 6×32×7
        // domain; backward segments start at their highest index.
        let placed = |rng: &mut Rng, dir| -> Vec<SegmentCtx> {
            let start = rng.usize_in(0, 32 - n);
            let first = if dir == Direction::Forward {
                start
            } else {
                start + n - 1
            };
            (0..nl)
                .map(|l| SegmentCtx::new(vec![l % 6, first, (3 * l) % 7], 1, dir))
                .collect()
        };
        let (fwd, bwd) = (Direction::Forward, Direction::Backward);

        // Thomas forward/backward.
        let mut data = blocks(rng, 4, nl, n, -0.45, 0.45);
        data[1] = diagonal(rng, nl, n);
        let c = carries(rng, nl, |r| vec![r.f64_in(-0.4, 0.4), r.f64_in(-2.0, 2.0)]);
        let k = ThomasForwardKernel::new(0, 1, 2, 3);
        assert_matches_reference(&k, fwd, shape, &data, &c, &origin(fwd));
        let data = blocks(rng, 2, nl, n, -2.0, 2.0);
        let c = carries(rng, nl, |r| {
            vec![r.f64_in(-2.0, 2.0), r.usize_in(0, 1) as f64]
        });
        let k = ThomasBackwardKernel::new(0, 1);
        assert_matches_reference(&k, bwd, shape, &data, &c, &origin(bwd));

        // Pentadiagonal forward/backward, all three back-substitution
        // warm-up states (count 0, 1, ≥ 2).
        let mut data = blocks(rng, 6, nl, n, -0.3, 0.3);
        data[2] = diagonal(rng, nl, n);
        let c = carries(rng, nl, |r| r.f64_vec(6, -0.3, 0.3));
        let k = PentaForwardKernel::new(0, 1, 2, 3, 4, 5);
        assert_matches_reference(&k, fwd, shape, &data, &c, &origin(fwd));
        let data = blocks(rng, 3, nl, n, -2.0, 2.0);
        let c = carries(rng, nl, |r| {
            vec![
                r.f64_in(-2.0, 2.0),
                r.f64_in(-2.0, 2.0),
                r.usize_in(0, 2) as f64,
            ]
        });
        let k = PentaBackwardKernel::new(0, 1, 2);
        assert_matches_reference(&k, bwd, shape, &data, &c, &origin(bwd));

        // Prefix sum and first-order recurrence, both directions.
        for dir in [fwd, bwd] {
            let data = blocks(rng, 1, nl, n, -10.0, 10.0);
            let c = rng.f64_vec(nl, -5.0, 5.0);
            let k = PrefixSumKernel::new(0);
            assert_matches_reference(&k, dir, shape, &data, &c, &origin(dir));
            let k = FirstOrderKernel::new(0, rng.f64_in(-0.9, 0.9));
            assert_matches_reference(&k, dir, shape, &data, &c, &origin(dir));
        }

        // Block-tridiagonal forward/backward with generated coefficients.
        let scratch: Vec<usize> = (0..9).collect();
        let rhs: Vec<usize> = (9..12).collect();
        let data = blocks(rng, 12, nl, n, -1.0, 1.0);
        let c = carries(rng, nl, |r| r.f64_vec(12, -0.1, 0.1));
        let k = BlockTriForwardKernel::<3, _>::new(Coeffs, &scratch, &rhs);
        assert_matches_reference(&k, fwd, shape, &data, &c, &placed(rng, fwd));
        let c = carries(rng, nl, |r| {
            let mut v = r.f64_vec(3, -1.0, 1.0);
            v.push(r.usize_in(0, 1) as f64);
            v
        });
        let k = BlockTriBackwardKernel::<3>::new(&scratch, &rhs);
        assert_matches_reference(&k, bwd, shape, &data, &c, &placed(rng, bwd));

        // SP's generated tridiagonal and pentadiagonal eliminations.
        let data = blocks(rng, 3, nl, n, -2.0, 2.0);
        let c = carries(rng, nl, |r| r.f64_vec(6, -0.3, 0.3));
        let k = SpPentaForwardKernel::new(SpProblem::pentadiagonal([6, 32, 7], 0.01), 0, 1, 2);
        assert_matches_reference(&k, fwd, shape, &data, &c, &placed(rng, fwd));
        let c = carries(rng, nl, |r| vec![r.f64_in(-0.4, 0.4), r.f64_in(-2.0, 2.0)]);
        let k = SpTriForwardKernel::new(SpProblem::new([6, 32, 7], 0.01), 0, 1);
        assert_matches_reference(&k, fwd, shape, &data[..2], &c, &placed(rng, fwd));

        // A batch of Thomas eliminations: the members get sub-views.
        let mut data = blocks(rng, 8, nl, n, -0.45, 0.45);
        data[1] = diagonal(rng, nl, n);
        data[5] = diagonal(rng, nl, n);
        let c = carries(rng, nl, |r| r.f64_vec(4, -0.4, 0.4));
        let k = BatchedKernel::new(vec![
            ThomasForwardKernel::new(0, 1, 2, 3),
            ThomasForwardKernel::new(4, 5, 6, 7),
        ]);
        assert_matches_reference(&k, fwd, shape, &data, &c, &origin(fwd));
    });
}
