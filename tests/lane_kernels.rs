//! Every in-repo line kernel's blocked body (`LineSweepKernel::sweep_lanes`)
//! is bitwise equal to the per-line reference (`per_line_sweep_lanes`, i.e.
//! `sweep_segment` lane by lane) — on packed line-minor scratch and on the
//! two padded tile layouts the executor's rows use, each walked forward and
//! from the far end: lanes side by side (a sweep across the unit-stride
//! axis) and each lane contiguous, lanes a padded row apart (a sweep along
//! it). Every kernel runs at the scalar level and at the host's SIMD level,
//! for random lane counts (including `nlanes % 4 ≠ 0`), segment lengths,
//! carries and data. The 5×5 block kernels also run BT's own coefficients
//! and blocks built to take every branch of their vector bodies: signed
//! zeros, off-diagonal pivots and lanes that start their line at
//! different elements.

use mp_core::multipart::Direction;
use mp_grid::{AlignedVec, Lanes};
use mp_nasbt::BtProblem;
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

/// 5×5 blocks that take the vector bodies down every branch. Each point
/// hashes to one of four kinds:
/// * `A` all `-0.0`: the product `A·C'` skips every term (a zero-lane blend);
/// * `B = 0.5·I + 3·P`, `P` a cyclic shift: partial pivoting picks a row
///   below the diagonal, so the lane's group inverts lane by lane;
/// * `A` all `0.0` and `B` diagonal: the inverse, and with it the skips of
///   `inv·C`, are mostly exact zeros of either sign;
/// * otherwise diagonally dominant, with signed zeros sprinkled through
///   all three blocks (the inverse's row-skip blends).
struct Edgy;

impl BlockCoeffs<5> for Edgy {
    fn blocks(&self, g: &[usize], axis: usize) -> (Mat<5>, Mat<5>, Mat<5>) {
        let h = g.iter().fold(axis as u64 + 1, |h, &x| {
            (h ^ x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        // Entry (r, s) of block `salt`: `±w` or a signed zero, by hash bits.
        let entry =
            |r: usize, s: usize, salt: usize, w: f64| match (h >> ((5 * r + s + salt) % 61)) & 3 {
                0 => 0.0,
                1 => -0.0,
                2 => w,
                _ => -w,
            };
        let mut a: Mat<5> = std::array::from_fn(|r| std::array::from_fn(|s| entry(r, s, 0, 0.1)));
        let c: Mat<5> = std::array::from_fn(|r| std::array::from_fn(|s| entry(r, s, 7, 0.12)));
        let mut b: Mat<5> = std::array::from_fn(|r| {
            std::array::from_fn(|s| if r == s { 2.5 } else { entry(r, s, 13, 0.2) })
        });
        match (h >> 59) % 5 {
            0 => a = [[-0.0; 5]; 5],
            1 => {
                b = [[0.0; 5]; 5];
                for r in 0..5 {
                    b[r][r] = 0.5;
                    b[r][(r + 1) % 5] = 3.0;
                }
            }
            2 => {
                a = [[0.0; 5]; 5];
                for (r, row) in b.iter_mut().enumerate() {
                    for (s, v) in row.iter_mut().enumerate() {
                        if r != s {
                            *v = if (r + s) % 2 == 0 { 0.0 } else { -0.0 };
                        }
                    }
                }
            }
            _ => {}
        }
        (a, b, c)
    }
}

/// `v` with about one entry in eight replaced by `±∞`.
fn with_infinities(rng: &mut Rng, mut v: Vec<f64>) -> Vec<f64> {
    for x in &mut v {
        if rng.usize_in(0, 7) == 0 {
            *x = *rng.pick(&[f64::INFINITY, f64::NEG_INFINITY]);
        }
    }
    v
}

/// `v` with about half its entries replaced by `0.0` or `-0.0`.
fn with_zeros(rng: &mut Rng, mut v: Vec<f64>) -> Vec<f64> {
    for x in &mut v {
        match rng.usize_in(0, 3) {
            0 => *x = 0.0,
            1 => *x = -0.0,
            _ => {}
        }
    }
    v
}

/// Bit patterns, so that `0.0` and `-0.0` differ and NaNs compare.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
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
        assert_eq!(bits(&got_c), bits(&want_c), "{name} {level} packed carries");
        for (f, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(bits(g), bits(w), "{name} {level} packed field {f}");
        }

        // Two padded tile layouts, walked forward and from the far end
        // (the padding must stay untouched):
        // * rows of nl + 3 elements, a lane per column — the rows of a sweep
        //   across the unit-stride axis (lane stride 1);
        // * a lane per row of n + 3 elements — the rows of a sweep along
        //   the unit-stride axis (element stride ±1, lanes n + 3 apart).
        for (lane_gap, elem_gap, len) in [(1, nl + 3, n * (nl + 3)), (n + 3, 1, nl * (n + 3))] {
            for reversed in [false, true] {
                // (An empty segment's view starts at slot 0.)
                let slot = |k: usize| if reversed { n.saturating_sub(k + 1) } else { k };
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
                assert_eq!(bits(&got_c), bits(&want_c), "{at} carries");
                let mut inside = vec![false; len];
                for (f, (tile, want)) in tiles.iter().zip(&want).enumerate() {
                    for k in 0..n {
                        for l in 0..nl {
                            inside[at_kl(k, l)] = true;
                            let (g, w) = (tile[at_kl(k, l)], want[k * nl + l]);
                            assert_eq!(g.to_bits(), w.to_bits(), "{at} field {f}: {g} vs {w}");
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

#[test]
fn block_kernels_sweep_lanes_like_the_per_line_reference() {
    cases(0x750E, 24, |rng| {
        let nl = rng.usize_in(1, 13);
        // An empty segment still sets the backward carry's flag.
        let n = rng.usize_in(0, 12);
        let shape = (nl, n);
        let (fwd, bwd) = (Direction::Forward, Direction::Backward);
        // Lanes along axis 1 of a 6×32×7 domain at distinct cross-section
        // points; each forward lane starts at the line's first row or
        // inside it at random, so a lane group mixes line starts.
        let ctxs = |rng: &mut Rng, dir| -> Vec<SegmentCtx> {
            (0..nl)
                .map(|l| {
                    let start = if rng.bool() {
                        0
                    } else {
                        rng.usize_in(1, 32 - n)
                    };
                    let first = if dir == fwd {
                        start
                    } else {
                        start + n.saturating_sub(1)
                    };
                    SegmentCtx::new(vec![l % 6, first, (3 * l) % 7], 1, dir)
                })
                .collect()
        };
        let scratch: Vec<usize> = (0..25).collect();
        let rhs: Vec<usize> = (25..30).collect();
        let bwd_kernel = BlockTriBackwardKernel::<5>::new(&scratch, &rhs);
        // Backward carries `[x, valid]`, the flag `1.0`, `0.0`, `-0.0` or
        // NaN (which counts as set, like any value `!= 0.0`).
        let bwd_carries = |rng: &mut Rng| {
            carries(rng, nl, |r| {
                let x = r.f64_vec(5, -1.0, 1.0);
                let mut v = with_zeros(r, x);
                v.push(*r.pick(&[1.0, 0.0, -0.0, f64::NAN]));
                v
            })
        };

        // BT's own blocks, through `BtProblem::blocks4` at the SIMD level.
        let bt = BtProblem::new([6, 32, 7], 0.01);
        let k = BlockTriForwardKernel::<5, _>::new(bt, &scratch, &rhs);
        let data = blocks(rng, 30, nl, n, -1.0, 1.0);
        let c = carries(rng, nl, |r| r.f64_vec(30, -0.1, 0.1));
        assert_matches_reference(&k, fwd, shape, &data, &c, &ctxs(rng, fwd));
        let c = bwd_carries(rng);
        assert_matches_reference(&bwd_kernel, bwd, shape, &data, &c, &ctxs(rng, bwd));

        // Signed zeros and pivoting lanes, in blocks, data and carries.
        let k = BlockTriForwardKernel::<5, _>::new(Edgy, &scratch, &rhs);
        let data: Vec<Vec<f64>> = blocks(rng, 30, nl, n, -1.0, 1.0)
            .into_iter()
            .map(|d| with_zeros(rng, d))
            .collect();
        let c = carries(rng, nl, |r| {
            let v = r.f64_vec(30, -0.1, 0.1);
            with_zeros(r, v)
        });
        assert_matches_reference(&k, fwd, shape, &data, &c, &ctxs(rng, fwd));
        // A zero's skip differs from adding its product only where that
        // product is NaN (`0·∞`): infinite entries in the carried `C'`
        // make the skips of `A·C'` show, and in the lanes where `A` does
        // not vanish they reach the inverse and `inv·C` too.
        let c = carries(rng, nl, |r| {
            let v = r.f64_vec(30, -0.1, 0.1);
            let v = with_zeros(r, v);
            with_infinities(r, v)
        });
        assert_matches_reference(&k, fwd, shape, &data, &c, &ctxs(rng, fwd));
        let c = bwd_carries(rng);
        assert_matches_reference(&bwd_kernel, bwd, shape, &data, &c, &ctxs(rng, bwd));
    });
}

/// A block kernel over `n` elements of four lanes whose coefficients make
/// lane 2's first block singular.
struct Singular;

impl BlockCoeffs<2> for Singular {
    fn blocks(&self, g: &[usize], _axis: usize) -> (Mat<2>, Mat<2>, Mat<2>) {
        let d = if g[0] == 2 { 0.0 } else { 2.0 };
        ([[0.0; 2]; 2], [[d, 0.0], [0.0, d]], [[0.1; 2]; 2])
    }
}

#[test]
fn a_singular_block_panics_at_every_level() {
    let k = BlockTriForwardKernel::<2, _>::new(Singular, &[0, 1, 2, 3], &[4, 5]);
    let ctxs: Vec<SegmentCtx> = (0..4)
        .map(|l| SegmentCtx::new(vec![l, 0], 1, Direction::Forward))
        .collect();
    for level in [SimdLevel::Scalar, SimdMode::Auto.resolve()] {
        let result = std::panic::catch_unwind(|| {
            let mut bufs: Vec<AlignedVec> =
                (0..6).map(|_| AlignedVec::from_slice(&[1.0; 12])).collect();
            let mut carries = vec![0.0; 4 * 6];
            let mut table = Vec::new();
            let mut lanes = Lanes::packed(&mut bufs, 4, 3, &mut table);
            k.sweep_lanes(level, Direction::Forward, &mut carries, &mut lanes, &ctxs);
        });
        let payload = result.expect_err("a singular block must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("singular block"), "{level}: {msg}");
    }
}
