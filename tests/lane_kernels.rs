//! Every in-repo line kernel's blocked body (`LineSweepKernel::sweep_lanes`)
//! is bitwise equal to the per-line reference (`per_line_sweep_lanes`, i.e.
//! `sweep_segment` lane by lane) — on packed line-minor scratch and on the
//! two padded tile layouts the executor's rows use, each walked forward and
//! from the far end: lanes side by side (a sweep across the unit-stride
//! axis), each lane contiguous, lanes a padded row apart (a sweep along
//! it), and the two mixed in one view (the last field along, as BT's
//! right-hand sides lie on a dim-2 row beside its scratch `C'` fields).
//! Every kernel runs at every SIMD level the host supports, for random
//! lane counts (up to 23, so two 8-lane groups, a 4-lane group and tail
//! lanes can share a row), segment lengths, carries and data. The block
//! kernels run 1×1, 3×3, 5×5 and 9×9 blocks (the lane helpers unroll their
//! loops up to N = 8 and keep them rolled above), BT's own coefficients, and
//! blocks built to take every branch of their lane bodies: signed zeros,
//! off-diagonal pivots (inside 8-lane groups too) and rows that start their
//! lines at the first element or inside them. As in the executor, one
//! context locates a row's lane 0, and lane `l` lies `l` elements further
//! along the lane axis.

use mp_core::multipart::Direction;
use mp_grid::Lanes;
use mp_nasbt::BtProblem;
use mp_nassp::kernels::{SpPentaForwardKernel, SpTriForwardKernel};
use mp_nassp::SpProblem;
use mp_sweep::block::{BlockCoeffs, Mat};
use mp_sweep::recurrence::per_line_sweep_lanes;
use mp_sweep::simd::SimdLevel;
use mp_sweep::{
    BlockTriBackwardKernel, BlockTriForwardKernel, FirstOrderKernel, LineSweepKernel,
    PentaBackwardKernel, PentaForwardKernel, PrefixSumKernel, SegmentCtx, ThomasBackwardKernel,
    ThomasForwardKernel,
};
use mp_testkit::{cases, Rng};

/// Position-dependent, diagonally dominant N×N blocks: the off-diagonal
/// entries scale with `3 / N`, so every row's sum stays well below its
/// diagonal at any N.
struct Coeffs<const N: usize>;

impl<const N: usize> BlockCoeffs<N> for Coeffs<N> {
    fn blocks(&self, g: &[usize], axis: usize) -> (Mat<N>, Mat<N>, Mat<N>) {
        let s = 3.0 / N as f64;
        let w = 0.02 * (g.iter().sum::<usize>() % 5) as f64;
        let mut b = [[w * s; N]; N];
        for (r, row) in b.iter_mut().enumerate() {
            row[r] = 2.5 + 0.01 * g[axis] as f64;
        }
        ([[(-0.1 - w) * s; N]; N], b, [[(-0.12 + w) * s; N]; N])
    }
}

/// N×N blocks that take the lane bodies down every branch. Each point
/// hashes to one of four kinds:
/// * `A` all `-0.0`: the product `A·C'` skips every term (a zero-lane select);
/// * `B = 0.5·I + 3·P`, `P` a cyclic shift: partial pivoting picks a row
///   below the diagonal, so the lane's group inverts lane by lane. Points
///   with `g[2] = 5` take this kind, with `A = 0`, at every even line
///   coordinate, so lane 5 of the tests' rows (lanes along axis 2 from
///   `g[2] = 0`) forces the fallback inside an 8-lane group;
/// * `A` all `0.0` and `B` diagonal: the inverse, and with it the skips of
///   `inv·C`, are mostly exact zeros of either sign;
/// * otherwise diagonally dominant, with signed zeros sprinkled through
///   all three blocks (the inverse's row-skip blends).
struct Edgy<const N: usize>;

impl<const N: usize> BlockCoeffs<N> for Edgy<N> {
    fn blocks(&self, g: &[usize], axis: usize) -> (Mat<N>, Mat<N>, Mat<N>) {
        let h = g.iter().fold(axis as u64 + 1, |h, &x| {
            (h ^ x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        // Entry (r, s) of block `salt`: `±w` or a signed zero, by hash bits.
        let entry =
            |r: usize, s: usize, salt: usize, w: f64| match (h >> ((N * r + s + salt) % 61)) & 3 {
                0 => 0.0,
                1 => -0.0,
                2 => w,
                _ => -w,
            };
        let mut a: Mat<N> = std::array::from_fn(|r| std::array::from_fn(|s| entry(r, s, 0, 0.1)));
        let c: Mat<N> = std::array::from_fn(|r| std::array::from_fn(|s| entry(r, s, 7, 0.12)));
        let mut b: Mat<N> = std::array::from_fn(|r| {
            std::array::from_fn(|s| if r == s { 2.5 } else { entry(r, s, 13, 0.2) })
        });
        let forced = g[2] == 5 && g[axis].is_multiple_of(2);
        match if forced { 1 } else { (h >> 59) % 5 } {
            0 => a = [[-0.0; N]; N],
            1 => {
                b = [[0.0; N]; N];
                for r in 0..N {
                    b[r][r] = 0.5;
                    b[r][(r + 1) % N] = 3.0;
                }
                if forced {
                    // `A·C'` then skips every term, so the pivoting
                    // denominator is `B` itself whatever the carry holds.
                    a = [[0.0; N]; N];
                }
            }
            2 => {
                a = [[0.0; N]; N];
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

/// The message a panic was raised with.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
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
    ctx: &SegmentCtx,
) {
    let name = std::any::type_name::<K>();
    let packed = || data.to_vec();
    // Infinite carries can make a block singular, which panics the
    // reference; every level must then panic with the same message, in
    // every layout. `None` is the per-line reference.
    let sweep = |level: Option<SimdLevel>, c: &mut [f64], lanes: &mut Lanes<'_>| {
        let run = std::panic::AssertUnwindSafe(|| match level {
            None => per_line_sweep_lanes(kernel, dir, c, lanes, ctx),
            Some(level) => kernel.sweep_lanes(level, dir, c, lanes, ctx),
        });
        std::panic::catch_unwind(run)
            .err()
            .map(|p| panic_message(&*p))
    };
    let mut want = packed();
    let mut want_c = carries.to_vec();
    let mut table = Vec::new();
    let mut lanes = Lanes::packed(&mut want, nl, n, &mut table);
    let want_panic = sweep(None, &mut want_c, &mut lanes);

    for level in SimdLevel::supported() {
        // Packed scratch: element stride nlanes.
        let mut got = packed();
        let mut got_c = carries.to_vec();
        let mut lanes = Lanes::packed(&mut got, nl, n, &mut table);
        let panicked = sweep(Some(level), &mut got_c, &mut lanes);
        assert_eq!(panicked, want_panic, "{name} {level} packed panic");
        if want_panic.is_none() {
            assert_eq!(bits(&got_c), bits(&want_c), "{name} {level} packed carries");
            for (f, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(bits(g), bits(w), "{name} {level} packed field {f}");
            }
        }

        // Two padded tile layouts, walked forward and from the far end
        // (the padding must stay untouched):
        // * rows of nl + 3 elements, a lane per column — the rows of a sweep
        //   across the unit-stride axis (lane stride 1);
        // * a lane per row of n + 3 elements — the rows of a sweep along
        //   the unit-stride axis (element stride ±1, lanes n + 3 apart);
        // and the two mixed in one view, the last field in the second: a
        // dim-2 row of a BT sweep, whose scratch `C'` fields have adjacent
        // lanes and whose right-hand sides do not.
        let layouts = [(1, nl + 3, n * (nl + 3)), (n + 3, 1, nl * (n + 3))];
        let last = data.len() - 1;
        for (mix, pick) in [("across", [0, 0]), ("along", [1, 1]), ("mixed", [0, 1])] {
            // Field `f`'s layout.
            let layout = |f: usize| layouts[pick[usize::from(f == last)]];
            for reversed in [false, true] {
                // (An empty segment's view starts at slot 0.)
                let slot = |k: usize| if reversed { n.saturating_sub(k + 1) } else { k };
                let at_kl = |f: usize, k: usize, l: usize| {
                    let (lane_gap, elem_gap, _) = layout(f);
                    l * lane_gap + slot(k) * elem_gap
                };
                let mut tiles: Vec<Vec<f64>> = data
                    .iter()
                    .enumerate()
                    .map(|(f, d)| {
                        let mut t = vec![f64::NAN; layout(f).2];
                        for k in 0..n {
                            for l in 0..nl {
                                t[at_kl(f, k, l)] = d[k * nl + l];
                            }
                        }
                        t
                    })
                    .collect();
                let sign = if reversed { -1 } else { 1 };
                let parts = tiles.iter_mut().enumerate().map(|(f, t)| {
                    let (lane_gap, elem_gap, _) = layout(f);
                    let stride = sign * elem_gap as isize;
                    (
                        t.as_mut_ptr(),
                        t.len(),
                        at_kl(f, 0, 0),
                        stride,
                        lane_gap as isize,
                    )
                });
                let mut got_c = carries.to_vec();
                // SAFETY: each tile is a live Vec that only this view touches
                // until the call returns.
                let mut lanes = unsafe { Lanes::from_raw(parts, nl, n, &mut table) };
                let panicked = sweep(Some(level), &mut got_c, &mut lanes);
                let at = format!("{name} {level} lanes {mix}, walked {sign:+}");
                assert_eq!(panicked, want_panic, "{at} panic");
                if want_panic.is_some() {
                    continue;
                }
                assert_eq!(bits(&got_c), bits(&want_c), "{at} carries");
                for (f, (tile, want)) in tiles.iter().zip(&want).enumerate() {
                    let mut inside = vec![false; tile.len()];
                    for k in 0..n {
                        for l in 0..nl {
                            inside[at_kl(f, k, l)] = true;
                            let (g, w) = (tile[at_kl(f, k, l)], want[k * nl + l]);
                            assert_eq!(g.to_bits(), w.to_bits(), "{at} field {f}: {g} vs {w}");
                        }
                    }
                    let untouched = tile.iter().zip(&inside).all(|(v, &i)| i || v.is_nan());
                    assert!(untouched, "{at} field {f}: padding written");
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

/// Zero rows `rows` of field `f` in every lane of line-minor `data`, for
/// each `(f, rows)` in `ends`: the boundary rows of whole lines.
fn with_boundary_rows(data: &mut [Vec<f64>], nl: usize, ends: &[(usize, std::ops::Range<usize>)]) {
    for (f, rows) in ends {
        data[*f][rows.start * nl..rows.end * nl].fill(0.0);
    }
}

/// Per-lane carries: `pattern(rng)` for each lane, concatenated.
fn carries(rng: &mut Rng, nl: usize, mut pattern: impl FnMut(&mut Rng) -> Vec<f64>) -> Vec<f64> {
    (0..nl).flat_map(|_| pattern(rng)).collect()
}

/// The N×N block elimination and back substitution with [`Coeffs`] against
/// the per-line reference, on random data and carries at a row `placed`.
fn block_kernels_match<const N: usize>(
    rng: &mut Rng,
    (nl, n): (usize, usize),
    placed: &impl Fn(&mut Rng, Direction) -> SegmentCtx,
) {
    let nf = N * N + N;
    let scratch: Vec<usize> = (0..N * N).collect();
    let rhs: Vec<usize> = (N * N..nf).collect();
    let (fwd, bwd) = (Direction::Forward, Direction::Backward);
    let data = blocks(rng, nf, nl, n, -1.0, 1.0);
    let c = carries(rng, nl, |r| r.f64_vec(nf, -0.1, 0.1));
    let k = BlockTriForwardKernel::<N, _>::new(Coeffs, &scratch, &rhs);
    assert_matches_reference(&k, fwd, (nl, n), &data, &c, &placed(rng, fwd));
    let k = BlockTriBackwardKernel::<N>::new(&scratch, &rhs);
    let c = block_bwd_carries::<N>(rng, nl);
    assert_matches_reference(&k, bwd, (nl, n), &data, &c, &placed(rng, bwd));
}

#[test]
fn every_kernel_sweeps_lanes_like_the_per_line_reference() {
    cases(0x750F, 32, |rng| {
        let nl = rng.usize_in(1, 23);
        let n = rng.usize_in(1, 24);
        let shape = (nl, n);
        let origin = |dir| SegmentCtx::origin(3, 0, dir);
        // A row at a random point of axis 1 of a 6×32×24 domain, its lanes
        // along axis 2 (the lane axis) from 0; backward segments start at
        // their highest index.
        let placed = |rng: &mut Rng, dir| -> SegmentCtx {
            let start = rng.usize_in(0, 32 - n);
            let first = if dir == Direction::Forward {
                start
            } else {
                start + n - 1
            };
            SegmentCtx::new(vec![rng.usize_in(0, 5), first, 0], 1, dir)
        };
        let (fwd, bwd) = (Direction::Forward, Direction::Backward);

        // Thomas forward/backward, on random coefficients and on whole
        // lines with true boundary rows (`a[0] = c[n−1] = 0`).
        let mut data = blocks(rng, 4, nl, n, -0.45, 0.45);
        data[1] = diagonal(rng, nl, n);
        let c = carries(rng, nl, |r| vec![r.f64_in(-0.4, 0.4), r.f64_in(-2.0, 2.0)]);
        let k = ThomasForwardKernel::new(0, 1, 2, 3);
        assert_matches_reference(&k, fwd, shape, &data, &c, &origin(fwd));
        with_boundary_rows(&mut data, nl, &[(0, 0..1), (2, n - 1..n)]);
        let zeros = vec![0.0; 2 * nl];
        assert_matches_reference(&k, fwd, shape, &data, &zeros, &origin(fwd));
        let k = ThomasBackwardKernel::new(2, 3);
        assert_matches_reference(&k, bwd, shape, &data, &zeros, &origin(bwd));
        let data = blocks(rng, 2, nl, n, -2.0, 2.0);
        let c = carries(rng, nl, |r| {
            vec![r.f64_in(-2.0, 2.0), r.usize_in(0, 1) as f64]
        });
        let k = ThomasBackwardKernel::new(0, 1);
        assert_matches_reference(&k, bwd, shape, &data, &c, &origin(bwd));

        // Pentadiagonal forward/backward, all three back-substitution
        // warm-up states (count 0, 1, ≥ 2), and whole lines with true
        // boundary rows (`e[0] = e[1] = a[0] = 0`, `c[n−1] = 0`,
        // `f[n−2] = f[n−1] = 0`).
        let mut data = blocks(rng, 6, nl, n, -0.3, 0.3);
        data[2] = diagonal(rng, nl, n);
        let c = carries(rng, nl, |r| r.f64_vec(6, -0.3, 0.3));
        let k = PentaForwardKernel::new(0, 1, 2, 3, 4, 5);
        assert_matches_reference(&k, fwd, shape, &data, &c, &origin(fwd));
        let ends = [
            (0, 0..n.min(2)),
            (1, 0..1),
            (3, n - 1..n),
            (4, n.saturating_sub(2)..n),
        ];
        with_boundary_rows(&mut data, nl, &ends);
        let zeros = vec![0.0; 6 * nl];
        assert_matches_reference(&k, fwd, shape, &data, &zeros, &origin(fwd));
        let k = PentaBackwardKernel::new(3, 4, 5);
        assert_matches_reference(&k, bwd, shape, &data, &zeros[..3 * nl], &origin(bwd));
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

        // Block-tridiagonal forward/backward with generated coefficients,
        // at N = 1, 3 and 9: the lane helpers unroll their loops up to
        // N = 8 and keep them rolled above.
        block_kernels_match::<1>(rng, shape, &placed);
        block_kernels_match::<3>(rng, shape, &placed);
        block_kernels_match::<9>(rng, shape, &placed);

        // SP's generated tridiagonal and pentadiagonal eliminations.
        let data = blocks(rng, 3, nl, n, -2.0, 2.0);
        let c = carries(rng, nl, |r| r.f64_vec(6, -0.3, 0.3));
        let k = SpPentaForwardKernel::new(SpProblem::pentadiagonal([6, 32, 24], 0.01), 0, 1, 2);
        assert_matches_reference(&k, fwd, shape, &data, &c, &placed(rng, fwd));
        let c = carries(rng, nl, |r| vec![r.f64_in(-0.4, 0.4), r.f64_in(-2.0, 2.0)]);
        let k = SpTriForwardKernel::new(SpProblem::new([6, 32, 24], 0.01), 0, 1);
        assert_matches_reference(&k, fwd, shape, &data[..2], &c, &placed(rng, fwd));
    });
}

#[test]
fn block_kernels_sweep_lanes_like_the_per_line_reference() {
    cases(0x750E, 24, |rng| {
        let nl = rng.usize_in(1, 23);
        // An empty segment still sets the backward carry's flag.
        let n = rng.usize_in(0, 12);
        let shape = (nl, n);
        let (fwd, bwd) = (Direction::Forward, Direction::Backward);
        // A row along axis 1 of a 6×32×24 domain, its lanes along axis 2
        // from 0; the row starts at the lines' first element or inside
        // them, at random.
        let row = |rng: &mut Rng, dir| -> SegmentCtx {
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
            SegmentCtx::new(vec![rng.usize_in(0, 5), first, 0], 1, dir)
        };
        let scratch: Vec<usize> = (0..25).collect();
        let rhs: Vec<usize> = (25..30).collect();

        // BT's own blocks, through `BtProblem::blocks_lanes` at the SIMD
        // levels.
        let bt = BtProblem::new([6, 32, 24], 0.01);
        let k = BlockTriForwardKernel::<5, _>::new(bt, &scratch, &rhs);
        let data = blocks(rng, 30, nl, n, -1.0, 1.0);
        let c = carries(rng, nl, |r| r.f64_vec(30, -0.1, 0.1));
        assert_matches_reference(&k, fwd, shape, &data, &c, &row(rng, fwd));
        let k = BlockTriBackwardKernel::<5>::new(&scratch, &rhs);
        let c = block_bwd_carries::<5>(rng, nl);
        assert_matches_reference(&k, bwd, shape, &data, &c, &row(rng, bwd));

        // Signed zeros and pivoting lanes at BT's N, at N = 1 and above the
        // lane helpers' unrolled bound.
        edgy_kernels_match::<5>(rng, shape, &row);
        edgy_kernels_match::<1>(rng, shape, &row);
        edgy_kernels_match::<9>(rng, shape, &row);
    });
}

/// Backward block carries `[x, valid]` for `nl` lanes: signed zeros in `x`,
/// and the flag `1.0`, `0.0`, `-0.0` or NaN (which counts as set, like any
/// value `!= 0.0`).
fn block_bwd_carries<const N: usize>(rng: &mut Rng, nl: usize) -> Vec<f64> {
    carries(rng, nl, |r| {
        let x = r.f64_vec(N, -1.0, 1.0);
        let mut v = with_zeros(r, x);
        v.push(*r.pick(&[1.0, 0.0, -0.0, f64::NAN]));
        v
    })
}

/// The N×N block kernels on [`Edgy`] blocks against the per-line reference
/// at the rows `row` places: signed zeros and pivoting lanes in blocks, data and
/// carries, then infinite forward carries.
fn edgy_kernels_match<const N: usize>(
    rng: &mut Rng,
    (nl, n): (usize, usize),
    row: &impl Fn(&mut Rng, Direction) -> SegmentCtx,
) {
    let nf = N * N + N;
    let scratch: Vec<usize> = (0..N * N).collect();
    let rhs: Vec<usize> = (N * N..nf).collect();
    let (fwd, bwd) = (Direction::Forward, Direction::Backward);
    let k = BlockTriForwardKernel::<N, _>::new(Edgy, &scratch, &rhs);
    let data: Vec<Vec<f64>> = blocks(rng, nf, nl, n, -1.0, 1.0)
        .into_iter()
        .map(|d| with_zeros(rng, d))
        .collect();
    let c = carries(rng, nl, |r| {
        let v = r.f64_vec(nf, -0.1, 0.1);
        with_zeros(r, v)
    });
    assert_matches_reference(&k, fwd, (nl, n), &data, &c, &row(rng, fwd));
    // A zero's skip differs from adding its product only where that
    // product is NaN (`0·∞`): infinite entries in the carried `C'` make
    // the skips of `A·C'` show, and in the lanes where `A` does not vanish
    // they reach the inverse and `inv·C` too.
    let c = carries(rng, nl, |r| {
        let v = r.f64_vec(nf, -0.1, 0.1);
        let v = with_zeros(r, v);
        with_infinities(r, v)
    });
    assert_matches_reference(&k, fwd, (nl, n), &data, &c, &row(rng, fwd));
    let k = BlockTriBackwardKernel::<N>::new(&scratch, &rhs);
    let c = block_bwd_carries::<N>(rng, nl);
    assert_matches_reference(&k, bwd, (nl, n), &data, &c, &row(rng, bwd));
}

/// 2×2 blocks that are singular at the points with `g[0] = 2`: lane 2 of
/// the test's row, inside its first 4- or 8-lane group.
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
    // A row along axis 1, its lanes along axis 0 from 0.
    let ctx = SegmentCtx::origin(2, 1, Direction::Forward);
    for level in SimdLevel::supported() {
        let result = std::panic::catch_unwind(|| {
            let mut bufs = vec![vec![1.0; 8 * 3]; 6];
            let mut carries = vec![0.0; 8 * 6];
            let mut table = Vec::new();
            let mut lanes = Lanes::packed(&mut bufs, 8, 3, &mut table);
            k.sweep_lanes(level, Direction::Forward, &mut carries, &mut lanes, &ctx);
        });
        let msg = panic_message(&*result.expect_err("a singular block must panic"));
        assert!(msg.contains("singular block"), "{level}: {msg}");
    }
}
