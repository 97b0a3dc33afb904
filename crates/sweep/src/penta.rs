//! Pentadiagonal line solvers — the actual system shape of NAS SP's scalar
//! solves.
//!
//! A pentadiagonal system couples each unknown to its two neighbors on each
//! side:
//!
//! ```text
//! e_i x_{i−2} + a_i x_{i−1} + d_i x_i + c_i x_{i+1} + f_i x_{i+2} = b_i
//! ```
//!
//! Forward elimination (no pivoting; valid for the diagonally dominant
//! systems ADI produces) normalizes each row to
//! `x_i + C_i x_{i+1} + F_i x_{i+2} = B_i`, carrying the previous **two**
//! eliminated rows across segment boundaries (6 values per line). Back
//! substitution `x_i = B_i − C_i x_{i+1} − F_i x_{i+2}` carries the next two
//! solution values. Both passes are directional line sweeps, so a
//! multipartitioned pentadiagonal solve has the same schedule as the
//! tridiagonal one — just a wider carry.

// Kernel inner loops index several parallel buffers at the same row;
// iterator zips would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use crate::recurrence::{LineSweepKernel, SegmentCtx};
use crate::simd::{self, load_carries, store_carries, Field, LaneBody, LaneVec, SimdLevel};
use mp_core::multipart::Direction;
use mp_grid::Lanes;

/// Eliminate one row given the two previous eliminated rows.
///
/// Returns the new `(C, F, B)`; `prev1` is row `i−1`, `prev2` row `i−2`
/// (each as `(C, F, B)`, zeros when absent). Public so kernels that
/// *generate* coefficients on the fly (e.g. the SP pentadiagonal kernel in
/// `mp-nassp`) can share the exact arithmetic.
#[inline]
pub fn eliminate_row(
    raw: (f64, f64, f64, f64, f64, f64),
    prev1: (f64, f64, f64),
    prev2: (f64, f64, f64),
) -> (f64, f64, f64) {
    let (e, a, d, c, f, b) = raw;
    // Substitute x_{i−2} via row i−2.
    let a1 = a - e * prev2.0;
    let d1 = d - e * prev2.1;
    let b1 = b - e * prev2.2;
    // Substitute x_{i−1} via row i−1.
    let den = d1 - a1 * prev1.0;
    assert!(den != 0.0, "zero pivot in pentadiagonal elimination");
    let c1 = c - a1 * prev1.1;
    let b2 = b1 - a1 * prev1.2;
    (c1 / den, f / den, b2 / den)
}

/// Solve one pentadiagonal system (serial reference). Boundary convention:
/// `e[0] = e[1] = a[0] = 0` and `c[n−1] = f[n−1] = f[n−2] = 0`
/// (rows must not reference unknowns outside the line).
///
/// # Panics
/// Panics on length mismatch, boundary-convention violations, or zero pivot.
/// ```
/// use mp_sweep::penta_solve;
/// // Identity system: x = b.
/// let n = 4;
/// let z = vec![0.0; n];
/// let d = vec![1.0; n];
/// let b = vec![2.0, -1.0, 0.5, 3.0];
/// assert_eq!(penta_solve(&z, &z, &d, &z, &z, &b), b);
/// ```
///
pub fn penta_solve(e: &[f64], a: &[f64], d: &[f64], c: &[f64], f: &[f64], b: &[f64]) -> Vec<f64> {
    let n = d.len();
    assert!(n >= 1);
    assert!(e.len() == n && a.len() == n && c.len() == n && f.len() == n && b.len() == n);
    assert!(e[0] == 0.0 && a[0] == 0.0, "row 0 must not reach backward");
    if n >= 2 {
        assert!(e[1] == 0.0, "row 1 must not reach x_{{-1}}");
        assert!(
            c[n - 1] == 0.0 && f[n - 1] == 0.0,
            "last row reaches forward"
        );
    }
    if n >= 2 {
        assert!(f[n - 2] == 0.0, "row n−2 must not reach x_n");
    }

    let mut cc = vec![0.0; n];
    let mut ff = vec![0.0; n];
    let mut bb = vec![0.0; n];
    let mut p1 = (0.0, 0.0, 0.0);
    let mut p2 = (0.0, 0.0, 0.0);
    for i in 0..n {
        let row = eliminate_row((e[i], a[i], d[i], c[i], f[i], b[i]), p1, p2);
        cc[i] = row.0;
        ff[i] = row.1;
        bb[i] = row.2;
        p2 = p1;
        p1 = row;
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let x1 = if i + 1 < n { x[i + 1] } else { 0.0 };
        let x2 = if i + 2 < n { x[i + 2] } else { 0.0 };
        x[i] = bb[i] - cc[i] * x1 - ff[i] * x2;
    }
    x
}

/// Pentadiagonal matrix–vector product (for residual checks).
pub fn penta_matvec(e: &[f64], a: &[f64], d: &[f64], c: &[f64], f: &[f64], x: &[f64]) -> Vec<f64> {
    let n = x.len();
    (0..n)
        .map(|i| {
            let mut v = d[i] * x[i];
            if i >= 1 {
                v += a[i] * x[i - 1];
            }
            if i >= 2 {
                v += e[i] * x[i - 2];
            }
            if i + 1 < n {
                v += c[i] * x[i + 1];
            }
            if i + 2 < n {
                v += f[i] * x[i + 2];
            }
            v
        })
        .collect()
}

/// Forward-elimination kernel over coefficient fields `[e, a, d, c, f, b]`.
/// After the sweep, `c`/`f`/`b` hold the eliminated `C`/`F`/`B`. Carry: the
/// two previous eliminated rows, 6 values.
#[derive(Debug, Clone)]
pub struct PentaForwardKernel {
    fields: [usize; 6],
}

impl PentaForwardKernel {
    /// Field indices of the five diagonals and the right-hand side.
    pub fn new(e: usize, a: usize, d: usize, c: usize, f: usize, b: usize) -> Self {
        PentaForwardKernel {
            fields: [e, a, d, c, f, b],
        }
    }
}

impl LineSweepKernel for PentaForwardKernel {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        6
    }

    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        _ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Forward);
        let mut p1 = (carry[0], carry[1], carry[2]);
        let mut p2 = (carry[3], carry[4], carry[5]);
        let n = seg[5].len();
        for k in 0..n {
            let row = eliminate_row(
                (
                    seg[0][k], seg[1][k], seg[2][k], seg[3][k], seg[4][k], seg[5][k],
                ),
                p1,
                p2,
            );
            seg[3][k] = row.0;
            seg[4][k] = row.1;
            seg[5][k] = row.2;
            p2 = p1;
            p1 = row;
        }
        carry[0] = p1.0;
        carry[1] = p1.1;
        carry[2] = p1.2;
        carry[3] = p2.0;
        carry[4] = p2.1;
        carry[5] = p2.2;
    }

    fn sweep_lanes(
        &self,
        level: SimdLevel,
        dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Forward, "elimination runs forward");
        debug_assert_eq!(carries.len(), 6 * lanes.nlanes());
        simd::sweep(level, self, carries, lanes, ctx);
    }
}

impl LaneBody for PentaForwardKernel {
    /// [`eliminate_row`] per lane, carrying the two previous eliminated
    /// rows (6 values per line) in six lane vectors across the segment.
    #[inline(always)]
    unsafe fn sweep<V: LaneVec>(
        &self,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        _ctx: &SegmentCtx,
        lo: usize,
        hi: usize,
    ) {
        let fields: [Field; 6] = std::array::from_fn(|i| Field::of(lanes, i));
        for l0 in (lo..hi).step_by(V::W) {
            // Row i−1 then row i−2, each `(C, F, B)`, as the scalar kernel
            // stores them.
            let [mut p1c, mut p1f, mut p1b, mut p2c, mut p2f, mut p2b] =
                load_carries::<V, 6>(carries, 6, l0, 0);
            for k in 0..lanes.seg_len() {
                let e = fields[0].load::<V>(k, l0);
                let a = fields[1].load::<V>(k, l0);
                let d = fields[2].load::<V>(k, l0);
                let c = fields[3].load::<V>(k, l0);
                let f = fields[4].load::<V>(k, l0);
                let b = fields[5].load::<V>(k, l0);
                // Substitute x_{i−2} via row i−2.
                let a1 = a.sub(e.mul(p2c));
                let d1 = d.sub(e.mul(p2f));
                let b1 = b.sub(e.mul(p2b));
                // Substitute x_{i−1} via row i−1.
                let den = d1.sub(a1.mul(p1c));
                if V::any(den.eq_zero()) {
                    panic!("zero pivot in pentadiagonal elimination");
                }
                let c1 = c.sub(a1.mul(p1f));
                let b2 = b1.sub(a1.mul(p1b));
                [p2c, p2f, p2b] = [p1c, p1f, p1b];
                [p1c, p1f, p1b] = [c1.div(den), f.div(den), b2.div(den)];
                fields[3].store(k, l0, p1c);
                fields[4].store(k, l0, p1f);
                fields[5].store(k, l0, p1b);
            }
            store_carries(carries, 6, l0, 0, [p1c, p1f, p1b, p2c, p2f, p2b]);
        }
    }
}

/// Back-substitution kernel over `[c, f, b]` (holding `C`, `F`, `B` from a
/// prior [`PentaForwardKernel`] sweep); `b` ends up holding the solution.
/// Carry: `[x_{i+1}, x_{i+2}, count]` where `count` marks how many of the
/// two downstream values exist yet (0 at the high boundary).
#[derive(Debug, Clone)]
pub struct PentaBackwardKernel {
    fields: [usize; 3],
}

impl PentaBackwardKernel {
    /// Field indices of the eliminated `C`, `F`, `B`.
    pub fn new(c: usize, f: usize, b: usize) -> Self {
        PentaBackwardKernel { fields: [c, f, b] }
    }
}

impl LineSweepKernel for PentaBackwardKernel {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        3
    }

    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        _ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Backward);
        let (mut x1, mut x2, mut count) = (carry[0], carry[1], carry[2]);
        let n = seg[2].len();
        for k in 0..n {
            let b = seg[2][k];
            let x = match count as u32 {
                0 => b,
                1 => b - seg[0][k] * x1,
                _ => b - seg[0][k] * x1 - seg[1][k] * x2,
            };
            seg[2][k] = x;
            x2 = x1;
            x1 = x;
            if count < 2.0 {
                count += 1.0;
            }
        }
        carry[0] = x1;
        carry[1] = x2;
        carry[2] = count;
    }

    fn sweep_lanes(
        &self,
        level: SimdLevel,
        dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Backward, "substitution runs backward");
        debug_assert_eq!(carries.len(), 3 * lanes.nlanes());
        simd::sweep(level, self, carries, lanes, ctx);
    }
}

impl LaneBody for PentaBackwardKernel {
    /// `sweep_segment`'s three-way `count` match (`count as u32` is 0, 1
    /// or more as `count` is below 1, below 2 or neither, NaN counting as
    /// 0) becomes two `≥` masks and selects that keep its left-associated
    /// `b − C·x₁ − F·x₂` rounding order.
    #[inline(always)]
    unsafe fn sweep<V: LaneVec>(
        &self,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        _ctx: &SegmentCtx,
        lo: usize,
        hi: usize,
    ) {
        let [cf, ff, bf]: [Field; 3] = std::array::from_fn(|i| Field::of(lanes, i));
        let (one, two) = (V::splat(1.0), V::splat(2.0));
        for l0 in (lo..hi).step_by(V::W) {
            let [mut x1, mut x2, mut count] = load_carries::<V, 3>(carries, 3, l0, 0);
            for k in 0..lanes.seg_len() {
                let b = bf.load::<V>(k, l0);
                let xa = V::select(count.ge(one), b.sub(cf.load::<V>(k, l0).mul(x1)), b);
                let x = V::select(count.ge(two), xa.sub(ff.load::<V>(k, l0).mul(x2)), xa);
                bf.store(k, l0, x);
                x2 = x1;
                x1 = x;
                count = V::select(two.gt(count), count.add(one), count);
            }
            store_carries(carries, 3, l0, 0, [x1, x2, count]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type PentaSystem = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

    /// Deterministic diagonally dominant pentadiagonal system with the
    /// boundary convention enforced.
    fn random_system(n: usize, seed: u64) -> PentaSystem {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 - 0.5
        };
        let e: Vec<f64> = (0..n)
            .map(|k| if k < 2 { 0.0 } else { next() * 0.4 })
            .collect();
        let a: Vec<f64> = (0..n)
            .map(|k| if k < 1 { 0.0 } else { next() * 0.4 })
            .collect();
        let c: Vec<f64> = (0..n)
            .map(|k| if k + 1 >= n { 0.0 } else { next() * 0.4 })
            .collect();
        let f: Vec<f64> = (0..n)
            .map(|k| if k + 2 >= n { 0.0 } else { next() * 0.4 })
            .collect();
        let d: Vec<f64> = (0..n)
            .map(|k| 2.0 + e[k].abs() + a[k].abs() + c[k].abs() + f[k].abs())
            .collect();
        let b: Vec<f64> = (0..n).map(|_| next() * 8.0).collect();
        (e, a, d, c, f, b)
    }

    #[test]
    fn identity_system() {
        let n = 6;
        let z = vec![0.0; n];
        let d = vec![1.0; n];
        let b: Vec<f64> = (0..n).map(|k| k as f64 - 2.0).collect();
        assert_eq!(penta_solve(&z, &z, &d, &z, &z, &b), b);
    }

    #[test]
    fn reduces_to_tridiagonal() {
        // With e = f = 0 the solver must agree with the Thomas solver.
        let n = 17;
        let (_, a, d, c, _, b) = random_system(n, 5);
        let z = vec![0.0; n];
        let x_penta = penta_solve(&z, &a, &d, &c, &z, &b);
        let x_thomas = crate::thomas::thomas_solve(&a, &d, &c, &b);
        for (p, t) in x_penta.iter().zip(x_thomas.iter()) {
            assert!((p - t).abs() < 1e-10, "{p} vs {t}");
        }
    }

    #[test]
    fn residual_random_systems() {
        for seed in 1..=15u64 {
            for n in [1usize, 2, 3, 4, 5, 16, 103] {
                let (e, a, d, c, f, b) = random_system(n, seed * 13 + n as u64);
                let x = penta_solve(&e, &a, &d, &c, &f, &b);
                let r = penta_matvec(&e, &a, &d, &c, &f, &x);
                for (rv, bv) in r.iter().zip(b.iter()) {
                    assert!(
                        (rv - bv).abs() < 1e-8,
                        "residual {} (n={n} seed={seed})",
                        (rv - bv).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn segmented_kernels_match_direct() {
        let n = 40;
        let (e, a, d, c, f, b) = random_system(n, 99);
        let direct = penta_solve(&e, &a, &d, &c, &f, &b);

        let fwd = PentaForwardKernel::new(0, 1, 2, 3, 4, 5);
        let bwd = PentaBackwardKernel::new(0, 1, 2);
        let fctx = SegmentCtx::origin(1, 0, Direction::Forward);
        let bctx = SegmentCtx::origin(1, 0, Direction::Backward);

        let mut cc = c.clone();
        let mut ff = f.clone();
        let mut bb = b.clone();
        let splits = [0usize, 7, 19, 26, n];
        let mut carry = vec![0.0; fwd.carry_len()];
        for w in splits.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut seg = vec![
                e[lo..hi].to_vec(),
                a[lo..hi].to_vec(),
                d[lo..hi].to_vec(),
                cc[lo..hi].to_vec(),
                ff[lo..hi].to_vec(),
                bb[lo..hi].to_vec(),
            ];
            fwd.sweep_segment(Direction::Forward, &mut carry, &mut seg, &fctx);
            cc[lo..hi].copy_from_slice(&seg[3]);
            ff[lo..hi].copy_from_slice(&seg[4]);
            bb[lo..hi].copy_from_slice(&seg[5]);
        }
        let mut carry = vec![0.0; bwd.carry_len()];
        for w in splits.windows(2).rev() {
            let (lo, hi) = (w[0], w[1]);
            let mut seg = vec![
                cc[lo..hi].iter().rev().copied().collect::<Vec<_>>(),
                ff[lo..hi].iter().rev().copied().collect::<Vec<_>>(),
                bb[lo..hi].iter().rev().copied().collect::<Vec<_>>(),
            ];
            bwd.sweep_segment(Direction::Backward, &mut carry, &mut seg, &bctx);
            for (off, v) in seg[2].iter().rev().enumerate() {
                bb[lo + off] = *v;
            }
        }
        for (k, (got, want)) in bb.iter().zip(direct.iter()).enumerate() {
            assert!((got - want).abs() < 1e-12, "row {k}: {got} vs {want}");
        }
    }

    #[test]
    fn single_and_two_element_lines() {
        // Degenerate line lengths exercise the boundary conventions.
        let x = penta_solve(&[0.0], &[0.0], &[3.0], &[0.0], &[0.0], &[9.0]);
        assert_eq!(x, vec![3.0]);
        let x = penta_solve(
            &[0.0, 0.0],
            &[0.0, 1.0],
            &[2.0, 3.0],
            &[1.0, 0.0],
            &[0.0, 0.0],
            &[3.0, 5.0],
        );
        assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "row 0 must not reach backward")]
    fn bad_boundary_rejected() {
        let _ = penta_solve(&[0.0], &[1.0], &[1.0], &[0.0], &[0.0], &[1.0]);
    }
}
