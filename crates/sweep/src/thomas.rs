//! Tridiagonal line solvers (Thomas algorithm), serial and as segmented
//! sweep kernels.
//!
//! ADI integration reduces each implicit step to a tridiagonal system per
//! grid line. The Thomas algorithm is two directional recurrences:
//!
//! * forward elimination:
//!   `c'_k = c_k / (b_k − a_k c'_{k−1})`, `d'_k = (d_k − a_k d'_{k−1}) / (b_k − a_k c'_{k−1})`
//! * back substitution: `x_k = d'_k − c'_k x_{k+1}`
//!
//! The forward pass carries `(c'_last, d'_last)` across tile boundaries, the
//! backward pass carries `x_first` — which is exactly why one tridiagonal
//! solve over a multipartitioned array is a forward sweep followed by a
//! backward sweep, both with tiny per-line messages.

// Kernel inner loops index several parallel buffers at the same row;
// iterator zips would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use crate::recurrence::{LineSweepKernel, SegmentCtx};
use crate::simd::{self, load_carries, store_carries, Field, LaneBody, LaneVec, SimdLevel};
use mp_core::multipart::Direction;
use mp_grid::Lanes;

/// Solve one tridiagonal system in place (serial reference).
///
/// `a` is the sub-diagonal (with `a[0]` unused), `b` the diagonal, `c` the
/// super-diagonal (with `c[n−1]` unused), `d` the right-hand side. On return
/// `d` holds the solution; `b` and `c` are clobbered (they hold the
/// eliminated coefficients).
///
/// # Panics
/// Panics on length mismatch or zero pivot.
pub fn thomas_solve_in_place(a: &[f64], b: &mut [f64], c: &mut [f64], d: &mut [f64]) {
    let n = d.len();
    assert!(n >= 1);
    assert!(a.len() == n && b.len() == n && c.len() == n);
    // Forward elimination.
    let mut denom = b[0];
    assert!(denom != 0.0, "zero pivot at row 0");
    c[0] /= denom;
    d[0] /= denom;
    for k in 1..n {
        denom = b[k] - a[k] * c[k - 1];
        assert!(denom != 0.0, "zero pivot at row {k}");
        c[k] /= denom;
        d[k] = (d[k] - a[k] * d[k - 1]) / denom;
    }
    // Back substitution.
    for k in (0..n - 1).rev() {
        d[k] -= c[k] * d[k + 1];
    }
}

/// ```
/// use mp_sweep::thomas_solve;
/// // [2 1; 1 3]·x = [3; 5]  →  x = (0.8, 1.4)
/// let x = thomas_solve(&[0.0, 1.0], &[2.0, 3.0], &[1.0, 0.0], &[3.0, 5.0]);
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// ```
/// Convenience wrapper returning the solution vector.
pub fn thomas_solve(a: &[f64], b: &[f64], c: &[f64], d: &[f64]) -> Vec<f64> {
    let mut bb = b.to_vec();
    let mut cc = c.to_vec();
    let mut dd = d.to_vec();
    thomas_solve_in_place(a, &mut bb, &mut cc, &mut dd);
    dd
}

/// Multiply a tridiagonal matrix by a vector (for residual checks).
pub fn tridiag_matvec(a: &[f64], b: &[f64], c: &[f64], x: &[f64]) -> Vec<f64> {
    let n = x.len();
    (0..n)
        .map(|k| {
            let mut v = b[k] * x[k];
            if k > 0 {
                v += a[k] * x[k - 1];
            }
            if k + 1 < n {
                v += c[k] * x[k + 1];
            }
            v
        })
        .collect()
}

/// Forward-elimination sweep kernel over fields `[a, b, c, d]`.
///
/// After the sweep, field `c` holds `c'` and field `d` holds `d'`
/// (field `b` is left untouched; the division is folded in). Carry:
/// `(c'_prev, d'_prev)`.
#[derive(Debug, Clone)]
pub struct ThomasForwardKernel {
    fields: [usize; 4],
}

impl ThomasForwardKernel {
    /// `a`, `b`, `c`, `d` field indices (sub-diagonal, diagonal,
    /// super-diagonal, right-hand side).
    pub fn new(a: usize, b: usize, c: usize, d: usize) -> Self {
        ThomasForwardKernel {
            fields: [a, b, c, d],
        }
    }
}

impl LineSweepKernel for ThomasForwardKernel {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        // [c', d'] of the previous row; the all-zero boundary carry
        // is c'_{-1} = d'_{-1} = 0 (no row before the first).
        2
    }

    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        _ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Forward, "elimination runs forward");
        let (mut cp, mut dp) = (carry[0], carry[1]);
        let n = seg[3].len();
        for k in 0..n {
            let ak = seg[0][k];
            let bk = seg[1][k];
            let denom = bk - ak * cp;
            assert!(denom != 0.0, "zero pivot");
            cp = seg[2][k] / denom;
            dp = (seg[3][k] - ak * dp) / denom;
            seg[2][k] = cp;
            seg[3][k] = dp;
        }
        carry[0] = cp;
        carry[1] = dp;
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
        debug_assert_eq!(carries.len(), 2 * lanes.nlanes());
        simd::sweep(level, self, carries, lanes, ctx);
    }
}

/// One element of the elimination for lanes `l0..l0 + W` of fields
/// `[a, b, c, d]`: `c' = c/(b − a·c'_prev)`, `d' = (d − a·d'_prev)/(b −
/// a·c'_prev)`, as in `sweep_segment`.
///
/// # Safety
/// As for [`Field::load`].
#[inline(always)]
unsafe fn forward_step<V: LaneVec>(f: &[Field; 4], k: usize, l0: usize, [cp, dp]: &mut [V; 2]) {
    let ak = f[0].load::<V>(k, l0);
    let denom = f[1].load::<V>(k, l0).sub(ak.mul(*cp));
    if V::any(denom.eq_zero()) {
        panic!("zero pivot");
    }
    *cp = f[2].load::<V>(k, l0).div(denom);
    *dp = f[3].load::<V>(k, l0).sub(ak.mul(*dp)).div(denom);
    f[2].store(k, l0, *cp);
    f[3].store(k, l0, *dp);
}

impl LaneBody for ThomasForwardKernel {
    #[inline(always)]
    unsafe fn sweep<V: LaneVec>(
        &self,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        _ctx: &SegmentCtx,
        lo: usize,
        hi: usize,
    ) {
        let f: [Field; 4] = std::array::from_fn(|i| Field::of(lanes, i));
        let w = V::W;
        // Two lane groups advance together through the segment: each
        // group's recurrence is a serial multiply–subtract–divide chain, so
        // a lone group leaves the divider idle most of the time, and a
        // second, independent chain roughly doubles throughput. Each lane
        // still sees its line's exact operation sequence.
        let paired = lo + (hi - lo) / (2 * w) * (2 * w);
        for l0 in (lo..paired).step_by(2 * w) {
            let (mut c0, mut c1) = (
                load_carries(carries, 2, l0, 0),
                load_carries(carries, 2, l0 + w, 0),
            );
            for k in 0..lanes.seg_len() {
                forward_step::<V>(&f, k, l0, &mut c0);
                forward_step::<V>(&f, k, l0 + w, &mut c1);
            }
            store_carries(carries, 2, l0, 0, c0);
            store_carries(carries, 2, l0 + w, 0, c1);
        }
        for l0 in (paired..hi).step_by(w) {
            let mut c = load_carries(carries, 2, l0, 0);
            for k in 0..lanes.seg_len() {
                forward_step::<V>(&f, k, l0, &mut c);
            }
            store_carries(carries, 2, l0, 0, c);
        }
    }
}

/// Back-substitution sweep kernel over fields `[c, d]` (which must hold `c'`
/// and `d'` from a prior [`ThomasForwardKernel`] sweep). After the sweep,
/// field `d` holds the solution. Carry: `x_next`, plus a flag marking the
/// first (boundary) segment.
#[derive(Debug, Clone)]
pub struct ThomasBackwardKernel {
    fields: [usize; 2],
}

impl ThomasBackwardKernel {
    /// `c`, `d` field indices holding the eliminated coefficients.
    pub fn new(c: usize, d: usize) -> Self {
        ThomasBackwardKernel { fields: [c, d] }
    }
}

impl LineSweepKernel for ThomasBackwardKernel {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        // [x_next, valid]; the all-zero boundary carry marks the
        // x_n term at the high boundary absent (valid = 0).
        2
    }

    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        _ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Backward, "substitution runs backward");
        // Buffers are ordered in sweep direction: element 0 is the
        // highest-index row of this segment.
        let (mut x_next, mut valid) = (carry[0], carry[1]);
        let n = seg[1].len();
        for k in 0..n {
            let dk = seg[1][k];
            let xk = if valid != 0.0 {
                dk - seg[0][k] * x_next
            } else {
                dk // the last row of the whole line: x = d'
            };
            seg[1][k] = xk;
            x_next = xk;
            valid = 1.0;
        }
        carry[0] = x_next;
        carry[1] = valid;
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
        debug_assert_eq!(carries.len(), 2 * lanes.nlanes());
        simd::sweep(level, self, carries, lanes, ctx);
    }
}

impl LaneBody for ThomasBackwardKernel {
    /// `x = d' − c'·x_next` in the lanes whose `valid` flag is set, else
    /// `x = d'`; after the first element every lane is valid, as in
    /// `sweep_segment`.
    #[inline(always)]
    unsafe fn sweep<V: LaneVec>(
        &self,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        _ctx: &SegmentCtx,
        lo: usize,
        hi: usize,
    ) {
        let (c, d) = (Field::of(lanes, 0), Field::of(lanes, 1));
        let one = V::splat(1.0);
        for l0 in (lo..hi).step_by(V::W) {
            let [mut x, mut valid] = load_carries::<V, 2>(carries, 2, l0, 0);
            for k in 0..lanes.seg_len() {
                let dk = d.load::<V>(k, l0);
                let cand = dk.sub(c.load::<V>(k, l0).mul(x));
                x = V::select(valid.eq_zero(), dk, cand);
                d.store(k, l0, x);
                valid = one;
            }
            store_carries(carries, 2, l0, 0, [x, valid]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recurrence::SegmentCtx;

    fn fctx() -> SegmentCtx {
        SegmentCtx::origin(1, 0, Direction::Forward)
    }

    fn bctx() -> SegmentCtx {
        SegmentCtx::origin(1, 0, Direction::Backward)
    }

    fn random_system(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        // Deterministic diagonally dominant system.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 - 0.5
        };
        let a: Vec<f64> = (0..n).map(|k| if k == 0 { 0.0 } else { next() }).collect();
        let c: Vec<f64> = (0..n)
            .map(|k| if k == n - 1 { 0.0 } else { next() })
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|k| 2.0 + a[k].abs() + c[k].abs() + next().abs())
            .collect();
        let d: Vec<f64> = (0..n).map(|_| next() * 10.0).collect();
        (a, b, c, d)
    }

    #[test]
    fn thomas_2x2() {
        // [2 1; 1 3] x = [3; 5] → x = (4/5, 7/5)
        let x = thomas_solve(&[0.0, 1.0], &[2.0, 3.0], &[1.0, 0.0], &[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn thomas_identity() {
        let n = 7;
        let a = vec![0.0; n];
        let b = vec![1.0; n];
        let c = vec![0.0; n];
        let d: Vec<f64> = (0..n).map(|k| k as f64).collect();
        assert_eq!(thomas_solve(&a, &b, &c, &d), d);
    }

    #[test]
    fn thomas_residual_random_systems() {
        for seed in 1..=20u64 {
            for n in [1usize, 2, 3, 10, 64, 257] {
                let (a, b, c, d) = random_system(n, seed * 31 + n as u64);
                let x = thomas_solve(&a, &b, &c, &d);
                let r = tridiag_matvec(&a, &b, &c, &x);
                for (rv, dv) in r.iter().zip(d.iter()) {
                    assert!(
                        (rv - dv).abs() < 1e-9,
                        "residual too large (n={n}, seed={seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn segmented_kernels_match_serial_thomas() {
        // Run forward-elimination + back-substitution via the segment
        // kernels (split into 3 chunks) and compare against the in-place
        // serial solver: results must be bit-identical.
        let n = 30;
        let (a, b, c, d) = random_system(n, 42);
        let serial = thomas_solve(&a, &b, &c, &d);

        let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
        let bwd = ThomasBackwardKernel::new(2, 3);

        let mut cc = c.clone();
        let mut dd = d.clone();
        let splits = [0usize, 11, 17, n];
        // forward over segments
        let mut carry = vec![0.0; fwd.carry_len()];
        for w in splits.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut seg = vec![
                a[lo..hi].to_vec(),
                b[lo..hi].to_vec(),
                cc[lo..hi].to_vec(),
                dd[lo..hi].to_vec(),
            ];
            fwd.sweep_segment(Direction::Forward, &mut carry, &mut seg, &fctx());
            cc[lo..hi].copy_from_slice(&seg[2]);
            dd[lo..hi].copy_from_slice(&seg[3]);
        }
        // backward over segments (reverse order, buffers reversed)
        let mut carry = vec![0.0; bwd.carry_len()];
        for w in splits.windows(2).rev() {
            let (lo, hi) = (w[0], w[1]);
            let mut cseg: Vec<f64> = cc[lo..hi].iter().rev().copied().collect();
            let mut dseg: Vec<f64> = dd[lo..hi].iter().rev().copied().collect();
            let mut seg = vec![std::mem::take(&mut cseg), std::mem::take(&mut dseg)];
            bwd.sweep_segment(Direction::Backward, &mut carry, &mut seg, &bctx());
            for (off, v) in seg[1].iter().rev().enumerate() {
                dd[lo + off] = *v;
            }
        }
        for (k, (got, want)) in dd.iter().zip(serial.iter()).enumerate() {
            assert!((got - want).abs() < 1e-12, "row {k}: {got} vs {want}");
        }
    }

    #[test]
    fn tridiag_matvec_basics() {
        // [2 1 0; 1 2 1; 0 1 2] · [1,1,1] = [3,4,3]
        let a = [0.0, 1.0, 1.0];
        let b = [2.0, 2.0, 2.0];
        let c = [1.0, 1.0, 0.0];
        assert_eq!(
            tridiag_matvec(&a, &b, &c, &[1.0, 1.0, 1.0]),
            vec![3.0, 4.0, 3.0]
        );
    }

    #[test]
    #[should_panic(expected = "zero pivot")]
    fn zero_pivot_detected() {
        let _ = thomas_solve(&[0.0, 1.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]);
    }

    #[test]
    fn single_element_system() {
        let x = thomas_solve(&[0.0], &[4.0], &[0.0], &[8.0]);
        assert_eq!(x, vec![2.0]);
    }
}
