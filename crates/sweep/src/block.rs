//! Block-tridiagonal line solvers — the system shape of NAS **BT**, the
//! other NAS benchmark parallelized with multipartitioning.
//!
//! BT couples the five flow variables at each grid point through 5×5
//! blocks: each line solve is a block-tridiagonal system
//!
//! ```text
//! A_i x_{i−1} + B_i x_i + C_i x_{i+1} = d_i,   x_i ∈ ℝ^N
//! ```
//!
//! Block forward elimination `C'_i = (B_i − A_i C'_{i−1})⁻¹ C_i`,
//! `d'_i = (B_i − A_i C'_{i−1})⁻¹ (d_i − A_i d'_{i−1})` carries an N×N
//! matrix plus an N-vector per line (30 floats for N = 5 — this is why BT's
//! sweep messages are an order of magnitude heavier than SP's, with the
//! same schedule); back substitution `x_i = d'_i − C'_i x_{i+1}` carries an
//! N-vector.
//!
//! Small dense matrix helpers (multiply, Gauss–Jordan inverse with partial
//! pivoting) are implemented here over const-generic `[[f64; N]; N]` blocks.
//! Both kernels' lane loops also have 4-lane AVX2 bodies
//! (`crate::simd`), which run these helpers' operations on lane vectors.

// Kernel inner loops index several parallel buffers at the same row;
// iterator zips would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use crate::recurrence::{LineSweepKernel, SegmentCtx, MAX_DIMS};
use crate::simd::SimdLevel;
use mp_core::multipart::Direction;
use mp_grid::Lanes;

/// An N×N block (row-major).
pub type Mat<const N: usize> = [[f64; N]; N];
/// An N-vector.
pub type VecN<const N: usize> = [f64; N];

/// The N×N identity.
pub fn identity<const N: usize>() -> Mat<N> {
    let mut m = [[0.0; N]; N];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1.0;
    }
    m
}

/// Matrix product `a·b`.
pub fn mat_mul<const N: usize>(a: &Mat<N>, b: &Mat<N>) -> Mat<N> {
    let mut out = [[0.0; N]; N];
    for i in 0..N {
        for k in 0..N {
            let aik = a[i][k];
            if aik == 0.0 {
                continue;
            }
            for j in 0..N {
                out[i][j] += aik * b[k][j];
            }
        }
    }
    out
}

/// Matrix–vector product `a·x`.
pub fn mat_vec<const N: usize>(a: &Mat<N>, x: &VecN<N>) -> VecN<N> {
    let mut out = [0.0; N];
    for i in 0..N {
        let mut acc = 0.0;
        for j in 0..N {
            acc += a[i][j] * x[j];
        }
        out[i] = acc;
    }
    out
}

/// Element-wise `a − b` for matrices.
pub fn mat_sub<const N: usize>(a: &Mat<N>, b: &Mat<N>) -> Mat<N> {
    let mut out = *a;
    for i in 0..N {
        for j in 0..N {
            out[i][j] -= b[i][j];
        }
    }
    out
}

/// Element-wise `a − b` for vectors.
pub fn vec_sub<const N: usize>(a: &VecN<N>, b: &VecN<N>) -> VecN<N> {
    let mut out = *a;
    for i in 0..N {
        out[i] -= b[i];
    }
    out
}

/// Inverse by Gauss–Jordan elimination with partial pivoting.
///
/// # Panics
/// Panics if the matrix is (numerically) singular.
pub fn mat_inv<const N: usize>(a: &Mat<N>) -> Mat<N> {
    let mut m = *a;
    let mut inv = identity::<N>();
    for col in 0..N {
        // Pivot: largest magnitude in this column at or below the diagonal.
        let mut piv = col;
        for r in col + 1..N {
            if m[r][col].abs() > m[piv][col].abs() {
                piv = r;
            }
        }
        assert!(
            m[piv][col] != 0.0,
            "singular block in block-tridiagonal solve"
        );
        m.swap(col, piv);
        inv.swap(col, piv);
        let scale = 1.0 / m[col][col];
        for j in 0..N {
            m[col][j] *= scale;
            inv[col][j] *= scale;
        }
        for r in 0..N {
            if r == col {
                continue;
            }
            let f = m[r][col];
            if f == 0.0 {
                continue;
            }
            for j in 0..N {
                m[r][j] -= f * m[col][j];
                inv[r][j] -= f * inv[col][j];
            }
        }
    }
    inv
}

/// Serial block-tridiagonal solve: `blocks[i] = (A_i, B_i, C_i)` with
/// `A_0 = C_{n−1} = 0` by convention (they are ignored). Returns the block
/// solution vectors.
/// ```
/// use mp_sweep::block::{block_thomas_solve, Mat, VecN};
/// // Two identity blocks, no coupling: x = d.
/// let z: Mat<2> = [[0.0; 2]; 2];
/// let id: Mat<2> = [[1.0, 0.0], [0.0, 1.0]];
/// let d: Vec<VecN<2>> = vec![[1.0, 2.0], [3.0, 4.0]];
/// let x = block_thomas_solve(&[z, z], &[id, id], &[z, z], &d);
/// assert_eq!(x, d);
/// ```
///
pub fn block_thomas_solve<const N: usize>(
    a: &[Mat<N>],
    b: &[Mat<N>],
    c: &[Mat<N>],
    d: &[VecN<N>],
) -> Vec<VecN<N>> {
    let n = d.len();
    assert!(n >= 1);
    assert!(a.len() == n && b.len() == n && c.len() == n);
    let mut cp: Vec<Mat<N>> = Vec::with_capacity(n);
    let mut dp: Vec<VecN<N>> = Vec::with_capacity(n);
    for i in 0..n {
        let (denom, rhs) = if i == 0 {
            (b[0], d[0])
        } else {
            (
                mat_sub(&b[i], &mat_mul(&a[i], &cp[i - 1])),
                vec_sub(&d[i], &mat_vec(&a[i], &dp[i - 1])),
            )
        };
        let inv = mat_inv(&denom);
        cp.push(mat_mul(&inv, &c[i]));
        dp.push(mat_vec(&inv, &rhs));
    }
    for i in (0..n - 1).rev() {
        let t = mat_vec(&cp[i], &dp[i + 1]);
        dp[i] = vec_sub(&dp[i], &t);
    }
    dp
}

/// Residual helper: `y_i = A_i x_{i−1} + B_i x_i + C_i x_{i+1}`.
pub fn block_tridiag_matvec<const N: usize>(
    a: &[Mat<N>],
    b: &[Mat<N>],
    c: &[Mat<N>],
    x: &[VecN<N>],
) -> Vec<VecN<N>> {
    let n = x.len();
    (0..n)
        .map(|i| {
            let mut y = mat_vec(&b[i], &x[i]);
            if i > 0 {
                let t = mat_vec(&a[i], &x[i - 1]);
                for k in 0..N {
                    y[k] += t[k];
                }
            }
            if i + 1 < n {
                let t = mat_vec(&c[i], &x[i + 1]);
                for k in 0..N {
                    y[k] += t[k];
                }
            }
            y
        })
        .collect()
}

/// Four lanes' N×N blocks interleaved by lane: entry `(r, s)` of lane `l`'s
/// block is `m[r][s][l]`, so each entry's four lanes load as one vector.
pub type LaneMat<const N: usize> = [[[f64; 4]; N]; N];

/// Coefficient source for generated-block kernels: produces `(A, B, C)` at a
/// global element position for a sweep along `axis`. Boundary rows must
/// return zero `A` (first) / zero `C` (last); the kernels do not check.
pub trait BlockCoeffs<const N: usize>: Sync {
    /// The blocks at global position `g` for a solve along `axis`.
    fn blocks(&self, g: &[usize], axis: usize) -> (Mat<N>, Mat<N>, Mat<N>);

    /// The blocks at four positions at once, for the 4-lane vector bodies:
    /// `abc[0]`, `abc[1]` and `abc[2]` receive the `A`, `B` and `C` of
    /// `self.blocks(gs[l], axis)` in lane `l`. The default makes four
    /// [`Self::blocks`] calls; an override must produce the same bits.
    fn blocks4(&self, gs: [&[usize]; 4], axis: usize, abc: &mut [LaneMat<N>; 3]) {
        for (l, g) in gs.into_iter().enumerate() {
            let (a, b, c) = self.blocks(g, axis);
            for (out, m) in abc.iter_mut().zip([a, b, c]) {
                for (orow, mrow) in out.iter_mut().zip(m) {
                    for (o, v) in orow.iter_mut().zip(mrow) {
                        o[l] = v;
                    }
                }
            }
        }
    }
}

/// Forward block elimination with generated coefficients.
///
/// Fields: `N*N` scratch fields receiving `C'` (row-major), then the `N`
/// right-hand-side component fields (overwritten with `d'`). Carry:
/// `N*N + N` floats (`C'_prev`, `d'_prev`).
pub struct BlockTriForwardKernel<const N: usize, S: BlockCoeffs<N>> {
    coeffs: S,
    fields: Vec<usize>,
}

impl<const N: usize, S: BlockCoeffs<N>> BlockTriForwardKernel<N, S> {
    /// `scratch` are the `N*N` field indices for `C'`; `rhs` the `N`
    /// component fields.
    pub fn new(coeffs: S, scratch: &[usize], rhs: &[usize]) -> Self {
        assert_eq!(scratch.len(), N * N);
        assert_eq!(rhs.len(), N);
        let mut fields = scratch.to_vec();
        fields.extend_from_slice(rhs);
        BlockTriForwardKernel { coeffs, fields }
    }

    /// One elimination row at global position `g`: the new `(C', d')` from
    /// the previous row's and this row's right-hand side `d` (the line's
    /// first row has no previous one).
    fn eliminate(
        &self,
        g: &[usize],
        axis: usize,
        line_start: bool,
        d: VecN<N>,
        (cp, dp): (&Mat<N>, &VecN<N>),
    ) -> (Mat<N>, VecN<N>) {
        let (a, b, c) = self.coeffs.blocks(g, axis);
        let (denom, rhs) = if line_start {
            (b, d)
        } else {
            (mat_sub(&b, &mat_mul(&a, cp)), vec_sub(&d, &mat_vec(&a, dp)))
        };
        let inv = mat_inv(&denom);
        (mat_mul(&inv, &c), mat_vec(&inv, &rhs))
    }
}

/// Unpack a forward carry `[C' row-major, d']`.
fn load_forward_carry<const N: usize>(carry: &[f64]) -> (Mat<N>, VecN<N>) {
    let mut cp: Mat<N> = [[0.0; N]; N];
    let mut dp: VecN<N> = [0.0; N];
    for i in 0..N {
        cp[i].copy_from_slice(&carry[i * N..(i + 1) * N]);
        dp[i] = carry[N * N + i];
    }
    (cp, dp)
}

/// Inverse of [`load_forward_carry`].
fn store_forward_carry<const N: usize>(carry: &mut [f64], cp: &Mat<N>, dp: &VecN<N>) {
    for i in 0..N {
        carry[i * N..(i + 1) * N].copy_from_slice(&cp[i]);
        carry[N * N + i] = dp[i];
    }
}

impl<const N: usize, S: BlockCoeffs<N>> LineSweepKernel for BlockTriForwardKernel<N, S> {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        N * N + N
    }

    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Forward);
        let (mut cp, mut dp) = load_forward_carry::<N>(carry);
        let first_global = ctx.global_start[ctx.axis] == 0;
        let mut pos = [0; MAX_DIMS];
        let g = ctx.start_in(&mut pos);
        for k in 0..seg[N * N].len() {
            g[ctx.axis] = ctx.axis_coord(k);
            let d: VecN<N> = std::array::from_fn(|comp| seg[N * N + comp][k]);
            (cp, dp) = self.eliminate(g, ctx.axis, first_global && k == 0, d, (&cp, &dp));
            for i in 0..N {
                for j in 0..N {
                    seg[i * N + j][k] = cp[i][j];
                }
                seg[N * N + i][k] = dp[i];
            }
        }
        store_forward_carry(carry, &cp, &dp);
    }

    fn sweep_lanes(
        &self,
        level: SimdLevel,
        dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctxs: &[SegmentCtx],
    ) {
        assert_eq!(dir, Direction::Forward);
        let clen = N * N + N;
        debug_assert_eq!(carries.len(), lanes.nlanes() * clen);
        let l0 = crate::simd::block_forward(level, &self.coeffs, carries, lanes, ctxs);
        // The rest lane-outer, one stack position per lane.
        let mut pos = [0; MAX_DIMS];
        for (l, ctx) in ctxs.iter().enumerate().take(lanes.nlanes()).skip(l0) {
            let carry = &mut carries[l * clen..(l + 1) * clen];
            let (mut cp, mut dp) = load_forward_carry::<N>(carry);
            let first_global = ctx.global_start[ctx.axis] == 0;
            let g = ctx.start_in(&mut pos);
            for k in 0..lanes.seg_len() {
                g[ctx.axis] = ctx.axis_coord(k);
                let d: VecN<N> = std::array::from_fn(|comp| lanes.get(N * N + comp, k, l));
                (cp, dp) = self.eliminate(g, ctx.axis, first_global && k == 0, d, (&cp, &dp));
                for i in 0..N {
                    for j in 0..N {
                        lanes.set(i * N + j, k, l, cp[i][j]);
                    }
                    lanes.set(N * N + i, k, l, dp[i]);
                }
            }
            store_forward_carry(carry, &cp, &dp);
        }
    }
}

/// Block back substitution over the same field layout. Carry: `N + 1`
/// floats (`x_next`, then a validity flag).
pub struct BlockTriBackwardKernel<const N: usize> {
    fields: Vec<usize>,
}

impl<const N: usize> BlockTriBackwardKernel<N> {
    /// Field layout must match the forward kernel's.
    pub fn new(scratch: &[usize], rhs: &[usize]) -> Self {
        assert_eq!(scratch.len(), N * N);
        assert_eq!(rhs.len(), N);
        let mut fields = scratch.to_vec();
        fields.extend_from_slice(rhs);
        BlockTriBackwardKernel { fields }
    }
}

impl<const N: usize> LineSweepKernel for BlockTriBackwardKernel<N> {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        N + 1
    }

    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        _ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Backward);
        let mut x_next: VecN<N> = [0.0; N];
        x_next[..N].copy_from_slice(&carry[..N]);
        let mut valid = carry[N] != 0.0;
        let n = seg[N * N].len();
        for k in 0..n {
            let cp: Mat<N> = std::array::from_fn(|i| std::array::from_fn(|j| seg[i * N + j][k]));
            let dp: VecN<N> = std::array::from_fn(|i| seg[N * N + i][k]);
            let x = if valid {
                vec_sub(&dp, &mat_vec(&cp, &x_next))
            } else {
                dp
            };
            for i in 0..N {
                seg[N * N + i][k] = x[i];
            }
            x_next = x;
            valid = true;
        }
        carry[..N].copy_from_slice(&x_next);
        carry[N] = 1.0;
    }

    fn sweep_lanes(
        &self,
        level: SimdLevel,
        dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        _ctxs: &[SegmentCtx],
    ) {
        assert_eq!(dir, Direction::Backward);
        let clen = N + 1;
        debug_assert_eq!(carries.len(), lanes.nlanes() * clen);
        let l0 = crate::simd::block_backward::<N>(level, carries, lanes);
        for l in l0..lanes.nlanes() {
            let carry = &mut carries[l * clen..(l + 1) * clen];
            let mut x_next: VecN<N> = [0.0; N];
            x_next[..N].copy_from_slice(&carry[..N]);
            let mut valid = carry[N] != 0.0;
            for k in 0..lanes.seg_len() {
                let cp: Mat<N> =
                    std::array::from_fn(|i| std::array::from_fn(|j| lanes.get(i * N + j, k, l)));
                let dp: VecN<N> = std::array::from_fn(|i| lanes.get(N * N + i, k, l));
                let x = if valid {
                    vec_sub(&dp, &mat_vec(&cp, &x_next))
                } else {
                    dp
                };
                for i in 0..N {
                    lanes.set(N * N + i, k, l, x[i]);
                }
                x_next = x;
                valid = true;
            }
            carry[..N].copy_from_slice(&x_next);
            carry[N] = 1.0;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0 - 0.5
        }
    }

    fn random_block<const N: usize>(next: &mut impl FnMut() -> f64, scale: f64) -> Mat<N> {
        let mut m = [[0.0; N]; N];
        for row in m.iter_mut() {
            for v in row.iter_mut() {
                *v = next() * scale;
            }
        }
        m
    }

    /// Strongly diagonally dominant diagonal block.
    fn dominant_block<const N: usize>(next: &mut impl FnMut() -> f64) -> Mat<N> {
        let mut m = random_block::<N>(next, 0.3);
        for (i, row) in m.iter_mut().enumerate() {
            row[i] += 4.0;
        }
        m
    }

    #[test]
    fn mat_inv_roundtrip() {
        let mut next = rng(7);
        for _ in 0..20 {
            let m = dominant_block::<5>(&mut next);
            let inv = mat_inv(&m);
            let prod = mat_mul(&m, &inv);
            let id = identity::<5>();
            for i in 0..5 {
                for j in 0..5 {
                    assert!(
                        (prod[i][j] - id[i][j]).abs() < 1e-10,
                        "({i},{j}): {}",
                        prod[i][j]
                    );
                }
            }
        }
    }

    #[test]
    fn mat_inv_with_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let m: Mat<2> = [[0.0, 1.0], [1.0, 0.0]];
        let inv = mat_inv(&m);
        assert_eq!(inv, [[0.0, 1.0], [1.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "singular block")]
    fn singular_detected() {
        let m: Mat<2> = [[1.0, 2.0], [2.0, 4.0]];
        let _ = mat_inv(&m);
    }

    #[test]
    fn scalar_case_matches_thomas() {
        // N = 1 block solve ≡ scalar Thomas.
        let a = [0.0, 1.0];
        let b = [2.0, 3.0];
        let c = [1.0, 0.0];
        let d = [3.0, 5.0];
        let blocks_a: Vec<Mat<1>> = a.iter().map(|&v| [[v]]).collect();
        let blocks_b: Vec<Mat<1>> = b.iter().map(|&v| [[v]]).collect();
        let blocks_c: Vec<Mat<1>> = c.iter().map(|&v| [[v]]).collect();
        let rhs: Vec<VecN<1>> = d.iter().map(|&v| [v]).collect();
        let x = block_thomas_solve(&blocks_a, &blocks_b, &blocks_c, &rhs);
        let want = crate::thomas::thomas_solve(&a, &b, &c, &d);
        for (xb, xs) in x.iter().zip(want.iter()) {
            assert!((xb[0] - xs).abs() < 1e-12);
        }
    }

    fn random_system<const N: usize>(
        n: usize,
        seed: u64,
    ) -> (Vec<Mat<N>>, Vec<Mat<N>>, Vec<Mat<N>>, Vec<VecN<N>>) {
        let mut next = rng(seed);
        let a: Vec<Mat<N>> = (0..n)
            .map(|i| {
                if i == 0 {
                    [[0.0; N]; N]
                } else {
                    random_block::<N>(&mut next, 0.4)
                }
            })
            .collect();
        let c: Vec<Mat<N>> = (0..n)
            .map(|i| {
                if i + 1 == n {
                    [[0.0; N]; N]
                } else {
                    random_block::<N>(&mut next, 0.4)
                }
            })
            .collect();
        let b: Vec<Mat<N>> = (0..n).map(|_| dominant_block::<N>(&mut next)).collect();
        let d: Vec<VecN<N>> = (0..n)
            .map(|_| {
                let mut v = [0.0; N];
                for x in v.iter_mut() {
                    *x = next() * 5.0;
                }
                v
            })
            .collect();
        (a, b, c, d)
    }

    #[test]
    fn block5_residual() {
        for seed in 1..=5u64 {
            for n in [1usize, 2, 3, 9, 33] {
                let (a, b, c, d) = random_system::<5>(n, seed);
                let x = block_thomas_solve(&a, &b, &c, &d);
                let r = block_tridiag_matvec(&a, &b, &c, &x);
                for (rv, dv) in r.iter().zip(d.iter()) {
                    for k in 0..5 {
                        assert!(
                            (rv[k] - dv[k]).abs() < 1e-8,
                            "residual {} (n={n}, seed={seed})",
                            (rv[k] - dv[k]).abs()
                        );
                    }
                }
            }
        }
    }

    /// Coefficients from a deterministic position rule, for kernel tests.
    pub(crate) struct TestCoeffs;
    impl BlockCoeffs<3> for TestCoeffs {
        fn blocks(&self, g: &[usize], axis: usize) -> (Mat<3>, Mat<3>, Mat<3>) {
            let i = g[axis];
            let wob = (g.iter().sum::<usize>() % 5) as f64 * 0.02;
            let mut a = [[0.0; 3]; 3];
            let mut c = [[0.0; 3]; 3];
            let mut b = identity::<3>();
            for r in 0..3 {
                for s in 0..3 {
                    if i > 0 {
                        a[r][s] = -0.1 - wob * ((r + 2 * s) % 3) as f64;
                    }
                    if i + 1 < 13 {
                        c[r][s] = -0.12 + wob * ((2 * r + s) % 3) as f64;
                    }
                    b[r][s] += 0.05 * ((r * s) % 3) as f64;
                }
                b[r][r] += 2.0;
            }
            (a, b, c)
        }
    }

    #[test]
    fn segmented_block_kernels_match_direct() {
        // A 13-long line, coefficients generated from position; segmented
        // two-kernel solve must equal the direct block solve bit-for-bit
        // modulo fp-associativity (same order ⇒ identical).
        const NLINE: usize = 13;
        let coeffs = TestCoeffs;
        let g0 = |i: usize| vec![i, 0, 0];
        let rhs0: Vec<VecN<3>> = (0..NLINE)
            .map(|i| [(i % 4) as f64 - 1.5, (i % 3) as f64, 0.5 * i as f64])
            .collect();

        // Direct solve.
        let mut aa = Vec::new();
        let mut bb = Vec::new();
        let mut cc = Vec::new();
        for i in 0..NLINE {
            let (a, b, c) = coeffs.blocks(&g0(i), 0);
            aa.push(a);
            bb.push(b);
            cc.push(c);
        }
        let direct = block_thomas_solve(&aa, &bb, &cc, &rhs0);

        // Segmented kernels over field buffers.
        let scratch_idx: Vec<usize> = (0..9).collect();
        let rhs_idx: Vec<usize> = (9..12).collect();
        let fwd = BlockTriForwardKernel::<3, _>::new(TestCoeffs, &scratch_idx, &rhs_idx);
        let bwd = BlockTriBackwardKernel::<3>::new(&scratch_idx, &rhs_idx);

        let mut bufs: Vec<Vec<f64>> = vec![vec![0.0; NLINE]; 12];
        for (i, r) in rhs0.iter().enumerate() {
            for k in 0..3 {
                bufs[9 + k][i] = r[k];
            }
        }
        let splits = [0usize, 4, 9, NLINE];
        let mut carry = fwd.initial_carry(Direction::Forward);
        for w in splits.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut seg: Vec<Vec<f64>> = (0..12).map(|f| bufs[f][lo..hi].to_vec()).collect();
            let ctx = SegmentCtx::new(vec![lo, 0, 0], 0, Direction::Forward);
            fwd.sweep_segment(Direction::Forward, &mut carry, &mut seg, &ctx);
            for f in 0..12 {
                bufs[f][lo..hi].copy_from_slice(&seg[f]);
            }
        }
        let mut carry = bwd.initial_carry(Direction::Backward);
        for w in splits.windows(2).rev() {
            let (lo, hi) = (w[0], w[1]);
            let mut seg: Vec<Vec<f64>> = (0..12)
                .map(|f| bufs[f][lo..hi].iter().rev().copied().collect())
                .collect();
            let ctx = SegmentCtx::new(vec![hi - 1, 0, 0], 0, Direction::Backward);
            bwd.sweep_segment(Direction::Backward, &mut carry, &mut seg, &ctx);
            for f in 9..12 {
                for (off, v) in seg[f].iter().rev().enumerate() {
                    bufs[f][lo + off] = *v;
                }
            }
        }
        for i in 0..NLINE {
            for k in 0..3 {
                assert!(
                    (bufs[9 + k][i] - direct[i][k]).abs() < 1e-12,
                    "row {i} comp {k}: {} vs {}",
                    bufs[9 + k][i],
                    direct[i][k]
                );
            }
        }
    }

    #[test]
    fn blocked_block_tri_matches_per_line_bitwise() {
        // The lane bodies must equal the per-line reference bit-for-bit,
        // with per-line contexts at different global positions.
        use crate::recurrence::per_line_sweep_lanes;
        let nlines = 4;
        let seg_len = 6;
        let scratch_idx: Vec<usize> = (0..9).collect();
        let rhs_idx: Vec<usize> = (9..12).collect();
        let fwd = BlockTriForwardKernel::<3, _>::new(TestCoeffs, &scratch_idx, &rhs_idx);
        let bwd = BlockTriBackwardKernel::<3>::new(&scratch_idx, &rhs_idx);
        let mut next = rng(17);
        let blk0: Vec<Vec<f64>> = (0..12)
            .map(|_| (0..seg_len * nlines).map(|_| next()).collect())
            .collect();
        // Forward then backward over its result; lines start at different
        // cross-section positions.
        let kernels: [(&dyn LineSweepKernel, Direction, usize); 2] = [
            (&fwd, Direction::Forward, 0),
            (&bwd, Direction::Backward, seg_len - 1),
        ];
        let (mut got, mut want) = (blk0.clone(), blk0);
        for (k, dir, start) in kernels {
            let ctxs: Vec<SegmentCtx> = (0..nlines)
                .map(|l| SegmentCtx::new(vec![start, l, l + 1], 0, dir))
                .collect();
            let carry0: Vec<f64> = (0..nlines * k.carry_len()).map(|_| next() * 0.1).collect();
            let (mut got_c, mut want_c) = (carry0.clone(), carry0);
            let (mut t1, mut t2) = (Vec::new(), Vec::new());
            k.sweep_lanes(
                SimdLevel::Scalar,
                dir,
                &mut got_c,
                &mut Lanes::packed(&mut got, nlines, seg_len, &mut t1),
                &ctxs,
            );
            per_line_sweep_lanes(
                k,
                dir,
                &mut want_c,
                &mut Lanes::packed(&mut want, nlines, seg_len, &mut t2),
                &ctxs,
            );
            assert_eq!(got_c, want_c, "{dir:?} carries");
            assert_eq!(got, want, "{dir:?} fields");
        }
    }
}
