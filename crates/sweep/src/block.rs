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
//! pivoting) are implemented here over const-generic `[[f64; N]; N]` blocks,
//! and again over blocks of lane vectors for the kernels' lane bodies
//! ([`crate::simd`]), with the same operations in the same order per lane.

// Kernel inner loops index several parallel buffers at the same row;
// iterator zips would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use crate::recurrence::{lane_axis, LineSweepKernel, SegmentCtx, MAX_DIMS};
use crate::simd::{
    self, load_carries, store_carries, Field, LaneBody, LaneVec, SimdLevel, MAX_LANES,
};
use mp_core::multipart::Direction;
use mp_grid::Lanes;

/// `for $i in 0..$n $body`, with `$i` a constant in each copy of `$body`
/// for `$n` up to 8. LLVM keeps a [`VMat`] that a rolled loop indexes in
/// stack memory; indexed by constants, the lane helpers' matrices stay in
/// registers (DESIGN.md §12). A loop over the entries of one row needs no
/// copies: LLVM unrolls it before it moves the arrays into registers. `$n`
/// is computed from const generics, so each copy's test is a constant and
/// the copies past `$n` are not compiled, in debug builds too. Above 8 the loop stays
/// rolled: one index that is not a constant keeps the whole matrix in
/// memory anyway.
macro_rules! unroll {
    ($i:ident in $n:expr => $body:block) => {
        unroll!(@copies $i, $n, $body; 0 1 2 3 4 5 6 7)
    };
    (@copies $i:ident, $n:expr, $body:block; $($k:literal)*) => {
        if const { $n > 8 } {
            for $i in 0..$n $body
        } else {
            $(if const { $k < $n } {
                let $i: usize = $k;
                $body
            })*
        }
    };
}

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

/// Up to [`MAX_LANES`] lanes' N×N blocks interleaved by lane: entry
/// `(r, s)` of lane `l`'s block is `m[r][s][l]`, so each entry's lanes load
/// as one vector.
pub type LaneMat<const N: usize> = [[[f64; MAX_LANES]; N]; N];

/// Coefficient source for generated-block kernels: produces `(A, B, C)` at a
/// global element position for a sweep along `axis`. Boundary rows must
/// return zero `A` (first) / zero `C` (last); the kernels do not check.
pub trait BlockCoeffs<const N: usize>: Sync {
    /// The blocks at global position `g` for a solve along `axis`.
    fn blocks(&self, g: &[usize], axis: usize) -> (Mat<N>, Mat<N>, Mat<N>);

    /// The blocks at up to [`MAX_LANES`] positions at once, for the lane
    /// bodies: `abc[0]`, `abc[1]` and `abc[2]` receive the `A`, `B` and `C`
    /// of `self.blocks(gs[l], axis)` in lane `l`, for `l < gs.len()`. The
    /// default makes one [`Self::blocks`] call per lane; an override must
    /// produce the same bits.
    fn blocks_lanes(&self, gs: &[&[usize]], axis: usize, abc: &mut [LaneMat<N>; 3]) {
        for (l, g) in gs.iter().enumerate() {
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
/// right-hand-side component fields (overwritten with `d'`). Only the
/// back substitution of the same dimension reads `C'`, so a solver
/// declares its fields [`mp_grid::FieldDef::scratch`]. Carry: `N*N + N`
/// floats (`C'_prev`, `d'_prev`).
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
        ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Forward);
        debug_assert_eq!(carries.len(), lanes.nlanes() * (N * N + N));
        simd::sweep(level, self, carries, lanes, ctx);
    }
}

impl<const N: usize, S: BlockCoeffs<N>> LaneBody for BlockTriForwardKernel<N, S> {
    /// `sweep_segment` per lane, with each element's blocks from
    /// [`BlockCoeffs::blocks_lanes`]. Every lane of the row starts its line
    /// at the segment's first element or none does, so the line start is
    /// one branch per row. A field whose lanes are not adjacent costs
    /// `V::W` scalar accesses per element, not one vector access: a
    /// bt-24-p2 tile's dim-2 sweep, all 35 fields lane-strided, ran 12 %
    /// slower than its dim-1 sweep until BT's `C'` fields became scratch
    /// fields laid out in sweep order (lanes adjacent in every dimension).
    #[inline(always)]
    unsafe fn sweep<V: LaneVec>(
        &self,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctx: &SegmentCtx,
        lo: usize,
        hi: usize,
    ) {
        debug_assert_eq!(lanes.nfields(), N * N + N, "fields [C', d]");
        let (cpf, df) = block_fields::<N>(lanes);
        let zero = V::splat(0.0);
        let mut abc: [LaneMat<N>; 3] = [[[[0.0; MAX_LANES]; N]; N]; 3];
        let mut blocks = [[[zero; N]; N]; 3];
        let mut d = [zero; N];
        let mut pos = [[0; MAX_DIMS]; MAX_LANES];
        let (axis, dims) = (ctx.axis, ctx.global_start.len());
        let la = lane_axis(dims, axis);
        let line_start = ctx.global_start[axis] == 0;
        for l0 in (lo..hi).step_by(V::W) {
            let (cpg, dg) = group_fields(&cpf, &df, l0);
            let (mut cp, mut dp) =
                load_lane_carry::<V, _>(carries, l0, ([[zero; N]; N], [zero; N]));
            for (i, p) in pos[..V::W].iter_mut().enumerate() {
                ctx.start_in(p)[la] += l0 + i;
            }
            for k in 0..lanes.seg_len() {
                let mut gs: [&[usize]; MAX_LANES] = [&[]; MAX_LANES];
                let at = ctx.axis_coord(k);
                for (g, p) in gs.iter_mut().zip(&mut pos[..V::W]) {
                    p[axis] = at;
                    *g = &p[..dims];
                }
                self.coeffs.blocks_lanes(&gs[..V::W], axis, &mut abc);
                for (bm, am) in blocks.iter_mut().zip(&abc) {
                    for (brow, arow) in bm.iter_mut().zip(am) {
                        for (bv, av) in brow.iter_mut().zip(arow) {
                            *bv = V::load(av.as_ptr(), 1);
                        }
                    }
                }
                for (di, f) in d.iter_mut().zip(&dg) {
                    *di = f.load(k, 0);
                }
                forward_step(&blocks, &d, line_start && k == 0, &mut cp, &mut dp);
                for (cprow, frow) in cp.iter().zip(&cpg) {
                    for (&v, f) in cprow.iter().zip(frow) {
                        f.store(k, 0, v);
                    }
                }
                for (&v, f) in dp.iter().zip(&dg) {
                    f.store(k, 0, v);
                }
            }
            store_lane_carry(carries, l0, (cp, dp));
        }
    }
}

/// The fields of a block sweep's view: `C'` (row-major) and the right-hand
/// side, the layout both block kernels share. Built once per row, with
/// plain loops: nested `array::from_fn` closures here stayed out of line,
/// with 21 `memcpy` calls per table (DESIGN.md §12).
#[inline(always)]
fn block_fields<const N: usize>(lanes: &Lanes<'_>) -> ([[Field; N]; N], [Field; N]) {
    let mut cpf = [[Field::of(lanes, 0); N]; N];
    for (i, row) in cpf.iter_mut().enumerate() {
        for (j, f) in row.iter_mut().enumerate() {
            *f = Field::of(lanes, i * N + j);
        }
    }
    let mut df = [Field::of(lanes, N * N); N];
    for (i, f) in df.iter_mut().enumerate() {
        *f = Field::of(lanes, N * N + i);
    }
    (cpf, df)
}

/// `cpf` and `df` from lane `l0` on ([`Field::lanes_from`]): a lane
/// group's fields, built once per group with plain loops.
#[inline(always)]
fn group_fields<const N: usize>(
    cpf: &[[Field; N]; N],
    df: &[Field; N],
    l0: usize,
) -> ([[Field; N]; N], [Field; N]) {
    let (mut cpg, mut dg) = (*cpf, *df);
    for row in cpg.iter_mut() {
        for f in row.iter_mut() {
            *f = f.lanes_from(l0);
        }
    }
    for f in dg.iter_mut() {
        *f = f.lanes_from(l0);
    }
    (cpg, dg)
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
        ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Backward);
        debug_assert_eq!(carries.len(), lanes.nlanes() * (N + 1));
        simd::sweep(level, self, carries, lanes, ctx);
    }
}

impl<const N: usize> LaneBody for BlockTriBackwardKernel<N> {
    /// `x = d' − C'·x_next` in the lanes whose `valid` flag is set, else
    /// `x = d'`. As in `sweep_segment`, every lane is valid after its
    /// first element, and the carry's flag leaves as `1.0`. A row whose
    /// fields all have adjacent lanes (every dim-0 and dim-1 row of a BT
    /// sweep, whose `C'` fields are scratch) runs an instance whose field
    /// accesses test no lane stride; any other row (a dim-2 row, whose
    /// right-hand sides lie a tile row apart), one that tests each access.
    #[inline(always)]
    unsafe fn sweep<V: LaneVec>(
        &self,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        _ctx: &SegmentCtx,
        lo: usize,
        hi: usize,
    ) {
        debug_assert_eq!(lanes.nfields(), N * N + N, "fields [C', d']");
        let (cpf, df) = block_fields::<N>(lanes);
        let adjacent = cpf.iter().flatten().chain(&df).all(|f| f.adjacent());
        let (seg_len, fields) = (lanes.seg_len(), (&cpf, &df));
        if adjacent {
            back_substitute::<V, N, true>(carries, fields, seg_len, lo, hi)
        } else {
            back_substitute::<V, N, false>(carries, fields, seg_len, lo, hi)
        }
    }
}

/// A [`Field::load`] whose lane-stride test `ADJACENT` settles at compile
/// time (the field must then be [`Field::adjacent`]).
///
/// # Safety
/// As for [`Field::load_adjacent`] if `ADJACENT`, else [`Field::load`].
#[inline(always)]
unsafe fn load_field<V: LaneVec, const ADJACENT: bool>(f: Field, k: usize) -> V {
    if ADJACENT {
        f.load_adjacent(k, 0)
    } else {
        f.load(k, 0)
    }
}

/// The back substitution of lanes `lo..hi` over fields `(cpf, df)`, with
/// `ADJACENT` the promise that every field's lanes are adjacent: rows that
/// keep it test no lane stride.
///
/// # Safety
/// As for [`LaneBody::sweep`], with the fields those of its view and the
/// promise kept (debug-asserted at every access).
#[inline(always)]
unsafe fn back_substitute<V: LaneVec, const N: usize, const ADJACENT: bool>(
    carries: &mut [f64],
    (cpf, df): (&[[Field; N]; N], &[Field; N]),
    seg_len: usize,
    lo: usize,
    hi: usize,
) {
    let (zero, one) = (V::splat(0.0), V::splat(1.0));
    let (mut cp, mut dp) = ([[zero; N]; N], [zero; N]);
    for l0 in (lo..hi).step_by(V::W) {
        let (cpg, dg) = group_fields(cpf, df, l0);
        let (mut x, mut valid) = load_lane_carry::<V, _>(carries, l0, ([zero; N], zero));
        for k in 0..seg_len {
            for ((cprow, frow), (dpi, &f)) in cp.iter_mut().zip(&cpg).zip(dp.iter_mut().zip(&dg)) {
                for (v, &f) in cprow.iter_mut().zip(frow) {
                    *v = load_field::<V, ADJACENT>(f, k);
                }
                *dpi = load_field::<V, ADJACENT>(f, k);
            }
            let (invalid, t) = (valid.eq_zero(), mat_vec_lanes(&cp, &x));
            for i in 0..N {
                x[i] = V::select(invalid, dp[i], dp[i].sub(t[i]));
                if ADJACENT {
                    dg[i].store_adjacent(k, 0, x[i]);
                } else {
                    dg[i].store(k, 0, x[i]);
                }
            }
            valid = one;
        }
        store_lane_carry(carries, l0, (x, one));
    }
}

/// An N×N block of lane vectors.
type VMat<V, const N: usize> = [[V; N]; N];

/// A block kernel's carry for one lane group, held as lane vectors: the
/// forward `(C', d')` and the back substitution's `(x, valid)`, entry `j`
/// at the carry's position `j`.
trait LaneCarry<V>: Copy {
    /// Entries per lane.
    const LEN: usize;
    /// Entry `j < LEN`.
    fn entry(&mut self, j: usize) -> &mut V;
}

impl<V: LaneVec, const N: usize> LaneCarry<V> for (VMat<V, N>, [V; N]) {
    const LEN: usize = N * N + N;
    #[inline(always)]
    fn entry(&mut self, j: usize) -> &mut V {
        if j < N * N {
            &mut self.0[j / N][j % N]
        } else {
            &mut self.1[j - N * N]
        }
    }
}

impl<V: LaneVec, const N: usize> LaneCarry<V> for ([V; N], V) {
    const LEN: usize = N + 1;
    #[inline(always)]
    fn entry(&mut self, j: usize) -> &mut V {
        if j < N {
            &mut self.0[j]
        } else {
            &mut self.1
        }
    }
}

/// `state` with the carries of lanes `l0..l0 + V::W` loaded, moved in
/// blocks of [`MAX_LANES`] entries ([`load_carries`]) and placed by
/// constant indices, so the state stays in registers (DESIGN.md §12).
///
/// # Safety
/// As for [`load_carries`].
#[inline(always)]
unsafe fn load_lane_carry<V: LaneVec, C: LaneCarry<V>>(
    carries: &[f64],
    l0: usize,
    mut state: C,
) -> C {
    unroll!(b in C::LEN.div_ceil(MAX_LANES) => {
        let block: [V; MAX_LANES] = load_carries(carries, C::LEN, l0, b * MAX_LANES);
        unroll!(t in MAX_LANES => {
            if b * MAX_LANES + t < C::LEN {
                *state.entry(b * MAX_LANES + t) = block[t];
            }
        });
    });
    state
}

/// Inverse of [`load_lane_carry`].
///
/// # Safety
/// As for [`load_carries`].
#[inline(always)]
unsafe fn store_lane_carry<V: LaneVec, C: LaneCarry<V>>(
    carries: &mut [f64],
    l0: usize,
    mut state: C,
) {
    unroll!(b in C::LEN.div_ceil(MAX_LANES) => {
        let mut block = [V::splat(0.0); MAX_LANES];
        unroll!(t in MAX_LANES => {
            if b * MAX_LANES + t < C::LEN {
                block[t] = *state.entry(b * MAX_LANES + t);
            }
        });
        store_carries(carries, C::LEN, l0, b * MAX_LANES, block);
    });
}

/// [`mat_mul`] per lane, into `out`. Its `a[i][k] == 0.0` skip becomes a
/// select that keeps the lane's partial sum, so signed zeros and `0·∞`
/// come out as in the scalar code; a product whose left factor has no zero
/// lane takes the unselected loop, which is the same arithmetic.
///
/// # Safety
/// `V`'s level must be available ([`LaneVec`]).
#[inline(always)]
unsafe fn mat_mul_lanes<V: LaneVec, const N: usize>(
    a: &VMat<V, N>,
    b: &VMat<V, N>,
    out: &mut VMat<V, N>,
) {
    let zero = V::splat(0.0);
    let mut skips = false;
    for row in a {
        for &v in row {
            skips |= V::any(v.eq_zero());
        }
    }
    unroll!(i in N => {
        // Each row accumulates in registers and is written once.
        let mut acc = [zero; N];
        unroll!(k in N => {
            let aik = a[i][k];
            if skips {
                let skip = aik.eq_zero();
                for (s, &bkj) in acc.iter_mut().zip(&b[k]) {
                    *s = V::select(skip, *s, s.add(aik.mul(bkj)));
                }
            } else {
                for (s, &bkj) in acc.iter_mut().zip(&b[k]) {
                    *s = s.add(aik.mul(bkj));
                }
            }
        });
        out[i] = acc;
    });
}

/// [`mat_vec`] per lane.
///
/// # Safety
/// `V`'s level must be available ([`LaneVec`]).
#[inline(always)]
unsafe fn mat_vec_lanes<V: LaneVec, const N: usize>(a: &VMat<V, N>, x: &[V; N]) -> [V; N] {
    let zero = V::splat(0.0);
    let mut out = [zero; N];
    unroll!(i in N => {
        let mut acc = zero;
        for (&aij, &xj) in a[i].iter().zip(x) {
            acc = acc.add(aij.mul(xj));
        }
        out[i] = acc;
    });
    out
}

/// [`mat_inv`] per lane, overwriting `m` with scratch and writing the
/// inverse to `inv`; `false` if any lane's partial pivoting would pick a
/// row below the diagonal. The lanes then disagree on the row swaps, and
/// the caller inverts each lane with the scalar code. With diagonal pivots
/// the scalar elimination swaps nothing, and this is its arithmetic on
/// every value the inverse depends on; columns of `m` left of the pivot
/// are never read again, so they are not updated. The scalar `f == 0.0`
/// row skip becomes a select, taken only when some lane of the row is zero.
///
/// # Panics
/// Panics with the scalar message if a lane's pivot is zero.
///
/// # Safety
/// `V`'s level must be available ([`LaneVec`]).
#[inline(always)]
unsafe fn mat_inv_lanes<V: LaneVec, const N: usize>(
    m: &mut VMat<V, N>,
    inv: &mut VMat<V, N>,
) -> bool {
    let (zero, one) = (V::splat(0.0), V::splat(1.0));
    unroll!(i in N => {
        inv[i] = [zero; N];
        inv[i][i] = one;
    });
    unroll!(col in N => {
        // The scalar search moves off the diagonal only for a row strictly
        // larger in magnitude (an ordered compare: a NaN never wins).
        let pivot = m[col][col];
        let mag = pivot.abs();
        for row in &m[col + 1..] {
            if V::any(row[col].abs().gt(mag)) {
                return false;
            }
        }
        if V::any(pivot.eq_zero()) {
            panic!("singular block in block-tridiagonal solve");
        }
        let scale = one.div(pivot);
        let mut mcol = m[col];
        let mut icol = inv[col];
        for v in &mut mcol[col + 1..] {
            *v = v.mul(scale);
        }
        for v in icol.iter_mut() {
            *v = v.mul(scale);
        }
        m[col] = mcol;
        inv[col] = icol;
        unroll!(r in N => {
            if r != col {
                let f = m[r][col];
                let skip = f.eq_zero();
                let (mrow, irow) = (&mut m[r], &mut inv[r]);
                if !V::any(skip) {
                    for j in col + 1..N {
                        mrow[j] = mrow[j].sub(f.mul(mcol[j]));
                    }
                    for (v, &c) in irow.iter_mut().zip(&icol) {
                        *v = v.sub(f.mul(c));
                    }
                } else {
                    for j in col + 1..N {
                        mrow[j] = V::select(skip, mrow[j], mrow[j].sub(f.mul(mcol[j])));
                    }
                    for (v, &c) in irow.iter_mut().zip(&icol) {
                        *v = V::select(skip, *v, v.sub(f.mul(c)));
                    }
                }
            }
        });
    });
    true
}

/// The pivoting fallback of [`mat_inv_lanes`]: each lane's block through
/// the scalar [`mat_inv`], on stack arrays. Out of line and cold, so it
/// runs without its caller's target features: every lane operation here is
/// a call, which no BT step ever makes.
///
/// # Safety
/// `V`'s level must be available ([`LaneVec`]).
#[cold]
#[inline(never)]
unsafe fn mat_inv_per_lane<V: LaneVec, const N: usize>(a: &VMat<V, N>) -> VMat<V, N> {
    let mut lane_mats: LaneMat<N> = [[[0.0; MAX_LANES]; N]; N];
    for (out, row) in lane_mats.iter_mut().zip(a) {
        for (o, v) in out.iter_mut().zip(row) {
            v.store(o.as_mut_ptr(), 1);
        }
    }
    for l in 0..V::W {
        let inv = mat_inv::<N>(&std::array::from_fn(|r| {
            std::array::from_fn(|s| lane_mats[r][s][l])
        }));
        for (out, irow) in lane_mats.iter_mut().zip(inv) {
            for (o, v) in out.iter_mut().zip(irow) {
                o[l] = v;
            }
        }
    }
    let mut inv = *a;
    for (row, lrow) in inv.iter_mut().zip(&lane_mats) {
        for (v, l) in row.iter_mut().zip(lrow) {
            *v = V::load(l.as_ptr(), 1);
        }
    }
    inv
}

/// One block elimination row for a lane group — `eliminate` on lane
/// vectors: `(C', d')` from this row's blocks `abc` (`[A, B, C]`) and
/// right-hand side `d` and the previous row's `(C', d')`. On a `line_start`
/// the lanes begin their line here and skip the previous row, as the
/// scalar branch does.
///
/// # Safety
/// `V`'s level must be available ([`LaneVec`]).
#[inline(always)]
unsafe fn forward_step<V: LaneVec, const N: usize>(
    abc: &[VMat<V, N>; 3],
    d: &[V; N],
    line_start: bool,
    cp: &mut VMat<V, N>,
    dp: &mut [V; N],
) {
    let [a, b, c] = abc;
    let (mut denom, mut rhs) = (*b, *d);
    if !line_start {
        mat_mul_lanes(a, cp, &mut denom);
        for (drow, brow) in denom.iter_mut().zip(b) {
            for (v, &bij) in drow.iter_mut().zip(brow) {
                *v = bij.sub(*v);
            }
        }
        rhs = mat_vec_lanes(a, dp);
        for (v, &di) in rhs.iter_mut().zip(d) {
            *v = di.sub(*v);
        }
    }
    let (mut work, mut inv) = (denom, denom);
    if !mat_inv_lanes(&mut work, &mut inv) {
        inv = mat_inv_per_lane(&denom);
    }
    mat_mul_lanes(&inv, c, cp);
    *dp = mat_vec_lanes(&inv, &rhs);
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
        let mut carry = vec![0.0; fwd.carry_len()];
        for w in splits.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut seg: Vec<Vec<f64>> = (0..12).map(|f| bufs[f][lo..hi].to_vec()).collect();
            let ctx = SegmentCtx::new(vec![lo, 0, 0], 0, Direction::Forward);
            fwd.sweep_segment(Direction::Forward, &mut carry, &mut seg, &ctx);
            for f in 0..12 {
                bufs[f][lo..hi].copy_from_slice(&seg[f]);
            }
        }
        let mut carry = vec![0.0; bwd.carry_len()];
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
        // with lanes at different global positions along the lane axis.
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
            let ctx = SegmentCtx::new(vec![start, 1, 1], 0, dir);
            let carry0: Vec<f64> = (0..nlines * k.carry_len()).map(|_| next() * 0.1).collect();
            let (mut got_c, mut want_c) = (carry0.clone(), carry0);
            let (mut t1, mut t2) = (Vec::new(), Vec::new());
            k.sweep_lanes(
                SimdLevel::Scalar,
                dir,
                &mut got_c,
                &mut Lanes::packed(&mut got, nlines, seg_len, &mut t1),
                &ctx,
            );
            per_line_sweep_lanes(
                k,
                dir,
                &mut want_c,
                &mut Lanes::packed(&mut want, nlines, seg_len, &mut t2),
                &ctx,
            );
            assert_eq!(got_c, want_c, "{dir:?} carries");
            assert_eq!(got, want, "{dir:?} fields");
        }
    }
}
