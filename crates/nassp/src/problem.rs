//! The simplified SP problem definition: initial condition, forcing term,
//! and the spatially varying tridiagonal coefficients of the implicit
//! solves.
//!
//! Real NAS SP solves the 3-D compressible Navier-Stokes equations with a
//! Beam-Warming approximate factorization: each time step is
//! `compute_rhs` (explicit stencil) followed by scalar-pentadiagonal solves
//! along x, y and z, then `add`. Our simplified kernel keeps the identical
//! *parallel structure* — one stencil phase with halo exchange plus two
//! directional line sweeps per dimension per iteration — on an ADI scheme
//! for an anisotropic diffusion equation with spatially varying
//! coefficients (tridiagonal rather than pentadiagonal systems; same
//! communication pattern, slightly less local flops).
//!
//! Everything is a pure function of the *global* element index, so
//! distributed ranks generate their coefficients and forcing locally,
//! without communication, exactly as SP builds its systems from local
//! state. The per-axis factors are tabulated once per solver, so
//! generating a term costs a few flops per element.

use mp_sweep::recurrence::{lane_axis, SegmentCtx};
use std::ops::Range;

/// Which line-system shape the implicit solves use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Three-point coupling per line (2 carries per direction) — the
    /// simplified default.
    Tridiagonal,
    /// Five-point coupling per line (6 forward / 3 backward carries) — the
    /// system shape of the real NAS SP scalar solves.
    Pentadiagonal,
}

/// Problem-wide constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpProblem {
    /// Grid extents.
    pub eta: [usize; 3],
    /// Time step.
    pub dt: f64,
    /// Implicitness factor θ (0.5 = Crank-Nicolson-like).
    pub theta: f64,
    /// Line-system shape of the implicit solves.
    pub solver: SolverKind,
}

impl SpProblem {
    /// Standard setup for a grid (tridiagonal solves).
    pub fn new(eta: [usize; 3], dt: f64) -> Self {
        SpProblem {
            eta,
            dt,
            theta: 0.5,
            solver: SolverKind::Tridiagonal,
        }
    }

    /// Same problem with pentadiagonal solves (the real SP system shape).
    pub fn pentadiagonal(eta: [usize; 3], dt: f64) -> Self {
        SpProblem {
            solver: SolverKind::Pentadiagonal,
            ..Self::new(eta, dt)
        }
    }

    /// Diffusion number along `dim` (`θ·dt/h²` with `h = 1/(η_dim+1)`).
    pub fn lambda(&self, dim: usize) -> f64 {
        let h = 1.0 / (self.eta[dim] as f64 + 1.0);
        self.theta * self.dt / (h * h)
    }

    /// `1/h²` per axis (`h = 1/(η_d+1)`): the Laplacian's weights in
    /// `compute_rhs`.
    pub fn inv_h2(&self) -> [f64; 3] {
        self.eta.map(|e| {
            let h = 1.0 / (e as f64 + 1.0);
            1.0 / (h * h)
        })
    }

    /// Smooth spatially varying diffusivity in `(0.8, 1.2)`; cheap and
    /// deterministic.
    pub fn diffusivity(&self, g: &[usize]) -> f64 {
        let x = (g[0] as f64 + 1.0) / (self.eta[0] as f64 + 1.0);
        let y = (g[1] as f64 + 1.0) / (self.eta[1] as f64 + 1.0);
        let z = (g[2] as f64 + 1.0) / (self.eta[2] as f64 + 1.0);
        1.0 + 0.2 * (x - 0.5) * (y - 0.5) + 0.1 * (z - 0.5)
    }

    /// Initial condition: a smooth product-of-parabolas bump satisfying the
    /// zero Dirichlet boundary.
    pub fn initial(&self, g: &[usize]) -> f64 {
        let f = |k: usize| {
            let t = (g[k] as f64 + 1.0) / (self.eta[k] as f64 + 1.0);
            4.0 * t * (1.0 - t)
        };
        f(0) * f(1) * f(2)
    }

    /// Steady forcing term.
    pub fn forcing(&self, g: &[usize]) -> f64 {
        let x = (g[0] as f64 + 1.0) / (self.eta[0] as f64 + 1.0);
        let y = (g[1] as f64 + 1.0) / (self.eta[1] as f64 + 1.0);
        let z = (g[2] as f64 + 1.0) / (self.eta[2] as f64 + 1.0);
        (2.0 * std::f64::consts::PI * x).sin()
            * (2.0 * std::f64::consts::PI * y).sin()
            * (std::f64::consts::PI * z).sin()
    }

    /// Tridiagonal coefficients at global index `g` for the implicit solve
    /// along `dim`: returns `(a, b, c)` = (sub-diagonal, diagonal,
    /// super-diagonal). Rows at the domain boundary have their outside
    /// coupling removed (zero Dirichlet).
    pub fn coefficients(&self, g: &[usize], dim: usize) -> (f64, f64, f64) {
        tri_row(
            self.lambda(dim) * self.diffusivity(g),
            g[dim],
            self.eta[dim],
        )
    }

    /// Pentadiagonal coefficients at global index `g` for the implicit
    /// solve along `dim`: `(e, a, d, c, f)` = (2nd sub, sub, diagonal,
    /// super, 2nd super). A wider, still strictly diagonally dominant
    /// implicit operator (|e|+|a|+|c|+|f| = 1.4·λ < 2·λ); couplings that
    /// would reach outside the domain are removed.
    pub fn penta_coefficients(&self, g: &[usize], dim: usize) -> (f64, f64, f64, f64, f64) {
        penta_row(
            self.lambda(dim) * self.diffusivity(g),
            g[dim],
            self.eta[dim],
        )
    }
}

/// The tridiagonal row `(a, b, c)` of local diffusion number `lam` at
/// position `i` of a line of `n` elements.
#[inline]
pub(crate) fn tri_row(lam: f64, i: usize, n: usize) -> (f64, f64, f64) {
    let a = if i == 0 { 0.0 } else { -lam };
    let c = if i == n - 1 { 0.0 } else { -lam };
    (a, 1.0 + 2.0 * lam, c)
}

/// The pentadiagonal row `(e, a, d, c, f)` of local diffusion number `lam`
/// at position `i` of a line of `n` elements.
#[inline]
pub(crate) fn penta_row(lam: f64, i: usize, n: usize) -> (f64, f64, f64, f64, f64) {
    let e = if i >= 2 { 0.1 * lam } else { 0.0 };
    let a = if i >= 1 { -0.6 * lam } else { 0.0 };
    let c = if i + 1 < n { -0.6 * lam } else { 0.0 };
    let f = if i + 2 < n { 0.1 * lam } else { 0.0 };
    (e, a, 1.0 + 2.0 * lam, c, f)
}

/// Per-axis tables of SP's position-dependent terms.
///
/// Each factor of [`SpProblem::diffusivity`] and [`SpProblem::forcing`]
/// depends on one coordinate, so tabulating the factors per axis (with the
/// same expressions) and combining them in the same order reproduces both
/// functions bit for bit, at a few flops per element and without their
/// divisions and sines. The sweep kernels generate their coefficients from
/// these tables, and `compute_rhs` its forcing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpTables {
    /// `lambda(d)` per axis.
    lam: [f64; 3],
    /// The diffusivity's per-axis terms: `0.2·(x − 0.5)`, `y − 0.5`,
    /// `0.1·(z − 0.5)`.
    diff: [Vec<f64>; 3],
    /// The forcing's per-axis factors: `sin(2πx)`, `sin(2πy)`, `sin(πz)`.
    sin: [Vec<f64>; 3],
}

impl SpTables {
    /// Tabulate `prob`'s terms along every axis.
    pub(crate) fn new(prob: &SpProblem) -> Self {
        use std::f64::consts::PI;
        let axis = |d: usize, f: &dyn Fn(f64) -> f64| -> Vec<f64> {
            (0..prob.eta[d])
                .map(|g| f((g as f64 + 1.0) / (prob.eta[d] as f64 + 1.0)))
                .collect()
        };
        SpTables {
            lam: [0, 1, 2].map(|d| prob.lambda(d)),
            diff: [
                axis(0, &|x| 0.2 * (x - 0.5)),
                axis(1, &|y| y - 0.5),
                axis(2, &|z| 0.1 * (z - 0.5)),
            ],
            sin: [
                axis(0, &|x| (2.0 * PI * x).sin()),
                axis(1, &|y| (2.0 * PI * y).sin()),
                axis(2, &|z| (PI * z).sin()),
            ],
        }
    }

    /// The forcing along the dimension-2 row at `(g0, g1)` over `g2s`:
    /// `(f, row)` such that `f * row[k]` is `prob.forcing` at
    /// `(g0, g1, g2s.start + k)`, bit for bit.
    #[inline]
    pub(crate) fn forcing_row(&self, g0: usize, g1: usize, g2s: Range<usize>) -> (f64, &[f64]) {
        let [sx, sy, sz] = &self.sin;
        (sx[g0] * sy[g1], &sz[g2s])
    }

    /// Visit a row of line segments element-outer, lane-inner:
    /// `f(k, l, i, lam)` for element `k` of lane `l`, where `i` is the
    /// element's coordinate along the swept axis and `lam` its local
    /// diffusion number, `prob.lambda(axis) * prob.diffusivity(g)` bit for
    /// bit. `ctx` locates lane 0; lane `l` lies `l` elements further along
    /// the [`lane_axis`], so every lane shares the row's start and step.
    ///
    /// Lanes go in groups of 16 whose line-invariant factors are computed
    /// once on the stack, so an element costs three flops and one table
    /// read on top of its recurrence, and the divisions of a group's
    /// independent lanes overlap.
    #[inline]
    pub(crate) fn for_each_lane_element(
        &self,
        nlanes: usize,
        seg_len: usize,
        ctx: &SegmentCtx,
        mut f: impl FnMut(usize, usize, usize, f64),
    ) {
        const GROUP: usize = 16;
        let [dx, dy, dz] = &self.diff;
        let (axis, la) = (ctx.axis, lane_axis(3, ctx.axis));
        let (lam, t) = (self.lam[axis], &self.diff[axis]);
        let (start, step) = (ctx.global_start[axis] as i64, ctx.step);
        let lane0: [usize; 3] = ctx.global_start[..].try_into().expect("SP is 3-D");
        for l0 in (0..nlanes).step_by(GROUP) {
            let group = l0..nlanes.min(l0 + GROUP);
            // Per lane, the factors `(pre, mul, add)` with diffusivity
            // `(pre + t[i]·mul) + add`: `(1 + dx[i]·dy) + dz` along x,
            // `(1 + dy[i]·dx) + dz` along y (a product commutes exactly)
            // and `((1 + dx·dy) + dz[i]·1) + 0` along z (multiplying by one
            // and adding zero to the nonzero sum are exact) —
            // `diffusivity`'s own operations.
            let mut line = [(0.0, 0.0, 0.0); GROUP];
            for (slot, l) in line.iter_mut().zip(group.clone()) {
                let mut g = lane0;
                g[la] += l;
                *slot = match axis {
                    0 => (1.0, dy[g[1]], dz[g[2]]),
                    1 => (1.0, dx[g[0]], dz[g[2]]),
                    _ => (1.0 + dx[g[0]] * dy[g[1]], 1.0, 0.0),
                };
            }
            for k in 0..seg_len {
                let i = (start + step * k as i64) as usize;
                for (j, &(pre, mul, add)) in line[..group.len()].iter().enumerate() {
                    f(k, l0 + j, i, lam * ((pre + t[i] * mul) + add));
                }
            }
        }
    }
}

/// Per-element relative work factors of each SP phase, used by the
/// performance simulation (counts of flops-per-element, normalized so one
/// unit equals the machine's `elem_compute`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpWorkFactors {
    /// `compute_rhs` stencil (7-point Laplacian + forcing).
    pub rhs: f64,
    /// Coefficient construction per dimension.
    pub coeffs: f64,
    /// Forward elimination per dimension.
    pub forward: f64,
    /// Back substitution per dimension.
    pub backward: f64,
    /// Final `add`.
    pub add: f64,
}

impl Default for SpWorkFactors {
    fn default() -> Self {
        // Rough per-element op counts of the simplified kernels.
        SpWorkFactors {
            rhs: 9.0,
            coeffs: 4.0,
            forward: 6.0,
            backward: 2.0,
            add: 1.0,
        }
    }
}

impl SpWorkFactors {
    /// Total per-element work of one full iteration over `d` dimensions.
    pub fn total(&self, d: usize) -> f64 {
        self.rhs + d as f64 * (self.coeffs + self.forward + self.backward) + self.add
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_core::multipart::Direction;

    fn prob() -> SpProblem {
        SpProblem::new([12, 12, 12], 0.015)
    }

    #[test]
    fn initial_is_zero_compatible_at_boundary() {
        let p = prob();
        // Not exactly zero at the first interior point but small near edges,
        // and strictly positive inside.
        assert!(p.initial(&[5, 5, 5]) > 0.9);
        assert!(p.initial(&[0, 5, 5]) < 0.4);
    }

    #[test]
    fn diffusivity_bounds() {
        let p = prob();
        for i in 0..12 {
            for j in 0..12 {
                for k in 0..12 {
                    let d = p.diffusivity(&[i, j, k]);
                    assert!(d > 0.8 && d < 1.2, "diffusivity {d} out of range");
                }
            }
        }
    }

    #[test]
    fn coefficients_diagonally_dominant() {
        let p = prob();
        for dim in 0..3 {
            for i in 0..12 {
                let (a, b, c) = p.coefficients(&[i, 6, 6], dim);
                assert!(b > a.abs() + c.abs(), "not diagonally dominant");
            }
        }
    }

    #[test]
    fn boundary_rows_decoupled() {
        let p = prob();
        let (a, _, _) = p.coefficients(&[0, 3, 3], 0);
        assert_eq!(a, 0.0);
        let (_, _, c) = p.coefficients(&[11, 3, 3], 0);
        assert_eq!(c, 0.0);
        // interior untouched
        let (a, _, c) = p.coefficients(&[5, 3, 3], 0);
        assert!(a != 0.0 && c != 0.0);
    }

    #[test]
    fn lambda_scales_inverse_square() {
        let small = SpProblem::new([10, 10, 10], 0.01);
        let big = SpProblem::new([100, 100, 100], 0.01);
        assert!(big.lambda(0) > 50.0 * small.lambda(0));
    }

    #[test]
    fn tables_reproduce_diffusion_and_forcing_bitwise() {
        for prob in [
            SpProblem::new([12, 12, 12], 0.015),
            SpProblem::new([5, 9, 20], 0.001),
            SpProblem::pentadiagonal([36, 1, 3], 0.0015),
        ] {
            let t = SpTables::new(&prob);
            let [n0, n1, n2] = prob.eta;
            for g0 in 0..n0 {
                for g1 in 0..n1 {
                    let (f, row) = t.forcing_row(g0, g1, 0..n2);
                    for (g2, s) in row.iter().enumerate() {
                        let want = prob.forcing(&[g0, g1, g2]);
                        assert_eq!((f * s).to_bits(), want.to_bits(), "{:?}", [g0, g1, g2]);
                    }
                }
            }
            // Every line of every axis, one row of lanes along the lane
            // axis per point of the remaining axis; the 20-lane rows of the
            // second problem pass the stack group size.
            for axis in 0..3 {
                let (n, la) = (prob.eta[axis], lane_axis(3, axis));
                let other = 3 - axis - la;
                let mut visited = 0;
                for o in 0..prob.eta[other] {
                    let mut g0 = vec![0; 3];
                    g0[other] = o;
                    let ctx = SegmentCtx::new(g0.clone(), axis, Direction::Forward);
                    t.for_each_lane_element(prob.eta[la], n, &ctx, |k, l, i, lam| {
                        let mut g = g0.clone();
                        (g[axis], g[la]) = (k, l);
                        assert_eq!(i, k);
                        let want = prob.lambda(axis) * prob.diffusivity(&g);
                        assert_eq!(lam.to_bits(), want.to_bits(), "{g:?} axis {axis}");
                        visited += 1;
                    });
                }
                assert_eq!(visited, prob.eta.iter().product::<usize>());
            }
        }
    }

    #[test]
    fn work_factors_total() {
        let w = SpWorkFactors::default();
        assert!((w.total(3) - (9.0 + 3.0 * 12.0 + 1.0)).abs() < 1e-12);
    }
}
