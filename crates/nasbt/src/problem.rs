//! The simplified BT problem: five coupled flow variables per grid point,
//! block-tridiagonal implicit solves.
//!
//! Real NAS BT solves the same Navier-Stokes discretization as SP but keeps
//! the 5×5 coupling of the flow variables inside each line solve (BT =
//! *block tridiagonal*). The parallel structure is identical to SP — one
//! stencil phase plus a forward and a backward line sweep per dimension per
//! iteration — but every sweep carry is a 5×5 matrix plus a 5-vector
//! (30 floats) per line instead of SP's 2, making BT's messages an order of
//! magnitude heavier at the same schedule. That difference is the point of
//! reproducing it here.

use mp_sweep::block::{BlockCoeffs, LaneMat, Mat};
use std::ops::Range;

/// Number of coupled components (the five flow variables).
pub const NCOMP: usize = 5;

/// Problem-wide constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BtProblem {
    /// Grid extents.
    pub eta: [usize; 3],
    /// Time step.
    pub dt: f64,
}

impl BtProblem {
    /// Standard setup.
    pub fn new(eta: [usize; 3], dt: f64) -> Self {
        BtProblem { eta, dt }
    }

    /// Diffusion number along `dim`.
    pub fn lambda(&self, dim: usize) -> f64 {
        let h = 1.0 / (self.eta[dim] as f64 + 1.0);
        0.5 * self.dt / (h * h)
    }

    /// `h²` per axis (`h = 1/(η_d+1)`): the Laplacian's divisors in
    /// `compute_rhs`.
    pub fn h2(&self) -> [f64; 3] {
        self.eta.map(|e| {
            let h = 1.0 / (e as f64 + 1.0);
            h * h
        })
    }

    /// Initial condition of component `comp`.
    pub fn initial(&self, g: &[usize], comp: usize) -> f64 {
        let f = |k: usize| {
            let t = (g[k] as f64 + 1.0) / (self.eta[k] as f64 + 1.0);
            4.0 * t * (1.0 - t)
        };
        (1.0 + 0.2 * comp as f64) * f(0) * f(1) * f(2)
    }

    /// Forcing of component `comp`.
    pub fn forcing(&self, g: &[usize], comp: usize) -> f64 {
        let x = (g[0] as f64 + 1.0) / (self.eta[0] as f64 + 1.0);
        let y = (g[1] as f64 + 1.0) / (self.eta[1] as f64 + 1.0);
        let z = (g[2] as f64 + 1.0) / (self.eta[2] as f64 + 1.0);
        ((comp + 1) as f64)
            * 0.2
            * (std::f64::consts::PI * x).sin()
            * (std::f64::consts::PI * y).sin()
            * (std::f64::consts::PI * z).sin()
    }

    /// The explicit inter-component coupling weight used by `compute_rhs`.
    pub fn coupling(&self) -> f64 {
        0.05
    }
}

/// Per-axis tables of [`BtProblem::forcing`]'s factors `sin(π·x_d)`.
///
/// The forcing is `(((c + 1)·0.2·sx)·sy)·sz`, one sine per coordinate, so
/// tabulating the sines per axis (with the same expressions) and taking the
/// products in the same order reproduces it bit for bit, without its
/// divisions and sines. `compute_rhs` reads its forcing from here.
#[derive(Debug)]
pub(crate) struct BtForcing {
    sin: [Vec<f64>; 3],
}

impl BtForcing {
    /// Tabulate `prob`'s forcing factors along every axis.
    pub(crate) fn new(prob: &BtProblem) -> Self {
        let axis = |d: usize| -> Vec<f64> {
            (0..prob.eta[d])
                .map(|g| {
                    let x = (g as f64 + 1.0) / (prob.eta[d] as f64 + 1.0);
                    (std::f64::consts::PI * x).sin()
                })
                .collect()
        };
        BtForcing {
            sin: [axis(0), axis(1), axis(2)],
        }
    }

    /// The forcing of component `comp` along the dimension-2 row at
    /// `(g0, g1)` over `g2s`: `(f, row)` such that `f * row[k]` is
    /// `prob.forcing` at `(g0, g1, g2s.start + k)`, bit for bit.
    #[inline]
    pub(crate) fn row(
        &self,
        comp: usize,
        g0: usize,
        g1: usize,
        g2s: Range<usize>,
    ) -> (f64, &[f64]) {
        let [sx, sy, sz] = &self.sin;
        (((comp + 1) as f64) * 0.2 * sx[g0] * sy[g1], &sz[g2s])
    }
}

/// The coupling weights of a point whose `(g0 + 2·g1 + 3·g2) mod 7` class
/// is `class`: entry `(r, s)` of its blocks weighs `1` on the diagonal and
/// `off[(r + 2s) mod 3]` off it.
#[inline]
fn coupling_mix(class: usize) -> [f64; 3] {
    let wob = 0.02 * class as f64;
    [0, 1, 2].map(|m| 0.08 + wob * (m as f64) * 0.1)
}

/// The `(A, B, C)` entries of weight `mix` (on the diagonal if `diag`) at
/// row `i` of a line of `n` along an axis of diffusion number `lam`: `A`
/// is zero on the line's first row and `C` on its last.
#[inline]
fn block_entry(lam: f64, mix: f64, diag: bool, i: usize, n: usize) -> [f64; 3] {
    let outer = -lam * 0.2 * mix;
    let a = if i > 0 { outer } else { 0.0 };
    let c = if i + 1 < n { outer } else { 0.0 };
    // Strong diagonal: 1 + 2λ dominates the off-diagonal mass
    // (row sum of |off-diag| ≤ 0.2λ·(1+4·0.13)·2 + 0.05λ·4·0.13 ≪ 2λ).
    let b = if diag {
        1.0 + 2.0 * lam
    } else {
        0.05 * lam * mix
    };
    [a, b, c]
}

impl BlockCoeffs<NCOMP> for BtProblem {
    /// 5×5 blocks at `g` for the implicit solve along `axis`: a diffusive
    /// diagonal part plus a small position-dependent inter-component
    /// coupling; strictly block-diagonally dominant, with boundary rows
    /// decoupled from outside the domain.
    fn blocks(&self, g: &[usize], axis: usize) -> (Mat<NCOMP>, Mat<NCOMP>, Mat<NCOMP>) {
        let lam = self.lambda(axis);
        let off = coupling_mix((g[0] + 2 * g[1] + 3 * g[2]) % 7);
        let mut abc = [[[0.0; NCOMP]; NCOMP]; 3];
        for r in 0..NCOMP {
            for s in 0..NCOMP {
                let mix = if r == s { 1.0 } else { off[(r + 2 * s) % 3] };
                let e = block_entry(lam, mix, r == s, g[axis], self.eta[axis]);
                for (m, v) in abc.iter_mut().zip(e) {
                    m[r][s] = v;
                }
            }
        }
        let [a, b, c] = abc;
        (a, b, c)
    }

    /// [`Self::blocks`] at four points, written straight into the
    /// interleaved layout. A block has four distinct entries per lane (the
    /// diagonal and the three off-diagonal weights of the lane's class),
    /// so each is computed once, by `blocks`' own expressions, and copied
    /// into place.
    #[inline]
    fn blocks4(&self, gs: [&[usize]; 4], axis: usize, abc: &mut [LaneMat<NCOMP>; 3]) {
        let lam = self.lambda(axis);
        let n = self.eta[axis];
        // `kinds[m][0]` holds block `m`'s diagonal entry per lane,
        // `kinds[m][1 + w]` its entries of weight `off[w]`.
        let mut kinds = [[[0.0; 4]; 4]; 3];
        for (l, g) in gs.into_iter().enumerate() {
            let off = coupling_mix((g[0] + 2 * g[1] + 3 * g[2]) % 7);
            let entries = [
                (1.0, true),
                (off[0], false),
                (off[1], false),
                (off[2], false),
            ];
            for (kind, (w, diag)) in entries.into_iter().enumerate() {
                let e = block_entry(lam, w, diag, g[axis], n);
                for (m, v) in kinds.iter_mut().zip(e) {
                    m[kind][l] = v;
                }
            }
        }
        for r in 0..NCOMP {
            for s in 0..NCOMP {
                let kind = if r == s { 0 } else { 1 + (r + 2 * s) % 3 };
                for (out, k) in abc.iter_mut().zip(&kinds) {
                    out[r][s] = k[kind];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_sweep::block::{block_thomas_solve, block_tridiag_matvec, VecN};

    fn prob() -> BtProblem {
        BtProblem::new([8, 8, 8], 0.002)
    }

    #[test]
    fn blocks_boundary_decoupled() {
        let p = prob();
        let (a, _, _) = p.blocks(&[0, 3, 3], 0);
        assert!(a.iter().flatten().all(|&v| v == 0.0));
        let (_, _, c) = p.blocks(&[7, 3, 3], 0);
        assert!(c.iter().flatten().all(|&v| v == 0.0));
        let (a, _, c) = p.blocks(&[4, 3, 3], 0);
        assert!(a.iter().flatten().any(|&v| v != 0.0));
        assert!(c.iter().flatten().any(|&v| v != 0.0));
    }

    #[test]
    fn line_system_solvable() {
        // Assemble one full line's system and check the residual.
        let p = prob();
        let n = p.eta[1];
        let mut aa = Vec::new();
        let mut bb = Vec::new();
        let mut cc = Vec::new();
        let mut dd: Vec<VecN<NCOMP>> = Vec::new();
        for j in 0..n {
            let (a, b, c) = p.blocks(&[3, j, 5], 1);
            aa.push(a);
            bb.push(b);
            cc.push(c);
            let mut d = [0.0; NCOMP];
            for (k, v) in d.iter_mut().enumerate() {
                *v = (j * (k + 1)) as f64 * 0.1 - 1.0;
            }
            dd.push(d);
        }
        let x = block_thomas_solve(&aa, &bb, &cc, &dd);
        let r = block_tridiag_matvec(&aa, &bb, &cc, &x);
        for (rv, dv) in r.iter().zip(dd.iter()) {
            for k in 0..NCOMP {
                assert!((rv[k] - dv[k]).abs() < 1e-10);
            }
        }
    }

    /// Three shapes, one with a unit extent and one uneven.
    fn shapes() -> [BtProblem; 3] {
        [
            BtProblem::new([8, 8, 8], 0.002),
            BtProblem::new([5, 9, 7], 0.01),
            BtProblem::new([24, 1, 3], 0.0015),
        ]
    }

    #[test]
    fn forcing_tables_reproduce_forcing_bitwise() {
        for prob in shapes() {
            let t = BtForcing::new(&prob);
            let [n0, n1, n2] = prob.eta;
            for c in 0..NCOMP {
                for g0 in 0..n0 {
                    for g1 in 0..n1 {
                        let (f, row) = t.row(c, g0, g1, 0..n2);
                        for (g2, s) in row.iter().enumerate() {
                            let want = prob.forcing(&[g0, g1, g2], c);
                            assert_eq!(
                                (f * s).to_bits(),
                                want.to_bits(),
                                "{:?} c {c}",
                                [g0, g1, g2]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn four_lane_blocks_equal_blocks_bitwise() {
        // Every point of every shape on every axis, four consecutive points
        // (in row-major order, wrapping) per call, so the lanes of a call
        // differ in class and in boundary rows.
        for prob in shapes() {
            let [n0, n1, n2] = prob.eta;
            let points: Vec<[usize; 3]> = (0..n0)
                .flat_map(|i| (0..n1).flat_map(move |j| (0..n2).map(move |k| [i, j, k])))
                .collect();
            for axis in 0..3 {
                for (p, _) in points.iter().enumerate() {
                    let gs: [&[usize]; 4] =
                        std::array::from_fn(|l| &points[(p + l) % points.len()][..]);
                    let mut abc = [[[[f64::NAN; 4]; NCOMP]; NCOMP]; 3];
                    prob.blocks4(gs, axis, &mut abc);
                    for (l, g) in gs.iter().enumerate() {
                        let (a, b, c) = prob.blocks(g, axis);
                        for (m, want) in [a, b, c].iter().enumerate() {
                            for r in 0..NCOMP {
                                for s in 0..NCOMP {
                                    assert_eq!(
                                        abc[m][r][s][l].to_bits(),
                                        want[r][s].to_bits(),
                                        "{g:?} axis {axis} block {m} ({r}, {s})"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn initial_and_forcing_distinct_per_component() {
        let p = prob();
        let g = [3, 4, 5];
        for c in 1..NCOMP {
            assert_ne!(p.initial(&g, c), p.initial(&g, 0));
            assert_ne!(p.forcing(&g, c), p.forcing(&g, 0));
        }
    }
}
