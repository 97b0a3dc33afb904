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

use mp_sweep::block::{BlockCoeffs, Mat};

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

impl BlockCoeffs<NCOMP> for BtProblem {
    /// 5×5 blocks at `g` for the implicit solve along `axis`: a diffusive
    /// diagonal part plus a small position-dependent inter-component
    /// coupling; strictly block-diagonally dominant, with boundary rows
    /// decoupled from outside the domain.
    fn blocks(&self, g: &[usize], axis: usize) -> (Mat<NCOMP>, Mat<NCOMP>, Mat<NCOMP>) {
        let lam = self.lambda(axis);
        let i = g[axis];
        let n = self.eta[axis];
        let wob = 0.02 * ((g[0] + 2 * g[1] + 3 * g[2]) % 7) as f64;
        let mut a = [[0.0; NCOMP]; NCOMP];
        let mut c = [[0.0; NCOMP]; NCOMP];
        let mut b = [[0.0; NCOMP]; NCOMP];
        for r in 0..NCOMP {
            for s in 0..NCOMP {
                let mix = if r == s {
                    1.0
                } else {
                    0.08 + wob * (((r + 2 * s) % 3) as f64) * 0.1
                };
                if i > 0 {
                    a[r][s] = -lam * 0.2 * mix;
                }
                if i + 1 < n {
                    c[r][s] = -lam * 0.2 * mix;
                }
                b[r][s] = if r == s { 0.0 } else { 0.05 * lam * mix };
            }
            // Strong diagonal: 1 + 2λ dominates the off-diagonal mass
            // (row sum of |off-diag| ≤ 0.2λ·(1+4·0.13)·2 + 0.05λ·4·0.13 ≪ 2λ).
            b[r][r] = 1.0 + 2.0 * lam;
        }
        (a, b, c)
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
