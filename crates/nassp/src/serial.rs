//! Serial reference implementation of the simplified SP iteration.
//!
//! Uses the *same* segmented sweep kernels as the distributed version (via
//! `mp_sweep::verify::serial_sweep`), so parallel runs must be bit-identical
//! — the test-suites assert equality with `== 0.0`, not a tolerance.

use crate::kernels::SpPentaForwardKernel;
use crate::problem::{SolverKind, SpProblem};
use mp_core::multipart::Direction;
use mp_grid::ArrayD;
use mp_sweep::penta::PentaBackwardKernel;
use mp_sweep::thomas::{ThomasBackwardKernel, ThomasForwardKernel};
use mp_sweep::verify::serial_sweep;

/// Explicit right-hand side at one element, from the 7-point Laplacian with
/// zero Dirichlet boundary. `nb[dim][0]`/`nb[dim][1]` are the low/high
/// neighbor values (0.0 outside the domain); `inv_h2` is
/// [`SpProblem::inv_h2`], which callers compute once per stage.
///
/// Shared by the serial and distributed implementations so the arithmetic
/// (and hence rounding) is identical.
#[inline]
pub fn rhs_at(
    prob: &SpProblem,
    inv_h2: &[f64; 3],
    center: f64,
    nb: &[[f64; 2]; 3],
    forcing: f64,
) -> f64 {
    let mut lap = 0.0;
    for (pair, w) in nb.iter().zip(inv_h2) {
        lap += (pair[0] + pair[1] - 2.0 * center) * w;
    }
    prob.dt * (lap + forcing)
}

/// Serial state: full-domain fields.
#[derive(Debug, Clone)]
pub struct SerialSp {
    /// Problem constants.
    pub prob: SpProblem,
    /// Solution field.
    pub u: ArrayD<f64>,
    /// Forcing field.
    pub forcing: ArrayD<f64>,
    /// Completed iterations.
    pub iters_done: usize,
}

impl SerialSp {
    /// Initialize from the problem's initial condition and forcing.
    pub fn new(prob: SpProblem) -> Self {
        let u = ArrayD::from_fn(&prob.eta, |g| prob.initial(g));
        let forcing = ArrayD::from_fn(&prob.eta, |g| prob.forcing(g));
        SerialSp {
            prob,
            u,
            forcing,
            iters_done: 0,
        }
    }

    /// ```
    /// use mp_nassp::{SerialSp, SpProblem};
    /// let mut sp = SerialSp::new(SpProblem::new([6, 6, 6], 0.001));
    /// sp.run(2);
    /// assert_eq!(sp.iters_done, 2);
    /// assert!(sp.u_norm().is_finite());
    /// ```
    /// One ADI iteration: `compute_rhs` → x/y/z implicit solves → `add`.
    pub fn iterate(&mut self) {
        let eta = self.prob.eta;
        let prob = self.prob;
        let u = &self.u;
        let forcing = &self.forcing;
        let inv_h2 = prob.inv_h2();

        // compute_rhs
        let mut rhs = ArrayD::from_fn(&eta, |g| {
            let mut nb = [[0.0f64; 2]; 3];
            for (dim, pair) in nb.iter_mut().enumerate() {
                if g[dim] > 0 {
                    let mut gg = g.to_vec();
                    gg[dim] -= 1;
                    pair[0] = u.get(&gg);
                }
                if g[dim] + 1 < eta[dim] {
                    let mut gg = g.to_vec();
                    gg[dim] += 1;
                    pair[1] = u.get(&gg);
                }
            }
            rhs_at(&prob, &inv_h2, u.get(g), &nb, forcing.get(g))
        });

        // Implicit solve along each dimension, as two directional sweeps.
        for dim in 0..3 {
            match prob.solver {
                SolverKind::Tridiagonal => {
                    let mut a = ArrayD::from_fn(&eta, |g| prob.coefficients(g, dim).0);
                    let mut b = ArrayD::from_fn(&eta, |g| prob.coefficients(g, dim).1);
                    let mut c = ArrayD::from_fn(&eta, |g| prob.coefficients(g, dim).2);
                    let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
                    serial_sweep(
                        &mut [&mut a, &mut b, &mut c, &mut rhs],
                        dim,
                        Direction::Forward,
                        &fwd,
                    );
                    let bwd = ThomasBackwardKernel::new(0, 1);
                    serial_sweep(&mut [&mut c, &mut rhs], dim, Direction::Backward, &bwd);
                }
                SolverKind::Pentadiagonal => {
                    let mut cw = ArrayD::zeros(&eta);
                    let mut fw = ArrayD::zeros(&eta);
                    let fwd = SpPentaForwardKernel::new(prob, 0, 1, 2);
                    serial_sweep(
                        &mut [&mut cw, &mut fw, &mut rhs],
                        dim,
                        Direction::Forward,
                        &fwd,
                    );
                    let bwd = PentaBackwardKernel::new(0, 1, 2);
                    serial_sweep(
                        &mut [&mut cw, &mut fw, &mut rhs],
                        dim,
                        Direction::Backward,
                        &bwd,
                    );
                }
            }
        }

        // add
        for (uv, rv) in self.u.as_mut_slice().iter_mut().zip(rhs.as_slice().iter()) {
            *uv += rv;
        }
        self.iters_done += 1;
    }

    /// Run several iterations.
    pub fn run(&mut self, iterations: usize) {
        for _ in 0..iterations {
            self.iterate();
        }
    }

    /// L2 norm of the solution — the verification scalar.
    pub fn u_norm(&self) -> f64 {
        self.u.l2_norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_prob() -> SpProblem {
        SpProblem::new([8, 8, 8], 0.001)
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut s1 = SerialSp::new(small_prob());
        let mut s2 = SerialSp::new(small_prob());
        s1.run(3);
        s2.run(3);
        assert_eq!(s1.u.max_abs_diff(&s2.u), 0.0);
        assert_eq!(s1.iters_done, 3);
    }

    #[test]
    fn norm_decays_without_forcing() {
        // Pure diffusion (zero forcing) must shrink the solution norm.
        let prob = small_prob();
        let mut s = SerialSp::new(prob);
        s.forcing = ArrayD::zeros(&prob.eta);
        let n0 = s.u_norm();
        s.run(5);
        let n5 = s.u_norm();
        assert!(n5 < n0, "diffusion should decay the norm: {n0} → {n5}");
        assert!(n5 > 0.0);
    }

    #[test]
    fn forced_solution_stays_bounded() {
        let mut s = SerialSp::new(small_prob());
        s.run(10);
        let n = s.u_norm();
        assert!(n.is_finite());
        assert!(n < 100.0, "solution blew up: {n}");
    }

    #[test]
    fn rhs_at_boundary_uses_zeros() {
        let prob = small_prob();
        // Element at the corner: all low neighbors are outside (0.0).
        let nb = [[0.0, 1.0]; 3];
        let v = rhs_at(&prob, &prob.inv_h2(), 1.0, &nb, 0.0);
        // lap = Σ (0 + 1 − 2)·81 = 3·(−81) ⇒ rhs = dt·(−243)
        let expect = 0.001 * (-3.0 * 81.0);
        assert!((v - expect).abs() < 1e-12, "{v} vs {expect}");
    }

    #[test]
    fn single_iteration_changes_solution() {
        let mut s = SerialSp::new(small_prob());
        let before = s.u.clone();
        s.iterate();
        assert!(s.u.max_abs_diff(&before) > 0.0);
    }
}
