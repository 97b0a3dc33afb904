//! Serial reference BT implementation (shares the distributed kernels so
//! parallel runs are bit-identical).

// Kernel inner loops index several parallel buffers at the same row;
// iterator zips would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use crate::problem::{BtProblem, NCOMP};
use mp_core::multipart::Direction;
use mp_grid::ArrayD;
use mp_sweep::block::{BlockTriBackwardKernel, BlockTriForwardKernel};
use mp_sweep::verify::serial_sweep;

/// Explicit right-hand side of one component at one point: diffusion of the
/// component itself plus a weak coupling to the *next* component (cyclic),
/// plus forcing. `nb` holds the component's 6 neighbor values (0 outside);
/// `next_center` is the next component's value at the point; `h2` is
/// [`BtProblem::h2`], which callers compute once per stage.
#[inline]
pub fn bt_rhs_at(
    prob: &BtProblem,
    h2: &[f64; 3],
    center: f64,
    nb: &[[f64; 2]; 3],
    next_center: f64,
    forcing: f64,
) -> f64 {
    let mut lap = 0.0;
    for (pair, hh) in nb.iter().zip(h2) {
        lap += (pair[0] + pair[1] - 2.0 * center) / hh;
    }
    prob.dt * (lap + prob.coupling() * (next_center - center) + forcing)
}

/// Serial BT state: five full-domain component fields.
#[derive(Debug, Clone)]
pub struct SerialBt {
    /// Problem constants.
    pub prob: BtProblem,
    /// Solution components.
    pub u: Vec<ArrayD<f64>>,
    /// Forcing components.
    pub forcing: Vec<ArrayD<f64>>,
    /// Completed iterations.
    pub iters_done: usize,
}

impl SerialBt {
    /// Initialize all five components.
    pub fn new(prob: BtProblem) -> Self {
        let u = (0..NCOMP)
            .map(|c| ArrayD::from_fn(&prob.eta, |g| prob.initial(g, c)))
            .collect();
        let forcing = (0..NCOMP)
            .map(|c| ArrayD::from_fn(&prob.eta, |g| prob.forcing(g, c)))
            .collect();
        SerialBt {
            prob,
            u,
            forcing,
            iters_done: 0,
        }
    }

    /// One BT iteration: coupled `compute_rhs` → block solves along x/y/z →
    /// `add`.
    pub fn iterate(&mut self) {
        let prob = self.prob;
        let eta = prob.eta;
        let h2 = prob.h2();

        // compute_rhs for all components.
        let mut rhs: Vec<ArrayD<f64>> = (0..NCOMP)
            .map(|c| {
                let uc = &self.u[c];
                let un = &self.u[(c + 1) % NCOMP];
                let fc = &self.forcing[c];
                ArrayD::from_fn(&eta, |g| {
                    let mut nb = [[0.0f64; 2]; 3];
                    for (dim, pair) in nb.iter_mut().enumerate() {
                        if g[dim] > 0 {
                            let mut gg = g.to_vec();
                            gg[dim] -= 1;
                            pair[0] = uc.get(&gg);
                        }
                        if g[dim] + 1 < eta[dim] {
                            let mut gg = g.to_vec();
                            gg[dim] += 1;
                            pair[1] = uc.get(&gg);
                        }
                    }
                    bt_rhs_at(&prob, &h2, uc.get(g), &nb, un.get(g), fc.get(g))
                })
            })
            .collect();

        // Block solves: 25 scratch fields + 5 rhs fields per sweep.
        for dim in 0..3 {
            let mut scratch: Vec<ArrayD<f64>> =
                (0..NCOMP * NCOMP).map(|_| ArrayD::zeros(&eta)).collect();
            let scratch_idx: Vec<usize> = (0..NCOMP * NCOMP).collect();
            let rhs_idx: Vec<usize> = (NCOMP * NCOMP..NCOMP * NCOMP + NCOMP).collect();
            {
                let mut fields: Vec<&mut ArrayD<f64>> = Vec::new();
                let (s_fields, r_fields) = (&mut scratch, &mut rhs);
                for f in s_fields.iter_mut() {
                    fields.push(f);
                }
                for f in r_fields.iter_mut() {
                    fields.push(f);
                }
                let fwd = BlockTriForwardKernel::<NCOMP, _>::new(prob, &scratch_idx, &rhs_idx);
                serial_sweep(&mut fields, dim, Direction::Forward, &fwd);
                let bwd = BlockTriBackwardKernel::<NCOMP>::new(&scratch_idx, &rhs_idx);
                serial_sweep(&mut fields, dim, Direction::Backward, &bwd);
            }
        }

        // add
        for c in 0..NCOMP {
            for (uv, rv) in self.u[c]
                .as_mut_slice()
                .iter_mut()
                .zip(rhs[c].as_slice().iter())
            {
                *uv += rv;
            }
        }
        self.iters_done += 1;
    }

    /// Run several iterations.
    pub fn run(&mut self, iterations: usize) {
        for _ in 0..iterations {
            self.iterate();
        }
    }

    /// L2 norm over all components.
    pub fn norm(&self) -> f64 {
        self.u
            .iter()
            .map(|f| {
                let n = f.l2_norm();
                n * n
            })
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prob() -> BtProblem {
        BtProblem::new([6, 6, 6], 0.002)
    }

    #[test]
    fn deterministic() {
        let mut a = SerialBt::new(prob());
        let mut b = SerialBt::new(prob());
        a.run(2);
        b.run(2);
        for c in 0..NCOMP {
            assert_eq!(a.u[c].max_abs_diff(&b.u[c]), 0.0);
        }
    }

    #[test]
    fn stays_bounded() {
        let mut s = SerialBt::new(prob());
        s.run(8);
        assert!(s.norm().is_finite() && s.norm() < 1000.0);
    }

    #[test]
    fn components_evolve_differently() {
        let mut s = SerialBt::new(prob());
        s.run(1);
        assert!(s.u[0].max_abs_diff(&s.u[1]) > 0.0);
    }

    #[test]
    fn iteration_changes_state() {
        let mut s = SerialBt::new(prob());
        let before = s.u[2].clone();
        s.iterate();
        assert!(s.u[2].max_abs_diff(&before) > 0.0);
    }
}
