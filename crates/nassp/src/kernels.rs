//! SP-specific sweep kernels that *generate* their system coefficients from
//! the global element position (via [`SegmentCtx`]) instead of reading them
//! from stored fields — exactly how the real SP builds its systems from
//! local state, and a demonstration of the context-aware kernel interface.
//!
//! The per-line reference (`sweep_segment`) evaluates
//! [`SpProblem::coefficients`]/[`SpProblem::penta_coefficients`]; the
//! blocked body (`sweep_lanes`) the executor runs generates the same bits
//! from per-axis tables the kernel builds once, element-outer and
//! lane-inner, so the divisions of independent lanes overlap.

// Kernel inner loops index several parallel buffers at the same row;
// iterator zips would obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use crate::problem::{penta_row, tri_row, SpProblem, SpTables};
use mp_core::multipart::Direction;
use mp_grid::Lanes;
use mp_sweep::penta::eliminate_row;
use mp_sweep::recurrence::{LineSweepKernel, SegmentCtx, MAX_DIMS};
use mp_sweep::simd::SimdLevel;

/// Pentadiagonal forward elimination with coefficients generated from
/// [`SpProblem::penta_coefficients`].
///
/// Fields: `[C, F, B]` — two scratch fields receiving the eliminated
/// super-diagonals and the right-hand-side field (read as `b`, overwritten
/// with `B`). Carry: the two previous eliminated rows (6 values).
#[derive(Debug, Clone)]
pub struct SpPentaForwardKernel {
    prob: SpProblem,
    tables: SpTables,
    fields: [usize; 3],
}

impl SpPentaForwardKernel {
    /// `c_scratch` and `f_scratch` receive `C`/`F`; `rhs` holds `b` in and
    /// `B` out.
    pub fn new(prob: SpProblem, c_scratch: usize, f_scratch: usize, rhs: usize) -> Self {
        SpPentaForwardKernel {
            prob,
            tables: SpTables::new(&prob),
            fields: [c_scratch, f_scratch, rhs],
        }
    }
}

impl LineSweepKernel for SpPentaForwardKernel {
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
        ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Forward);
        let mut p1 = (carry[0], carry[1], carry[2]);
        let mut p2 = (carry[3], carry[4], carry[5]);
        let n = seg[2].len();
        let mut pos = [0; MAX_DIMS];
        let g = ctx.start_in(&mut pos);
        for k in 0..n {
            g[ctx.axis] = ctx.axis_coord(k);
            let (e, a, d, c, f) = self.prob.penta_coefficients(g, ctx.axis);
            let row = eliminate_row((e, a, d, c, f, seg[2][k]), p1, p2);
            seg[0][k] = row.0;
            seg[1][k] = row.1;
            seg[2][k] = row.2;
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
        _level: SimdLevel,
        dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Forward);
        debug_assert_eq!(carries.len(), 6 * lanes.nlanes());
        let (nl, seg_len) = (lanes.nlanes(), lanes.seg_len());
        let n = self.prob.eta[ctx.axis];
        self.tables
            .for_each_lane_element(nl, seg_len, ctx, |k, l, i, lam| {
                let (e, a, d, c, f) = penta_row(lam, i, n);
                let cl = &mut carries[6 * l..6 * l + 6];
                let p1 = (cl[0], cl[1], cl[2]);
                let row = eliminate_row(
                    (e, a, d, c, f, lanes.get(2, k, l)),
                    p1,
                    (cl[3], cl[4], cl[5]),
                );
                lanes.set(0, k, l, row.0);
                lanes.set(1, k, l, row.1);
                lanes.set(2, k, l, row.2);
                cl.copy_from_slice(&[row.0, row.1, row.2, p1.0, p1.1, p1.2]);
            });
    }
}

/// Tridiagonal forward elimination with generated coefficients (the
/// context-aware analogue of `ThomasForwardKernel`): fields `[C, B]` —
/// scratch for the eliminated super-diagonal, and the right-hand side.
#[derive(Debug, Clone)]
pub struct SpTriForwardKernel {
    prob: SpProblem,
    tables: SpTables,
    fields: [usize; 2],
}

impl SpTriForwardKernel {
    /// `c_scratch` receives `c'`; `rhs` holds `d` in and `d'` out.
    pub fn new(prob: SpProblem, c_scratch: usize, rhs: usize) -> Self {
        SpTriForwardKernel {
            prob,
            tables: SpTables::new(&prob),
            fields: [c_scratch, rhs],
        }
    }
}

impl LineSweepKernel for SpTriForwardKernel {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        2
    }

    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Forward);
        let (mut cp, mut dp) = (carry[0], carry[1]);
        let n = seg[1].len();
        let mut pos = [0; MAX_DIMS];
        let g = ctx.start_in(&mut pos);
        for k in 0..n {
            g[ctx.axis] = ctx.axis_coord(k);
            let (a, b, c) = self.prob.coefficients(g, ctx.axis);
            let denom = b - a * cp;
            assert!(denom != 0.0, "zero pivot");
            cp = c / denom;
            dp = (seg[1][k] - a * dp) / denom;
            seg[0][k] = cp;
            seg[1][k] = dp;
        }
        carry[0] = cp;
        carry[1] = dp;
    }

    fn sweep_lanes(
        &self,
        _level: SimdLevel,
        dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctx: &SegmentCtx,
    ) {
        assert_eq!(dir, Direction::Forward);
        debug_assert_eq!(carries.len(), 2 * lanes.nlanes());
        let (nl, seg_len) = (lanes.nlanes(), lanes.seg_len());
        let n = self.prob.eta[ctx.axis];
        self.tables
            .for_each_lane_element(nl, seg_len, ctx, |k, l, i, lam| {
                let (a, b, c) = tri_row(lam, i, n);
                let cl = &mut carries[2 * l..2 * l + 2];
                let denom = b - a * cl[0];
                assert!(denom != 0.0, "zero pivot");
                cl[0] = c / denom;
                cl[1] = (lanes.get(1, k, l) - a * cl[1]) / denom;
                lanes.set(0, k, l, cl[0]);
                lanes.set(1, k, l, cl[1]);
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_grid::ArrayD;
    use mp_sweep::penta::{penta_matvec, PentaBackwardKernel};
    use mp_sweep::verify::serial_sweep;

    #[test]
    fn generated_penta_solve_has_zero_residual() {
        // Solve along axis 1 of a small 3-D grid using the generated-
        // coefficient kernels, then verify each line's residual against the
        // explicitly generated pentadiagonal system.
        let prob = SpProblem::pentadiagonal([5, 9, 4], 0.01);
        let rhs0 = ArrayD::from_fn(&prob.eta, |g| {
            ((g[0] * 13 + g[1] * 5 + g[2]) % 7) as f64 - 3.0
        });
        let mut cw = ArrayD::zeros(&prob.eta);
        let mut fw = ArrayD::zeros(&prob.eta);
        let mut rhs = rhs0.clone();
        let fwd = SpPentaForwardKernel::new(prob, 0, 1, 2);
        serial_sweep(
            &mut [&mut cw, &mut fw, &mut rhs],
            1,
            Direction::Forward,
            &fwd,
        );
        let bwd = PentaBackwardKernel::new(0, 1, 2);
        serial_sweep(
            &mut [&mut cw, &mut fw, &mut rhs],
            1,
            Direction::Backward,
            &bwd,
        );

        // Residual check per line.
        let n = prob.eta[1];
        let mut worst: f64 = 0.0;
        for i in 0..prob.eta[0] {
            for k in 0..prob.eta[2] {
                let mut e = vec![0.0; n];
                let mut a = vec![0.0; n];
                let mut d = vec![0.0; n];
                let mut c = vec![0.0; n];
                let mut f = vec![0.0; n];
                let mut x = vec![0.0; n];
                let mut b = vec![0.0; n];
                for j in 0..n {
                    let g = [i, j, k];
                    let (ee, aa, dd, cc, ff) = prob.penta_coefficients(&g, 1);
                    e[j] = ee;
                    a[j] = aa;
                    d[j] = dd;
                    c[j] = cc;
                    f[j] = ff;
                    x[j] = rhs.get(&g);
                    b[j] = rhs0.get(&g);
                }
                let r = penta_matvec(&e, &a, &d, &c, &f, &x);
                for (rv, bv) in r.iter().zip(b.iter()) {
                    // `f64::max` drops NaN: keep it, so a NaN fails.
                    let err = (rv - bv).abs();
                    if err.is_nan() || err > worst {
                        worst = err;
                    }
                }
            }
        }
        assert!(worst < 1e-10, "worst residual {worst}");
    }

    #[test]
    fn generated_tri_matches_stored_tri() {
        // The generated-coefficient tridiagonal kernel must agree with the
        // stored-coefficient ThomasForwardKernel path.
        use mp_sweep::thomas::{ThomasBackwardKernel, ThomasForwardKernel};
        let prob = SpProblem::new([4, 6, 5], 0.01);
        let rhs0 = ArrayD::from_fn(&prob.eta, |g| (g[0] + 2 * g[1] + 3 * g[2]) as f64 - 10.0);
        let axis = 2;

        // Stored path.
        let mut a = ArrayD::from_fn(&prob.eta, |g| prob.coefficients(g, axis).0);
        let mut b = ArrayD::from_fn(&prob.eta, |g| prob.coefficients(g, axis).1);
        let mut c = ArrayD::from_fn(&prob.eta, |g| prob.coefficients(g, axis).2);
        let mut rhs_stored = rhs0.clone();
        let fwd = ThomasForwardKernel::new(0, 1, 2, 3);
        serial_sweep(
            &mut [&mut a, &mut b, &mut c, &mut rhs_stored],
            axis,
            Direction::Forward,
            &fwd,
        );
        let bwd = ThomasBackwardKernel::new(0, 1);
        serial_sweep(
            &mut [&mut c, &mut rhs_stored],
            axis,
            Direction::Backward,
            &bwd,
        );

        // Generated path.
        let mut cw = ArrayD::zeros(&prob.eta);
        let mut rhs_gen = rhs0.clone();
        let fwd = SpTriForwardKernel::new(prob, 0, 1);
        serial_sweep(&mut [&mut cw, &mut rhs_gen], axis, Direction::Forward, &fwd);
        let bwd = ThomasBackwardKernel::new(0, 1);
        serial_sweep(
            &mut [&mut cw, &mut rhs_gen],
            axis,
            Direction::Backward,
            &bwd,
        );

        assert_eq!(rhs_gen.max_abs_diff(&rhs_stored), 0.0);
    }

    #[test]
    fn blocked_sp_kernels_match_per_line_bitwise() {
        // Position-dependent kernels: every lane lies at a different
        // point along the lane axis, so the lane bodies must thread
        // per-line coefficients exactly like the per-line reference does.
        use mp_sweep::recurrence::{per_line_sweep_lanes, SegmentCtx};
        let nlines = 5;
        let seg_len = 8;
        let axis = 1;
        let ctx = SegmentCtx::new(vec![3, 2, 1], axis, Direction::Forward);
        let vals = |s: usize| -> Vec<f64> {
            (0..seg_len * nlines)
                .map(|k| ((k * 17 + s * 31) % 13) as f64 * 0.4 - 2.0)
                .collect()
        };
        let penta = SpPentaForwardKernel::new(SpProblem::pentadiagonal([6, 11, 7], 0.01), 0, 1, 2);
        let tri = SpTriForwardKernel::new(SpProblem::new([6, 11, 7], 0.01), 0, 1);
        let cases: [(&dyn LineSweepKernel, Vec<Vec<f64>>); 2] = [
            (&penta, vec![vals(0), vals(1), vals(2)]),
            (&tri, vec![vals(3), vals(4)]),
        ];
        for (k, blk0) in cases {
            let (mut got, mut want) = (blk0.clone(), blk0);
            let mut got_c = vec![0.0; nlines * k.carry_len()];
            let mut want_c = got_c.clone();
            let (mut t1, mut t2) = (Vec::new(), Vec::new());
            k.sweep_lanes(
                SimdLevel::Scalar,
                Direction::Forward,
                &mut got_c,
                &mut Lanes::packed(&mut got, nlines, seg_len, &mut t1),
                &ctx,
            );
            per_line_sweep_lanes(
                k,
                Direction::Forward,
                &mut want_c,
                &mut Lanes::packed(&mut want, nlines, seg_len, &mut t2),
                &ctx,
            );
            assert_eq!(got_c, want_c);
            assert_eq!(got, want);
        }
    }
}
