//! Distributed SP over a multipartitioning — the per-rank program.
//!
//! Field layout (indices into the rank's [`RankStore`], see [`fields`]):
//! `0: u` (halo 1), `1: rhs`, `2: c` — the eliminated super-diagonal the
//! forward sweeps leave for the backward ones — and, for pentadiagonal
//! solves only, `3: f`, the eliminated second super-diagonal.
//!
//! Each iteration:
//! 1. halo-exchange `u` (one aggregated message per neighbor per direction);
//! 2. `compute_rhs` — local 7-point stencil into `rhs`, row by row over
//!    tile storage, with the forcing generated from per-axis tables;
//! 3. per dimension, a forward elimination sweep whose kernel generates the
//!    system coefficients from global coordinates, then a backward
//!    substitution sweep (the multipartitioned phases of the paper);
//! 4. `add` — `u += rhs`, local, row by row.
//!
//! The kernels and tables are built once per solver, so a steady-state
//! iteration allocates nothing on the rank thread. Results are
//! bit-identical to [`crate::serial::SerialSp`].

use crate::kernels::{SpPentaForwardKernel, SpTriForwardKernel};
use crate::problem::{SolverKind, SpProblem, SpTables};
use crate::serial::rhs_at;
use mp_core::multipart::{Direction, Multipartitioning};
use mp_grid::{FieldDef, RankStore, TileGrid};
use mp_runtime::comm::Communicator;
use mp_sweep::compiled::SolverPlan;
use mp_sweep::executor::{allocate_rank_store, SweepOptions};
use mp_sweep::penta::PentaBackwardKernel;
use mp_sweep::recurrence::LineSweepKernel;
use mp_sweep::thomas::ThomasBackwardKernel;

/// Field indices.
pub mod fields {
    /// Solution (halo 1).
    pub const U: usize = 0;
    /// Right-hand side / solution increment.
    pub const RHS: usize = 1;
    /// Eliminated super-diagonal, written by the forward sweeps (a scratch
    /// field: each sweep lays it out in its own order).
    pub const C: usize = 2;
    /// Eliminated second super-diagonal (pentadiagonal solves only; a
    /// scratch field).
    pub const F: usize = 3;
}

/// The field declarations of the SP state for `solver`'s line systems.
pub fn sp_fields(solver: SolverKind) -> Vec<FieldDef> {
    let mut defs = vec![
        FieldDef::new("u", 1),
        FieldDef::new("rhs", 0),
        FieldDef::scratch("c"),
    ];
    if solver == SolverKind::Pentadiagonal {
        defs.push(FieldDef::scratch("f"));
    }
    defs
}

/// Per-rank distributed SP state.
pub struct ParallelSp {
    /// Problem constants.
    pub prob: SpProblem,
    /// The multipartitioning in force.
    pub mp: Multipartitioning,
    /// Tile-grid geometry.
    pub grid: TileGrid,
    /// This rank's tiles.
    pub store: RankStore,
    /// Compiled execution plans (all directional sweeps + halo schedule),
    /// built on first use and reused across timesteps.
    pub plan: SolverPlan,
    /// Completed iterations.
    pub iters_done: usize,
    /// Per-axis forcing factors for `compute_rhs`.
    tables: SpTables,
    /// The forward (elimination) and backward (substitution) kernels of
    /// the solver kind, built once.
    fwd: Box<dyn LineSweepKernel>,
    bwd: Box<dyn LineSweepKernel>,
}

impl ParallelSp {
    /// Initialize this rank's tiles for `mp` over the problem grid.
    pub fn new(rank: u64, prob: SpProblem, mp: Multipartitioning) -> Self {
        Self::with_opts(rank, prob, mp, SweepOptions::default())
    }

    /// Like [`ParallelSp::new`] but with explicit sweep execution options
    /// (the SIMD level).
    pub fn with_opts(
        rank: u64,
        prob: SpProblem,
        mp: Multipartitioning,
        sweep_opts: SweepOptions,
    ) -> Self {
        let gammas: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        let grid = TileGrid::new(&prob.eta, &gammas);
        let mut store = allocate_rank_store(rank, &mp, &grid, &sp_fields(prob.solver));
        store.init_field(fields::U, |g| prob.initial(g));
        let (fwd, bwd): (Box<dyn LineSweepKernel>, Box<dyn LineSweepKernel>) = match prob.solver {
            SolverKind::Tridiagonal => (
                Box::new(SpTriForwardKernel::new(prob, fields::C, fields::RHS)),
                Box::new(ThomasBackwardKernel::new(fields::C, fields::RHS)),
            ),
            SolverKind::Pentadiagonal => (
                Box::new(SpPentaForwardKernel::new(
                    prob,
                    fields::C,
                    fields::F,
                    fields::RHS,
                )),
                Box::new(PentaBackwardKernel::new(fields::C, fields::F, fields::RHS)),
            ),
        };
        ParallelSp {
            prob,
            mp,
            grid,
            store,
            plan: SolverPlan::new(sweep_opts),
            iters_done: 0,
            tables: SpTables::new(&prob),
            fwd,
            bwd,
        }
    }

    /// One distributed ADI iteration.
    pub fn iterate<C: Communicator>(&mut self, comm: &mut C) {
        // 1. Halo exchange for the stencil (compiled schedule, built once).
        self.plan
            .exchange_halos(comm, &mut self.store, &self.mp, fields::U, 1, 10_000);

        // 2. compute_rhs (local; physical-boundary ghosts stay 0). Driver
        // stages are bracketed with named spans when telemetry is on, so a
        // trace separates stencil work from the sweeps proper.
        let t_rhs = comm.tracer().is_some().then(std::time::Instant::now);
        self.compute_rhs();
        if let (Some(t0), Some(tr)) = (t_rhs, comm.tracer()) {
            tr.stage(t0, "compute_rhs");
        }

        // 3. Implicit solves: two directional sweeps per dimension.
        for dim in 0..3 {
            self.plan.sweep(
                comm,
                &mut self.store,
                &self.mp,
                dim,
                Direction::Forward,
                &*self.fwd,
                20_000 + dim as u64 * 1_000,
            );
            self.plan.sweep(
                comm,
                &mut self.store,
                &self.mp,
                dim,
                Direction::Backward,
                &*self.bwd,
                30_000 + dim as u64 * 1_000,
            );
        }

        // 4. add (local).
        let t_add = comm.tracer().is_some().then(std::time::Instant::now);
        for tile in &mut self.store.tiles {
            let (u, rhs) = tile.two_fields_mut(fields::U, fields::RHS);
            // `rhs` has no halo: its storage is the interior, row-major.
            let mut rhs_rows = rhs.raw().chunks_exact(u.interior()[2]);
            u.for_each_interior_row_mut(|_, row| {
                for (x, r) in row.iter_mut().zip(rhs_rows.next().expect("rhs row")) {
                    *x += r;
                }
            });
        }
        if let (Some(t0), Some(tr)) = (t_add, comm.tracer()) {
            tr.stage(t0, "add");
        }
        self.iters_done += 1;
    }

    /// The 7-point stencil into `rhs`, one interior row of each tile at a
    /// time.
    fn compute_rhs(&mut self) {
        let prob = self.prob;
        let inv_h2 = prob.inv_h2();
        for tile in &mut self.store.tiles {
            let o: [usize; 3] = tile.region.origin[..].try_into().expect("3-D tile");
            let (u, rhs) = tile.two_fields_mut(fields::U, fields::RHS);
            let [n0, n1, n2]: [usize; 3] = u.interior().try_into().expect("3-D tile");
            // `rhs` has no halo: its storage is the interior, row-major.
            let mut out_rows = rhs.raw_mut().chunks_exact_mut(n2);
            for i in 0..n0 {
                for j in 0..n1 {
                    let [xlo, xhi, ylo, yhi, z] = u.stencil_rows(i, j);
                    let (f, fz) = self.tables.forcing_row(o[0] + i, o[1] + j, o[2]..o[2] + n2);
                    let out = out_rows.next().expect("rhs row");
                    for (k, v) in out.iter_mut().enumerate() {
                        let nb = [[xlo[k], xhi[k]], [ylo[k], yhi[k]], [z[k], z[k + 2]]];
                        *v = rhs_at(&prob, &inv_h2, z[k + 1], &nb, f * fz[k]);
                    }
                }
            }
        }
    }

    /// Run several iterations.
    pub fn run<C: Communicator>(&mut self, comm: &mut C, iterations: usize) {
        for _ in 0..iterations {
            self.iterate(comm);
        }
    }

    /// Deterministic checksum of this rank's interior `u` values: FNV-1a
    /// over the IEEE-754 bit patterns, tiles in store order. Two runs
    /// produced bitwise-identical local solutions iff every rank's
    /// checksum matches. Purely local — no collective — so the chaos
    /// harness can still compare surviving ranks after a peer has failed.
    pub fn u_checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for t in &self.store.tiles {
            t.field(fields::U).for_each_interior_row(|_, row| {
                for v in row {
                    h ^= v.to_bits();
                    h = h.wrapping_mul(0x0000_0100_0000_01b3);
                }
            });
        }
        h
    }

    /// Global L2 norm of `u` (collective).
    pub fn u_norm<C: Communicator>(&mut self, comm: &mut C) -> f64 {
        let local: f64 = self
            .store
            .tiles
            .iter()
            .map(|t| {
                let mut s = 0.0;
                t.field(fields::U).for_each_interior_row(|_, row| {
                    for v in row {
                        s += v * v;
                    }
                });
                s
            })
            .sum();
        comm.allreduce_sum(&[local])[0].sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSp;
    use mp_core::cost::CostModel;
    use mp_grid::ArrayD;
    use mp_runtime::threaded::run_threaded;

    /// Run p-rank SP for `iters` and gather `u` into a global array.
    fn run_parallel(prob: SpProblem, p: u64, iters: usize) -> (ArrayD<f64>, f64) {
        let mp = Multipartitioning::optimal(
            p,
            &prob.eta.map(|e| e as u64),
            &CostModel::origin2000_like(),
        );
        let results = run_threaded(p, |comm| {
            let mut sp = ParallelSp::new(comm.rank(), prob, mp.clone());
            sp.run(comm, iters);
            let norm = sp.u_norm(comm);
            (sp.store, norm)
        });
        let mut global = ArrayD::zeros(&prob.eta);
        for (store, _) in &results {
            store.gather_into(fields::U, &mut global);
        }
        (global, results[0].1)
    }

    #[test]
    fn parallel_matches_serial_p4() {
        let prob = SpProblem::new([8, 8, 8], 0.001);
        let mut serial = SerialSp::new(prob);
        serial.run(2);
        let (global, norm) = run_parallel(prob, 4, 2);
        assert_eq!(
            global.max_abs_diff(&serial.u),
            0.0,
            "distributed SP must be bit-identical to serial"
        );
        assert!((norm - serial.u_norm()).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_serial_p6_generalized() {
        // p = 6: generalized multipartitioning only (no perfect square).
        let prob = SpProblem::new([12, 12, 12], 0.0015);
        let mut serial = SerialSp::new(prob);
        serial.run(2);
        let (global, _) = run_parallel(prob, 6, 2);
        assert_eq!(global.max_abs_diff(&serial.u), 0.0);
    }

    #[test]
    fn parallel_matches_serial_p9_diagonal() {
        let prob = SpProblem::new([9, 9, 9], 0.002);
        let mut serial = SerialSp::new(prob);
        serial.run(1);
        let mp = Multipartitioning::diagonal(9, 3);
        let results = run_threaded(9, |comm| {
            let mut sp = ParallelSp::new(comm.rank(), prob, mp.clone());
            sp.run(comm, 1);
            sp.store
        });
        let mut global = ArrayD::zeros(&prob.eta);
        for store in &results {
            store.gather_into(fields::U, &mut global);
        }
        assert_eq!(global.max_abs_diff(&serial.u), 0.0);
    }

    #[test]
    fn pentadiagonal_parallel_matches_serial() {
        // The real SP system shape: 6-value forward carries, generated
        // coefficients, bit-identical across the distributed executor.
        let prob = SpProblem::pentadiagonal([10, 10, 10], 0.001);
        let mut serial = SerialSp::new(prob);
        serial.run(2);
        for p in [4u64, 6] {
            let (global, norm) = run_parallel(prob, p, 2);
            assert_eq!(
                global.max_abs_diff(&serial.u),
                0.0,
                "pentadiagonal SP p={p} diverged"
            );
            assert!((norm - serial.u_norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn pentadiagonal_differs_from_tridiagonal() {
        // Sanity: the two solver kinds are genuinely different systems.
        let tri = {
            let mut s = SerialSp::new(SpProblem::new([8, 8, 8], 0.001));
            s.run(1);
            s.u
        };
        let penta = {
            let mut s = SerialSp::new(SpProblem::pentadiagonal([8, 8, 8], 0.001));
            s.run(1);
            s.u
        };
        assert!(tri.max_abs_diff(&penta) > 0.0);
    }

    #[test]
    fn pentadiagonal_stays_bounded() {
        let mut s = SerialSp::new(SpProblem::pentadiagonal([8, 8, 8], 0.001));
        s.run(10);
        assert!(s.u_norm().is_finite() && s.u_norm() < 100.0);
    }

    #[test]
    fn plans_built_exactly_once_per_run() {
        // The compiled-plan acceptance assert: after timestep 1 every plan
        // (6 directional sweeps + 1 halo schedule) is cached; later
        // timesteps trigger zero rebuilds.
        let prob = SpProblem::new([8, 8, 8], 0.001);
        let mp = Multipartitioning::optimal(4, &[8, 8, 8], &CostModel::origin2000_like());
        let builds = run_threaded(4, |comm| {
            let mut sp = ParallelSp::new(comm.rank(), prob, mp.clone());
            sp.run(comm, 1);
            let after_first = sp.plan.builds();
            sp.run(comm, 2);
            (after_first, sp.plan.builds())
        });
        for (b1, b2) in &builds {
            assert_eq!(*b1, 7, "expected 3 dims × 2 directions + 1 halo plan");
            assert_eq!(b2, b1, "plans rebuilt after timestep 1");
        }
    }

    #[test]
    fn norm_history_matches_serial() {
        let prob = SpProblem::new([8, 8, 8], 0.001);
        let mp = Multipartitioning::optimal(4, &[8, 8, 8], &CostModel::origin2000_like());
        let histories = run_threaded(4, |comm| {
            // The global norm after each iteration: one collective per
            // iteration, as real SP's verification does.
            let mut sp = ParallelSp::new(comm.rank(), prob, mp.clone());
            (0..3)
                .map(|_| {
                    sp.iterate(comm);
                    sp.u_norm(comm)
                })
                .collect::<Vec<f64>>()
        });
        let mut serial = SerialSp::new(prob);
        let want: Vec<f64> = (0..3)
            .map(|_| {
                serial.iterate();
                serial.u_norm()
            })
            .collect();
        for h in &histories {
            assert_eq!(h.len(), 3);
            for (a, b) in h.iter().zip(want.iter()) {
                assert!((a - b).abs() < 1e-12, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn norms_agree_across_ranks() {
        let prob = SpProblem::new([8, 8, 8], 0.001);
        let mp = Multipartitioning::optimal(4, &[8, 8, 8], &CostModel::origin2000_like());
        let norms = run_threaded(4, |comm| {
            let mut sp = ParallelSp::new(comm.rank(), prob, mp.clone());
            sp.run(comm, 1);
            sp.u_norm(comm)
        });
        for n in &norms {
            assert_eq!(*n, norms[0]);
        }
    }
}
