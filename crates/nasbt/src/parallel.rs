//! Distributed BT over a multipartitioning.
//!
//! Field layout (35 fields per tile): components `u_c` at `c` (halo 1,
//! c in 0..5), right-hand sides at `5 + c` and the 25 block-elimination
//! scratch fields at `10..35`. The forcing is not a field: `compute_rhs`
//! combines per-axis sine tables built once per solver.
//!
//! Each iteration halo-exchanges every component, runs `compute_rhs` and
//! `add` row by row over tile storage, and between them a forward and a
//! backward block sweep per dimension. The sweep kernels are built once
//! per solver, so a steady-state iteration allocates nothing on the rank
//! thread.

use crate::problem::{BtForcing, BtProblem, NCOMP};
use crate::serial::bt_rhs_at;
use mp_core::multipart::{Direction, Multipartitioning};
use mp_grid::{FieldDef, RankStore, TileGrid};
use mp_runtime::comm::Communicator;
use mp_sweep::block::{BlockTriBackwardKernel, BlockTriForwardKernel};
use mp_sweep::compiled::SolverPlan;
use mp_sweep::executor::{allocate_rank_store, SweepOptions};

/// Field index helpers.
pub mod fields {
    use super::NCOMP;

    /// Solution component `c` (halo 1).
    pub fn u(c: usize) -> usize {
        c
    }

    /// Right-hand side of component `c`.
    pub fn rhs(c: usize) -> usize {
        NCOMP + c
    }

    /// Elimination scratch (row-major 5×5) entry `k`.
    pub fn scratch(k: usize) -> usize {
        2 * NCOMP + k
    }
}

/// All BT field declarations.
pub fn bt_fields() -> Vec<FieldDef> {
    let mut defs = Vec::new();
    for c in 0..NCOMP {
        defs.push(FieldDef::new(&format!("u{c}"), 1));
    }
    for c in 0..NCOMP {
        defs.push(FieldDef::new(&format!("rhs{c}"), 0));
    }
    for k in 0..NCOMP * NCOMP {
        defs.push(FieldDef::new(&format!("cw{k}"), 0));
    }
    defs
}

/// Per-rank distributed BT state.
pub struct ParallelBt {
    /// Problem constants.
    pub prob: BtProblem,
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
    /// The forcing's per-axis factors, built once.
    forcing: BtForcing,
    /// Block elimination and back substitution over the scratch and
    /// right-hand-side fields, built once.
    fwd: BlockTriForwardKernel<NCOMP, BtProblem>,
    bwd: BlockTriBackwardKernel<NCOMP>,
}

impl ParallelBt {
    /// Initialize this rank's tiles.
    pub fn new(rank: u64, prob: BtProblem, mp: Multipartitioning) -> Self {
        Self::with_opts(rank, prob, mp, SweepOptions::default())
    }

    /// Like [`ParallelBt::new`] but with explicit sweep execution options
    /// (the SIMD level).
    pub fn with_opts(
        rank: u64,
        prob: BtProblem,
        mp: Multipartitioning,
        sweep_opts: SweepOptions,
    ) -> Self {
        let gammas: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        let grid = TileGrid::new(&prob.eta, &gammas);
        let mut store = allocate_rank_store(rank, &mp, &grid, &bt_fields());
        for c in 0..NCOMP {
            store.init_field(fields::u(c), |g| prob.initial(g, c));
        }
        let scratch: Vec<usize> = (0..NCOMP * NCOMP).map(fields::scratch).collect();
        let rhs: Vec<usize> = (0..NCOMP).map(fields::rhs).collect();
        ParallelBt {
            prob,
            mp,
            grid,
            store,
            plan: SolverPlan::new(sweep_opts),
            iters_done: 0,
            forcing: BtForcing::new(&prob),
            fwd: BlockTriForwardKernel::new(prob, &scratch, &rhs),
            bwd: BlockTriBackwardKernel::new(&scratch, &rhs),
        }
    }

    /// One distributed BT iteration.
    pub fn iterate<C: Communicator>(&mut self, comm: &mut C) {
        // 1. Halo exchange of every component. All components share one
        // compiled halo plan (the schedule depends only on the width).
        for c in 0..NCOMP {
            self.plan.exchange_halos(
                comm,
                &mut self.store,
                &self.mp,
                fields::u(c),
                1,
                10_000 + c as u64 * 10,
            );
        }

        // 2. compute_rhs. (Stage spans when telemetry is on, mirroring SP.)
        let t_rhs = comm.tracer().is_some().then(std::time::Instant::now);
        self.compute_rhs();
        if let (Some(t0), Some(tr)) = (t_rhs, comm.tracer()) {
            tr.stage(t0, "compute_rhs");
        }

        // 3. Block solves: forward + backward per dimension.
        for dim in 0..3 {
            self.plan.sweep(
                comm,
                &mut self.store,
                &self.mp,
                dim,
                Direction::Forward,
                &self.fwd,
                20_000 + dim as u64 * 1_000,
            );
            self.plan.sweep(
                comm,
                &mut self.store,
                &self.mp,
                dim,
                Direction::Backward,
                &self.bwd,
                30_000 + dim as u64 * 1_000,
            );
        }

        // 4. add.
        let t_add = comm.tracer().is_some().then(std::time::Instant::now);
        for tile in &mut self.store.tiles {
            let (u, rest) = tile.fields.split_at_mut(NCOMP);
            for (uc, rhs) in u.iter_mut().zip(&rest[..NCOMP]) {
                // `rhs` has no halo: its storage is the interior, row-major.
                let mut rhs_rows = rhs.raw().chunks_exact(uc.interior()[2]);
                uc.for_each_interior_row_mut(|_, row| {
                    for (x, r) in row.iter_mut().zip(rhs_rows.next().expect("rhs row")) {
                        *x += r;
                    }
                });
            }
        }
        if let (Some(t0), Some(tr)) = (t_add, comm.tracer()) {
            tr.stage(t0, "add");
        }
        self.iters_done += 1;
    }

    /// Every component's stencil into its `rhs`, one interior row of each
    /// tile at a time.
    fn compute_rhs(&mut self) {
        let prob = self.prob;
        let h2 = prob.h2();
        for tile in &mut self.store.tiles {
            let o: [usize; 3] = tile.region.origin[..].try_into().expect("3-D tile");
            let (u, rest) = tile.fields.split_at_mut(NCOMP);
            let rhs = &mut rest[..NCOMP];
            let [n0, n1, n2]: [usize; 3] = u[0].interior().try_into().expect("3-D tile");
            for c in 0..NCOMP {
                let (uc, next) = (&u[c], &u[(c + 1) % NCOMP]);
                // `rhs` has no halo: its storage is the interior, row-major.
                let mut rows = rhs[c].raw_mut().chunks_exact_mut(n2);
                for i in 0..n0 {
                    for j in 0..n1 {
                        let [xlo, xhi, ylo, yhi, z] = uc.stencil_rows(i, j);
                        let next_row = &next.stencil_rows(i, j)[4][1..n2 + 1];
                        let (f, fz) = self.forcing.row(c, o[0] + i, o[1] + j, o[2]..o[2] + n2);
                        let out = rows.next().expect("rhs row");
                        for (k, v) in out.iter_mut().enumerate() {
                            let nb = [[xlo[k], xhi[k]], [ylo[k], yhi[k]], [z[k], z[k + 2]]];
                            let fk = f * fz[k];
                            *v = bt_rhs_at(&prob, &h2, z[k + 1], &nb, next_row[k], fk);
                        }
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

    /// Global L2 norm over all components (collective).
    pub fn norm<C: Communicator>(&mut self, comm: &mut C) -> f64 {
        let mut local = 0.0;
        for tile in &self.store.tiles {
            for c in 0..NCOMP {
                tile.field(fields::u(c)).for_each_interior_row(|_, row| {
                    for v in row {
                        local += v * v;
                    }
                });
            }
        }
        comm.allreduce_sum(&[local])[0].sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialBt;
    use mp_core::cost::CostModel;
    use mp_grid::ArrayD;
    use mp_runtime::threaded::run_threaded;

    #[test]
    fn parallel_matches_serial() {
        let prob = BtProblem::new([6, 6, 6], 0.002);
        let mut serial = SerialBt::new(prob);
        serial.run(2);
        for p in [4u64, 6] {
            let mp = Multipartitioning::optimal(p, &[6, 6, 6], &CostModel::origin2000_like());
            let results = run_threaded(p, |comm| {
                let mut bt = ParallelBt::new(comm.rank(), prob, mp.clone());
                bt.run(comm, 2);
                let norm = bt.norm(comm);
                (bt.store, norm)
            });
            for c in 0..NCOMP {
                let mut global = ArrayD::zeros(&prob.eta);
                for (store, _) in &results {
                    store.gather_into(fields::u(c), &mut global);
                }
                assert_eq!(
                    global.max_abs_diff(&serial.u[c]),
                    0.0,
                    "p={p} component {c} diverged"
                );
            }
            assert!((results[0].1 - serial.norm()).abs() < 1e-12);
        }
    }

    #[test]
    fn plans_built_exactly_once_per_run() {
        // The solver plan (all directional sweeps + one shared halo plan)
        // must be built during the first timestep and reused verbatim
        // afterwards — no rebuilds, no matter how many iterations run.
        let prob = BtProblem::new([6, 6, 6], 0.002);
        let mp = Multipartitioning::optimal(4, &[6, 6, 6], &CostModel::origin2000_like());
        let builds = run_threaded(4, |comm| {
            let mut bt = ParallelBt::new(comm.rank(), prob, mp.clone());
            bt.run(comm, 1);
            let after_first = bt.plan.builds();
            bt.run(comm, 2);
            (after_first, bt.plan.builds())
        });
        for (after_first, after_all) in builds {
            assert_eq!(
                after_first, 7,
                "expected 3 dims × 2 directions + 1 halo plan"
            );
            assert_eq!(after_first, after_all, "plans rebuilt after timestep 1");
        }
    }

    #[test]
    fn field_layout_consistent() {
        let defs = bt_fields();
        assert_eq!(defs.len(), 2 * NCOMP + NCOMP * NCOMP);
        assert_eq!(defs[fields::u(3)].name, "u3");
        assert_eq!(defs[fields::rhs(0)].name, "rhs0");
        assert_eq!(defs[fields::scratch(24)].name, "cw24");
        assert_eq!(defs.last().map(|d| d.name.as_str()), Some("cw24"));
        assert_eq!(defs[fields::u(0)].halo, 1);
        assert_eq!(defs[fields::rhs(0)].halo, 0);
    }
}
