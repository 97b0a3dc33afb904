//! Randomized tests for the SP application: distributed == serial for
//! random grids (with ragged tiles), processor counts, and solver kinds.

use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_grid::ArrayD;
use mp_nassp::parallel::{fields, ParallelSp};
use mp_nassp::problem::{SolverKind, SpProblem};
use mp_nassp::serial::SerialSp;
use mp_runtime::threaded::run_threaded;
use mp_runtime::Communicator;
use mp_testkit::cases;

#[test]
fn distributed_equals_serial_random_configs() {
    cases(0x5b01, 12, |rng| {
        let mut eta = [
            rng.usize_in(6, 10),
            rng.usize_in(6, 10),
            rng.usize_in(6, 10),
        ];
        let p = rng.u64_in(2, 6);
        let dt_millis = rng.u64_in(1, 4);
        let pentadiagonal = rng.bool();
        let mp =
            Multipartitioning::optimal(p, &eta.map(|e| e as u64), &CostModel::origin2000_like());
        let gammas: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        // Skip configurations that over-cut this (small) grid.
        if !gammas.iter().zip(&eta).all(|(&g, &e)| g <= e) {
            return;
        }
        // Make at least one tile row ragged (η_i not divisible by γ_i).
        if eta.iter().zip(&gammas).all(|(&e, &g)| e % g == 0) {
            let cut = gammas
                .iter()
                .position(|&g| g > 1)
                .expect("p ≥ 2 cuts a dim");
            eta[cut] += 1;
        }
        let mut prob = SpProblem::new(eta, dt_millis as f64 * 1e-3);
        if pentadiagonal {
            prob.solver = SolverKind::Pentadiagonal;
        }

        let mut serial = SerialSp::new(prob);
        serial.run(2);

        let results = run_threaded(p, |comm| {
            let mut sp = ParallelSp::new(comm.rank(), prob, mp.clone());
            sp.run(comm, 2);
            sp.store
        });
        let mut global = ArrayD::zeros(&prob.eta);
        for store in &results {
            store.gather_into(fields::U, &mut global);
        }
        assert_eq!(global.max_abs_diff(&serial.u), 0.0);
        assert!(serial.u_norm().is_finite());
    });
}

#[test]
fn serial_norm_is_stable_over_iterations() {
    cases(0x5b02, 12, |rng| {
        let n = rng.usize_in(6, 9);
        let mut prob = SpProblem::new([n, n, n], 1e-3);
        if rng.bool() {
            prob.solver = SolverKind::Pentadiagonal;
        }
        let mut sp = SerialSp::new(prob);
        sp.run(4);
        let norm = sp.u_norm();
        assert!(norm.is_finite());
        assert!(norm < 1e4, "norm {norm} exploded");
    });
}
