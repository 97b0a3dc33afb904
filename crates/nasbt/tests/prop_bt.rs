//! Randomized tests for the BT application: distributed == serial for
//! random grids (with ragged tiles) and processor counts.

use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_grid::ArrayD;
use mp_nasbt::parallel::{fields, ParallelBt};
use mp_nasbt::{BtProblem, SerialBt, NCOMP};
use mp_runtime::threaded::run_threaded;
use mp_runtime::Communicator;
use mp_testkit::cases;

#[test]
fn distributed_equals_serial_random_configs() {
    cases(0x5b03, 8, |rng| {
        let mut eta = [rng.usize_in(5, 8), rng.usize_in(5, 8), rng.usize_in(5, 8)];
        let p = rng.u64_in(2, 6);
        let dt_millis = rng.u64_in(1, 4);
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
        let prob = BtProblem::new(eta, dt_millis as f64 * 1e-3);

        let mut serial = SerialBt::new(prob);
        serial.run(2);

        let results = run_threaded(p, |comm| {
            let mut bt = ParallelBt::new(comm.rank(), prob, mp.clone());
            bt.run(comm, 2);
            bt.store
        });
        for c in 0..NCOMP {
            let mut global = ArrayD::zeros(&prob.eta);
            for store in &results {
                store.gather_into(fields::u(c), &mut global);
            }
            assert_eq!(global.max_abs_diff(&serial.u[c]), 0.0, "component {c}");
        }
        assert!(serial.norm().is_finite());
    });
}
