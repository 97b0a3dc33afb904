//! Simplified NAS BT (block-tridiagonal, 5×5 blocks) on a generalized
//! multipartitioning: functional run, serial verification, and simulated
//! communication comparison against SP.
//!
//! ```text
//! cargo run --release --example bt_demo -- [p] [n] [iters]
//! ```

use multipartition::nasbt::parallel::fields;
use multipartition::nasbt::simulate::{simulate_bt, BtWorkFactors};
use multipartition::nasbt::{BtProblem, ParallelBt, SerialBt, NCOMP};
use multipartition::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let p: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(4);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(8);
    let iters: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2);

    let prob = BtProblem::new([n, n, n], 0.002);
    println!("simplified NAS BT: {n}³ grid, {NCOMP} components, p = {p}, {iters} iteration(s)");

    let mp = Multipartitioning::optimal(
        p,
        &[n as u64, n as u64, n as u64],
        &CostModel::origin2000_like(),
    );
    println!("partitioning γ = {:?}", mp.gammas());

    let results = run_threaded(p, |comm| {
        let mut bt = ParallelBt::new(comm.rank(), prob, mp.clone());
        bt.run(comm, iters);
        let norm = bt.norm(comm);
        (bt.store, norm)
    });

    let mut serial = SerialBt::new(prob);
    serial.run(iters);

    let mut worst: f64 = 0.0;
    for c in 0..NCOMP {
        let mut global = ArrayD::zeros(&prob.eta);
        for (store, _) in &results {
            store.gather_into(fields::u(c), &mut global);
        }
        worst = worst.max(global.max_abs_diff(&serial.u[c]));
    }
    println!("max |parallel − serial| over all components = {worst:e}");
    assert_eq!(worst, 0.0, "BT verification failed");
    println!(
        "VERIFICATION SUCCESSFUL (bit-identical) ✓  ‖u‖ = {:.10}",
        results[0].1
    );

    // Simulated cost at class-A-like scale: show BT's heavier sweeps.
    let machine = CostModel::sp_origin2000();
    if let Some(r) = simulate_bt(
        &BtProblem::new([64, 64, 64], 0.001),
        16,
        &machine,
        &BtWorkFactors::default(),
        1,
    ) {
        println!(
            "simulated 64³ on 16 CPUs: {:.4e}s/iteration, {} messages, {} elements \
             (5×5-block carries: 30 floats per line vs SP's 10)",
            r.seconds, r.messages, r.elements
        );
    }
}
