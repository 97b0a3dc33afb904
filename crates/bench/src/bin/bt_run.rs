//! NAS-style driver for the simplified BT benchmark (block-tridiagonal,
//! 5×5 blocks): functional threaded run, serial verification, and
//! communication reporting.
//!
//! ```text
//! bt_run [n] [p] [iters]
//! ```
//! Defaults: 8³ grid, p = 4, 2 iterations.

use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_grid::ArrayD;
use mp_nasbt::parallel::{fields, ParallelBt};
use mp_nasbt::problem::BtProblem;
use mp_nasbt::serial::SerialBt;
use mp_nasbt::simulate::{serial_bt_seconds, simulate_bt, BtWorkFactors, BT_CARRY_PER_LINE};
use mp_nasbt::NCOMP;
use mp_runtime::threaded::run_threaded;
use mp_runtime::Communicator;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let p: u64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(4);
    let iters: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2);
    let prob = BtProblem::new([n, n, n], 0.002);

    println!(" Simplified NAS BT Benchmark — generalized multipartitioning");
    println!(
        " Grid {n}×{n}×{n} × {NCOMP} components, {iters} iterations, {p} processes \
         (block carries: {BT_CARRY_PER_LINE} floats/line)"
    );
    let mp = Multipartitioning::optimal(
        p,
        &[n as u64, n as u64, n as u64],
        &CostModel::origin2000_like(),
    );
    println!(" Partitioning γ = {:?}", mp.gammas());

    let t0 = std::time::Instant::now();
    let results = run_threaded(p, |comm| {
        let mut bt = ParallelBt::new(comm.rank(), prob, mp.clone());
        bt.run(comm, iters);
        let norm = bt.norm(comm);
        (bt.store, norm)
    });
    println!(
        " Time: {:.3}s wall, ‖u‖ = {:.12}",
        t0.elapsed().as_secs_f64(),
        results[0].1
    );

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
    if worst == 0.0 {
        println!(" Verification: SUCCESSFUL (bit-identical to serial, all {NCOMP} components)");
    } else {
        println!(" Verification: FAILED (max |Δ| = {worst:e})");
        std::process::exit(1);
    }

    // Simulated class-A-like performance point.
    let machine = CostModel::sp_origin2000();
    let f = BtWorkFactors::default();
    let big = BtProblem::new([64, 64, 64], 0.001);
    if let Some(r) = simulate_bt(&big, 16, &machine, &f, 1) {
        let serial_t = serial_bt_seconds(&big, &machine, &f, 1);
        println!(
            " Simulated 64³ on 16 CPUs: {:.4e}s/iter — speedup {:.2}, {} msgs, {} elements",
            r.seconds,
            serial_t / r.seconds,
            r.messages,
            r.elements
        );
    }
}
