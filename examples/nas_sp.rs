//! Run the simplified NAS SP benchmark: functional (threaded) execution with
//! serial verification, plus a simulated performance estimate for the same
//! configuration.
//!
//! ```text
//! cargo run --release --example nas_sp -- [p] [class|n] [iters]
//! ```
//!
//! Defaults: p = 6, a small custom 12³ problem, 2 iterations. Pass a NAS
//! class letter (S/W/A/B) for the standard sizes (functional runs of class
//! B take a while in a debug build — use `--release`).

use multipartition::nassp::parallel::fields;
use multipartition::nassp::problem::SpWorkFactors;
use multipartition::nassp::simulate::{simulate_sp, SpVersion};
use multipartition::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let p: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(6);
    let (n, label) = match args.get(2) {
        Some(s) => match Class::parse(s) {
            Some(c) => (c.problem_size(), format!("class {c}")),
            None => {
                let n: usize = s.parse().expect("class letter or grid size");
                (n, format!("{n}³"))
            }
        },
        None => (12, "12³ (custom)".to_string()),
    };
    let iters: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2);

    let prob = SpProblem::new([n, n, n], 0.001);
    println!("simplified NAS SP, {label}, p = {p}, {iters} iteration(s)");

    let mp = Multipartitioning::optimal(
        p,
        &[n as u64, n as u64, n as u64],
        &CostModel::origin2000_like(),
    );
    println!("generalized multipartitioning γ = {:?}", mp.gammas());

    // Functional distributed run.
    let t0 = std::time::Instant::now();
    let results = run_threaded(p, |comm| {
        let mut sp = ParallelSp::new(comm.rank(), prob, mp.clone());
        sp.run(comm, iters);
        let norm = sp.u_norm(comm);
        (sp.store, norm)
    });
    let wall = t0.elapsed();
    println!(
        "threaded run: {:.3}s wall, ‖u‖₂ = {:.12}",
        wall.as_secs_f64(),
        results[0].1
    );

    // Serial verification.
    let mut serial = SerialSp::new(prob);
    serial.run(iters);
    let mut global = ArrayD::zeros(&prob.eta);
    for (store, _) in &results {
        store.gather_into(fields::U, &mut global);
    }
    let diff = global.max_abs_diff(&serial.u);
    println!("verification: max |parallel − serial| = {diff:e}");
    assert_eq!(diff, 0.0, "SP verification failed");
    println!("VERIFICATION SUCCESSFUL (bit-identical) ✓");

    // Simulated performance at this configuration.
    let machine = CostModel::sp_origin2000();
    let factors = SpWorkFactors::default();
    if let Some(r) = simulate_sp(
        SpVersion::GeneralizedDhpf,
        &prob,
        p,
        &machine,
        &factors,
        iters,
    ) {
        let serial_t =
            multipartition::nassp::simulate::serial_sp_seconds(&prob, &machine, &factors, iters);
        println!(
            "simulated Origin-2000-like time: {:.4e}s ({} messages, {} elements) — speedup {:.2} on {p} CPUs",
            r.seconds,
            r.messages,
            r.elements,
            serial_t / r.seconds
        );
    }
}
