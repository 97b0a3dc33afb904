//! **Table 1 reproduction** — NAS SP (class B, 102³) speedups of the
//! hand-coded diagonal-multipartitioned version vs the dHPF-generated
//! generalized-multipartitioned version, at the paper's processor counts.
//!
//! Timing comes from the discrete-event simulator (`mp-runtime::sim`) with
//! the SP-calibrated Origin-2000-like machine model — absolute numbers are
//! not comparable to the paper's wall-clock measurements, but the shape is:
//! near-linear speedups for both versions, blank hand-coded cells at
//! non-squares, and the 49-beats-50 anomaly.
//!
//! Usage: `table1 [class] [iterations]` (defaults: B, 1).

use mp_bench::{fmt_speedup, render_table};
use mp_nassp::classes::Class;
use mp_nassp::problem::{SpProblem, SpWorkFactors};
use mp_nassp::simulate::{table1, TABLE1_PROCS};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let csv = args.iter().any(|a| a == "--csv");
    args.retain(|a| a != "--csv");
    let class = args
        .get(1)
        .and_then(|s| Class::parse(s))
        .unwrap_or(Class::B);
    let iterations: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);

    let prob = SpProblem::new(class.eta(), class.dt());
    let machine = mp_core::cost::CostModel::sp_origin2000();
    let factors = SpWorkFactors::default();

    if csv {
        // Machine-readable output for plotting.
        println!("p,hand_coded,dhpf,gamma");
        for r in table1(&prob, &machine, &factors, iterations, &TABLE1_PROCS) {
            println!(
                "{},{},{},{}",
                r.p,
                r.hand_coded.map(|v| format!("{v:.4}")).unwrap_or_default(),
                r.dhpf.map(|v| format!("{v:.4}")).unwrap_or_default(),
                r.gammas
                    .iter()
                    .map(u64::to_string)
                    .collect::<Vec<_>>()
                    .join("x")
            );
        }
        return;
    }

    println!(
        "NAS SP class {class} ({n}³), {iterations} iteration(s), simulated Origin-2000-like machine",
        n = class.problem_size()
    );
    println!(
        "(α = {:.0} µs/message, β = {:.0} ns/element at p=1, scalable bandwidth, K1 = {:.0} ns/element)\n",
        machine.k2 * 1e6,
        machine.k3 * 1e9,
        machine.k1 * 1e9
    );

    let rows = table1(&prob, &machine, &factors, iterations, &TABLE1_PROCS);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.p.to_string(),
                fmt_speedup(r.hand_coded),
                fmt_speedup(r.dhpf),
                r.pct_diff.map(|d| format!("{d:.2}")).unwrap_or_default(),
                format!("{:?}", r.gammas),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["# CPUs", "hand-coded", "dHPF", "% diff.", "γ (generalized)"],
            &table_rows
        )
    );

    // Shape checks mirrored from the paper's narrative.
    let get = |p: u64| rows.iter().find(|r| r.p == p).unwrap();
    println!("shape checks:");
    println!(
        "  speedup(49) = {:.2} > speedup(50) = {:.2}  ({})",
        get(49).dhpf.unwrap(),
        get(50).dhpf.unwrap(),
        if get(49).dhpf > get(50).dhpf {
            "ok — the paper's drop-back anomaly"
        } else {
            "MISMATCH"
        }
    );
    let eff81 = get(81).dhpf.unwrap() / 81.0;
    println!("  parallel efficiency at p=81: {:.0}%", eff81 * 100.0);
}
