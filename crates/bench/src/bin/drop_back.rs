//! **§6 drop-back reproduction** — when using *fewer* processors is faster.
//!
//! The paper's example: for the 102³ class-B SP domain, the 5×10×10
//! decomposition on 50 processors is slower than 7×7×7 on 49. This binary
//! runs (a) the analytic drop-back search of `mp-core` and (b) full SP
//! iteration simulations for every p in a window, reporting the fastest
//! processor count.
//!
//! Usage: `drop_back [p] [n]` (defaults 50, 102).

use mp_bench::render_table;
use mp_core::cost::CostModel;
use mp_core::search::drop_back_search;
use mp_nassp::problem::{SpProblem, SpWorkFactors};
use mp_nassp::simulate::{simulate_sp, SpVersion};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let p: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(50);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(102);

    let eta = [n as u64, n as u64, n as u64];
    println!("Drop-back search: domain {n}³, up to {p} processors\n");

    // (a) analytic, as §6 proposes (cost model T(p') over p' ∈ [q^{d−1}, p]).
    let model = CostModel::origin2000_like();
    let cands = drop_back_search(p, &eta, &model);
    let rows: Vec<Vec<String>> = cands
        .iter()
        .take(8)
        .map(|c| {
            vec![
                c.procs.to_string(),
                format!("{:?}", c.partitioning.gammas),
                format!("{:.4e}", c.total_time),
            ]
        })
        .collect();
    println!("analytic cost model (best 8):");
    println!("{}", render_table(&["p'", "γ", "T(p') seconds"], &rows));

    // (b) simulated SP iterations.
    let prob = SpProblem::new([n, n, n], 0.001);
    let machine = CostModel::sp_origin2000();
    let factors = SpWorkFactors::default();
    let lo = cands.iter().map(|c| c.procs).min().unwrap();
    let mut sim_rows = Vec::new();
    let mut best: Option<(u64, f64)> = None;
    for pp in lo..=p {
        if let Some(r) = simulate_sp(SpVersion::GeneralizedDhpf, &prob, pp, &machine, &factors, 1) {
            if best.is_none() || r.seconds < best.unwrap().1 {
                best = Some((pp, r.seconds));
            }
            sim_rows.push(vec![
                pp.to_string(),
                format!("{:?}", r.gammas),
                format!("{:.4e}", r.seconds),
                r.messages.to_string(),
            ]);
        }
    }
    println!("simulated SP iteration (all candidates):");
    println!(
        "{}",
        render_table(&["p'", "γ", "sim seconds", "messages"], &sim_rows)
    );
    let (bp, bt) = best.unwrap();
    println!("fastest simulated processor count: p' = {bp} ({bt:.4e} s)");
    if p == 50 {
        println!(
            "paper's §6 expectation: 49 (7×7×7) beats 50 (5×10×10) — {}",
            if bp == 49 {
                "reproduced"
            } else {
                "NOT reproduced"
            }
        );
    }
}
