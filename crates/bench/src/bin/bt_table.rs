//! **Extension table** — BT strong scaling at the Table 1 processor counts.
//!
//! The paper evaluates SP only; the dHPF project targeted BT as well. This
//! regenerates a Table-1-style speedup column for the simplified BT (5×5
//! block-tridiagonal solves, 30-float carries) so the two benchmarks'
//! scaling can be compared: BT's heavier per-element compute makes it
//! *more* scalable at a given machine balance, despite heavier messages.
//!
//! Usage: `bt_table [n]` (default 64 — class-A-like).

use mp_bench::render_table;
use mp_nasbt::problem::BtProblem;
use mp_nasbt::simulate::{serial_bt_seconds, simulate_bt, BtWorkFactors};
use mp_nassp::problem::{SpProblem, SpWorkFactors};
use mp_nassp::simulate::{simulate_sp, SpVersion, TABLE1_PROCS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(64);
    let machine = mp_core::cost::CostModel::sp_origin2000();
    let btf = BtWorkFactors::default();
    let spf = SpWorkFactors::default();
    let bt_prob = BtProblem::new([n, n, n], 0.001);
    let sp_prob = SpProblem::new([n, n, n], 0.001);
    let bt_serial = serial_bt_seconds(&bt_prob, &machine, &btf, 1);

    println!("BT vs SP strong scaling, {n}³ domain, simulated Origin-2000-like machine\n");
    let mut rows = Vec::new();
    for &p in TABLE1_PROCS.iter() {
        let bt = simulate_bt(&bt_prob, p, &machine, &btf, 1);
        let sp = simulate_sp(SpVersion::GeneralizedDhpf, &sp_prob, p, &machine, &spf, 1);
        let (Some(bt), Some(sp)) = (bt, sp) else {
            continue;
        };
        let sp_serial = mp_nassp::simulate::serial_sp_seconds(&sp_prob, &machine, &spf, 1);
        rows.push(vec![
            p.to_string(),
            format!("{:?}", bt.gammas),
            format!("{:.2}", bt_serial / bt.seconds),
            format!("{:.0}%", bt_serial / bt.seconds / p as f64 * 100.0),
            format!("{:.2}", sp_serial / sp.seconds),
            format!("{:.0}%", sp_serial / sp.seconds / p as f64 * 100.0),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["p", "γ", "BT speedup", "BT eff.", "SP speedup", "SP eff."],
            &rows
        )
    );
    println!(
        "expected: both near-linear; BT efficiency ≥ SP's at every p (its block \n\
         operations raise the compute:communication ratio)."
    );
}
