//! Text Gantt chart of a simulated sweep — makes the pipeline structure the
//! paper argues about *visible*: phase-synchronized multipartitioned sweeps
//! (all ranks busy every phase) vs the wavefront's staircase fill/drain.
//!
//! Usage: `sweep_trace [p] [n] [granularity]` (defaults 8, 32, 16).
//! Legend: `#` compute, `s` send overhead, `.` waiting, ` ` idle.

use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_grid::TileGrid;
use mp_runtime::sim::{SimEvent, SimNet};
use mp_sweep::baselines::BlockUnipartition;
use mp_sweep::simulate::{
    simulate_multipart_sweep, simulate_wavefront_sweep, MultipartGeometry, SweepWork,
};

const WIDTH: usize = 100;

fn render(net: &SimNet, p: u64, label: &str) {
    let span = net.makespan();
    let util = net.utilization();
    let mean_util = util.iter().sum::<f64>() / p as f64;
    println!(
        "{label}  (makespan {span:.4e}s, {} messages, mean utilization {:.0}%)",
        net.stats.messages,
        mean_util * 100.0
    );
    let mut lanes = vec![vec![' '; WIDTH]; p as usize];
    let col = |t: f64| ((t / span) * WIDTH as f64).min(WIDTH as f64 - 1.0) as usize;
    for ev in net.events() {
        let (rank, s, e, ch) = match *ev {
            SimEvent::Compute { rank, start, end } => (rank, start, end, '#'),
            SimEvent::Send { rank, start, end } => (rank, start, end, 's'),
            SimEvent::Wait { rank, start, end } => (rank, start, end, '.'),
        };
        let (lo, hi) = (col(s), col(e));
        for cell in &mut lanes[rank as usize][lo..=hi] {
            *cell = ch;
        }
    }
    for (r, lane) in lanes.iter().enumerate() {
        println!("  rank {r:>2} |{}|", lane.iter().collect::<String>());
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let p: u64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(8);
    let n: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(32);
    let granularity: usize = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(16);

    let machine = CostModel::sp_origin2000();
    let work = SweepWork::default();
    println!("Simulated sweep timelines, {n}³ domain, p = {p} (# compute, s send, . wait)\n");

    // Multipartitioned sweep.
    let mp = Multipartitioning::optimal(
        p,
        &[n as u64, n as u64, n as u64],
        &CostModel::origin2000_like(),
    );
    let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
    let grid = TileGrid::new(&[n, n, n], &gam);
    let geo = MultipartGeometry::new(&mp, &grid);
    let mut net = SimNet::new(p, machine);
    net.enable_trace();
    simulate_multipart_sweep(&mut net, &geo, 0, &work, 0);
    render(
        &net,
        p,
        &format!("multipartitioned sweep along dim 0 (γ = {:?})", mp.gammas()),
    );

    // Wavefront sweep.
    let part = BlockUnipartition::new(p, &[n, n, n], 0);
    let mut net = SimNet::new(p, machine);
    net.enable_trace();
    simulate_wavefront_sweep(&mut net, &part, &work, granularity, 0);
    render(
        &net,
        p,
        &format!("wavefront sweep along dim 0 (granularity {granularity} lines)"),
    );
    println!(
        "the wavefront shows the pipeline fill (staircase of '.') the paper's §1\n\
         describes; the multipartitioned sweep keeps every rank computing in every phase."
    );
}
