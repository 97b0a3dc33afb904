//! **Titular generality experiment** — multipartitioning *d*-dimensional
//! arrays, `d ∈ {2, 3, 4, 5}`.
//!
//! The paper's algorithms are stated for arbitrary `d`; its evaluation only
//! exercises `d = 3` (NAS SP). This binary demonstrates the general case:
//! for each dimensionality it searches the optimal partitioning for several
//! processor counts, verifies the constructed mapping, and simulates a full
//! ADI pass (one sweep per dimension), reporting parallel efficiency.
//!
//! Usage: `multid [elements_per_dim_budget]` (default: ~16M element domains).

use mp_bench::render_table;
use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_grid::TileGrid;
use mp_runtime::sim::SimNet;
use mp_sweep::simulate::{simulate_multipart_sweep, MultipartGeometry, SweepWork};

fn main() {
    let model = CostModel::origin2000_like();
    let machine = CostModel::origin2000_like();

    println!("Generalized multipartitioning across array dimensionalities\n");
    for d in 2..=5usize {
        // Pick a per-dimension extent giving ~16M elements.
        let ext = match d {
            2 => 4096usize,
            3 => 256,
            4 => 64,
            5 => 28,
            _ => unreachable!(),
        };
        let eta_us = vec![ext; d];
        let eta: Vec<u64> = eta_us.iter().map(|&e| e as u64).collect();
        let serial: f64 = eta_us.iter().product::<usize>() as f64 * d as f64 * machine.k1;

        let mut rows = Vec::new();
        for p in [4u64, 6, 12, 16, 24] {
            let mp = Multipartitioning::optimal(p, &eta, &model);
            let gam: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
            let Ok(grid) = TileGrid::try_new(&eta_us, &gam) else {
                continue; // over-cut
            };
            // Verify on a coarse grid (brute force is exponential in tiles).
            if mp.partitioning.total_tiles() <= 50_000 {
                mp.verify().expect("balance + neighbor");
            }
            let geo = MultipartGeometry::new(&mp, &grid);
            let mut net = SimNet::new(p, machine);
            for dim in 0..d {
                simulate_multipart_sweep(
                    &mut net,
                    &geo,
                    dim,
                    &SweepWork::default(),
                    dim as u64 * 1_000,
                );
            }
            let t = net.makespan();
            rows.push(vec![
                p.to_string(),
                format!("{:?}", mp.gammas()),
                format!("{}", mp.partitioning.tiles_per_proc(p)),
                format!("{:.1}×", serial / t),
                format!("{:.0}%", serial / t / p as f64 * 100.0),
            ]);
        }
        println!("d = {d}, domain {eta_us:?}:");
        println!(
            "{}",
            render_table(&["p", "γ", "tiles/proc", "speedup", "efficiency"], &rows)
        );
    }
    println!(
        "expected: optimal γ exists for every (d, p); mappings verify; efficiency stays\n\
         high but tiles/processor grows when p's factors fit d poorly (the compactness\n\
         effect §6 discusses)."
    );
}
