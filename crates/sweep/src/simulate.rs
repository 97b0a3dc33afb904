//! Timing drivers: replay sweep schedules on the discrete-event simulator.
//!
//! The multipartitioned driver mirrors the compiled executor one-to-one —
//! same phases, same message pattern, same aggregated message sizes — but
//! charges virtual time on a [`SimNet`] instead of moving data. The
//! wavefront, transpose and local drivers model the two classical baselines
//! of §1 over a [`BlockUnipartition`]. This is the performance substrate
//! standing in for the paper's 81-CPU Origin 2000 (see `mp-runtime::sim`).
//!
//! `work_per_element` scales the machine's base per-element compute time so
//! callers can model kernels of different intensity (e.g. an SP tridiagonal
//! solve does several times the work of a prefix sum).

use mp_core::multipart::Multipartitioning;
use mp_grid::TileGrid;
use mp_runtime::sim::SimNet;

use crate::baselines::{lines_of, BlockUnipartition};

/// Workload intensity of one sweep pass.
#[derive(Debug, Clone, Copy)]
pub struct SweepWork {
    /// Compute cost multiplier per element relative to the machine's
    /// `elem_compute`.
    pub work_per_element: f64,
    /// `f64` values carried across a tile boundary per line.
    pub carry_len: u64,
}

impl Default for SweepWork {
    fn default() -> Self {
        SweepWork {
            work_per_element: 1.0,
            carry_len: 1,
        }
    }
}

/// Precomputed per-rank geometry for simulating multipartitioned sweeps —
/// build once, reuse across sweeps/iterations.
#[derive(Debug, Clone)]
pub struct MultipartGeometry {
    /// Processor count.
    pub p: u64,
    /// γ tile counts.
    pub gammas: Vec<u64>,
    /// `volumes[rank][dim][slab]` = total elements this rank owns in that
    /// slab of a sweep along `dim`.
    pub volumes: Vec<Vec<Vec<u64>>>,
    /// `lines[rank][dim][slab]` = total cross-section lines of this rank's
    /// tiles in that slab (carry count per communication).
    pub lines: Vec<Vec<Vec<u64>>>,
    /// `neighbor_fwd[rank][dim]` = downstream rank one step forward.
    pub neighbor_fwd: Vec<Vec<u64>>,
    /// `neighbor_bwd[rank][dim]` = upstream rank (inverse of the above).
    pub neighbor_bwd: Vec<Vec<u64>>,
}

impl MultipartGeometry {
    /// Extract geometry from a multipartitioning over a concrete tile grid.
    pub fn new(mp: &Multipartitioning, grid: &TileGrid) -> Self {
        let p = mp.p;
        let d = mp.dims();
        let gammas = mp.gammas().to_vec();
        let mut volumes = vec![vec![Vec::new(); d]; p as usize];
        let mut lines = vec![vec![Vec::new(); d]; p as usize];
        for rank in 0..p {
            let tiles = mp.tiles_of(rank);
            for dim in 0..d {
                let mut vol = vec![0u64; gammas[dim] as usize];
                let mut lin = vec![0u64; gammas[dim] as usize];
                for t in &tiles {
                    let coord_us: Vec<usize> = t.iter().map(|&c| c as usize).collect();
                    let region = grid.tile_region(&coord_us);
                    let v = region.len() as u64;
                    let ext_dim = region.extent[dim] as u64;
                    let slab = t[dim] as usize;
                    vol[slab] += v;
                    lin[slab] += v / ext_dim;
                }
                volumes[rank as usize][dim] = vol;
                lines[rank as usize][dim] = lin;
            }
        }
        let neighbor_fwd: Vec<Vec<u64>> = (0..p)
            .map(|r| (0..d).map(|dim| mp.neighbor_rank(r, dim, 1)).collect())
            .collect();
        let neighbor_bwd: Vec<Vec<u64>> = (0..p)
            .map(|r| (0..d).map(|dim| mp.neighbor_rank(r, dim, -1)).collect())
            .collect();
        MultipartGeometry {
            p,
            gammas,
            volumes,
            lines,
            neighbor_fwd,
            neighbor_bwd,
        }
    }
}

/// Simulate one multipartitioned sweep along `dim` (direction is immaterial
/// for timing — schedules are symmetric). Tags `tag_base..tag_base+γ` are
/// used; pass distinct bases for successive sweeps on the same net.
pub fn simulate_multipart_sweep(
    net: &mut SimNet,
    geo: &MultipartGeometry,
    dim: usize,
    work: &SweepWork,
    tag_base: u64,
) {
    let gamma = geo.gammas[dim];
    let elem_t = net.model().k1;
    for phase in 0..gamma {
        for rank in 0..geo.p {
            // Receive this phase's carries.
            if phase > 0 {
                let upstream = geo.neighbor_bwd[rank as usize][dim];
                if upstream != rank {
                    net.recv(rank, upstream, tag_base + phase);
                }
            }
            // Compute the slab.
            let vol = geo.volumes[rank as usize][dim][phase as usize];
            net.compute_seconds(rank, vol as f64 * work.work_per_element * elem_t);
            // Send carries downstream.
            if phase + 1 < gamma {
                let down = geo.neighbor_fwd[rank as usize][dim];
                if down != rank {
                    let elems = geo.lines[rank as usize][dim][phase as usize] * work.carry_len;
                    net.send(rank, down, tag_base + phase + 1, elems);
                }
            }
        }
    }
}

/// Ablation variant of [`simulate_multipart_sweep`]: ship one message **per
/// tile** instead of one aggregated message per rank per phase — what a
/// naive code generator would emit if it ignored the neighbor property
/// (§5's second code-generation issue). Same data volume, `tiles/slab/rank`
/// times the message count.
pub fn simulate_multipart_sweep_unaggregated(
    net: &mut SimNet,
    mp: &Multipartitioning,
    grid: &TileGrid,
    dim: usize,
    work: &SweepWork,
    tag_base: u64,
) {
    let p = mp.p;
    let gamma = mp.gammas()[dim];
    let elem_t = net.model().k1;
    // Per rank, per slab: list of (volume, lines) per tile.
    let mut tiles: Vec<Vec<Vec<(u64, u64)>>> = vec![vec![Vec::new(); gamma as usize]; p as usize];
    for rank in 0..p {
        for t in mp.tiles_of(rank) {
            let cu: Vec<usize> = t.iter().map(|&c| c as usize).collect();
            let region = grid.tile_region(&cu);
            let v = region.len() as u64;
            let lines = v / region.extent[dim] as u64;
            tiles[rank as usize][t[dim] as usize].push((v, lines));
        }
    }
    for phase in 0..gamma {
        for rank in 0..p {
            if phase > 0 {
                let upstream = mp.neighbor_rank(rank, dim, -1);
                if upstream != rank {
                    for _ in 0..tiles[upstream as usize][phase as usize - 1].len() {
                        net.recv(rank, upstream, tag_base + phase);
                    }
                }
            }
            let vol: u64 = tiles[rank as usize][phase as usize]
                .iter()
                .map(|&(v, _)| v)
                .sum();
            net.compute_seconds(rank, vol as f64 * work.work_per_element * elem_t);
            if phase + 1 < gamma {
                let down = mp.neighbor_rank(rank, dim, 1);
                if down != rank {
                    for &(_, lines) in &tiles[rank as usize][phase as usize] {
                        net.send(rank, down, tag_base + phase + 1, lines * work.carry_len);
                    }
                }
            }
        }
    }
}

/// Simulate the halo exchange of one field over a multipartitioning (per
/// dimension, both directions, aggregated per neighbor as in
/// [`crate::compiled::SolverPlan::exchange_halos`]). `width` ghost layers are
/// shipped.
pub fn simulate_halo_exchange(
    net: &mut SimNet,
    mp: &Multipartitioning,
    grid: &TileGrid,
    width: u64,
    tag_base: u64,
) {
    let p = mp.p;
    let d = mp.dims();
    for dim in 0..d {
        if mp.gammas()[dim] < 2 {
            continue;
        }
        for (dir_idx, step) in [(0u64, 1i64), (1, -1)] {
            let tag = tag_base + (dim as u64) * 2 + dir_idx;
            // All sends first (buffered), then receives.
            let mut face_elems = vec![0u64; p as usize];
            for rank in 0..p {
                let mut total = 0u64;
                for t in mp.tiles_of(rank) {
                    let c = t[dim] as i64 + step;
                    if c < 0 || c >= mp.gammas()[dim] as i64 {
                        continue;
                    }
                    let coord_us: Vec<usize> = t.iter().map(|&x| x as usize).collect();
                    let region = grid.tile_region(&coord_us);
                    total += (region.len() / region.extent[dim]) as u64 * width;
                }
                face_elems[rank as usize] = total;
                let to = mp.neighbor_rank(rank, dim, step);
                if to != rank && total > 0 {
                    net.send(rank, to, tag, total);
                }
            }
            for rank in 0..p {
                let from = mp.neighbor_rank(rank, dim, -step);
                if from != rank && face_elems[from as usize] > 0 {
                    net.recv(rank, from, tag);
                }
            }
        }
    }
}

/// Simulate a wavefront sweep along the partitioned axis of a block
/// unipartitioning, with `granularity` lines per pipeline chunk.
pub fn simulate_wavefront_sweep(
    net: &mut SimNet,
    part: &BlockUnipartition,
    work: &SweepWork,
    granularity: usize,
    tag_base: u64,
) {
    let p = part.p;
    let total_lines = lines_of(&part.eta, part.part_dim);
    let chunks = total_lines.div_ceil(granularity);
    let elem_t = net.model().k1;
    for c in 0..chunks {
        let lines_here = if c + 1 < chunks {
            granularity
        } else {
            total_lines - granularity * (chunks - 1)
        };
        for rank in 0..p {
            if rank > 0 {
                net.recv(rank, rank - 1, tag_base + c as u64);
            }
            let (s, e) = part.range_of(rank);
            let seg = e - s;
            net.compute_seconds(
                rank,
                (lines_here * seg) as f64 * work.work_per_element * elem_t,
            );
            if rank + 1 < p {
                net.send(
                    rank,
                    rank + 1,
                    tag_base + c as u64,
                    lines_here as u64 * work.carry_len,
                );
            }
        }
    }
}

/// Simulate a purely local sweep (unpartitioned axis of a block
/// unipartitioning): each rank computes its whole block, no communication.
pub fn simulate_local_sweep(net: &mut SimNet, part: &BlockUnipartition, work: &SweepWork) {
    let elem_t = net.model().k1;
    for rank in 0..part.p {
        let vol: usize = part.block_dims(rank).iter().product();
        net.compute_seconds(rank, vol as f64 * work.work_per_element * elem_t);
    }
}

/// Simulate a dynamic-block sweep along the partitioned axis: all-to-all
/// transpose, local sweep, all-to-all back.
pub fn simulate_transpose_sweep(
    net: &mut SimNet,
    part: &BlockUnipartition,
    other: usize,
    work: &SweepWork,
    tag_base: u64,
) {
    let p = part.p;
    let axis = part.part_dim;
    assert_ne!(axis, other);
    let eta = &part.eta;
    let other_cuts = TileGrid::new(&[eta[other]], &[p as usize]);
    let rest: usize = eta
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != axis && k != other)
        .map(|(_, &e)| e)
        .product();

    let all_to_all = |net: &mut SimNet, tag: u64| {
        // sends
        for r in 0..p {
            let (rs, re) = part.range_of(r);
            for s in 0..p {
                if s == r {
                    continue;
                }
                let (os, oe) = other_cuts.slab_range(0, s as usize);
                let elems = ((re - rs) * (oe - os) * rest) as u64;
                net.send(r, s, tag, elems);
            }
        }
        // receives
        for r in 0..p {
            for s in 0..p {
                if s == r {
                    continue;
                }
                net.recv(r, s, tag);
            }
        }
    };

    all_to_all(net, tag_base);
    // Local sweep over the transposed block: full `axis` extent × own
    // `other` slice × rest.
    let elem_t = net.model().k1;
    for r in 0..p {
        let (os, oe) = other_cuts.slab_range(0, r as usize);
        let vol = eta[axis] * (oe - os) * rest;
        net.compute_seconds(r, vol as f64 * work.work_per_element * elem_t);
    }
    all_to_all(net, tag_base + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp_core::cost::CostModel;
    use mp_core::partition::Partitioning;

    fn machine() -> CostModel {
        CostModel::origin2000_like()
    }

    fn sp_mp(p: u64, n: usize) -> (Multipartitioning, TileGrid) {
        let eta = [n as u64, n as u64, n as u64];
        let mp = Multipartitioning::optimal(p, &eta, &CostModel::origin2000_like());
        let g: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
        (mp, TileGrid::new(&[n, n, n], &g))
    }

    #[test]
    fn geometry_volumes_sum_to_domain() {
        let (mp, grid) = sp_mp(8, 32);
        let geo = MultipartGeometry::new(&mp, &grid);
        for dim in 0..3 {
            let total: u64 = (0..8)
                .map(|r| geo.volumes[r][dim].iter().sum::<u64>())
                .sum();
            assert_eq!(total, 32 * 32 * 32, "dim {dim}");
        }
    }

    #[test]
    fn neighbor_maps_are_permutations() {
        let (mp, grid) = sp_mp(12, 24);
        let geo = MultipartGeometry::new(&mp, &grid);
        for dim in 0..3 {
            let mut seen = [false; 12];
            for r in 0..12usize {
                let n = geo.neighbor_fwd[r][dim] as usize;
                assert!(!seen[n], "dim {dim}: rank {n} has two upstreams");
                seen[n] = true;
                // bwd inverts fwd
                assert_eq!(geo.neighbor_bwd[n][dim] as usize, r);
            }
        }
    }

    #[test]
    fn multipart_sweep_speedup_near_linear() {
        // On the scalable machine, a 64³ sweep on 16 CPUs should run much
        // faster than on 1 CPU (≥ 10× of the ideal 16).
        let (mp, grid) = sp_mp(16, 64);
        let geo = MultipartGeometry::new(&mp, &grid);
        let mut net = SimNet::new(16, machine());
        simulate_multipart_sweep(&mut net, &geo, 0, &SweepWork::default(), 0);
        let t16 = net.makespan();
        let serial = 64.0 * 64.0 * 64.0 * machine().k1;
        let speedup = serial / t16;
        assert!(
            speedup > 10.0 && speedup <= 16.0 + 1e-9,
            "suspicious speedup {speedup}"
        );
        assert!(net.all_delivered());
    }

    #[test]
    fn multipart_sweep_balanced_ranks() {
        // All ranks should finish a sweep at nearly the same time.
        let (mp, grid) = sp_mp(9, 36);
        let geo = MultipartGeometry::new(&mp, &grid);
        let mut net = SimNet::new(9, machine());
        simulate_multipart_sweep(&mut net, &geo, 1, &SweepWork::default(), 0);
        let clocks: Vec<f64> = (0..9).map(|r| net.clock(r)).collect();
        let max = clocks.iter().copied().fold(0.0, f64::max);
        let min = clocks.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            (max - min) / max < 0.2,
            "imbalanced sweep finish times: {clocks:?}"
        );
    }

    #[test]
    fn self_neighbor_sweep_simulates() {
        // p=2, b=(4,2,2): dim-0 neighbors are self; no messages along dim 0.
        let mp = Multipartitioning::from_partitioning(2, Partitioning::new(vec![4, 2, 2]));
        let grid = TileGrid::new(&[8, 8, 8], &[4, 2, 2]);
        let geo = MultipartGeometry::new(&mp, &grid);
        let mut net = SimNet::new(2, machine());
        simulate_multipart_sweep(&mut net, &geo, 0, &SweepWork::default(), 0);
        assert_eq!(net.stats.messages, 0);
        assert!(net.makespan() > 0.0);
    }

    #[test]
    fn wavefront_granularity_tradeoff() {
        // Tiny granularity ⇒ latency-dominated; huge granularity ⇒ no
        // pipelining (serialized). Some middle granularity beats both.
        let part = BlockUnipartition::new(8, &[64, 64, 64], 0);
        let times: Vec<f64> = [1usize, 64, 4096]
            .iter()
            .map(|&g| {
                let mut net = SimNet::new(8, machine());
                simulate_wavefront_sweep(&mut net, &part, &SweepWork::default(), g, 0);
                net.makespan()
            })
            .collect();
        assert!(
            times[1] < times[0] && times[1] < times[2],
            "expected middle granularity to win: {times:?}"
        );
    }

    #[test]
    fn transpose_costs_volume() {
        let part = BlockUnipartition::new(4, &[32, 32, 32], 0);
        let mut net = SimNet::new(4, machine());
        simulate_transpose_sweep(&mut net, &part, 1, &SweepWork::default(), 0);
        // Each all-to-all moves (p−1)/p of the domain; two of them happen.
        let expected_elems = 2 * (32 * 32 * 32) * 3 / 4;
        assert_eq!(net.stats.elements, expected_elems as u64);
        assert!(net.all_delivered());
    }

    #[test]
    fn multipart_beats_baselines_on_full_adi_pass() {
        // The van der Wijngaart result (§1): for a 3-D ADI pass (sweeps
        // along all 3 dimensions), multipartitioning beats both the
        // wavefront unipartitioning (at its best granularity) and the
        // transpose strategy.
        let n = 64usize;
        let p = 16u64;
        let work = SweepWork::default();

        let (mp, grid) = sp_mp(p, n);
        let geo = MultipartGeometry::new(&mp, &grid);
        let mut net = SimNet::new(p, machine());
        for dim in 0..3 {
            simulate_multipart_sweep(&mut net, &geo, dim, &work, 1000 * (dim as u64 + 1));
        }
        let t_multi = net.makespan();

        let part = BlockUnipartition::new(p, &[n, n, n], 0);
        let t_wave = [8usize, 32, 128, 512]
            .iter()
            .map(|&g| {
                let mut net = SimNet::new(p, machine());
                simulate_wavefront_sweep(&mut net, &part, &work, g, 0);
                simulate_local_sweep(&mut net, &part, &work);
                simulate_local_sweep(&mut net, &part, &work);
                net.makespan()
            })
            .fold(f64::INFINITY, f64::min);

        let mut net = SimNet::new(p, machine());
        simulate_transpose_sweep(&mut net, &part, 1, &work, 0);
        simulate_local_sweep(&mut net, &part, &work);
        simulate_local_sweep(&mut net, &part, &work);
        let t_trans = net.makespan();

        assert!(
            t_multi < t_wave && t_multi < t_trans,
            "multipartitioning should win: multi={t_multi:.6} wave={t_wave:.6} trans={t_trans:.6}"
        );
    }

    #[test]
    fn unaggregated_messaging_is_slower_and_chattier() {
        // p = 8, (4,4,2): sweeps along dim 2 have 2 tiles/rank/slab, so the
        // unaggregated variant sends 2× the messages and pays extra α.
        let (mp, grid) = sp_mp(8, 32);
        let geo = MultipartGeometry::new(&mp, &grid);
        // find a dim with >1 tile per rank per slab
        let dim = (0..3)
            .find(|&d| mp.tiles_per_proc_per_slab(d) > 1)
            .expect("p=8 (4,4,2) has an aggregatable dimension");
        let work = SweepWork::default();
        let mut agg = SimNet::new(8, machine());
        simulate_multipart_sweep(&mut agg, &geo, dim, &work, 0);
        let mut unagg = SimNet::new(8, machine());
        simulate_multipart_sweep_unaggregated(&mut unagg, &mp, &grid, dim, &work, 0);
        assert_eq!(
            unagg.stats.messages,
            agg.stats.messages * mp.tiles_per_proc_per_slab(dim),
        );
        assert_eq!(unagg.stats.elements, agg.stats.elements);
        assert!(
            unagg.makespan() > agg.makespan(),
            "aggregation should win: {} vs {}",
            agg.makespan(),
            unagg.makespan()
        );
    }

    #[test]
    fn halo_exchange_simulation_counts() {
        let (mp, grid) = sp_mp(4, 16);
        let mut net = SimNet::new(4, machine());
        simulate_halo_exchange(&mut net, &mp, &grid, 1, 0);
        assert!(net.all_delivered());
        assert!(net.stats.messages > 0);
        // Volume: per dimension with γ_k ≥ 2, both directions ship
        // (γ_k − 1)·(domain cross-section) elements in aggregate.
        let mut expect = 0u64;
        for dim in 0..3 {
            let g = mp.gammas()[dim];
            if g >= 2 {
                expect += 2 * (g - 1) * (16 * 16 * 16 / 16);
            }
        }
        assert_eq!(net.stats.elements, expect);
    }
}
