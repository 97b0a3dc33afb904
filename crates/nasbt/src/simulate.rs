//! Performance simulation of BT iterations — same schedule as SP but with
//! 30-float-per-line carries and five-component halos.

use crate::problem::{BtProblem, NCOMP};
use mp_core::cost::CostModel;
use mp_core::multipart::Multipartitioning;
use mp_grid::TileGrid;
use mp_runtime::sim::SimNet;
use mp_sweep::simulate::{
    simulate_halo_exchange, simulate_multipart_sweep, MultipartGeometry, SweepWork,
};

/// Per-line carry of a BT block sweep: a 5×5 matrix plus a 5-vector.
pub const BT_CARRY_PER_LINE: u64 = (NCOMP * NCOMP + NCOMP) as u64;

/// Per-element work factors of a BT iteration (block operations are ~N³
/// per element vs SP's O(1)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BtWorkFactors {
    /// Stencil phase.
    pub rhs: f64,
    /// Forward block elimination (a 5×5 inverse + two multiplies).
    pub forward: f64,
    /// Back substitution (one 5×5 matvec).
    pub backward: f64,
    /// Final add.
    pub add: f64,
}

impl Default for BtWorkFactors {
    fn default() -> Self {
        BtWorkFactors {
            rhs: 45.0,      // 9 ops × 5 components
            forward: 300.0, // ~2·N³ + O(N²) for N = 5
            backward: 50.0, // N² matvec
            add: 5.0,
        }
    }
}

/// Result of a simulated BT run.
#[derive(Debug, Clone, PartialEq)]
pub struct BtSimResult {
    /// Processor count.
    pub p: u64,
    /// Partitioning used.
    pub gammas: Vec<u64>,
    /// Simulated seconds.
    pub seconds: f64,
    /// Messages sent.
    pub messages: u64,
    /// Elements communicated.
    pub elements: u64,
}

/// Simulate `iterations` of BT on `p` ranks with a generalized
/// multipartitioning. Returns `None` when the partitioning over-cuts the
/// grid.
pub fn simulate_bt(
    prob: &BtProblem,
    p: u64,
    machine: &CostModel,
    factors: &BtWorkFactors,
    iterations: usize,
) -> Option<BtSimResult> {
    let eta_u64 = [prob.eta[0] as u64, prob.eta[1] as u64, prob.eta[2] as u64];
    let mp = Multipartitioning::optimal(p, &eta_u64, &CostModel::origin2000_like());
    let gammas: Vec<usize> = mp.gammas().iter().map(|&g| g as usize).collect();
    let grid = TileGrid::try_new(&prob.eta, &gammas).ok()?;
    let geo = MultipartGeometry::new(&mp, &grid);
    let mut net = SimNet::new(p, *machine);
    let vol: Vec<u64> = (0..p)
        .map(|r| geo.volumes[r as usize][0].iter().sum())
        .collect();
    for it in 0..iterations {
        let tag0 = it as u64 * 100_000;
        // 5 component halos, width 1.
        simulate_halo_exchange(&mut net, &mp, &grid, NCOMP as u64, tag0);
        for r in 0..p {
            net.compute_seconds(r, vol[r as usize] as f64 * factors.rhs * net.model().k1);
        }
        for dim in 0..3 {
            let fwd = SweepWork {
                work_per_element: factors.forward,
                carry_len: BT_CARRY_PER_LINE,
            };
            simulate_multipart_sweep(&mut net, &geo, dim, &fwd, tag0 + 1_000 + dim as u64 * 100);
            let bwd = SweepWork {
                work_per_element: factors.backward,
                carry_len: (NCOMP + 1) as u64,
            };
            simulate_multipart_sweep(&mut net, &geo, dim, &bwd, tag0 + 2_000 + dim as u64 * 100);
        }
        for r in 0..p {
            net.compute_seconds(r, vol[r as usize] as f64 * factors.add * net.model().k1);
        }
    }
    Some(BtSimResult {
        p,
        gammas: mp.gammas().to_vec(),
        seconds: net.makespan(),
        messages: net.stats.messages,
        elements: net.stats.elements,
    })
}

/// Ideal serial time for the speedup denominator.
pub fn serial_bt_seconds(
    prob: &BtProblem,
    machine: &CostModel,
    factors: &BtWorkFactors,
    iterations: usize,
) -> f64 {
    let vol: usize = prob.eta.iter().product();
    let per_elem = factors.rhs + 3.0 * (factors.forward + factors.backward) + factors.add;
    vol as f64 * per_elem * machine.k1 * iterations as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bt_scales_class_a_like() {
        let prob = BtProblem::new([64, 64, 64], 0.001);
        let machine = CostModel::sp_origin2000();
        let f = BtWorkFactors::default();
        let serial = serial_bt_seconds(&prob, &machine, &f, 1);
        let r16 = simulate_bt(&prob, 16, &machine, &f, 1).unwrap();
        let s16 = serial / r16.seconds;
        assert!(s16 > 11.0 && s16 <= 16.0, "BT speedup(16) = {s16}");
    }

    #[test]
    fn bt_heavier_sweep_messages_than_sp() {
        // Same grid, same p, sweep phases only (no halos): BT's carries are
        // 30 + 6 floats per line per dimension vs SP's 10 + 10 — a 1.8×
        // volume at the identical message count and schedule.
        let machine = CostModel::sp_origin2000();
        let eta = [64usize, 64, 64];
        let mp = Multipartitioning::optimal(16, &[64, 64, 64], &CostModel::origin2000_like());
        let grid = TileGrid::new(&eta, &[4, 4, 4]);
        let geo = MultipartGeometry::new(&mp, &grid);

        let sweep_volume = |fwd_carry: u64, bwd_carry: u64| {
            let mut net = SimNet::new(16, machine);
            for dim in 0..3 {
                let fwd = SweepWork {
                    work_per_element: 1.0,
                    carry_len: fwd_carry,
                };
                simulate_multipart_sweep(&mut net, &geo, dim, &fwd, 1_000 + dim as u64 * 100);
                let bwd = SweepWork {
                    work_per_element: 1.0,
                    carry_len: bwd_carry,
                };
                simulate_multipart_sweep(&mut net, &geo, dim, &bwd, 2_000 + dim as u64 * 100);
            }
            (net.stats.messages, net.stats.elements)
        };
        let (sp_msgs, sp_elems) = sweep_volume(10, 10); // SP: 5 comps × 2 carries
        let (bt_msgs, bt_elems) = sweep_volume(BT_CARRY_PER_LINE, (NCOMP + 1) as u64);
        assert_eq!(bt_msgs, sp_msgs, "identical schedule ⇒ identical count");
        let ratio = bt_elems as f64 / sp_elems as f64;
        assert!(
            (ratio - 1.8).abs() < 0.05,
            "BT/SP sweep volume ratio {ratio} (expected ≈ (30+6)/(10+10))"
        );
    }
}
