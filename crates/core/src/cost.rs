//! The line-sweep cost model of Section 3.1.
//!
//! For a sweep along dimension `i` of an array with `η = Π η_i` elements cut
//! into `γ_i` slabs along that dimension:
//!
//! ```text
//! T_i(p) = K1·η/p + (γ_i − 1)·(K2 + K3(p)·η/η_i)
//! ```
//!
//! * `K1` — sequential computation time per array element,
//! * `K2` — fixed start-up cost of one communication phase,
//! * `K3(p)` — per-element transfer cost of the communicated hyper-surface;
//!   on a machine whose aggregate bandwidth scales with `p` this is `∝ 1/p`,
//!   on a bus it is constant (the paper's footnote 1).
//!
//! Summing over all `d` sweeps, the only partitioning-dependent term is
//! `Σ_i γ_i·λ_i` with `λ_i = K2 + K3(p)·η/η_i` — the **objective** minimized
//! by the search in [`crate::search`].

use crate::partition::Partitioning;

/// How the per-element communication cost `K3(p)` scales with the number of
/// processors (footnote 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandwidthScaling {
    /// Aggregate network bandwidth grows linearly with `p` (e.g. a fat-tree
    /// or a scalable interconnect like the Origin 2000's):
    /// `K3(p) = k3 / p`.
    Scalable,
    /// Fixed aggregate bandwidth (bus): `K3(p) = k3`.
    Fixed,
}

/// The machine-dependent constants of the §3.1 model — the one machine
/// description. The partition search and the discrete-event simulator
/// (`mp-runtime`'s `SimNet`) both price work with it. It comes from a
/// preset below or from a calibration file (`mpart calibrate` measures
/// one; `mp-runtime`'s `calibrate` module writes and reads it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Sequential compute time per element per sweep (seconds).
    pub k1: f64,
    /// Communication-phase start-up cost (seconds) — the latency term.
    pub k2: f64,
    /// Per-element hyper-surface transfer cost at `p = 1` (seconds).
    pub k3: f64,
    /// Scaling regime for `K3(p)`.
    pub scaling: BandwidthScaling,
}

impl CostModel {
    /// A machine resembling a c. 2002 SGI Origin 2000: ~10 µs message
    /// start-up, ~100 MB/s per-link bandwidth on 8-byte elements, and
    /// ~100 Mflop/s per-CPU sustained compute with a handful of flops per
    /// element per sweep.
    pub fn origin2000_like() -> Self {
        CostModel {
            k1: 5.0e-8, // 50 ns/element/sweep ≈ a few flops at 10⁸ flop/s
            k2: 1.0e-5, // 10 µs start-up
            k3: 8.0e-8, // 80 ns/element ≈ 100 MB/s on f64
            scaling: BandwidthScaling::Scalable,
        }
    }

    /// The model calibrated for the NAS SP reproduction.
    ///
    /// Identical to [`CostModel::origin2000_like`] except for a larger
    /// per-message overhead `K2 = 150 µs`: in the real SP each
    /// communication phase pays not just MPI latency but also
    /// packing/unpacking of five-component boundary hyperplanes and the
    /// synchronization stall of the slowest rank — an effective per-phase
    /// fixed cost that sits in the 100 µs range on a c. 2002 machine. This
    /// constant is what lets the phase-count differences between
    /// partitionings (e.g. 5×10×10's 22 phases vs 7×7×7's 18) matter
    /// relative to compute, as they visibly do in the paper's Table 1.
    pub fn sp_origin2000() -> Self {
        CostModel {
            k2: 1.5e-4,
            ..Self::origin2000_like()
        }
    }

    /// A latency-dominated machine: phases are what you pay for. With
    /// `k3 = 0` the objective degenerates to `Σ γ_i` (the paper's first
    /// simplified form).
    pub fn latency_dominated() -> Self {
        CostModel {
            k1: 5.0e-8,
            k2: 1.0e-4,
            k3: 0.0,
            scaling: BandwidthScaling::Fixed,
        }
    }

    /// A bandwidth-dominated machine: with `k2 = 0` the objective
    /// degenerates to `Σ γ_i/η_i` (the paper's second simplified form),
    /// which favours cutting *large* dimensions into more pieces.
    pub fn bandwidth_dominated() -> Self {
        CostModel {
            k1: 5.0e-8,
            k2: 0.0,
            k3: 8.0e-8,
            scaling: BandwidthScaling::Fixed,
        }
    }

    /// `K3(p)` under the configured scaling regime — the effective
    /// per-element transfer time with `p` processors active.
    pub fn k3_at(&self, p: u64) -> f64 {
        match self.scaling {
            BandwidthScaling::Scalable => self.k3 / p as f64,
            BandwidthScaling::Fixed => self.k3,
        }
    }

    /// Full Hockney cost of one `n`-element message with `p` processors
    /// active: `K2 + n·K3(p)` (latency + transfer).
    pub fn message_time(&self, p: u64, n: u64) -> f64 {
        self.k2 + n as f64 * self.k3_at(p)
    }

    /// Compute time for `n` element-sweep operations on one CPU:
    /// `n·K1`.
    pub fn compute_time(&self, n: u64) -> f64 {
        n as f64 * self.k1
    }

    /// `λ_i = K2 + K3(p)·η/η_i` — the cost of one communication phase of a
    /// sweep along dimension `i` (per the whole machine).
    pub fn lambda(&self, p: u64, eta: &[u64], i: usize) -> f64 {
        let total: f64 = eta.iter().map(|&e| e as f64).product();
        self.k2 + self.k3_at(p) * total / eta[i] as f64
    }

    /// All `λ_i` at once.
    pub fn lambdas(&self, p: u64, eta: &[u64]) -> Vec<f64> {
        (0..eta.len()).map(|i| self.lambda(p, eta, i)).collect()
    }

    /// The partitioning-dependent objective `Σ_i γ_i λ_i`.
    pub fn objective(&self, p: u64, eta: &[u64], part: &Partitioning) -> f64 {
        objective(&part.gammas, &self.lambdas(p, eta))
    }

    /// Predicted time for one full sweep along dimension `i`:
    /// `T_i(p) = K1 η/p + (γ_i − 1) λ_i`.
    pub fn sweep_time(&self, p: u64, eta: &[u64], part: &Partitioning, i: usize) -> f64 {
        let total: f64 = eta.iter().map(|&e| e as f64).product();
        self.k1 * total / p as f64 + (part.gammas[i] as f64 - 1.0) * self.lambda(p, eta, i)
    }

    /// Predicted time for sweeps along *all* `d` dimensions,
    /// `T(p) = Σ_i T_i(p)`.
    pub fn total_time(&self, p: u64, eta: &[u64], part: &Partitioning) -> f64 {
        (0..eta.len())
            .map(|i| self.sweep_time(p, eta, part, i))
            .sum()
    }
}

/// The raw objective `Σ γ_i λ_i` for externally supplied weights.
pub fn objective(gammas: &[u64], lambdas: &[f64]) -> f64 {
    assert_eq!(gammas.len(), lambdas.len());
    gammas
        .iter()
        .zip(lambdas.iter())
        .map(|(&g, &l)| g as f64 * l)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ETA_CUBE: [u64; 3] = [102, 102, 102];

    #[test]
    fn lambda_shrinks_with_larger_dimension() {
        // λ_i = K2 + K3 η/η_i: bigger η_i ⇒ smaller surface ⇒ smaller λ_i.
        let m = CostModel::bandwidth_dominated();
        let eta = [200u64, 100, 50];
        let l = m.lambdas(4, &eta);
        assert!(l[0] < l[1] && l[1] < l[2]);
    }

    #[test]
    fn scalable_bandwidth_divides_by_p() {
        let m = CostModel::origin2000_like();
        assert!((m.k3_at(10) - m.k3 / 10.0).abs() < 1e-18);
        let fixed = CostModel {
            scaling: BandwidthScaling::Fixed,
            ..m
        };
        assert_eq!(fixed.k3_at(10), m.k3);
    }

    #[test]
    fn objective_is_linear_in_gammas() {
        let m = CostModel::origin2000_like();
        let a = Partitioning::new(vec![2, 2, 2]);
        let b = Partitioning::new(vec![4, 4, 4]);
        let oa = m.objective(4, &ETA_CUBE, &a);
        let ob = m.objective(4, &ETA_CUBE, &b);
        assert!((ob - 2.0 * oa).abs() < 1e-12 * ob.abs());
    }

    #[test]
    fn paper_remark_skewed_domain() {
        // §3.1 Remark: p = 4, η1 = η2 ≥ 4·η3 ⇒ γ = (4,4,1) has lower
        // communication volume than (2,2,2). Volume objective is Σ γ_i/η_i
        // (bandwidth-dominated, k2 = 0).
        let m = CostModel::bandwidth_dominated();
        let eta = [128u64, 128, 32]; // η1 = η2 = 4·η3
        let two_d = Partitioning::new(vec![4, 4, 1]);
        let three_d = Partitioning::new(vec![2, 2, 2]);
        assert!(two_d.is_valid(4) && three_d.is_valid(4));
        let o2 = m.objective(4, &eta, &two_d);
        let o3 = m.objective(4, &eta, &three_d);
        assert!(
            o2 <= o3,
            "2-D partitioning should win on skewed domain: {o2} vs {o3}"
        );
        // And at exactly η1 = η2 = 4η3 they tie: γ/η sums are
        // 4/128+4/128+1/32 = 3/32 vs 2/128+2/128+2/32 = 3/32. Equality:
        assert!((o2 - o3).abs() < 1e-12 * o3.abs());
        // Strictly better once the third dimension is even shorter:
        let eta = [128u64, 128, 16];
        let o2 = m.objective(4, &eta, &two_d);
        let o3 = m.objective(4, &eta, &three_d);
        assert!(o2 < o3);
    }

    #[test]
    fn cube_prefers_balanced_cuts() {
        // On a cube with mixed cost, (2,2,2) beats (4,4,1) for p=4: fewer
        // total phases for the same volume.
        let m = CostModel::origin2000_like();
        let o3 = m.objective(4, &ETA_CUBE, &Partitioning::new(vec![2, 2, 2]));
        let o2 = m.objective(4, &ETA_CUBE, &Partitioning::new(vec![4, 4, 1]));
        assert!(o3 < o2);
    }

    #[test]
    fn sweep_time_formula() {
        let m = CostModel {
            k1: 1.0,
            k2: 2.0,
            k3: 3.0,
            scaling: BandwidthScaling::Fixed,
        };
        let eta = [10u64, 20];
        let part = Partitioning::new(vec![5, 4]);
        // T_0 = 1·200/2 + (5−1)(2 + 3·200/10) = 100 + 4·62 = 348
        let t0 = m.sweep_time(2, &eta, &part, 0);
        assert!((t0 - 348.0).abs() < 1e-9);
        // T_1 = 100 + (4−1)(2 + 3·200/20) = 100 + 3·32 = 196
        let t1 = m.sweep_time(2, &eta, &part, 1);
        assert!((t1 - 196.0).abs() < 1e-9);
        assert!((m.total_time(2, &eta, &part) - 544.0).abs() < 1e-9);
    }

    #[test]
    fn hockney_helpers() {
        let m = CostModel::origin2000_like();
        // Scalable: transfer shrinks with p, never below the latency floor.
        let t1 = m.message_time(1, 1000);
        let t10 = m.message_time(10, 1000);
        assert!(t10 < t1);
        assert!(t10 > m.k2);
        let fixed = CostModel {
            scaling: BandwidthScaling::Fixed,
            ..m
        };
        assert_eq!(fixed.message_time(1, 100), fixed.message_time(64, 100));
        // Compute is linear in the element count.
        assert!((m.compute_time(2000) - 2.0 * m.compute_time(1000)).abs() < 1e-15);
        assert_eq!(m.compute_time(0), 0.0);
    }

    #[test]
    fn sp_preset_only_raises_k2() {
        let base = CostModel::origin2000_like();
        let sp = CostModel::sp_origin2000();
        assert_eq!(sp.k2, 1.5e-4);
        assert_eq!(sp.k1, base.k1);
        assert_eq!(sp.k3, base.k3);
        assert_eq!(sp.scaling, base.scaling);
    }

    #[test]
    fn latency_model_counts_phases() {
        // With k3 = 0, objective ∝ Σ γ_i.
        let m = CostModel::latency_dominated();
        let a = Partitioning::new(vec![4, 4, 2]); // Σ = 10
        let b = Partitioning::new(vec![8, 8, 1]); // Σ = 17
        let oa = m.objective(8, &ETA_CUBE, &a);
        let ob = m.objective(8, &ETA_CUBE, &b);
        assert!(oa < ob);
        assert!((oa / m.k2 - 10.0).abs() < 1e-9);
        assert!((ob / m.k2 - 17.0).abs() < 1e-9);
    }
}
