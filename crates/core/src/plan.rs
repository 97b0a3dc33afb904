//! Sweep plans: the "compiler output" for a multipartitioned line sweep.
//!
//! The dHPF compiler's job (Section 5) — enumerate each processor's tiles in
//! an order satisfying the sweep's loop-carried dependence, and aggregate the
//! per-tile boundary messages of one slab into a single vectorized message to
//! the unique neighbor processor — is captured here as an explicit data
//! structure built from a [`Multipartitioning`]. The execution engines in
//! `mp-sweep` (both the threaded backend and the discrete-event simulator)
//! consume these plans.

use crate::multipart::{Direction, Multipartitioning, TileCoord};

/// One processor's work in one phase (slab) of a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RankPhase {
    /// Tiles this rank computes in this phase, in lexicographic order (any
    /// order is legal within a slab — tiles of one slab are independent).
    pub tiles: Vec<TileCoord>,
    /// Rank to receive this phase's carry boundaries from (`None` in the
    /// first phase).
    pub recv_from: Option<u64>,
    /// Rank to send this phase's produced boundaries to (`None` in the last
    /// phase).
    pub send_to: Option<u64>,
}

/// A complete schedule for one directional line sweep over a
/// multipartitioned array.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// The dimension being swept.
    pub dim: usize,
    /// Sweep direction.
    pub direction: Direction,
    /// Number of processors.
    pub p: u64,
    /// `phases[k][rank]` = what `rank` does in phase `k`. Phase 0 is the
    /// first slab in sweep order (slab `0` forward, slab `γ_dim − 1`
    /// backward).
    pub phases: Vec<Vec<RankPhase>>,
}

impl SweepPlan {
    /// Build the schedule for sweeping `dim` in `direction` over `mp`.
    ///
    /// Per phase, each rank owns exactly `Π_{j≠dim} γ_j / p` tiles (the
    /// balance property) and communicates with exactly one partner (the
    /// neighbor property): all carries produced by its tiles in the current
    /// slab go to the single rank owning the downstream neighbor tiles.
    ///
    /// ```
    /// use mp_core::prelude::*;
    /// let mp = Multipartitioning::diagonal(16, 3);
    /// let plan = SweepPlan::build(&mp, 0, Direction::Forward);
    /// assert_eq!(plan.num_phases(), 4);       // γ_0 slabs
    /// assert_eq!(plan.message_count(), 48);   // p · (γ_0 − 1)
    /// plan.validate(&mp).unwrap();
    /// ```
    ///
    pub fn build(mp: &Multipartitioning, dim: usize, direction: Direction) -> Self {
        assert!(dim < mp.dims());
        let gamma = mp.gammas()[dim];
        let step = direction.step();
        let slab_order: Vec<u64> = match direction {
            Direction::Forward => (0..gamma).collect(),
            Direction::Backward => (0..gamma).rev().collect(),
        };
        let mut phases = Vec::with_capacity(gamma as usize);
        for (k, &slab) in slab_order.iter().enumerate() {
            let mut ranks = Vec::with_capacity(mp.p as usize);
            for rank in 0..mp.p {
                let tiles = mp.tiles_of_in_slab(rank, dim, slab);
                let recv_from = if k == 0 {
                    None
                } else {
                    // Carries arrive from the rank owning the upstream
                    // neighbors: one step opposite the sweep direction.
                    Some(mp.neighbor_rank(rank, dim, -step))
                };
                let send_to = if k + 1 == slab_order.len() {
                    None
                } else {
                    Some(mp.neighbor_rank(rank, dim, step))
                };
                ranks.push(RankPhase {
                    tiles,
                    recv_from,
                    send_to,
                });
            }
            phases.push(ranks);
        }
        SweepPlan {
            dim,
            direction,
            p: mp.p,
            phases,
        }
    }

    /// Number of computation phases (`γ_dim`).
    pub fn num_phases(&self) -> usize {
        self.phases.len()
    }

    /// Number of communication phases (`γ_dim − 1`).
    pub fn num_comm_phases(&self) -> usize {
        self.phases.len().saturating_sub(1)
    }

    /// One rank's schedule, phase by phase — the slice of the plan a
    /// compiled executor for that rank needs to cross-check itself against.
    pub fn rank_phases(&self, rank: u64) -> impl Iterator<Item = &RankPhase> {
        self.phases.iter().map(move |ranks| &ranks[rank as usize])
    }

    /// Validate the schedule's structural invariants: balanced phases,
    /// send/recv pairing between adjacent phases, and dependence order (a
    /// tile's upstream neighbor is computed in the previous phase).
    pub fn validate(&self, mp: &Multipartitioning) -> Result<(), String> {
        let per = mp.tiles_per_proc_per_slab(self.dim);
        let step = self.direction.step();
        for (k, ranks) in self.phases.iter().enumerate() {
            if ranks.len() as u64 != self.p {
                return Err(format!("phase {k}: wrong rank count"));
            }
            for (rank, rp) in ranks.iter().enumerate() {
                if rp.tiles.len() as u64 != per {
                    return Err(format!(
                        "phase {k} rank {rank}: {} tiles, expected {per} (balance violated)",
                        rp.tiles.len()
                    ));
                }
                for t in &rp.tiles {
                    if mp.proc_of(t) != rank as u64 {
                        return Err(format!("phase {k}: tile {t:?} not owned by rank {rank}"));
                    }
                }
                // Pairing: if rank sends to s in phase k, then in phase k+1,
                // s must receive from rank.
                if let Some(s) = rp.send_to {
                    let next = &self.phases[k + 1][s as usize];
                    if next.recv_from != Some(rank as u64) {
                        return Err(format!(
                            "phase {k}: rank {rank} sends to {s}, but {s} expects {:?}",
                            next.recv_from
                        ));
                    }
                    // Dependence: the downstream neighbors of this phase's
                    // tiles are exactly s's tiles in phase k+1.
                    for t in &rp.tiles {
                        let mut nt = t.clone();
                        let pos = nt[self.dim] as i64 + step;
                        nt[self.dim] = pos as u64;
                        if !next.tiles.contains(&nt) {
                            return Err(format!(
                                "phase {k}: downstream neighbor {nt:?} of {t:?} missing \
                                 from rank {s}'s phase {}",
                                k + 1
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Total number of point-to-point messages in the sweep
    /// (`p · (γ_dim − 1)` thanks to aggregation).
    pub fn message_count(&self) -> u64 {
        self.p * self.num_comm_phases() as u64
    }

    /// What the message count would be *without* the neighbor-property
    /// aggregation (one message per tile boundary instead of one per rank
    /// per phase). The ratio is the benefit the neighbor property buys.
    pub fn message_count_unaggregated(&self) -> u64 {
        self.phases
            .iter()
            .take(self.num_comm_phases())
            .map(|ranks| ranks.iter().map(|rp| rp.tiles.len() as u64).sum::<u64>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::partition::Partitioning;

    fn mp_8_442() -> Multipartitioning {
        Multipartitioning::from_partitioning(8, Partitioning::new(vec![4, 4, 2]))
    }

    #[test]
    fn build_and_validate_all_dims_p8() {
        let mp = mp_8_442();
        for dim in 0..3 {
            for dir in [Direction::Forward, Direction::Backward] {
                let plan = SweepPlan::build(&mp, dim, dir);
                plan.validate(&mp).unwrap_or_else(|e| {
                    panic!("dim {dim} {dir:?}: {e}");
                });
                assert_eq!(plan.num_phases() as u64, mp.gammas()[dim]);
            }
        }
    }

    #[test]
    fn build_and_validate_diagonal_p16() {
        let mp = Multipartitioning::diagonal(16, 3);
        for dim in 0..3 {
            let plan = SweepPlan::build(&mp, dim, Direction::Forward);
            plan.validate(&mp).unwrap();
            // diagonal: exactly 1 tile per rank per phase
            for ranks in &plan.phases {
                for rp in ranks {
                    assert_eq!(rp.tiles.len(), 1);
                }
            }
        }
    }

    #[test]
    fn message_counts() {
        let mp = mp_8_442();
        // Sweep along dim 2 (γ = 2): 1 comm phase, 8 ranks ⇒ 8 messages.
        let plan = SweepPlan::build(&mp, 2, Direction::Forward);
        assert_eq!(plan.message_count(), 8);
        // Unaggregated: 2 tiles per rank per slab along dim 2 ⇒ 16.
        assert_eq!(plan.message_count_unaggregated(), 16);
        // Sweep along dim 0 (γ = 4): 3 comm phases ⇒ 24 aggregated messages,
        // 1 tile per rank per slab ⇒ no aggregation possible: also 24.
        let plan = SweepPlan::build(&mp, 0, Direction::Forward);
        assert_eq!(plan.message_count(), 24);
        assert_eq!(plan.message_count_unaggregated(), 24);
    }

    #[test]
    fn backward_reverses_slab_order() {
        let mp = mp_8_442();
        let fwd = SweepPlan::build(&mp, 0, Direction::Forward);
        let bwd = SweepPlan::build(&mp, 0, Direction::Backward);
        // First forward phase processes slab 0; first backward phase slab 3.
        assert!(fwd.phases[0]
            .iter()
            .all(|rp| rp.tiles.iter().all(|t| t[0] == 0)));
        assert!(bwd.phases[0]
            .iter()
            .all(|rp| rp.tiles.iter().all(|t| t[0] == 3)));
        bwd.validate(&mp).unwrap();
    }

    #[test]
    fn full_adi_has_2d_plans() {
        let mp = mp_8_442();
        let mut plans = Vec::new();
        for dim in 0..mp.dims() {
            for dir in [Direction::Forward, Direction::Backward] {
                plans.push(SweepPlan::build(&mp, dim, dir));
            }
        }
        assert_eq!(plans.len(), 6);
        for plan in &plans {
            plan.validate(&mp).unwrap();
        }
    }

    #[test]
    fn plan_for_generalized_p50() {
        // The paper's 5×10×10 decomposition for p = 50 on class B.
        let mp = Multipartitioning::optimal(50, &[102, 102, 102], &CostModel::origin2000_like());
        let mut g = mp.gammas().to_vec();
        g.sort_unstable();
        assert_eq!(g, vec![5, 10, 10]);
        for dim in 0..3 {
            let plan = SweepPlan::build(&mp, dim, Direction::Forward);
            plan.validate(&mp).unwrap();
        }
    }

    #[test]
    fn rank_phases_slices_one_rank() {
        let mp = Multipartitioning::diagonal(3, 2);
        let plan = SweepPlan::build(&mp, 0, Direction::Backward);
        for rank in 0..mp.p {
            let mine: Vec<_> = plan.rank_phases(rank).collect();
            assert_eq!(mine.len(), plan.num_phases());
            for (k, rp) in mine.iter().enumerate() {
                assert_eq!(*rp, &plan.phases[k][rank as usize]);
            }
            // First phase receives nothing; last sends nothing.
            assert_eq!(mine[0].recv_from, None);
            assert_eq!(mine[mine.len() - 1].send_to, None);
        }
    }

    #[test]
    fn single_slab_dimension_has_no_comm() {
        // γ_dim = 1 (e.g. (30,30,1) for p=30): a sweep along dim 2 is fully
        // local.
        let mp = Multipartitioning::from_partitioning(30, Partitioning::new(vec![30, 30, 1]));
        let plan = SweepPlan::build(&mp, 2, Direction::Forward);
        assert_eq!(plan.num_phases(), 1);
        assert_eq!(plan.num_comm_phases(), 0);
        assert_eq!(plan.message_count(), 0);
        plan.validate(&mp).unwrap();
    }
}
