//! Optimal-partitioning search (§3.3) and processor-count drop-back (§6).
//!
//! The optimal partitioning minimizes `Σ γ_i λ_i` over all valid `(γ_i)`.
//! By Lemma 1 it suffices to search the *elementary* partitionings, which the
//! Figure 2 generator enumerates per prime factor; this module combines them
//! and tracks the best candidate.

use crate::cost::{objective, CostModel};
use crate::partition::{elementary_partitionings, Partitioning};

/// Result of a partitioning search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The winning tile counts per dimension.
    pub partitioning: Partitioning,
    /// Its objective value `Σ γ_i λ_i`.
    pub objective: f64,
    /// How many candidate elementary partitionings were examined.
    pub candidates: usize,
}

/// Find an optimal partitioning of a `d`-dimensional array onto `p`
/// processors for communication weights `λ_i` by exhaustively enumerating
/// elementary partitionings (the paper's §3.3 algorithm).
///
/// Ties are broken toward the lexicographically smallest `γ` vector so the
/// result is deterministic.
///
/// # Panics
/// Panics if `lambdas.len() < 2` or any `λ_i < 0`.
/// ```
/// use mp_core::search::optimal_partitioning;
/// // p = 8 on a cube (uniform λ): 4×4×2 beats 8×8×1 (Σγ 10 vs 17).
/// let res = optimal_partitioning(8, &[1.0, 1.0, 1.0]);
/// let mut g = res.partitioning.gammas.clone();
/// g.sort();
/// assert_eq!(g, vec![2, 4, 4]);
/// ```
pub fn optimal_partitioning(p: u64, lambdas: &[f64]) -> SearchResult {
    let d = lambdas.len();
    assert!(d >= 2, "multipartitioning requires d >= 2");
    assert!(lambdas.iter().all(|&l| l >= 0.0), "negative λ weight");

    let candidates = elementary_partitionings(p, d);
    let n = candidates.len();
    let mut best: Option<(f64, Partitioning)> = None;
    for part in candidates {
        let obj = objective(&part.gammas, lambdas);
        let better = match &best {
            None => true,
            Some((bobj, bpart)) => obj < *bobj || (obj == *bobj && part.gammas < bpart.gammas),
        };
        if better {
            best = Some((obj, part));
        }
    }
    let (objective, partitioning) = best.expect("at least one elementary partitioning exists");
    SearchResult {
        partitioning,
        objective,
        candidates: n,
    }
}

/// Convenience wrapper: compute `λ_i` from a [`CostModel`] and the array
/// extents, then search.
pub fn optimal_for(p: u64, eta: &[u64], model: &CostModel) -> SearchResult {
    optimal_partitioning(p, &model.lambdas(p, eta))
}

/// One row of a drop-back search (§6): the best partitioning at a given
/// processor count and its *predicted total sweep time* `T(p')`.
#[derive(Debug, Clone, PartialEq)]
pub struct DropBackCandidate {
    /// Processor count actually used (`p' ≤ p`).
    pub procs: u64,
    /// Best partitioning for `p'`.
    pub partitioning: Partitioning,
    /// Predicted total time `T(p')` for sweeps along all dimensions.
    pub total_time: f64,
}

/// §6 of the paper: using all `p` processors is not always fastest — if the
/// optimal partitioning at `p` is far from compact, dropping back to a nearby
/// `p' < p` with a compact partitioning can win (e.g. 49 beats 50 for NAS SP
/// class B). This searches `p' ∈ [⌊p^{1/(d−1)}⌋^{d−1}, p]` with the full
/// computation + communication model and returns all candidates sorted by
/// predicted time (fastest first).
/// ```
/// use mp_core::{search::drop_back_search, cost::CostModel};
/// // §6: for 102³, 49 CPUs (7×7×7) beat 50 (5×10×10).
/// let c = drop_back_search(50, &[102, 102, 102], &CostModel::origin2000_like());
/// assert_eq!(c[0].procs, 49);
/// ```
pub fn drop_back_search(p: u64, eta: &[u64], model: &CostModel) -> Vec<DropBackCandidate> {
    let d = eta.len() as u32;
    assert!(d >= 2);
    // Lower bound: the largest q with q^{d−1} ≤ p gives the diagonal-capable
    // processor count q^{d−1}.
    let mut q = 1u64;
    while (q + 1).pow(d - 1) <= p {
        q += 1;
    }
    let lo = q.pow(d - 1);
    let mut out: Vec<DropBackCandidate> = (lo..=p)
        .map(|pp| {
            let res = optimal_for(pp, eta, model);
            let t = model.total_time(pp, eta, &res.partitioning);
            DropBackCandidate {
                procs: pp,
                partitioning: res.partitioning,
                total_time: t,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        a.total_time
            .partial_cmp(&b.total_time)
            .unwrap()
            .then(a.procs.cmp(&b.procs))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::BandwidthScaling;
    use crate::partition::valid_partitionings_bruteforce;

    fn cube(n: u64) -> [u64; 3] {
        [n, n, n]
    }

    #[test]
    fn optimum_over_elementary_is_global_small_p() {
        // Confirm Lemma 1 empirically: the elementary optimum matches the
        // brute-force optimum over ALL valid partitionings with γ_i ≤ cap.
        for p in [2u64, 3, 4, 6, 8, 12] {
            let lambdas = [1.0, 1.3, 2.1];
            let elem = optimal_partitioning(p, &lambdas);
            let cap = 2 * p; // generous: optimal γ_i never exceeds p·max-prime
            let brute = valid_partitionings_bruteforce(p, 3, cap)
                .into_iter()
                .map(|pt| objective(&pt.gammas, &lambdas))
                .fold(f64::INFINITY, f64::min);
            assert!(
                elem.objective <= brute + 1e-9,
                "p={p}: elementary {} vs brute {brute}",
                elem.objective
            );
        }
    }

    #[test]
    fn perfect_square_p_prefers_diagonal_shape_on_cube() {
        // On a cubical domain with equal λ, p = q² should choose (q,q,q) —
        // the diagonal multipartitioning.
        for q in 2..=9u64 {
            let p = q * q;
            let res = optimal_partitioning(p, &[1.0, 1.0, 1.0]);
            assert_eq!(res.partitioning.gammas, vec![q, q, q], "p={p}");
        }
    }

    #[test]
    fn two_d_always_p_by_p() {
        // In 2-D the only elementary partitioning is (p, p) (§2: diagonal
        // partitionings are optimal in 2-D for any p).
        for p in 2..=40u64 {
            let res = optimal_partitioning(p, &[1.0, 1.0]);
            assert_eq!(res.partitioning.gammas, vec![p, p]);
            assert_eq!(res.candidates, 1);
        }
    }

    #[test]
    fn p8_cube_chooses_442() {
        // From the paper's §3.2 example: elementary for p=8 are {4,4,2} and
        // {8,8,1} (+perms). On a cube, (4,4,2) wins with any uniform λ
        // (Σγ = 10 < 17).
        let res = optimal_partitioning(8, &[1.0, 1.0, 1.0]);
        let mut sorted = res.partitioning.gammas.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 4, 4]);
    }

    #[test]
    fn skewed_lambda_places_large_gamma_on_small_lambda() {
        // λ_2 huge ⇒ the optimum avoids cutting dimension 2 at all:
        // (8,8,1) costs 8+8+100 = 116, beating (4,4,2) at 4+4+200 = 208.
        let res = optimal_partitioning(8, &[1.0, 1.0, 100.0]);
        assert_eq!(res.partitioning.gammas, vec![8, 8, 1]);
        // With a mildly larger λ_2 the balanced shape survives:
        // (4,4,2) = 4+4+6 = 14 vs (8,8,1) = 8+8+3 = 19.
        let res = optimal_partitioning(8, &[1.0, 1.0, 3.0]);
        assert_eq!(res.partitioning.gammas, vec![4, 4, 2]);
    }

    #[test]
    fn objective_decreasing_in_eta_consistency() {
        // optimal_for plumbs λ computation: a domain with a short 3rd
        // dimension should avoid cutting dims 1,2 less than dim 3... i.e.
        // the short dimension has the *largest* λ and should receive the
        // smallest γ.
        let model = CostModel {
            k1: 0.0,
            k2: 0.0,
            k3: 1.0,
            scaling: BandwidthScaling::Fixed,
        };
        let res = optimal_for(8, &[256, 256, 16], &model);
        let g = &res.partitioning.gammas;
        assert!(g[2] <= g[0] && g[2] <= g[1], "gammas = {g:?}");
    }

    #[test]
    fn drop_back_49_beats_50_class_b() {
        // §6: for the 102³ SP domain, 7×7×7 on 49 CPUs beats 5×10×10 on 50.
        let model = CostModel::origin2000_like();
        let cands = drop_back_search(50, &cube(102), &model);
        let t49 = cands.iter().find(|c| c.procs == 49).unwrap();
        let t50 = cands.iter().find(|c| c.procs == 50).unwrap();
        let mut g49 = t49.partitioning.gammas.clone();
        g49.sort_unstable();
        assert_eq!(g49, vec![7, 7, 7]);
        let mut g50 = t50.partitioning.gammas.clone();
        g50.sort_unstable();
        assert_eq!(g50, vec![5, 10, 10]);
        assert!(
            t49.total_time < t50.total_time,
            "49 CPUs ({}) should beat 50 CPUs ({})",
            t49.total_time,
            t50.total_time
        );
        // And the search's best candidate must be at least as good as both.
        assert!(cands[0].total_time <= t49.total_time);
    }

    #[test]
    fn drop_back_prime_p_falls_back() {
        // p = 53 (prime): γ must include 53s ⇒ many phases; some p' < 53
        // should win on a latency-heavy machine.
        let model = CostModel::origin2000_like();
        let cands = drop_back_search(53, &cube(102), &model);
        assert!(cands[0].procs != 53, "prime p should not be fastest");
    }

    #[test]
    fn drop_back_perfect_square_keeps_p() {
        // p = 49 on a cube: compact diagonal exists; no drop-back needed.
        let model = CostModel::origin2000_like();
        let cands = drop_back_search(49, &cube(102), &model);
        assert_eq!(cands[0].procs, 49);
    }

    #[test]
    fn drop_back_best_of_50_is_7x7x7_on_49() {
        let rec = &drop_back_search(50, &cube(102), &CostModel::origin2000_like())[0];
        assert_eq!(rec.procs, 49);
        let mut g = rec.partitioning.gammas.clone();
        g.sort_unstable();
        assert_eq!(g, vec![7, 7, 7]);
    }

    #[test]
    fn candidates_counts_match_paper_examples() {
        // p=8, d=3: distributions of 2³ with Lemma 1 — shapes {4,4,2},
        // {8,8,1} and permutations: 3 + 3 = 6 ordered candidates.
        let res = optimal_partitioning(8, &[1.0, 1.0, 1.0]);
        assert_eq!(res.candidates, 6);
        // p=30, d=3: 3 primes each with distributions (1,1,0)-type → 3
        // ordered options per prime → 27 combined.
        let res = optimal_partitioning(30, &[1.0, 1.0, 1.0]);
        assert_eq!(res.candidates, 27);
    }

    #[test]
    fn search_result_partitioning_is_valid() {
        for p in 2..=60u64 {
            let res = optimal_partitioning(p, &[1.0, 2.0, 3.0]);
            assert!(res.partitioning.is_valid(p), "p={p}");
        }
    }

    #[test]
    fn p1_trivial() {
        let res = optimal_partitioning(1, &[1.0, 1.0, 1.0]);
        assert_eq!(res.partitioning.gammas, vec![1, 1, 1]);
        assert_eq!(res.objective, 3.0);
    }
}
