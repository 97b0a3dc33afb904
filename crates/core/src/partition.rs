//! Candidate partitionings: validity, Lemma 1, and the Figure 2 generator.
//!
//! A *partitioning* of a `d`-dimensional array for `p` processors is a vector
//! `(γ_1, …, γ_d)` of tile counts per dimension. It is **valid** when every
//! hyper-rectangular slab is balanceable, i.e. for every dimension `i`,
//! `p | Π_{j≠i} γ_j` (the paper proves this necessary condition is also
//! sufficient for a full multipartitioning to exist — see [`crate::modmap`]).
//!
//! Lemma 1 of the paper restricts the search for *optimal* partitionings to
//! **elementary** ones: for each prime `α` with multiplicity `r` in `p`, the
//! total number of occurrences of `α` across the `γ_i` is exactly `r + m`,
//! where `m` is the maximum number of occurrences in any single `γ_i`, and
//! that maximum is attained in at least two of the `γ_i`.
//!
//! This module reproduces, in safe Rust, the recursive generator the paper
//! gives as a C program in Figure 2, plus a brute-force enumeration of valid
//! partitionings that tests compare the search against.

use crate::factor::{divides_product, Factorization};

/// A candidate partitioning: `gammas[i]` = number of tiles cut along array
/// dimension `i`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Partitioning {
    /// Tiles per dimension, `γ_i ≥ 1`.
    pub gammas: Vec<u64>,
}

impl Partitioning {
    /// Create a partitioning from per-dimension tile counts.
    ///
    /// # Panics
    /// Panics if any `γ_i == 0` or the vector is empty.
    pub fn new(gammas: Vec<u64>) -> Self {
        assert!(
            !gammas.is_empty(),
            "partitioning needs at least 1 dimension"
        );
        assert!(
            gammas.iter().all(|&g| g > 0),
            "tile counts must be positive"
        );
        Partitioning { gammas }
    }

    /// Number of array dimensions `d`.
    pub fn dims(&self) -> usize {
        self.gammas.len()
    }

    /// Total number of tiles `Π γ_i`.
    pub fn total_tiles(&self) -> u64 {
        self.gammas.iter().product()
    }

    /// Validity for `p` processors: for every `i`, `p | Π_{j≠i} γ_j`.
    ///
    /// Equivalently (per prime): letting `e_i` be the multiplicity of prime
    /// `α` in `γ_i` and `r` its multiplicity in `p`, validity requires
    /// `Σ e_j − max_j e_j ≥ r`.
    pub fn is_valid(&self, p: u64) -> bool {
        let d = self.dims();
        (0..d).all(|i| {
            let others: Vec<u64> = self
                .gammas
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &g)| g)
                .collect();
            divides_product(p, &others)
        })
    }

    /// Number of tiles each processor owns in one slab orthogonal to
    /// dimension `i`: `Π_{j≠i} γ_j / p`. Only meaningful for valid
    /// partitionings.
    pub fn tiles_per_proc_per_slab(&self, p: u64, i: usize) -> u64 {
        let prod: u64 = self
            .gammas
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &g)| g)
            .product();
        prod / p
    }

    /// Total tiles per processor, `Π γ_i / p` per slab times `γ` phases…
    /// i.e. `Π γ_i / p` overall.
    pub fn tiles_per_proc(&self, p: u64) -> u64 {
        self.total_tiles() / p
    }

    /// §6's **compactness** measure: the ratio of this partitioning's total
    /// tile count to the diagonal multipartitioning's `p^{d/(d−1)}`. A
    /// compact partitioning has ratio 1; large ratios mean many tiles per
    /// processor and relatively more boundary communication — the condition
    /// under which §6 recommends dropping back to fewer processors.
    pub fn compactness(&self, p: u64) -> f64 {
        let d = self.dims() as f64;
        let ideal = (p as f64).powf(d / (d - 1.0));
        self.total_tiles() as f64 / ideal
    }

    /// §6's surface-to-volume proxy for relative communication cost:
    /// `Σ_i γ_i / η_i`.
    pub fn surface_to_volume(&self, eta: &[u64]) -> f64 {
        assert_eq!(eta.len(), self.dims());
        self.gammas
            .iter()
            .zip(eta.iter())
            .map(|(&g, &e)| g as f64 / e as f64)
            .sum()
    }
}

/// All distributions of `r` copies of one prime factor into `d` bins that
/// satisfy Lemma 1: each returned vector `e` has `Σ e_t = r + m` with
/// `m = max e_t`, and at least two bins attain `m`.
///
/// This is a faithful port of the paper's Figure 2 C program
/// (`Partitions(r, d)`), generating *ordered* vectors (all assignments of
/// exponents to concrete dimensions), in the same order.
///
/// # Panics
/// Panics if `d < 2` (the paper's precondition) or `r == 0`.
pub fn factor_distributions(r: u32, d: usize) -> Vec<Vec<u32>> {
    assert!(d >= 2, "Figure 2 requires d >= 2");
    assert!(r >= 1, "a prime factor has multiplicity >= 1");
    let mut out = Vec::new();
    let mut bins = vec![0u32; d];
    // for (m = (r+d-2)/(d-1); m <= r; m++) P(r+m, m, 2, 1, d);
    let lo = (r + d as u32 - 2) / (d as u32 - 1); // ⌈r/(d−1)⌉
    for m in lo..=r {
        gen_rec(r + m, m, 2, 0, d, &mut bins, &mut out);
    }
    out
}

/// Recursive helper — the paper's `P(n, m, c, t, d)` with 0-based `t`.
///
/// Distributes `n` elements into bins `t..d`, each holding at most `m`, such
/// that at least `c` of them hold exactly `m`.
fn gen_rec(n: u32, m: u32, c: u32, t: usize, d: usize, bins: &mut [u32], out: &mut Vec<Vec<u32>>) {
    if t == d - 1 {
        bins[t] = n;
        out.push(bins.to_vec());
        return;
    }
    let remaining = (d - 1 - t) as u32; // bins after t
                                        // for (i = max(0, n - (d-t)*m); i <= min(m-1, n - c*m); i++)
    let lo = n.saturating_sub(remaining * m);
    let hi_raw = n.checked_sub(c * m);
    if let Some(hi) = hi_raw {
        let hi = hi.min(m.saturating_sub(1));
        for i in lo..=hi {
            if m == 0 && i > 0 {
                break;
            }
            bins[t] = i;
            gen_rec(n - i, m, c, t + 1, d, bins, out);
        }
    }
    // if (n >= m) { bin[t] = m; P(n-m, m, max(0,c-1), t+1, d); }
    if n >= m {
        bins[t] = m;
        gen_rec(n - m, m, c.saturating_sub(1), t + 1, d, bins, out);
    }
}

/// All *elementary* partitionings of a `d`-dimensional array for `p`
/// processors: the cartesian combination, across `p`'s prime factors, of the
/// per-factor distributions from [`factor_distributions`].
///
/// Each returned `Partitioning` is valid for `p` (a consequence of Lemma 1,
/// asserted in debug builds) and satisfies the elementary conditions.
/// For `p == 1` the single partitioning `(1, …, 1)` is returned.
/// ```
/// use mp_core::partition::elementary_partitionings;
/// // §3.2: for p = 8 in 3-D, only 4×4×2 and 8×8×1 (and permutations).
/// let parts = elementary_partitionings(8, 3);
/// assert_eq!(parts.len(), 6);
/// assert!(parts.iter().all(|pt| pt.is_valid(8)));
/// ```
pub fn elementary_partitionings(p: u64, d: usize) -> Vec<Partitioning> {
    assert!(d >= 2, "multipartitioning requires d >= 2");
    assert!(p >= 1);
    if p == 1 {
        return vec![Partitioning::new(vec![1; d])];
    }
    let fac = Factorization::of(p);
    let per_factor: Vec<(u64, Vec<Vec<u32>>)> = fac
        .primes
        .iter()
        .map(|pp| (pp.prime, factor_distributions(pp.exp, d)))
        .collect();

    let mut result = Vec::new();
    let mut gammas = vec![1u64; d];
    combine(&per_factor, 0, &mut gammas, &mut result);
    debug_assert!(result.iter().all(|pt| pt.is_valid(p)));
    result
}

fn combine(
    per_factor: &[(u64, Vec<Vec<u32>>)],
    idx: usize,
    gammas: &mut Vec<u64>,
    out: &mut Vec<Partitioning>,
) {
    if idx == per_factor.len() {
        out.push(Partitioning::new(gammas.clone()));
        return;
    }
    let (prime, dists) = &per_factor[idx];
    for dist in dists {
        let saved = gammas.clone();
        for (g, &e) in gammas.iter_mut().zip(dist.iter()) {
            *g *= prime.pow(e);
        }
        combine(per_factor, idx + 1, gammas, out);
        *gammas = saved;
    }
}

/// Count elementary partitionings without materializing them (used by the
/// complexity-curve experiment for the §3.3 bound).
pub fn count_elementary_partitionings(p: u64, d: usize) -> u64 {
    assert!(d >= 2);
    if p == 1 {
        return 1;
    }
    Factorization::of(p)
        .primes
        .iter()
        .map(|pp| factor_distributions(pp.exp, d).len() as u64)
        .product()
}

/// Enumerate *all* valid partitionings with `γ_i ≤ cap` — an exponential
/// brute-force oracle used by tests to confirm that the optimum over
/// elementary partitionings is the global optimum.
pub fn valid_partitionings_bruteforce(p: u64, d: usize, cap: u64) -> Vec<Partitioning> {
    let mut out = Vec::new();
    let mut v = vec![1u64; d];
    loop {
        let pt = Partitioning::new(v.clone());
        if pt.is_valid(p) {
            out.push(pt);
        }
        let mut k = 0;
        loop {
            if k == d {
                return out;
            }
            if v[k] < cap {
                v[k] += 1;
                break;
            }
            v[k] = 1;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// True if `pt` is *elementary* for `p` in the sense of Lemma 1.
    fn is_elementary(pt: &Partitioning, p: u64) -> bool {
        let fac = Factorization::of(p);
        for pp in &fac.primes {
            let exps: Vec<u32> = pt
                .gammas
                .iter()
                .map(|&g| multiplicity(g, pp.prime))
                .collect();
            let total: u32 = exps.iter().sum();
            let m = *exps.iter().max().unwrap();
            if total != pp.exp + m {
                return false;
            }
            if exps.iter().filter(|&&e| e == m).count() < 2 {
                return false;
            }
        }
        // Elementary partitionings contain no primes outside p's support.
        let residual: u64 = pt.gammas.iter().fold(1u64, |acc, &g| {
            let mut g = g;
            for pp in &fac.primes {
                while g % pp.prime == 0 {
                    g /= pp.prime;
                }
            }
            acc.saturating_mul(g)
        });
        residual == 1
    }

    /// Multiplicity of `prime` in `n`.
    fn multiplicity(mut n: u64, prime: u64) -> u32 {
        let mut e = 0;
        while n.is_multiple_of(prime) && n > 0 {
            n /= prime;
            e += 1;
        }
        e
    }

    /// All partitions of the integer `n` into at most `max_parts` parts, each
    /// at most `max_part`, in non-increasing order — the classical object
    /// (Euler/Ramanujan; the paper adapts Sawada's generator \[16\] for
    /// Figure 2). The *multisets* of Lemma 1 distributions for multiplicity
    /// `r` are exactly the partitions of `r + m` with largest part `m`
    /// repeated at least twice, unioned over `m`.
    fn integer_partitions(n: u32, max_part: u32, max_parts: usize) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut cur = Vec::new();
        fn rec(n: u32, max_part: u32, slots: usize, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
            if n == 0 {
                out.push(cur.clone());
                return;
            }
            if slots == 0 {
                return;
            }
            let hi = max_part.min(n);
            for part in (1..=hi).rev() {
                cur.push(part);
                rec(n - part, part, slots - 1, cur, out);
                cur.pop();
            }
        }
        rec(n, max_part, max_parts, &mut cur, &mut out);
        out
    }

    /// Brute-force oracle for [`factor_distributions`]: enumerate every
    /// vector in `{0..=r}^d` and keep the ones satisfying Lemma 1 for this
    /// prime (exponential; keep `r`, `d` small).
    fn factor_distributions_bruteforce(r: u32, d: usize) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut v = vec![0u32; d];
        loop {
            let total: u32 = v.iter().sum();
            let m = *v.iter().max().unwrap();
            if m >= 1 && total == r + m && v.iter().filter(|&&e| e == m).count() >= 2 {
                out.push(v.clone());
            }
            // odometer increment over {0..=r}^d
            let mut k = 0;
            loop {
                if k == d {
                    return out;
                }
                if v[k] < r {
                    v[k] += 1;
                    break;
                }
                v[k] = 0;
                k += 1;
            }
        }
    }

    fn as_set(v: Vec<Vec<u32>>) -> BTreeSet<Vec<u32>> {
        v.into_iter().collect()
    }

    fn gamma_sets(p: u64, d: usize) -> BTreeSet<Vec<u64>> {
        elementary_partitionings(p, d)
            .into_iter()
            .map(|pt| pt.gammas)
            .collect()
    }

    #[test]
    fn figure2_matches_bruteforce() {
        for d in 2..=5 {
            for r in 1..=6 {
                let fast = as_set(factor_distributions(r, d));
                let brute = as_set(factor_distributions_bruteforce(r, d));
                assert_eq!(fast, brute, "mismatch at r={r}, d={d}");
            }
        }
    }

    #[test]
    fn figure2_generates_no_duplicates() {
        for d in 2..=5 {
            for r in 1..=7 {
                let v = factor_distributions(r, d);
                let s = as_set(v.clone());
                assert_eq!(v.len(), s.len(), "duplicates at r={r}, d={d}");
            }
        }
    }

    #[test]
    fn figure2_r1_d2() {
        // One factor of α into 2 bins: total = 1 + m, m = max, two maxima.
        // m = 1: total 2, vectors with two 1s: (1,1). That's all.
        assert_eq!(as_set(factor_distributions(1, 2)), as_set(vec![vec![1, 1]]));
    }

    #[test]
    fn figure2_r1_d3() {
        // (1,1,0) in all arrangements.
        let expect = vec![vec![1, 1, 0], vec![1, 0, 1], vec![0, 1, 1]];
        assert_eq!(as_set(factor_distributions(1, 3)), as_set(expect));
    }

    #[test]
    fn paper_example_p8_d3() {
        // p = 8 = 2³, d = 3: elementary partitionings are 4×4×2 and 8×8×1
        // (plus permutations) — exactly as §3.2 states.
        let sets = gamma_sets(8, 3);
        let mut expect = BTreeSet::new();
        for perm in permutations(&[4, 4, 2]) {
            expect.insert(perm);
        }
        for perm in permutations(&[8, 8, 1]) {
            expect.insert(perm);
        }
        assert_eq!(sets, expect);
    }

    #[test]
    fn paper_example_p30_d3() {
        // p = 30 = 5·3·2: elementary are 10×15×6, 15×30×2, 10×30×3, 5×30×6,
        // 30×30×1 and permutations (§3.2).
        let sets = gamma_sets(30, 3);
        let mut expect = BTreeSet::new();
        for base in [
            [10u64, 15, 6],
            [15, 30, 2],
            [10, 30, 3],
            [5, 30, 6],
            [30, 30, 1],
        ] {
            for perm in permutations(&base) {
                expect.insert(perm);
            }
        }
        assert_eq!(sets, expect);
    }

    #[test]
    fn elementary_always_valid() {
        for p in 2..=64u64 {
            for d in 2..=4usize {
                for pt in elementary_partitionings(p, d) {
                    assert!(pt.is_valid(p), "p={p} d={d} gammas={:?}", pt.gammas);
                    assert!(is_elementary(&pt, p), "p={p} d={d} gammas={:?}", pt.gammas);
                }
            }
        }
    }

    #[test]
    fn elementary_flag_rejects_non_elementary() {
        // (2,2,2) is valid for p=4 but not elementary (2 appears 3 = r+m
        // times only if m=1, but then max attained 3 times — wait, that IS
        // ≥ 2. Total = 3, r = 2, m = 1, r+m = 3 ✓, maxima count 3 ≥ 2 ✓ — so
        // (2,2,2) IS elementary for p=4.) A real non-elementary example:
        // (4,4,2) for p=4 — a "multiple" of (2,2,1).
        let pt = Partitioning::new(vec![4, 4, 2]);
        assert!(pt.is_valid(4));
        assert!(!is_elementary(&pt, 4));
        // And (2,2,2) is elementary for p=4:
        assert!(is_elementary(&Partitioning::new(vec![2, 2, 2]), 4));
        // A partitioning with a stray prime is not elementary:
        let pt = Partitioning::new(vec![6, 2, 2]);
        assert!(pt.is_valid(4));
        assert!(!is_elementary(&pt, 4));
    }

    #[test]
    fn diagonal_shapes_are_elementary_for_squares() {
        // p = q²: (q, q, q) is the diagonal 3-D multipartitioning shape.
        for q in 2..=9u64 {
            let p = q * q;
            let pt = Partitioning::new(vec![q, q, q]);
            assert!(pt.is_valid(p));
            assert!(is_elementary(&pt, p));
            assert!(gamma_sets(p, 3).contains(&vec![q, q, q]));
        }
    }

    #[test]
    fn two_d_diagonal_is_elementary() {
        // In 2-D, (p, p) is the classic Johnsson et al. partitioning.
        for p in 2..=30u64 {
            let pt = Partitioning::new(vec![p, p]);
            assert!(pt.is_valid(p));
            assert!(is_elementary(&pt, p));
        }
    }

    #[test]
    fn count_matches_enumeration() {
        for p in 2..=100u64 {
            for d in 2..=4usize {
                assert_eq!(
                    count_elementary_partitionings(p, d),
                    elementary_partitionings(p, d).len() as u64,
                    "p={p} d={d}"
                );
            }
        }
    }

    #[test]
    fn validity_brute_force_cross_check() {
        // Every elementary partitioning must appear in the brute-force valid
        // set (restricted to its own max γ).
        for p in [4u64, 6, 8, 12] {
            let elems = elementary_partitionings(p, 3);
            let cap = elems
                .iter()
                .flat_map(|pt| pt.gammas.iter().copied())
                .max()
                .unwrap();
            let valid: BTreeSet<Vec<u64>> = valid_partitionings_bruteforce(p, 3, cap)
                .into_iter()
                .map(|pt| pt.gammas)
                .collect();
            for pt in elems {
                assert!(valid.contains(&pt.gammas), "p={p} {:?}", pt.gammas);
            }
        }
    }

    #[test]
    fn tiles_per_proc_per_slab() {
        // p=8, (4,4,2): slab ⟂ dim0 has 4·2 = 8 tiles → 1 per proc;
        // slab ⟂ dim2 has 16 tiles → 2 per proc.
        let pt = Partitioning::new(vec![4, 4, 2]);
        assert_eq!(pt.tiles_per_proc_per_slab(8, 0), 1);
        assert_eq!(pt.tiles_per_proc_per_slab(8, 1), 1);
        assert_eq!(pt.tiles_per_proc_per_slab(8, 2), 2);
        assert_eq!(pt.tiles_per_proc(8), 4);
    }

    #[test]
    fn integer_partitions_classic_counts() {
        // p(n) for unrestricted partitions: 1, 2, 3, 5, 7, 11, 15, 22, 30.
        for (n, want) in [
            (1u32, 1usize),
            (2, 2),
            (3, 3),
            (4, 5),
            (5, 7),
            (6, 11),
            (7, 15),
            (8, 22),
            (9, 30),
        ] {
            assert_eq!(integer_partitions(n, n, n as usize).len(), want, "p({n})");
        }
        // Restricted: partitions of 5 into ≤ 2 parts: 5, 4+1, 3+2.
        assert_eq!(integer_partitions(5, 5, 2).len(), 3);
        // Restricted part size: partitions of 4 with parts ≤ 2: 2+2, 2+1+1, 1+1+1+1.
        assert_eq!(integer_partitions(4, 2, 4).len(), 3);
    }

    #[test]
    fn figure2_multisets_are_restricted_partitions() {
        // Cross-check against the classical theory (the paper's [16]/[17]
        // references): the multisets produced by the Figure 2 generator for
        // multiplicity r over d bins are exactly, over m ∈ [⌈r/(d−1)⌉, r],
        // the partitions of r + m into ≤ d parts with all parts ≤ m and the
        // part m appearing ≥ 2 times.
        for d in 2..=5usize {
            for r in 1..=7u32 {
                let from_fig2: BTreeSet<Vec<u32>> = factor_distributions(r, d)
                    .into_iter()
                    .map(|mut v| {
                        v.sort_unstable_by(|a, b| b.cmp(a));
                        v.retain(|&x| x > 0); // partitions have no zero parts
                        v
                    })
                    .collect();
                let mut from_theory = BTreeSet::new();
                let lo = r.div_ceil(d as u32 - 1);
                for m in lo..=r {
                    for part in integer_partitions(r + m, m, d) {
                        if part.iter().filter(|&&x| x == m).count() >= 2 {
                            from_theory.insert(part);
                        }
                    }
                }
                assert_eq!(from_fig2, from_theory, "r={r} d={d}");
            }
        }
    }

    #[test]
    fn compactness_measures_tile_inflation() {
        // Diagonal shapes are compact (ratio 1).
        for q in 2..=6u64 {
            let p = q * q;
            let pt = Partitioning::new(vec![q, q, q]);
            assert!((pt.compactness(p) - 1.0).abs() < 1e-12, "p={p}");
        }
        // The paper's p = 50 example: 5×10×10 = 500 tiles vs 50^{3/2} ≈ 354
        // — visibly less compact than 49's 7×7×7 (ratio 1).
        let c50 = Partitioning::new(vec![5, 10, 10]).compactness(50);
        assert!(c50 > 1.3 && c50 < 1.5, "compactness {c50}");
        let c49 = Partitioning::new(vec![7, 7, 7]).compactness(49);
        assert!((c49 - 1.0).abs() < 1e-12);
        // All elementary partitionings of p = 30 share the same tile count
        // (the per-prime totals r_j + m_j are forced), so compactness ties —
        // surface-to-volume is what separates (30,30,1) from (10,15,6):
        let eta = [90u64, 90, 90];
        let loose = Partitioning::new(vec![30, 30, 1]).surface_to_volume(&eta);
        let tight = Partitioning::new(vec![10, 15, 6]).surface_to_volume(&eta);
        assert!(loose > 1.9 * tight, "{loose} vs {tight}");
    }

    #[test]
    fn surface_to_volume_matches_remark() {
        // §3.1 Remark arithmetic: at η = (128,128,32),
        // (4,4,1): 4/128+4/128+1/32 = 3/32; (2,2,2): 2/128+2/128+2/32 = 3/32.
        let eta = [128u64, 128, 32];
        let a = Partitioning::new(vec![4, 4, 1]).surface_to_volume(&eta);
        let b = Partitioning::new(vec![2, 2, 2]).surface_to_volume(&eta);
        assert!((a - 3.0 / 32.0).abs() < 1e-12);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn multiplicity_basic() {
        assert_eq!(multiplicity(8, 2), 3);
        assert_eq!(multiplicity(12, 2), 2);
        assert_eq!(multiplicity(12, 3), 1);
        assert_eq!(multiplicity(7, 2), 0);
        assert_eq!(multiplicity(1, 2), 0);
    }

    #[test]
    #[should_panic]
    fn zero_gamma_rejected() {
        let _ = Partitioning::new(vec![2, 0, 2]);
    }

    /// All distinct permutations of a 3-vector.
    fn permutations(v: &[u64; 3]) -> Vec<Vec<u64>> {
        let idx = [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ];
        let mut out: Vec<Vec<u64>> = idx
            .iter()
            .map(|ix| ix.iter().map(|&i| v[i]).collect())
            .collect();
        out.sort();
        out.dedup();
        out
    }
}
