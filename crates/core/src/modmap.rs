//! Modular mappings (§4): assigning tiles to processors.
//!
//! A **modular mapping** `M_m̄ : ℤ^d → ℤ_{m_1} × … × ℤ_{m_d}` sends a tile
//! coordinate vector `ī` to `(M ī) mod m̄` for an integer matrix `M` and a
//! positive modulus vector `m̄`. Viewing the processors as a virtual grid of
//! shape `m̄` (with `Π m_i = p`), this assigns every tile a processor.
//!
//! The paper's construction (Figure 3) builds, for any *valid* partitioning
//! `b̄ = (γ_1, …, γ_d)`, a unit-triangular-ish matrix `M` and the modulus
//! vector
//!
//! ```text
//! m_i = gcd(p, Π_{j=i}^d b_j) / gcd(p, Π_{j=i+1}^d b_j)
//! ```
//!
//! such that `M_m̄` has the **load-balancing property**: restricted to any
//! slice `{ī : i_k = const}`, it hits every processor equally many times.
//! That is exactly the *balance* property a multipartitioning needs.
//!
//! The *neighbor* property comes for free with any modular mapping: tiles
//! adjacent along dimension `k` differ by `e_k`, so their processors differ
//! by the constant vector `(M e_k) mod m̄` — i.e. all neighbors (in one
//! direction) of one processor's tiles live on a single other processor.
//!
//! This module provides the construction, the paper's diagonal special case,
//! and brute-force load-balance and neighbor checks (run by
//! [`crate::multipart::Multipartitioning::verify`] and `mpart map
//! --verify`).

use crate::factor::gcd_with_product;

/// A modular tile-to-processor mapping `ī ↦ (M ī) mod m̄`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModularMapping {
    /// The tile-grid shape `b̄` this mapping was built for (`b[i] = γ_i`).
    pub b: Vec<u64>,
    /// Moduli `m̄`; `Π m_i = p`. Components equal to 1 are kept (they carry
    /// no information but preserve indexing).
    pub m: Vec<u64>,
    /// The mapping matrix, row-major: `mat[i][j]` multiplies tile coordinate
    /// `j` in processor-grid coordinate `i`. Stored reduced mod `m[i]`
    /// (each entry in `0..m[i]`, or 0 where `m[i] == 1`).
    pub mat: Vec<Vec<i64>>,
}

impl ModularMapping {
    /// Dimensionality `d`.
    pub fn dims(&self) -> usize {
        self.b.len()
    }

    /// Total processor count `p = Π m_i`.
    pub fn procs(&self) -> u64 {
        self.m.iter().product()
    }

    /// Build the modulus vector of §4 for partitioning `b` on `p`
    /// processors: `m_i = gcd(p, Π_{j≥i} b_j) / gcd(p, Π_{j>i} b_j)`.
    ///
    /// For a valid partitioning `m_1 = 1` and `Π m_i = p` (both checked).
    pub fn modulus_vector(p: u64, b: &[u64]) -> Vec<u64> {
        let d = b.len();
        let mut m = vec![1u64; d];
        for i in 0..d {
            let g_from_i = gcd_with_product(p, &b[i..]);
            let g_after_i = gcd_with_product(p, &b[i + 1..]);
            debug_assert_eq!(g_from_i % g_after_i, 0);
            m[i] = g_from_i / g_after_i;
        }
        m
    }

    /// The paper's Figure 3 construction for a valid partitioning `b` on
    /// `p` processors.
    ///
    /// The resulting mapping has the load-balancing property (verified
    /// exhaustively in the test-suite via [`ModularMapping::check_load_balance`]).
    ///
    /// ```
    /// use mp_core::modmap::ModularMapping;
    /// let map = ModularMapping::construct(8, &[4, 4, 2]);
    /// assert_eq!(map.m, vec![1, 4, 2]); // the §4 modulus vector
    /// map.check_load_balance().unwrap();
    /// map.check_neighbor_property().unwrap();
    /// ```
    ///
    /// # Panics
    /// Panics if `b` is not a valid partitioning for `p` (i.e. some slab
    /// could never be balanced), if `d < 2`, or if any `b_i == 0`.
    pub fn construct(p: u64, b: &[u64]) -> Self {
        let d = b.len();
        assert!(d >= 2, "modular mapping construction requires d >= 2");
        assert!(b.iter().all(|&x| x > 0));
        assert!(
            crate::partition::Partitioning::new(b.to_vec()).is_valid(p),
            "({b:?}) is not a valid partitioning for p = {p}"
        );

        let m = Self::modulus_vector(p, b);
        debug_assert_eq!(m[0], 1, "m_1 must be 1 for a valid partitioning");
        debug_assert_eq!(m.iter().product::<u64>(), p);

        // Figure 3, 0-based. Initial matrix: first column all 1s, unit
        // diagonal, zeros elsewhere.
        let mut mat = vec![vec![0i64; d]; d];
        for (i, row) in mat.iter_mut().enumerate() {
            row[0] = 1;
            row[i] = 1;
        }
        for i in 1..d {
            // r = m[i]; for j = i−1 down to 1: eliminate via row j.
            let mut r = m[i] as i64;
            for j in (1..i).rev() {
                let t = r / crate::factor::gcd_i64(r, b[j] as i64);
                let (head, tail) = mat.split_at_mut(i);
                for (dst, src) in tail[0][..i].iter_mut().zip(head[j][..i].iter()) {
                    *dst -= t * src;
                }
                r = crate::factor::gcd_i64(t * m[j] as i64, r);
            }
        }
        // Reduce coefficients mod m[i] (the paper's implementation does the
        // same to keep coefficients small).
        for (i, row) in mat.iter_mut().enumerate() {
            let mi = m[i] as i64;
            for v in row.iter_mut() {
                *v = v.rem_euclid(mi.max(1));
            }
        }
        ModularMapping {
            b: b.to_vec(),
            m,
            mat,
        }
    }

    /// The Figure 3 construction applied to a *permutation* of the tile-grid
    /// axes — the paper notes its implementation pre-permutes the components
    /// of `b̄` (e.g. to make coefficients smaller); different permutations
    /// yield different legal mappings, which a topology-aware chooser can
    /// search over (see `crate::topology::best_mapping_for_topology`).
    ///
    /// `perm[k]` gives the original axis placed at position `k` during
    /// construction; the returned mapping is expressed back in the original
    /// axis order (its `b` equals the input `b`).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..d` or the partitioning
    /// is invalid.
    pub fn construct_permuted(p: u64, b: &[u64], perm: &[usize]) -> Self {
        let d = b.len();
        assert_eq!(perm.len(), d);
        let mut seen = vec![false; d];
        for &k in perm {
            assert!(k < d && !seen[k], "perm must be a permutation of 0..d");
            seen[k] = true;
        }
        let b_perm: Vec<u64> = perm.iter().map(|&k| b[k]).collect();
        let inner = Self::construct(p, &b_perm);
        // Un-permute: column for original axis k is the inner column at the
        // position where perm placed k.
        let mut mat = vec![vec![0i64; d]; d];
        for (pos, &orig) in perm.iter().enumerate() {
            for (row, inner_row) in mat.iter_mut().zip(inner.mat.iter()) {
                row[orig] = inner_row[pos];
            }
        }
        ModularMapping {
            b: b.to_vec(),
            m: inner.m,
            mat,
        }
    }

    /// The classic *diagonal* multipartitioning mapping (§2, Figure 1) for a
    /// `d`-dimensional `q × … × q` tile grid on `p = q^{d−1}` processors:
    ///
    /// ```text
    /// θ(i_1, …, i_d) = ((i_1 − i_d) mod q, …, (i_{d−1} − i_d) mod q)
    /// ```
    ///
    /// In 3-D with `q = √p` this is exactly the Figure 1 mapping
    /// `θ(i,j,k) = ((i−k) mod √p)·√p + ((j−k) mod √p)`.
    pub fn diagonal(q: u64, d: usize) -> Self {
        assert!(d >= 2 && q >= 1);
        let b = vec![q; d];
        let mut m = vec![q; d];
        m[d - 1] = 1; // the last component carries no information
        let mut mat = vec![vec![0i64; d]; d];
        for (i, row) in mat.iter_mut().enumerate().take(d - 1) {
            row[i] = 1;
            row[d - 1] = -1i64;
        }
        // Reduce mod m.
        for (i, row) in mat.iter_mut().enumerate() {
            let mi = m[i] as i64;
            for v in row.iter_mut() {
                *v = v.rem_euclid(mi.max(1));
            }
        }
        ModularMapping { b, m, mat }
    }

    /// Apply the mapping: processor-grid coordinates of tile `ī`.
    pub fn apply(&self, tile: &[u64]) -> Vec<u64> {
        assert_eq!(tile.len(), self.dims());
        self.mat
            .iter()
            .zip(self.m.iter())
            .map(|(row, &mi)| {
                if mi == 1 {
                    return 0;
                }
                let mut acc: i64 = 0;
                for (&c, &t) in row.iter().zip(tile.iter()) {
                    acc = (acc + c.rem_euclid(mi as i64) * (t % mi) as i64).rem_euclid(mi as i64);
                }
                acc as u64
            })
            .collect()
    }

    /// Linearized processor id in `0..p`: mixed-radix over the processor
    /// grid, most-significant component first.
    pub fn proc_id(&self, tile: &[u64]) -> u64 {
        let coords = self.apply(tile);
        coords
            .iter()
            .zip(self.m.iter())
            .fold(0u64, |acc, (&c, &mi)| acc * mi + c)
    }

    /// Processor-grid offset between a tile and its neighbor one step along
    /// `dim` (i.e. `(M e_dim) mod m̄`). All same-direction neighbors of one
    /// processor's tiles land on the single processor at this offset — the
    /// **neighbor property**.
    pub fn neighbor_offset(&self, dim: usize) -> Vec<u64> {
        assert!(dim < self.dims());
        self.mat
            .iter()
            .zip(self.m.iter())
            .map(|(row, &mi)| row[dim].rem_euclid(mi.max(1) as i64) as u64)
            .collect()
    }

    /// The processor id a given processor's `dim`-direction neighbors belong
    /// to, moving `step` tiles (±1 for sweep communication).
    pub fn neighbor_proc(&self, proc: u64, dim: usize, step: i64) -> u64 {
        let coords = self.proc_coords(proc);
        let off = self.neighbor_offset(dim);
        let moved: Vec<u64> = coords
            .iter()
            .zip(off.iter())
            .zip(self.m.iter())
            .map(|((&c, &o), &mi)| {
                let mi = mi as i64;
                (c as i64 + step * o as i64).rem_euclid(mi.max(1)) as u64
            })
            .collect();
        moved
            .iter()
            .zip(self.m.iter())
            .fold(0u64, |acc, (&c, &mi)| acc * mi + c)
    }

    /// Inverse of the mixed-radix linearization.
    pub fn proc_coords(&self, mut proc: u64) -> Vec<u64> {
        let d = self.dims();
        let mut coords = vec![0u64; d];
        for i in (0..d).rev() {
            coords[i] = proc % self.m[i];
            proc /= self.m[i];
        }
        coords
    }

    /// Enumerate all tiles owned by `proc`, in lexicographic tile order.
    ///
    /// The paper notes that with modular mappings "the list of tiles
    /// assigned to [a processor] can be easily formulated, which is handy
    /// for use in a run-time library": for the unit-lower-triangular
    /// matrices the Figure 3 construction produces, each tile coordinate is
    /// determined by back-substitution modulo `m_i` given the earlier
    /// coordinates, so enumeration costs `O(d · tiles-per-processor)`
    /// ([`Self::tiles_of_direct`]). Non-triangular mappings (e.g. the
    /// diagonal form) fall back to a full scan.
    pub fn tiles_of(&self, proc: u64) -> Vec<Vec<u64>> {
        if self.is_unit_lower_triangular() {
            self.tiles_of_direct(proc)
        } else {
            self.tiles_of_scan(proc)
        }
    }

    /// True if the mapping matrix is unit lower triangular on every
    /// component with `m_i > 1` (always the case for [`Self::construct`]).
    pub fn is_unit_lower_triangular(&self) -> bool {
        let d = self.dims();
        for i in 0..d {
            if self.m[i] == 1 {
                continue; // trivial component carries no constraint
            }
            if self.mat[i][i] != 1 {
                return false;
            }
            for j in i + 1..d {
                if self.mat[i][j] != 0 {
                    return false;
                }
            }
        }
        true
    }

    /// Direct per-processor enumeration by back-substitution (requires a
    /// unit-lower-triangular mapping; see [`Self::tiles_of`]). Output is in
    /// lexicographic tile order.
    pub fn tiles_of_direct(&self, proc: u64) -> Vec<Vec<u64>> {
        debug_assert!(self.is_unit_lower_triangular());
        let d = self.dims();
        let target = self.proc_coords(proc);
        let mut out = Vec::new();
        let mut tile = vec![0u64; d];
        // Depth-first over coordinates: at depth i, the congruence
        //   t_i ≡ target_i − Σ_{k<i} M[i][k]·t_k  (mod m_i)
        // pins t_i to an arithmetic progression inside [0, b_i).
        fn rec(
            map: &ModularMapping,
            target: &[u64],
            i: usize,
            tile: &mut Vec<u64>,
            out: &mut Vec<Vec<u64>>,
        ) {
            let d = map.dims();
            if i == d {
                out.push(tile.clone());
                return;
            }
            let mi = map.m[i];
            if mi == 1 {
                // Unconstrained coordinate: every value in [0, b_i).
                for v in 0..map.b[i] {
                    tile[i] = v;
                    rec(map, target, i + 1, tile, out);
                }
                return;
            }
            let mut acc: i64 = 0;
            for (c, t) in map.mat[i][..i].iter().zip(tile[..i].iter()) {
                acc += c.rem_euclid(mi as i64) * (t % mi) as i64;
            }
            let x = (target[i] as i64 - acc).rem_euclid(mi as i64) as u64;
            let mut v = x;
            while v < map.b[i] {
                tile[i] = v;
                rec(map, target, i + 1, tile, out);
                v += mi;
            }
        }
        rec(self, &target, 0, &mut tile, &mut out);
        out
    }

    /// Full-scan enumeration (works for any mapping); `O(Π b_i)`.
    pub fn tiles_of_scan(&self, proc: u64) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        self.for_each_tile(|tile| {
            if self.proc_id(tile) == proc {
                out.push(tile.to_vec());
            }
        });
        out
    }

    /// Visit every tile coordinate in lexicographic order.
    pub fn for_each_tile(&self, mut f: impl FnMut(&[u64])) {
        let d = self.dims();
        let mut t = vec![0u64; d];
        loop {
            f(&t);
            let mut k = d;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                t[k] += 1;
                if t[k] < self.b[k] {
                    break;
                }
                t[k] = 0;
                if k == 0 {
                    return;
                }
            }
        }
    }

    /// Brute-force check of the **load-balancing property**: for every
    /// dimension `k` and slice value `v`, every processor owns exactly
    /// `Π_{j≠k} b_j / p` tiles of the slab `{ī : i_k = v}`.
    ///
    /// Returns `Err` with a description of the first violation.
    pub fn check_load_balance(&self) -> Result<(), String> {
        let p = self.procs();
        let d = self.dims();
        for k in 0..d {
            let slab_tiles: u64 = self
                .b
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != k)
                .map(|(_, &x)| x)
                .product();
            if !slab_tiles.is_multiple_of(p) {
                return Err(format!(
                    "slab ⟂ dim {k} has {slab_tiles} tiles, not a multiple of p = {p}"
                ));
            }
            let expect = slab_tiles / p;
            for v in 0..self.b[k] {
                let mut counts = vec![0u64; p as usize];
                self.for_each_tile(|tile| {
                    if tile[k] == v {
                        counts[self.proc_id(tile) as usize] += 1;
                    }
                });
                for (proc, &c) in counts.iter().enumerate() {
                    if c != expect {
                        return Err(format!(
                            "slice i_{k} = {v}: processor {proc} owns {c} tiles, expected {expect}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Brute-force check of the **neighbor property**: for every processor,
    /// every dimension, and every direction, the (non-wrapping) neighbors of
    /// all its tiles belong to a single processor — and that processor is
    /// [`Self::neighbor_proc`].
    pub fn check_neighbor_property(&self) -> Result<(), String> {
        let d = self.dims();
        let mut owner_of: Vec<(Vec<u64>, u64)> = Vec::new();
        self.for_each_tile(|tile| {
            owner_of.push((tile.to_vec(), self.proc_id(tile)));
        });
        for dim in 0..d {
            for step in [-1i64, 1] {
                for (tile, proc) in &owner_of {
                    let pos = tile[dim] as i64 + step;
                    if pos < 0 || pos >= self.b[dim] as i64 {
                        continue; // boundary: no interior neighbor
                    }
                    let mut ntile = tile.clone();
                    ntile[dim] = pos as u64;
                    let nproc = self.proc_id(&ntile);
                    let predicted = self.neighbor_proc(*proc, dim, step);
                    if nproc != predicted {
                        return Err(format!(
                            "tile {tile:?} (proc {proc}) neighbor along dim {dim} step {step} \
                             is proc {nproc}, but neighbor_proc predicts {predicted}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::elementary_partitionings;

    #[test]
    fn modulus_vector_paper_cases() {
        // p=16, b=(4,4,4): m = (1,4,4).
        assert_eq!(
            ModularMapping::modulus_vector(16, &[4, 4, 4]),
            vec![1, 4, 4]
        );
        // p=8, b=(4,4,2): m = (1,4,2).
        assert_eq!(ModularMapping::modulus_vector(8, &[4, 4, 2]), vec![1, 4, 2]);
        // p=8, b=(8,8,1): m = (1,8,1).
        assert_eq!(ModularMapping::modulus_vector(8, &[8, 8, 1]), vec![1, 8, 1]);
        // p=36, b=(36,4,9): m = (1,4,9).
        assert_eq!(
            ModularMapping::modulus_vector(36, &[36, 4, 9]),
            vec![1, 4, 9]
        );
    }

    #[test]
    fn modulus_vector_product_is_p() {
        for p in 2..=60u64 {
            for part in elementary_partitionings(p, 3) {
                let m = ModularMapping::modulus_vector(p, &part.gammas);
                assert_eq!(m.iter().product::<u64>(), p, "p={p} b={:?}", part.gammas);
                assert_eq!(m[0], 1);
                // m_i | b_i (needed by Lemma 4's recursion).
                for (mi, bi) in m.iter().zip(part.gammas.iter()) {
                    assert_eq!(bi % mi, 0, "m_i ∤ b_i for p={p} b={:?}", part.gammas);
                }
            }
        }
    }

    #[test]
    fn construct_p16_cube() {
        let map = ModularMapping::construct(16, &[4, 4, 4]);
        map.check_load_balance().unwrap();
        map.check_neighbor_property().unwrap();
    }

    #[test]
    fn construct_all_elementary_up_to_40_3d() {
        for p in 2..=40u64 {
            for part in elementary_partitionings(p, 3) {
                let map = ModularMapping::construct(p, &part.gammas);
                map.check_load_balance()
                    .unwrap_or_else(|e| panic!("p={p} b={:?}: {e}", part.gammas));
                map.check_neighbor_property()
                    .unwrap_or_else(|e| panic!("p={p} b={:?}: {e}", part.gammas));
            }
        }
    }

    #[test]
    fn construct_4d_cases() {
        for p in [2u64, 4, 6, 8, 12, 16] {
            for part in elementary_partitionings(p, 4) {
                // keep the brute-force grid small
                if part.total_tiles() > 4096 {
                    continue;
                }
                let map = ModularMapping::construct(p, &part.gammas);
                map.check_load_balance()
                    .unwrap_or_else(|e| panic!("p={p} b={:?}: {e}", part.gammas));
                map.check_neighbor_property()
                    .unwrap_or_else(|e| panic!("p={p} b={:?}: {e}", part.gammas));
            }
        }
    }

    #[test]
    fn construct_2d_latin_squares() {
        // In 2-D with b = (p, p) the mapping is a latin square: each row and
        // column of the tile grid hits every processor exactly once.
        for p in 2..=12u64 {
            let map = ModularMapping::construct(p, &[p, p]);
            map.check_load_balance().unwrap();
            // Row check = slice i_0 = c: every processor appears once.
            for c in 0..p {
                let mut seen = vec![false; p as usize];
                for j in 0..p {
                    let id = map.proc_id(&[c, j]) as usize;
                    assert!(!seen[id], "duplicate in row {c} of latin square p={p}");
                    seen[id] = true;
                }
            }
        }
    }

    #[test]
    fn construct_non_elementary_valid_partitionings() {
        // The construction must work for ANY valid partitioning, not just
        // elementary ones (§4: "optimal or not, with or without Lemma 1").
        let cases: &[(u64, &[u64])] = &[
            (4, &[4, 4, 2]),   // a multiple of (2,2,1)
            (4, &[8, 2, 2]),   // stray factors beyond p's needs
            (6, &[6, 6, 6]),   // uniform over-cut
            (8, &[4, 4, 4]),   // 64 tiles, 8 per proc
            (12, &[12, 6, 4]), // mixed
            (9, &[3, 3, 9]),
        ];
        for &(p, b) in cases {
            let map = ModularMapping::construct(p, b);
            map.check_load_balance()
                .unwrap_or_else(|e| panic!("p={p} b={b:?}: {e}"));
            map.check_neighbor_property()
                .unwrap_or_else(|e| panic!("p={p} b={b:?}: {e}"));
        }
    }

    #[test]
    #[should_panic(expected = "not a valid partitioning")]
    fn construct_rejects_invalid() {
        // (2,2,2) is not valid for p = 8.
        let _ = ModularMapping::construct(8, &[2, 2, 2]);
    }

    #[test]
    fn diagonal_matches_figure1_formula() {
        // Figure 1: θ(i,j,k) = ((i−k) mod 4)·4 + ((j−k) mod 4), p = 16.
        let map = ModularMapping::diagonal(4, 3);
        assert_eq!(map.procs(), 16);
        for i in 0..4u64 {
            for j in 0..4u64 {
                for k in 0..4u64 {
                    let expect = ((i + 4 - k) % 4) * 4 + ((j + 4 - k) % 4);
                    assert_eq!(map.proc_id(&[i, j, k]), expect, "({i},{j},{k})");
                }
            }
        }
        map.check_load_balance().unwrap();
        map.check_neighbor_property().unwrap();
    }

    #[test]
    fn diagonal_2d_johnsson() {
        // Johnsson et al.: θ(i,j) = (i − j) mod p.
        for p in 2..=8u64 {
            let map = ModularMapping::diagonal(p, 2);
            assert_eq!(map.procs(), p);
            for i in 0..p {
                for j in 0..p {
                    assert_eq!(map.proc_id(&[i, j]), (i + p - j) % p);
                }
            }
            map.check_load_balance().unwrap();
        }
    }

    #[test]
    fn neighbor_offsets_are_matrix_columns() {
        let map = ModularMapping::construct(8, &[4, 4, 2]);
        for dim in 0..3 {
            let off = map.neighbor_offset(dim);
            for (i, &o) in off.iter().enumerate() {
                let expect = map.mat[i][dim].rem_euclid(map.m[i].max(1) as i64) as u64;
                assert_eq!(o, expect);
            }
        }
    }

    #[test]
    fn neighbor_proc_roundtrip() {
        let map = ModularMapping::construct(12, &[6, 6, 2]);
        for proc in 0..12u64 {
            for dim in 0..3 {
                let fwd = map.neighbor_proc(proc, dim, 1);
                let back = map.neighbor_proc(fwd, dim, -1);
                assert_eq!(back, proc, "±1 steps along dim {dim} must cancel");
            }
        }
    }

    #[test]
    fn tiles_of_partitions_the_grid() {
        let map = ModularMapping::construct(8, &[4, 4, 2]);
        let mut total = 0usize;
        for proc in 0..8u64 {
            let tiles = map.tiles_of(proc);
            assert_eq!(tiles.len() as u64, 32 / 8);
            total += tiles.len();
            for t in &tiles {
                assert_eq!(map.proc_id(t), proc);
            }
        }
        assert_eq!(total, 32);
    }

    #[test]
    fn direct_enumeration_matches_scan() {
        for p in 2..=30u64 {
            for part in elementary_partitionings(p, 3) {
                if part.total_tiles() > 20_000 {
                    continue;
                }
                let map = ModularMapping::construct(p, &part.gammas);
                assert!(
                    map.is_unit_lower_triangular(),
                    "Figure 3 output must be unit lower triangular: p={p} b={:?}",
                    part.gammas
                );
                for proc in 0..p {
                    assert_eq!(
                        map.tiles_of_direct(proc),
                        map.tiles_of_scan(proc),
                        "p={p} b={:?} proc={proc}",
                        part.gammas
                    );
                }
            }
        }
    }

    #[test]
    fn direct_enumeration_4d() {
        let map = ModularMapping::construct(12, &[6, 2, 6, 2]);
        for proc in 0..12u64 {
            assert_eq!(map.tiles_of_direct(proc), map.tiles_of_scan(proc));
        }
    }

    #[test]
    fn diagonal_mapping_uses_scan_fallback() {
        // The diagonal form has −1 entries right of the diagonal (column d),
        // so it is not unit lower triangular; tiles_of must still work.
        let map = ModularMapping::diagonal(4, 3);
        assert!(!map.is_unit_lower_triangular());
        for proc in 0..16u64 {
            let tiles = map.tiles_of(proc);
            assert_eq!(tiles.len(), 4);
            for t in &tiles {
                assert_eq!(map.proc_id(t), proc);
            }
        }
    }

    #[test]
    fn proc_coords_roundtrip() {
        let map = ModularMapping::construct(30, &[10, 15, 6]);
        for proc in 0..30u64 {
            let coords = map.proc_coords(proc);
            let back = coords
                .iter()
                .zip(map.m.iter())
                .fold(0u64, |acc, (&c, &mi)| acc * mi + c);
            assert_eq!(back, proc);
        }
    }

    #[test]
    fn p30_all_elementary_shapes() {
        // The paper's richest example: every elementary shape for p = 30.
        for b in [
            [10u64, 15, 6],
            [15, 30, 2],
            [10, 30, 3],
            [5, 30, 6],
            [30, 30, 1],
        ] {
            let map = ModularMapping::construct(30, &b);
            map.check_load_balance()
                .unwrap_or_else(|e| panic!("b={b:?}: {e}"));
            map.check_neighbor_property()
                .unwrap_or_else(|e| panic!("b={b:?}: {e}"));
        }
    }
}
