//! The [`Multipartitioning`] object: a complete tile decomposition plus
//! tile-to-processor assignment, with the balance and neighbor properties.
//!
//! This is the type downstream code consumes: it knows which tiles a rank
//! owns, in which order the slabs of a sweep are processed, and which single
//! neighbor rank receives each directional shift.

use crate::cost::CostModel;
use crate::modmap::ModularMapping;
use crate::partition::Partitioning;
use crate::search::optimal_for;

/// A tile coordinate in the `γ_1 × … × γ_d` tile grid.
pub type TileCoord = Vec<u64>;

/// A complete multipartitioning: tile grid shape + modular mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct Multipartitioning {
    /// Processor count.
    pub p: u64,
    /// Tile counts per dimension (`γ`).
    pub partitioning: Partitioning,
    /// The tile → processor modular mapping.
    pub mapping: ModularMapping,
}

impl Multipartitioning {
    /// Build a multipartitioning from an explicit (valid) tile-grid shape.
    pub fn from_partitioning(p: u64, partitioning: Partitioning) -> Self {
        let mapping = ModularMapping::construct(p, &partitioning.gammas);
        Multipartitioning {
            p,
            partitioning,
            mapping,
        }
    }

    /// Compute the cost-optimal generalized multipartitioning for an array of
    /// extents `eta` on `p` processors under `model` (the paper's end-to-end
    /// pipeline: §3 search, then §4 mapping).
    ///
    /// ```
    /// use mp_core::prelude::*;
    /// let mp = Multipartitioning::optimal(6, &[60, 60, 60], &CostModel::origin2000_like());
    /// // p = 6 has no 3-D diagonal multipartitioning; the generalized one
    /// // exists, is balanced, and gives each processor 6 tiles.
    /// assert_eq!(mp.tiles_of(0).len(), 6);
    /// mp.verify().unwrap();
    /// ```
    pub fn optimal(p: u64, eta: &[u64], model: &CostModel) -> Self {
        let res = optimal_for(p, eta, model);
        Self::from_partitioning(p, res.partitioning)
    }

    /// The classic diagonal multipartitioning: `q^{d−1}` processors on a
    /// `q × … × q` tile grid (3-D: `p` must be a perfect square).
    ///
    /// # Panics
    /// Panics if `p` is not a perfect `(d−1)`-th power.
    pub fn diagonal(p: u64, d: usize) -> Self {
        assert!(d >= 2);
        let fac = crate::factor::Factorization::of(p);
        let q = fac
            .perfect_root(d as u32 - 1)
            .unwrap_or_else(|| panic!("p = {p} is not a perfect {}-th power", d - 1));
        Multipartitioning {
            p,
            partitioning: Partitioning::new(vec![q; d]),
            mapping: ModularMapping::diagonal(q, d),
        }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.partitioning.dims()
    }

    /// Tile counts per dimension.
    pub fn gammas(&self) -> &[u64] {
        &self.partitioning.gammas
    }

    /// Which processor owns a tile.
    pub fn proc_of(&self, tile: &[u64]) -> u64 {
        self.mapping.proc_id(tile)
    }

    /// All tiles owned by `proc`, lexicographic order.
    pub fn tiles_of(&self, proc: u64) -> Vec<TileCoord> {
        self.mapping.tiles_of(proc)
    }

    /// Tiles owned by `proc` inside slab `slab` of a sweep along `dim`
    /// (i.e. tiles with `tile[dim] == slab`), lexicographic order.
    pub fn tiles_of_in_slab(&self, proc: u64, dim: usize, slab: u64) -> Vec<TileCoord> {
        self.tiles_of(proc)
            .into_iter()
            .filter(|t| t[dim] == slab)
            .collect()
    }

    /// Number of tiles each processor owns per slab of a sweep along `dim`.
    pub fn tiles_per_proc_per_slab(&self, dim: usize) -> u64 {
        self.partitioning.tiles_per_proc_per_slab(self.p, dim)
    }

    /// The rank that owns the `+step` neighbors (along `dim`) of all of
    /// `proc`'s tiles — the single communication partner for a directional
    /// shift (neighbor property).
    pub fn neighbor_rank(&self, proc: u64, dim: usize, step: i64) -> u64 {
        self.mapping.neighbor_proc(proc, dim, step)
    }

    /// Render the tile→processor assignment as text: one block per value of
    /// the last dimension (the exploded-cube view of the paper's Figure 1),
    /// rows = dimension 0, columns = dimension 1. Supports d ∈ {2, 3}.
    ///
    /// # Panics
    /// Panics for other dimensionalities.
    pub fn ascii_layers(&self) -> String {
        let d = self.dims();
        assert!((2..=3).contains(&d), "ascii rendering supports 2-D and 3-D");
        let g = self.gammas();
        let width = (self.p - 1).to_string().len().max(2);
        let mut out = String::new();
        let layers = if d == 3 { g[2] } else { 1 };
        for k in 0..layers {
            if d == 3 {
                out.push_str(&format!("k = {k}:\n"));
            }
            for i in 0..g[0] {
                for j in 0..g[1] {
                    let tile: Vec<u64> = if d == 3 { vec![i, j, k] } else { vec![i, j] };
                    out.push_str(&format!(" {:>width$}", self.proc_of(&tile)));
                }
                out.push('\n');
            }
            if k + 1 < layers {
                out.push('\n');
            }
        }
        out
    }

    /// Verify both defining properties by brute force. Used by tests and
    /// available to paranoid callers.
    pub fn verify(&self) -> Result<(), String> {
        self.mapping.check_load_balance()?;
        self.mapping.check_neighbor_property()?;
        Ok(())
    }
}

/// Sweep direction along a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Increasing coordinate (slab 0 first).
    Forward,
    /// Decreasing coordinate (last slab first).
    Backward,
}

impl Direction {
    /// The tile-coordinate step for this direction (+1 or −1).
    pub fn step(self) -> i64 {
        match self {
            Direction::Forward => 1,
            Direction::Backward => -1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    #[test]
    fn optimal_pipeline_p8_cube() {
        let mp = Multipartitioning::optimal(8, &[64, 64, 64], &CostModel::origin2000_like());
        let mut g = mp.gammas().to_vec();
        g.sort_unstable();
        assert_eq!(g, vec![2, 4, 4]);
        mp.verify().unwrap();
    }

    #[test]
    fn diagonal_p16() {
        let mp = Multipartitioning::diagonal(16, 3);
        assert_eq!(mp.gammas(), &[4, 4, 4]);
        mp.verify().unwrap();
        // each processor owns 4 tiles, one per slab along every dimension
        for proc in 0..16u64 {
            assert_eq!(mp.tiles_of(proc).len(), 4);
            for dim in 0..3 {
                for slab in 0..4u64 {
                    assert_eq!(mp.tiles_of_in_slab(proc, dim, slab).len(), 1);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a perfect")]
    fn diagonal_rejects_non_square() {
        let _ = Multipartitioning::diagonal(8, 3);
    }

    #[test]
    fn generalized_p6_cube() {
        // p = 6: impossible for diagonal 3-D multipartitioning, fine for
        // generalized. γ = (6,6,1)-type or (2·3 split): elementary for 6 are
        // combinations of (1,1,0) for 2 and (1,1,0) for 3.
        let mp = Multipartitioning::optimal(6, &[60, 60, 60], &CostModel::origin2000_like());
        mp.verify().unwrap();
        assert!(mp.partitioning.is_valid(6));
    }

    #[test]
    fn tiles_of_in_slab_balanced_p12() {
        let mp = Multipartitioning::from_partitioning(12, Partitioning::new(vec![6, 6, 2]));
        for dim in 0..3 {
            let per = mp.tiles_per_proc_per_slab(dim);
            for proc in 0..12u64 {
                for slab in 0..mp.gammas()[dim] {
                    assert_eq!(
                        mp.tiles_of_in_slab(proc, dim, slab).len() as u64,
                        per,
                        "proc {proc} dim {dim} slab {slab}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbor_rank_consistency() {
        let mp = Multipartitioning::from_partitioning(8, Partitioning::new(vec![4, 4, 2]));
        // For every processor and dim, the tiles' actual neighbors must
        // belong to neighbor_rank.
        for proc in 0..8u64 {
            for dim in 0..3 {
                let nr = mp.neighbor_rank(proc, dim, 1);
                for tile in mp.tiles_of(proc) {
                    if tile[dim] + 1 < mp.gammas()[dim] {
                        let mut nt = tile.clone();
                        nt[dim] += 1;
                        assert_eq!(mp.proc_of(&nt), nr);
                    }
                }
            }
        }
    }

    #[test]
    fn ascii_layers_figure1_layer0() {
        // Figure 1's k = 0 layer for the diagonal p = 16 mapping:
        // row i, column j holds θ(i,j,0) = 4i + j.
        let mp = Multipartitioning::diagonal(16, 3);
        let art = mp.ascii_layers();
        let first_layer: Vec<&str> = art.lines().skip(1).take(4).collect();
        assert_eq!(
            first_layer[0].split_whitespace().collect::<Vec<_>>(),
            ["0", "1", "2", "3"]
        );
        assert_eq!(
            first_layer[3].split_whitespace().collect::<Vec<_>>(),
            ["12", "13", "14", "15"]
        );
        assert!(art.contains("k = 3:"));
    }

    #[test]
    fn ascii_layers_2d() {
        let mp = Multipartitioning::diagonal(3, 2);
        let art = mp.ascii_layers();
        // θ(i,j) = (i−j) mod 3: row 0 = 0 2 1
        assert_eq!(
            art.lines()
                .next()
                .unwrap()
                .split_whitespace()
                .collect::<Vec<_>>(),
            ["0", "2", "1"]
        );
    }

    #[test]
    fn direction_helpers() {
        assert_eq!(Direction::Forward.step(), 1);
        assert_eq!(Direction::Backward.step(), -1);
    }
}
