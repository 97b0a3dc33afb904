//! Tile-grid geometry: cutting a global domain `η_1 × … × η_d` into a
//! `γ_1 × … × γ_d` grid of tiles.
//!
//! The paper assumes `γ_i | η_i`; in practice the remainder must go
//! somewhere, so the cutter spreads it over the leading tiles (sizes differ
//! by at most one — "balanced block" distribution). All benches use the
//! divisible case, matching the paper, but the geometry layer is exact for
//! ragged cuts too.

use crate::shape::Region;

/// Geometry of a tile grid over a global domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    /// Global extents `η`.
    pub eta: Vec<usize>,
    /// Tile counts `γ`.
    pub gamma: Vec<usize>,
    /// Per dimension, the cut offsets: `cuts[k]` has `γ_k + 1` entries,
    /// `cuts[k][0] = 0`, `cuts[k][γ_k] = η_k`.
    cuts: Vec<Vec<usize>>,
}

impl TileGrid {
    /// ```
    /// use mp_grid::TileGrid;
    /// // 10 elements into 4 tiles: balanced sizes 3,3,2,2.
    /// let g = TileGrid::new(&[10], &[4]);
    /// assert_eq!(g.slab_range(0, 0), (0, 3));
    /// assert_eq!(g.slab_range(0, 3), (8, 10));
    /// ```
    ///
    /// Cut a domain of extents `eta` into `gamma[k]` tiles per dimension.
    ///
    /// # Panics
    /// Panics where [`TileGrid::try_new`] returns an error.
    pub fn new(eta: &[usize], gamma: &[usize]) -> Self {
        Self::try_new(eta, gamma).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`TileGrid::new`], or an error naming both vectors if `gamma[k] == 0`
    /// or `gamma[k] > eta[k]` for some `k` (a tile would be empty) — the
    /// check every entry point runs before its ranks start.
    ///
    /// # Panics
    /// Panics if the vectors' lengths differ.
    pub fn try_new(eta: &[usize], gamma: &[usize]) -> Result<Self, String> {
        assert_eq!(eta.len(), gamma.len());
        if !eta.iter().zip(gamma).all(|(&e, &g)| g >= 1 && g <= e) {
            return Err(format!(
                "need 1 <= gamma <= eta per dimension (eta={eta:?}, gamma={gamma:?})"
            ));
        }
        let cuts = eta
            .iter()
            .zip(gamma.iter())
            .map(|(&e, &g)| {
                // Balanced: first (e % g) tiles get ⌈e/g⌉, the rest ⌊e/g⌋.
                let base = e / g;
                let extra = e % g;
                let mut c = Vec::with_capacity(g + 1);
                let mut pos = 0;
                c.push(0);
                for t in 0..g {
                    pos += base + usize::from(t < extra);
                    c.push(pos);
                }
                c
            })
            .collect();
        Ok(TileGrid {
            eta: eta.to_vec(),
            gamma: gamma.to_vec(),
            cuts,
        })
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.eta.len()
    }

    /// The element region of the tile at grid coordinate `coord`.
    pub fn tile_region(&self, coord: &[usize]) -> Region {
        assert_eq!(coord.len(), self.ndim());
        let origin: Vec<usize> = coord
            .iter()
            .enumerate()
            .map(|(k, &c)| {
                assert!(c < self.gamma[k], "tile coord out of range");
                self.cuts[k][c]
            })
            .collect();
        let extent: Vec<usize> = coord
            .iter()
            .enumerate()
            .map(|(k, &c)| self.cuts[k][c + 1] - self.cuts[k][c])
            .collect();
        Region::new(origin, extent)
    }

    /// The element-index range `[start, end)` of slab `t` along dimension `k`.
    pub fn slab_range(&self, k: usize, t: usize) -> (usize, usize) {
        (self.cuts[k][t], self.cuts[k][t + 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn divisible_cut() {
        let g = TileGrid::new(&[12, 8], &[4, 2]);
        let r = g.tile_region(&[0, 0]);
        assert_eq!(r, Region::new(vec![0, 0], vec![3, 4]));
        let r = g.tile_region(&[3, 1]);
        assert_eq!(r, Region::new(vec![9, 4], vec![3, 4]));
    }

    #[test]
    fn ragged_cut_balanced() {
        // 10 elements into 4 tiles: sizes 3,3,2,2.
        let g = TileGrid::new(&[10], &[4]);
        let sizes: Vec<usize> = (0..4)
            .map(|t| {
                let (s, e) = g.slab_range(0, t);
                e - s
            })
            .collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        assert_eq!(sizes.iter().sum::<usize>(), 10);
    }

    #[test]
    fn tiles_cover_domain_exactly() {
        let g = TileGrid::new(&[7, 9, 5], &[2, 3, 5]);
        let mut covered = vec![false; 7 * 9 * 5];
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..5 {
                    let r = g.tile_region(&[a, b, c]);
                    Shape::new(&r.extent).for_each_index(|rel| {
                        let idx: Vec<usize> =
                            rel.iter().zip(&r.origin).map(|(i, o)| i + o).collect();
                        let lin = (idx[0] * 9 + idx[1]) * 5 + idx[2];
                        assert!(!covered[lin], "overlap at {idx:?}");
                        covered[lin] = true;
                    });
                }
            }
        }
        assert!(covered.iter().all(|&v| v), "domain not fully covered");
    }

    #[test]
    #[should_panic(expected = "1 <= gamma <= eta")]
    fn too_many_tiles_rejected() {
        let _ = TileGrid::new(&[3], &[4]);
    }

    #[test]
    fn single_tile() {
        let g = TileGrid::new(&[5, 5], &[1, 1]);
        assert_eq!(g.tile_region(&[0, 0]), Region::new(vec![0, 0], vec![5, 5]));
    }
}
