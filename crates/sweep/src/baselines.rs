//! The two classical partitionings the paper positions multipartitioning
//! against (§1):
//!
//! * **Static block unipartitioning** — partition one dimension for the
//!   whole computation; sweeps along that dimension expose only wavefront
//!   (pipelined) parallelism, with the classic tension between small
//!   messages (short fill/drain) and large messages (low overhead), tuned
//!   by a `granularity` parameter (lines per pipeline chunk).
//! * **Dynamic block partitioning** — sweeps run only along locally-complete
//!   dimensions; the array is transposed (all-to-all) between sweeps so each
//!   dimension can be swept locally in turn.
//!
//! This module holds their geometry; the wavefront, transpose and local
//! drivers that replay them on the simulator live in [`crate::simulate`].

use mp_grid::shape::Shape;
use mp_grid::TileGrid;

/// A 1-D block partitioning of dimension `part_dim` of a global domain.
#[derive(Debug, Clone)]
pub struct BlockUnipartition {
    /// Number of ranks.
    pub p: u64,
    /// Global extents.
    pub eta: Vec<usize>,
    /// The partitioned dimension.
    pub part_dim: usize,
    cuts: TileGrid,
}

impl BlockUnipartition {
    /// Partition `eta[part_dim]` into `p` balanced contiguous blocks.
    pub fn new(p: u64, eta: &[usize], part_dim: usize) -> Self {
        assert!(part_dim < eta.len());
        assert!(p as usize <= eta[part_dim], "more ranks than elements");
        let cuts = TileGrid::new(&[eta[part_dim]], &[p as usize]);
        BlockUnipartition {
            p,
            eta: eta.to_vec(),
            part_dim,
            cuts,
        }
    }

    /// The `[start, end)` range of `part_dim` owned by `rank`.
    pub fn range_of(&self, rank: u64) -> (usize, usize) {
        self.cuts.slab_range(0, rank as usize)
    }

    /// The local block extents of `rank`.
    pub fn block_dims(&self, rank: u64) -> Vec<usize> {
        let (s, e) = self.range_of(rank);
        let mut d = self.eta.clone();
        d[self.part_dim] = e - s;
        d
    }
}

/// Total cross-section lines of a sweep along `axis`.
pub fn lines_of(eta: &[usize], axis: usize) -> usize {
    let mut reduced = eta.to_vec();
    reduced[axis] = 1;
    Shape::new(&reduced).len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_partition_geometry() {
        let part = BlockUnipartition::new(4, &[10, 6], 0);
        assert_eq!(part.range_of(0), (0, 3));
        assert_eq!(part.range_of(1), (3, 6));
        assert_eq!(part.range_of(2), (6, 8));
        assert_eq!(part.range_of(3), (8, 10));
        assert_eq!(part.block_dims(0), vec![3, 6]);
        assert_eq!(part.block_dims(3), vec![2, 6]);
        assert_eq!(lines_of(&[16, 10, 10], 0), 100);
        assert_eq!(lines_of(&[16, 10, 10], 1), 160);
    }
}
