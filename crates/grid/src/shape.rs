//! Shapes, strides and index arithmetic for dense row-major arrays.

/// The shape of a dense `d`-dimensional array (row-major storage: the last
/// dimension is contiguous).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
    strides: Vec<usize>,
}

impl Shape {
    /// Create a shape; every extent must be positive.
    pub fn new(dims: &[usize]) -> Self {
        assert!(!dims.is_empty(), "shape needs at least one dimension");
        assert!(dims.iter().all(|&d| d > 0), "extents must be positive");
        let mut strides = vec![1usize; dims.len()];
        for i in (0..dims.len() - 1).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        Shape {
            dims: dims.to_vec(),
            strides,
        }
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Extents per dimension.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Row-major strides.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when the array holds no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Linear offset of a multi-index.
    #[inline]
    pub fn offset(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.ndim());
        let mut off = 0;
        for (k, &i) in idx.iter().enumerate() {
            debug_assert!(i < self.dims[k], "index {i} out of bounds for dim {k}");
            off += i * self.strides[k];
        }
        off
    }

    /// Visit every multi-index in row-major (lexicographic) order.
    pub fn for_each_index(&self, mut f: impl FnMut(&[usize])) {
        let d = self.ndim();
        let mut idx = vec![0usize; d];
        loop {
            f(&idx);
            let mut k = d;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < self.dims[k] {
                    break;
                }
                idx[k] = 0;
                if k == 0 {
                    return;
                }
            }
        }
    }
}

/// A rectangular region inside a larger array: `origin ≤ idx < origin + extent`
/// component-wise.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Region {
    /// Lower corner (inclusive).
    pub origin: Vec<usize>,
    /// Extent per dimension.
    pub extent: Vec<usize>,
}

impl Region {
    /// Build a region; extents must be positive.
    pub fn new(origin: Vec<usize>, extent: Vec<usize>) -> Self {
        assert_eq!(origin.len(), extent.len());
        assert!(
            extent.iter().all(|&e| e > 0),
            "region extents must be positive"
        );
        Region { origin, extent }
    }

    /// Number of elements covered.
    pub fn len(&self) -> usize {
        self.extent.iter().product()
    }

    /// True if empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which end of a dimension a face or neighbor is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// The low-coordinate end.
    Low,
    /// The high-coordinate end.
    High,
}

impl Side {
    /// The opposite side.
    pub fn opposite(self) -> Side {
        match self {
            Side::Low => Side::High,
            Side::High => Side::Low,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        let s = Shape::new(&[2, 3, 4]);
        assert_eq!(s.strides(), &[12, 4, 1]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.ndim(), 3);
    }

    #[test]
    fn offset_roundtrip() {
        // Row-major: the k-th index `for_each_index` visits sits at offset k.
        let s = Shape::new(&[3, 4, 5]);
        let mut next = 0;
        s.for_each_index(|idx| {
            assert_eq!(s.offset(idx), next);
            next += 1;
        });
        assert_eq!(next, s.len());
    }

    #[test]
    fn for_each_index_order_and_count() {
        let s = Shape::new(&[2, 3]);
        let mut seen = Vec::new();
        s.for_each_index(|i| seen.push(i.to_vec()));
        assert_eq!(
            seen,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn one_dimensional() {
        let s = Shape::new(&[7]);
        assert_eq!(s.strides(), &[1]);
        assert_eq!(s.offset(&[3]), 3);
    }

    #[test]
    #[should_panic(expected = "extents must be positive")]
    fn zero_extent_rejected() {
        let _ = Shape::new(&[2, 0]);
    }

    #[test]
    fn region_basics() {
        let r = Region::new(vec![1, 2], vec![3, 4]);
        assert_eq!(r.len(), 12);
        assert!(!r.is_empty());
    }

    #[test]
    fn side_opposite() {
        assert_eq!(Side::Low.opposite(), Side::High);
        assert_eq!(Side::High.opposite(), Side::Low);
    }
}
