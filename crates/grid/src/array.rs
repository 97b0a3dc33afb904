//! Dense row-major `d`-dimensional arrays — the storage substrate for tiles
//! and whole domains.

use crate::shape::Shape;

/// A dense row-major multi-dimensional array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayD<T> {
    shape: Shape,
    data: Vec<T>,
}

impl<T: Copy + Default> ArrayD<T> {
    /// Allocate a zero/default-filled array.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        let data = vec![T::default(); shape.len()];
        ArrayD { shape, data }
    }

    /// Build from existing storage (row-major, must match the shape's size).
    pub fn from_vec(dims: &[usize], data: Vec<T>) -> Self {
        let shape = Shape::new(dims);
        assert_eq!(data.len(), shape.len(), "data length must match shape");
        ArrayD { shape, data }
    }

    /// ```
    /// use mp_grid::ArrayD;
    /// let a = ArrayD::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f64);
    /// assert_eq!(a.get(&[1, 2]), 5.0);
    /// assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]); // row-major
    /// ```
    /// Build by evaluating `f` at every index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(&[usize]) -> T) -> Self {
        let shape = Shape::new(dims);
        let mut data = Vec::with_capacity(shape.len());
        shape.for_each_index(|idx| data.push(f(idx)));
        ArrayD { shape, data }
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extents per dimension.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Raw storage (row-major).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw storage (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, idx: &[usize]) -> T {
        self.data[self.shape.offset(idx)]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, idx: &[usize], value: T) {
        let off = self.shape.offset(idx);
        self.data[off] = value;
    }

    /// Visit all lines along `axis`: calls `f(base)` once per line, where
    /// `base` has `base[axis] == 0` and ranges over all other coordinates in
    /// row-major order.
    pub fn for_each_line(&self, axis: usize, mut f: impl FnMut(&[usize])) {
        let mut reduced: Vec<usize> = self.shape.dims().to_vec();
        reduced[axis] = 1;
        Shape::new(&reduced).for_each_index(|idx| f(idx));
    }
}

impl ArrayD<f64> {
    /// Max-norm difference against another array of the same shape — the
    /// bitwise oracle of every distributed-vs-serial check (`== 0.0`).
    ///
    /// A pair with equal bit patterns contributes 0, identical NaNs and
    /// infinities included. A pair whose difference is NaN — a NaN against
    /// any other value — contributes `f64::INFINITY`, so a run that
    /// produced NaN never reads as agreement. Every other pair contributes
    /// `|a − b|`.
    pub fn max_abs_diff(&self, other: &ArrayD<f64>) -> f64 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| {
                if a.to_bits() == b.to_bits() {
                    0.0
                } else {
                    let d = (a - b).abs();
                    if d.is_nan() {
                        f64::INFINITY
                    } else {
                        d
                    }
                }
            })
            .fold(0.0, f64::max)
    }

    /// Euclidean norm of the whole array.
    pub fn l2_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let a: ArrayD<f64> = ArrayD::zeros(&[2, 3]);
        assert_eq!(a.as_slice(), &[0.0; 6]);
        let b = ArrayD::from_fn(&[2, 2], |_| 7.0);
        assert_eq!(b.as_slice(), &[7.0; 4]);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a: ArrayD<i64> = ArrayD::zeros(&[3, 4, 2]);
        a.set(&[2, 1, 0], 42);
        assert_eq!(a.get(&[2, 1, 0]), 42);
        a.set(&[0, 3, 1], -5);
        assert_eq!(a.get(&[0, 3, 1]), -5);
        assert_eq!(a.as_slice().iter().filter(|&&v| v != 0).count(), 2);
    }

    #[test]
    fn from_fn_row_major() {
        let a = ArrayD::from_fn(&[2, 3], |idx| (idx[0] * 3 + idx[1]) as f64);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn for_each_line_counts() {
        let a: ArrayD<f64> = ArrayD::zeros(&[3, 4, 5]);
        for (axis, expect) in [(0usize, 20usize), (1, 15), (2, 12)] {
            let mut n = 0;
            a.for_each_line(axis, |base| {
                assert_eq!(base[axis], 0);
                n += 1;
            });
            assert_eq!(n, expect, "axis {axis}");
        }
    }

    #[test]
    fn norms() {
        let a = ArrayD::from_vec(&[2, 2], vec![3.0, 4.0, 0.0, 0.0]);
        assert!((a.l2_norm() - 5.0).abs() < 1e-12);
        let b: ArrayD<f64> = ArrayD::zeros(&[2, 2]);
        assert_eq!(a.max_abs_diff(&b), 4.0);
    }

    #[test]
    fn max_abs_diff_sees_nan() {
        let finite = ArrayD::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let nan = ArrayD::from_vec(&[3], vec![f64::NAN; 3]);
        assert_eq!(nan.max_abs_diff(&finite), f64::INFINITY);
        assert_eq!(finite.max_abs_diff(&nan), f64::INFINITY);
        let one_nan = ArrayD::from_vec(&[3], vec![1.0, f64::NAN, 3.0]);
        assert_eq!(one_nan.max_abs_diff(&finite), f64::INFINITY);
        // Identical bits agree, NaNs and infinities included.
        assert_eq!(nan.max_abs_diff(&nan.clone()), 0.0);
        let inf = ArrayD::from_vec(&[3], vec![f64::INFINITY, f64::NEG_INFINITY, 0.0]);
        assert_eq!(inf.max_abs_diff(&inf.clone()), 0.0);
        let flipped = ArrayD::from_vec(&[3], vec![f64::NEG_INFINITY, f64::NEG_INFINITY, -0.0]);
        assert_eq!(inf.max_abs_diff(&flipped), f64::INFINITY);
        // Finite differences are unchanged.
        let shifted = ArrayD::from_vec(&[3], vec![1.5, 2.0, -1.0]);
        assert_eq!(shifted.max_abs_diff(&finite), 4.0);
        assert_eq!(finite.max_abs_diff(&finite.clone()), 0.0);
    }

    #[test]
    #[should_panic(expected = "data length must match shape")]
    fn from_vec_wrong_len() {
        let _ = ArrayD::from_vec(&[2, 2], vec![1.0; 5]);
    }
}
