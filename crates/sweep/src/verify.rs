//! Serial reference executors used to validate the distributed engines.
//!
//! [`serial_sweep`] applies a [`LineSweepKernel`] to whole (unsplit) lines of
//! global arrays. Because the distributed executor processes each line as
//! consecutive segments with carry passing — the same arithmetic in the same
//! order — distributed results must be **bit-identical** to these references,
//! and the test-suites assert exactly that.

use crate::recurrence::{LineSweepKernel, SegmentCtx};
use mp_core::multipart::Direction;
use mp_grid::ArrayD;

/// Apply `kernel` along every `axis` line of the given global fields.
///
/// `fields[k]` must be indexable by the kernel's field indices. All arrays
/// must share one shape.
/// ```
/// use mp_core::multipart::Direction;
/// use mp_grid::ArrayD;
/// use mp_sweep::{verify::serial_sweep, PrefixSumKernel};
/// let mut a = ArrayD::from_fn(&[2, 3], |g| (g[1] + 1) as f64);
/// serial_sweep(&mut [&mut a], 1, Direction::Forward, &PrefixSumKernel::new(0));
/// assert_eq!(a.as_slice(), &[1.0, 3.0, 6.0, 1.0, 3.0, 6.0]);
/// ```
///
pub fn serial_sweep(
    fields: &mut [&mut ArrayD<f64>],
    axis: usize,
    dir: Direction,
    kernel: &impl LineSweepKernel,
) {
    let d = fields[0].dims().len();
    serial_sweep_with_origin(fields, axis, dir, kernel, &vec![0; d]);
}

/// [`serial_sweep`] over arrays that are a *window* of a larger global
/// domain: `origin` is the global coordinate of the arrays' `[0, …, 0]`
/// element, so position-dependent kernels see correct global coordinates.
pub fn serial_sweep_with_origin(
    fields: &mut [&mut ArrayD<f64>],
    axis: usize,
    dir: Direction,
    kernel: &impl LineSweepKernel,
    origin: &[usize],
) {
    assert!(!fields.is_empty());
    let dims = fields[0].dims().to_vec();
    for f in fields.iter() {
        assert_eq!(f.dims(), dims.as_slice(), "field shapes must match");
    }
    let n = dims[axis];
    let mut bases = Vec::new();
    fields[0].for_each_line(axis, |b| bases.push(b.to_vec()));

    let nk = kernel.fields().len();
    let mut seg: Vec<Vec<f64>> = vec![Vec::with_capacity(n); nk];
    for base in &bases {
        // Read lines in sweep order.
        for (s, &fi) in kernel.fields().iter().enumerate() {
            let buf = &mut seg[s];
            buf.clear();
            let mut idx = base.clone();
            match dir {
                Direction::Forward => {
                    for k in 0..n {
                        idx[axis] = k;
                        buf.push(fields[fi].get(&idx));
                    }
                }
                Direction::Backward => {
                    for k in (0..n).rev() {
                        idx[axis] = k;
                        buf.push(fields[fi].get(&idx));
                    }
                }
            }
        }
        let mut carry = vec![0.0; kernel.carry_len()];
        let mut gstart: Vec<usize> = base
            .iter()
            .zip(origin.iter())
            .map(|(&b, &o)| b + o)
            .collect();
        gstart[axis] = match dir {
            Direction::Forward => origin[axis],
            Direction::Backward => origin[axis] + n - 1,
        };
        let ctx = SegmentCtx::new(gstart, axis, dir);
        kernel.sweep_segment(dir, &mut carry, &mut seg, &ctx);
        // Write back.
        for (s, &fi) in kernel.fields().iter().enumerate() {
            let mut idx = base.clone();
            match dir {
                Direction::Forward => {
                    for (k, &v) in seg[s].iter().enumerate() {
                        idx[axis] = k;
                        fields[fi].set(&idx, v);
                    }
                }
                Direction::Backward => {
                    for (k, &v) in seg[s].iter().enumerate() {
                        idx[axis] = n - 1 - k;
                        fields[fi].set(&idx, v);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recurrence::PrefixSumKernel;

    #[test]
    fn serial_prefix_sum_axis1() {
        let mut a = ArrayD::from_fn(&[2, 4], |i| (i[1] + 1) as f64);
        let k = PrefixSumKernel::new(0);
        serial_sweep(&mut [&mut a], 1, Direction::Forward, &k);
        for i in 0..2 {
            let row: Vec<f64> = (0..4).map(|j| a.get(&[i, j])).collect();
            assert_eq!(row, vec![1.0, 3.0, 6.0, 10.0]);
        }
    }

    #[test]
    fn serial_backward_prefix_sum() {
        let mut a = ArrayD::from_fn(&[3], |i| (i[0] + 1) as f64);
        let k = PrefixSumKernel::new(0);
        serial_sweep(&mut [&mut a], 0, Direction::Backward, &k);
        assert_eq!(a.as_slice(), &[6.0, 5.0, 3.0]);
    }
}
