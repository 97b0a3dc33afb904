//! Line-sweep kernels: 1-D recurrences applied segment-by-segment.
//!
//! A line sweep solves a recurrence along every 1-D line of a field in some
//! axis direction. When the line is split across tiles, each tile processes
//! its *segment* and passes a small fixed-size **carry** (the recurrence
//! state at the segment boundary) to the tile holding the next segment —
//! this carry is exactly what multipartitioned sweep communication ships.
//!
//! A kernel that processes a line in consecutive segments with carry passing
//! performs the *same arithmetic in the same order* as processing the whole
//! line at once, so distributed results are bit-identical to serial ones —
//! the property the verification tests lean on.

use crate::simd::SimdLevel;
use mp_core::multipart::Direction;
use mp_grid::Lanes;

/// Largest array rank a kernel can walk without allocating through
/// [`SegmentCtx::start_in`].
pub const MAX_DIMS: usize = 8;

/// The lane axis of a sweep along `swept` in `d ≥ 2` dimensions: the last
/// axis other than the swept one. A row's lanes lie along it at
/// consecutive coordinates (DESIGN.md §7).
pub fn lane_axis(d: usize, swept: usize) -> usize {
    if swept + 1 == d {
        d - 2
    } else {
        d - 1
    }
}

/// Where a segment sits in the global domain — lets kernels compute
/// position-dependent coefficients on the fly instead of storing them in
/// fields (the pentadiagonal SP and block-tridiagonal BT kernels do this,
/// exactly as the real NAS codes build their systems from local state).
/// For a row of lanes it locates lane 0: lane `l` lies `l` elements further
/// along the [`lane_axis`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentCtx {
    /// Global coordinates of the segment's **first element in sweep order**
    /// (for a backward sweep this is the highest-index element).
    pub global_start: Vec<usize>,
    /// The swept axis.
    pub axis: usize,
    /// +1 for forward sweeps, −1 for backward: element `k` of the segment
    /// buffers lives at `global_start[axis] + k·step` along the axis.
    pub step: i64,
}

impl SegmentCtx {
    /// Build a context for a segment starting (in sweep order) at
    /// `global_start` along `axis`.
    pub fn new(global_start: Vec<usize>, axis: usize, dir: Direction) -> Self {
        SegmentCtx {
            global_start,
            axis,
            step: dir.step(),
        }
    }

    /// A context at the domain origin — for kernels that ignore position.
    pub fn origin(d: usize, axis: usize, dir: Direction) -> Self {
        Self::new(vec![0; d], axis, dir)
    }

    /// Copy the segment's start position into `buf` and return it as a
    /// `d`-long slice, on which a kernel sets `g[axis]` per element
    /// ([`SegmentCtx::axis_coord`]) without allocating.
    ///
    /// # Panics
    /// Panics if the domain has more than [`MAX_DIMS`] dimensions.
    pub fn start_in<'b>(&self, buf: &'b mut [usize; MAX_DIMS]) -> &'b mut [usize] {
        let g = &mut buf[..self.global_start.len()];
        g.copy_from_slice(&self.global_start);
        g
    }

    /// Global coordinate of buffer element `k` along the swept axis only.
    #[inline]
    pub fn axis_coord(&self, k: usize) -> usize {
        (self.global_start[self.axis] as i64 + self.step * k as i64) as usize
    }
}

/// A kernel applied along lines of one or more fields.
///
/// `fields()` lists the field indices the kernel touches. The executor
/// calls [`Self::sweep_lanes`] on a tile row of lines, one lane view per
/// listed field; [`Self::sweep_segment`] is the per-line reference, which
/// takes one buffer per listed field holding that field's values along the
/// tile's segment of one line (in sweep order: index 0 is processed first
/// for both directions).
pub trait LineSweepKernel: Sync {
    /// Indices (into the rank's field list) of the fields this kernel reads
    /// and writes.
    fn fields(&self) -> &[usize];

    /// Number of `f64` values carried across a segment boundary per line.
    /// Every line enters the domain with a carry of zeros.
    fn carry_len(&self) -> usize;

    /// Process one segment: consume/update `carry`, mutate the field
    /// buffers. `seg[k]` corresponds to `fields()[k]`; all buffers have the
    /// segment's length, **already ordered in sweep direction** (element 0
    /// first). `ctx` locates the segment in the global domain for kernels
    /// with position-dependent coefficients; simple kernels ignore it.
    /// This per-line form is the reference the serial solvers run and the
    /// blocked form is tested against.
    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        ctx: &SegmentCtx,
    );

    /// Process `lanes.nlanes()` parallel segments of `lanes.seg_len()`
    /// elements at once — the one blocked entry point the executor calls.
    ///
    /// * Field `f` of `lanes` is `fields()[f]`; element `k` of lane `l` is
    ///   `lanes.get(f, k, l)`, every lane already in sweep order. The
    ///   executor hands over one tile row in place: elements `±` the tile's
    ///   stride along the swept dimension apart, lanes its stride along the
    ///   row's lane axis apart (1, unless the sweep runs along the
    ///   unit-stride axis). Tests and benchmarks also pass packed
    ///   line-minor scratch (element stride `nlanes`, lane stride 1).
    /// * `carries` is **line-major**: lane `l`'s carry at
    ///   `carries[l·carry_len() .. (l+1)·carry_len()]` — exactly the order
    ///   in which carries travel on the wire, so the executor evolves the
    ///   received message in place.
    /// * `ctx` locates lane 0. Every lane starts at the same coordinate
    ///   along the swept axis, and lane `l` lies `l` elements further along
    ///   the [`lane_axis`], the only axis along which the lanes differ.
    /// * `level` is the vectorization level the plan resolved at build
    ///   time; kernels without a vector body ignore it.
    ///
    /// Implementations must perform, per lane, the *same arithmetic in the
    /// same order* as `sweep_segment`: results are required to be bitwise
    /// identical to [`per_line_sweep_lanes`] at every lane count, stride
    /// and level.
    fn sweep_lanes(
        &self,
        level: SimdLevel,
        dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctx: &SegmentCtx,
    );
}

/// The reference for [`LineSweepKernel::sweep_lanes`]: peel each lane into
/// per-field segments, run [`LineSweepKernel::sweep_segment`] at the lane's
/// own context (`ctx` moved `l` elements along the [`lane_axis`]), and
/// write the results back. Every kernel's blocked body is tested bitwise
/// against it; it allocates, so it is a test reference, not an execution
/// path.
pub fn per_line_sweep_lanes<K: LineSweepKernel + ?Sized>(
    kernel: &K,
    dir: Direction,
    carries: &mut [f64],
    lanes: &mut Lanes<'_>,
    ctx: &SegmentCtx,
) {
    let clen = kernel.carry_len();
    let (nl, n) = (lanes.nlanes(), lanes.seg_len());
    assert_eq!(carries.len(), nl * clen);
    let la = lane_axis(ctx.global_start.len(), ctx.axis);
    let mut seg: Vec<Vec<f64>> = vec![vec![0.0; n]; lanes.nfields()];
    for l in 0..nl {
        let mut lane = ctx.clone();
        lane.global_start[la] += l;
        for (f, s) in seg.iter_mut().enumerate() {
            for (k, v) in s.iter_mut().enumerate() {
                *v = lanes.get(f, k, l);
            }
        }
        kernel.sweep_segment(dir, &mut carries[l * clen..(l + 1) * clen], &mut seg, &lane);
        for (f, s) in seg.iter().enumerate() {
            for (k, &v) in s.iter().enumerate() {
                lanes.set(f, k, l, v);
            }
        }
    }
}

/// Running prefix sum along the line: `x[k] += x[k−1]` (forward) or
/// `x[k] += x[k+1]` (backward). The simplest verifiable sweep.
#[derive(Debug, Clone)]
pub struct PrefixSumKernel {
    fields: [usize; 1],
}

impl PrefixSumKernel {
    /// Sweep field `field`.
    pub fn new(field: usize) -> Self {
        PrefixSumKernel { fields: [field] }
    }
}

impl LineSweepKernel for PrefixSumKernel {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        1
    }

    fn sweep_segment(
        &self,
        _dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        _ctx: &SegmentCtx,
    ) {
        let mut acc = carry[0];
        for v in seg[0].iter_mut() {
            acc += *v;
            *v = acc;
        }
        carry[0] = acc;
    }

    fn sweep_lanes(
        &self,
        _level: SimdLevel,
        _dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        _ctx: &SegmentCtx,
    ) {
        debug_assert_eq!(carries.len(), lanes.nlanes());
        for k in 0..lanes.seg_len() {
            for (l, acc) in carries.iter_mut().enumerate() {
                *acc += lanes.get(0, k, l);
                lanes.set(0, k, l, *acc);
            }
        }
    }
}

/// First-order linear recurrence `x[k] = a·x[k−1] + x[k]` — the canonical
/// ADI-style dependence with a tunable decay coefficient.
#[derive(Debug, Clone)]
pub struct FirstOrderKernel {
    fields: [usize; 1],
    /// Coupling coefficient `a`.
    pub a: f64,
}

impl FirstOrderKernel {
    /// Sweep field `field` with coefficient `a`.
    pub fn new(field: usize, a: f64) -> Self {
        FirstOrderKernel { fields: [field], a }
    }
}

impl LineSweepKernel for FirstOrderKernel {
    fn fields(&self) -> &[usize] {
        &self.fields
    }

    fn carry_len(&self) -> usize {
        1
    }

    fn sweep_segment(
        &self,
        _dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        _ctx: &SegmentCtx,
    ) {
        let mut prev = carry[0];
        for v in seg[0].iter_mut() {
            *v += self.a * prev;
            prev = *v;
        }
        carry[0] = prev;
    }

    fn sweep_lanes(
        &self,
        _level: SimdLevel,
        _dir: Direction,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        _ctx: &SegmentCtx,
    ) {
        debug_assert_eq!(carries.len(), lanes.nlanes());
        for k in 0..lanes.seg_len() {
            for (l, prev) in carries.iter_mut().enumerate() {
                *prev = lanes.get(0, k, l) + self.a * *prev;
                lanes.set(0, k, l, *prev);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx0() -> SegmentCtx {
        SegmentCtx::origin(2, 0, Direction::Forward)
    }

    #[test]
    fn prefix_sum_whole_line() {
        let k = PrefixSumKernel::new(0);
        let mut carry = vec![0.0; k.carry_len()];
        let mut seg = vec![vec![1.0, 2.0, 3.0, 4.0]];
        k.sweep_segment(Direction::Forward, &mut carry, &mut seg, &ctx0());
        assert_eq!(seg[0], vec![1.0, 3.0, 6.0, 10.0]);
        assert_eq!(carry, vec![10.0]);
    }

    #[test]
    fn prefix_sum_segmented_matches_whole() {
        let k = PrefixSumKernel::new(0);
        let line: Vec<f64> = (1..=10).map(|v| v as f64).collect();

        let mut whole = vec![line.clone()];
        let mut carry = vec![0.0; k.carry_len()];
        k.sweep_segment(Direction::Forward, &mut carry, &mut whole, &ctx0());

        let mut carry2 = vec![0.0; k.carry_len()];
        let mut part1 = vec![line[..4].to_vec()];
        let mut part2 = vec![line[4..7].to_vec()];
        let mut part3 = vec![line[7..].to_vec()];
        k.sweep_segment(Direction::Forward, &mut carry2, &mut part1, &ctx0());
        k.sweep_segment(Direction::Forward, &mut carry2, &mut part2, &ctx0());
        k.sweep_segment(Direction::Forward, &mut carry2, &mut part3, &ctx0());
        let glued: Vec<f64> = part1[0]
            .iter()
            .chain(part2[0].iter())
            .chain(part3[0].iter())
            .copied()
            .collect();
        assert_eq!(glued, whole[0]);
        assert_eq!(carry2, carry);
    }

    #[test]
    fn first_order_decay() {
        let k = FirstOrderKernel::new(0, 0.5);
        let mut carry = vec![0.0; k.carry_len()];
        let mut seg = vec![vec![1.0, 0.0, 0.0]];
        k.sweep_segment(Direction::Forward, &mut carry, &mut seg, &ctx0());
        assert_eq!(seg[0], vec![1.0, 0.5, 0.25]);
        assert_eq!(carry, vec![0.25]);
    }

    /// A kernel whose blocked body is the per-line reference.
    struct FallbackPrefix;
    impl LineSweepKernel for FallbackPrefix {
        fn fields(&self) -> &[usize] {
            &[0]
        }
        fn carry_len(&self) -> usize {
            1
        }
        fn sweep_segment(
            &self,
            dir: Direction,
            carry: &mut [f64],
            seg: &mut [Vec<f64>],
            ctx: &SegmentCtx,
        ) {
            PrefixSumKernel::new(0).sweep_segment(dir, carry, seg, ctx);
        }
        fn sweep_lanes(
            &self,
            _level: SimdLevel,
            dir: Direction,
            carries: &mut [f64],
            lanes: &mut Lanes<'_>,
            ctx: &SegmentCtx,
        ) {
            per_line_sweep_lanes(self, dir, carries, lanes, ctx);
        }
    }

    /// Pack per-line data into a line-minor block buffer.
    fn pack_block(lines: &[Vec<f64>]) -> Vec<f64> {
        let nl = lines.len();
        let n = lines[0].len();
        let mut out = vec![0.0; n * nl];
        for (l, line) in lines.iter().enumerate() {
            for (k, &v) in line.iter().enumerate() {
                out[k * nl + l] = v;
            }
        }
        out
    }

    #[test]
    fn blocked_overrides_match_default_fallback_bitwise() {
        // The per-line reference and the hand-blocked bodies must all
        // equal sequential per-line sweeps exactly.
        let nl = 5;
        let n = 9;
        let lines: Vec<Vec<f64>> = (0..nl)
            .map(|l| {
                (0..n)
                    .map(|k| ((l * 31 + k * 7) % 13) as f64 - 6.0)
                    .collect()
            })
            .collect();
        let ctx = ctx0();
        let kernels: [(&dyn LineSweepKernel, f64); 3] = [
            (&FallbackPrefix, 0.25),
            (&PrefixSumKernel::new(0), 0.25),
            (&FirstOrderKernel::new(0, 0.75), 1.5),
        ];
        for (k, c0) in kernels {
            let mut carries = vec![c0; nl];
            let mut block = vec![pack_block(&lines)];
            let mut table = Vec::new();
            let mut lanes = Lanes::packed(&mut block, nl, n, &mut table);
            k.sweep_lanes(
                SimdLevel::Scalar,
                Direction::Forward,
                &mut carries,
                &mut lanes,
                &ctx,
            );
            for l in 0..nl {
                let mut carry = vec![c0];
                let mut seg = vec![lines[l].clone()];
                k.sweep_segment(Direction::Forward, &mut carry, &mut seg, &ctx);
                assert_eq!(carries[l], carry[0], "carry, line {l}");
                for (kk, &want) in seg[0].iter().enumerate() {
                    assert_eq!(lanes.get(0, kk, l), want, "line {l} elem {kk}");
                }
            }
        }
    }

    #[test]
    fn first_order_segmented_bitwise_equal() {
        let k = FirstOrderKernel::new(0, 0.9);
        let line: Vec<f64> = (0..32).map(|v| ((v * 7919) % 13) as f64 - 6.0).collect();
        let mut whole = vec![line.clone()];
        let mut c = vec![0.0; k.carry_len()];
        k.sweep_segment(Direction::Forward, &mut c, &mut whole, &ctx0());

        for split in 1..31 {
            let mut c2 = vec![0.0; k.carry_len()];
            let mut a = vec![line[..split].to_vec()];
            let mut b = vec![line[split..].to_vec()];
            k.sweep_segment(Direction::Forward, &mut c2, &mut a, &ctx0());
            k.sweep_segment(Direction::Forward, &mut c2, &mut b, &ctx0());
            let glued: Vec<f64> = a[0].iter().chain(b[0].iter()).copied().collect();
            assert_eq!(glued, whole[0], "split at {split} not bitwise equal");
        }
    }
}
