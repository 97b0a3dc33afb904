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

use mp_core::multipart::Direction;
use mp_grid::AlignedVec;

/// Debug-build check of the blocked-kernel alignment contract: every field
/// buffer handed to [`LineSweepKernel::sweep_block`] starts on a 64-byte
/// boundary ([`mp_grid::aligned::ALIGN`]). [`AlignedVec`] guarantees this by
/// construction; the assert pins the contract at every kernel entry so a
/// future caller that fabricates buffers some other way fails loudly in
/// debug builds instead of silently running the vector path on unaligned
/// memory.
#[inline]
pub fn debug_assert_block_aligned(block: &[AlignedVec]) {
    if cfg!(debug_assertions) {
        for (f, b) in block.iter().enumerate() {
            debug_assert!(
                b.is_empty() || (b.as_ptr() as usize).is_multiple_of(mp_grid::aligned::ALIGN),
                "sweep_block field {f} buffer is not 64-byte aligned"
            );
        }
    }
}

/// Where a segment sits in the global domain — lets kernels compute
/// position-dependent coefficients on the fly instead of storing them in
/// fields (the pentadiagonal SP and block-tridiagonal BT kernels do this,
/// exactly as the real NAS codes build their systems from local state).
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

    /// Global coordinates of buffer element `k`.
    pub fn global_of(&self, k: usize) -> Vec<usize> {
        let mut g = self.global_start.clone();
        g[self.axis] = (g[self.axis] as i64 + self.step * k as i64) as usize;
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
/// `fields()` lists the field indices the kernel touches; the executor
/// passes `sweep_segment` one buffer per listed field, each holding that
/// field's values along the tile's segment of the current line (in sweep
/// order: index 0 is processed first for both directions).
pub trait LineSweepKernel: Sync {
    /// Indices (into the rank's field list) of the fields this kernel reads
    /// and writes.
    fn fields(&self) -> &[usize];

    /// Number of `f64` values carried across a segment boundary per line.
    fn carry_len(&self) -> usize;

    /// Write the carry entering the first segment of a line (domain
    /// boundary) into `carry`, which holds [`Self::carry_len`] values.
    /// The compiled executor calls this for every first-phase line, so it
    /// must not allocate. Default: all zeros, the boundary state of every
    /// kernel in this workspace.
    fn fill_initial_carry(&self, _dir: Direction, carry: &mut [f64]) {
        carry.fill(0.0);
    }

    /// The initial carry as a fresh vector (see
    /// [`Self::fill_initial_carry`], which is what kernels override).
    fn initial_carry(&self, dir: Direction) -> Vec<f64> {
        let mut carry = vec![0.0; self.carry_len()];
        self.fill_initial_carry(dir, &mut carry);
        carry
    }

    /// Process one segment: consume/update `carry`, mutate the field
    /// buffers. `seg[k]` corresponds to `fields()[k]`; all buffers have the
    /// segment's length, **already ordered in sweep direction** (element 0
    /// first). `ctx` locates the segment in the global domain for kernels
    /// with position-dependent coefficients; simple kernels ignore it.
    fn sweep_segment(
        &self,
        dir: Direction,
        carry: &mut [f64],
        seg: &mut [Vec<f64>],
        ctx: &SegmentCtx,
    );

    /// Process a **block** of `nlines` same-length segments at once.
    ///
    /// Layouts:
    /// * `block[f]` holds field `fields()[f]` for all lines, **line-minor**:
    ///   element `k` of line `l` at `block[f][k·nlines + l]` (each buffer has
    ///   `seg_len·nlines` elements, every line already in sweep order);
    /// * `carries` is **line-major**: line `l`'s carry at
    ///   `carries[l·carry_len() .. (l+1)·carry_len()]` — exactly the order in
    ///   which the executor packs carries onto the wire, so blocked execution
    ///   can evolve the outgoing message in place;
    /// * `ctxs[l]` locates line `l` (lines of one block generally start at
    ///   different global positions).
    ///
    /// Implementations must perform, per line, the *same arithmetic in the
    /// same order* as `sweep_segment` would — blocked results are required
    /// to be bit-identical to per-line ones at any block width. The default
    /// implementation guarantees this by gathering each line and delegating
    /// to [`LineSweepKernel::sweep_segment`]; override it with an inner loop
    /// across lines (unit stride in the line-minor layout) to vectorize.
    fn sweep_block(
        &self,
        dir: Direction,
        nlines: usize,
        seg_len: usize,
        carries: &mut [f64],
        block: &mut [AlignedVec],
        ctxs: &[SegmentCtx],
    ) {
        per_line_sweep_block(self, dir, nlines, seg_len, carries, block, ctxs);
    }

    /// Like [`LineSweepKernel::sweep_block`], but with the vectorization
    /// level the plan resolved at build time. Kernels with a SIMD fast path
    /// (Thomas, penta, prefix/first-order — see [`crate::simd`]) override
    /// this and branch once on `level`; every other kernel inherits this
    /// default and ignores it, so the scalar blocked paths stay the single
    /// source of truth for the arithmetic. Overrides must remain **bitwise
    /// identical** to `sweep_block` for every input.
    #[allow(clippy::too_many_arguments)]
    fn sweep_block_simd(
        &self,
        level: crate::simd::SimdLevel,
        dir: Direction,
        nlines: usize,
        seg_len: usize,
        carries: &mut [f64],
        block: &mut [AlignedVec],
        ctxs: &[SegmentCtx],
    ) {
        let _ = level;
        self.sweep_block(dir, nlines, seg_len, carries, block, ctxs);
    }

    /// Stable name for calibration lookups (the `"<kernel>@<simd>"` K1 keys
    /// of a [`mp_core::machine::MachineProfile`]) and reports. Kernels
    /// without a registered calibration entry keep the default.
    fn kernel_name(&self) -> &'static str {
        "custom"
    }

    /// Whether [`LineSweepKernel::sweep_block_strided`] is overridden with a
    /// fast path. The executor only elects in-place execution for kernels
    /// that opt in; everything else keeps the packed gather/scatter path
    /// (the default `sweep_block_strided` below stays correct regardless,
    /// it is just never faster than packing).
    fn supports_strided(&self) -> bool {
        false
    }

    /// Process a block of `nlines` parallel segments **in place** over
    /// strided tile storage — the zero-copy alternative to
    /// [`LineSweepKernel::sweep_block_simd`].
    ///
    /// Addressing: element `k` of lane `l` of field `fields()[f]` lives at
    /// `ptrs[f].offset(k·elem_strides[f] + l)` — lanes are **unit-stride**
    /// in storage (the caller only builds such views; see
    /// [`mp_grid::LaneView`]), elements walk the swept dimension, and a
    /// negative stride walks a backward sweep from its far end. `carries`
    /// and `ctxs` are laid out exactly as in `sweep_block`.
    ///
    /// Implementations must perform, per lane, the *same arithmetic in the
    /// same order* as the packed path — in-place results are required to be
    /// bitwise identical to gather/sweep/scatter at any lane count.
    ///
    /// # Safety
    /// Every `ptrs[f]` must be valid for reads and writes over the full
    /// `(seg_len, nlines, elem_strides[f])` affine range, and no other
    /// thread may access any of those elements during the call.
    #[allow(clippy::too_many_arguments)]
    unsafe fn sweep_block_strided(
        &self,
        level: crate::simd::SimdLevel,
        dir: Direction,
        nlines: usize,
        seg_len: usize,
        carries: &mut [f64],
        ptrs: &[*mut f64],
        elem_strides: &[isize],
        ctxs: &[SegmentCtx],
    ) {
        // Default: peel each lane into temporary segments and delegate to
        // `sweep_segment` — correct for every kernel, never fast. Kernels
        // that return `supports_strided() == true` override this with a
        // direct strided loop (plus the AVX2 path where available).
        let _ = level;
        let clen = self.carry_len();
        debug_assert_eq!(carries.len(), nlines * clen);
        debug_assert_eq!(ctxs.len(), nlines);
        debug_assert_eq!(ptrs.len(), elem_strides.len());
        let mut seg: Vec<Vec<f64>> = vec![vec![0.0; seg_len]; ptrs.len()];
        for l in 0..nlines {
            for (f, s) in seg.iter_mut().enumerate() {
                let base = ptrs[f].add(l);
                for (k, v) in s.iter_mut().enumerate() {
                    *v = *base.offset(k as isize * elem_strides[f]);
                }
            }
            self.sweep_segment(
                dir,
                &mut carries[l * clen..(l + 1) * clen],
                &mut seg,
                &ctxs[l],
            );
            for (f, s) in seg.iter().enumerate() {
                let base = ptrs[f].add(l);
                for (k, v) in s.iter().enumerate() {
                    *base.offset(k as isize * elem_strides[f]) = *v;
                }
            }
        }
    }
}

/// Reference implementation of [`LineSweepKernel::sweep_block`]: peel each
/// line out of the line-minor block, run `sweep_segment`, and write it back.
/// Kernels with custom blocked paths are tested against this.
pub fn per_line_sweep_block<K: LineSweepKernel + ?Sized>(
    kernel: &K,
    dir: Direction,
    nlines: usize,
    seg_len: usize,
    carries: &mut [f64],
    block: &mut [AlignedVec],
    ctxs: &[SegmentCtx],
) {
    let clen = kernel.carry_len();
    debug_assert_eq!(carries.len(), nlines * clen);
    debug_assert_eq!(ctxs.len(), nlines);
    debug_assert_block_aligned(block);
    let mut seg: Vec<Vec<f64>> = vec![vec![0.0; seg_len]; block.len()];
    for l in 0..nlines {
        for (s, b) in seg.iter_mut().zip(block.iter()) {
            debug_assert_eq!(b.len(), seg_len * nlines);
            for (k, v) in s.iter_mut().enumerate() {
                *v = b[k * nlines + l];
            }
        }
        kernel.sweep_segment(
            dir,
            &mut carries[l * clen..(l + 1) * clen],
            &mut seg,
            &ctxs[l],
        );
        for (s, b) in seg.iter().zip(block.iter_mut()) {
            for (k, v) in s.iter().enumerate() {
                b[k * nlines + l] = *v;
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

    fn sweep_block(
        &self,
        _dir: Direction,
        nlines: usize,
        seg_len: usize,
        carries: &mut [f64],
        block: &mut [AlignedVec],
        _ctxs: &[SegmentCtx],
    ) {
        debug_assert_eq!(carries.len(), nlines);
        debug_assert_block_aligned(block);
        let buf = &mut block[0];
        for k in 0..seg_len {
            let row = &mut buf[k * nlines..(k + 1) * nlines];
            for (acc, v) in carries.iter_mut().zip(row.iter_mut()) {
                *acc += *v;
                *v = *acc;
            }
        }
    }

    fn sweep_block_simd(
        &self,
        level: crate::simd::SimdLevel,
        dir: Direction,
        nlines: usize,
        seg_len: usize,
        carries: &mut [f64],
        block: &mut [AlignedVec],
        ctxs: &[SegmentCtx],
    ) {
        #[cfg(target_arch = "x86_64")]
        if level == crate::simd::SimdLevel::Avx2 {
            debug_assert_eq!(carries.len(), nlines);
            debug_assert_block_aligned(block);
            // SAFETY: `SimdLevel::Avx2` implies detected avx2+fma; the
            // line-minor block is a unit-lane view with row stride nlines.
            unsafe {
                crate::simd::avx2::prefix_sum(
                    nlines,
                    seg_len,
                    carries,
                    block[0].as_mut_ptr(),
                    nlines as isize,
                )
            };
            return;
        }
        self.sweep_block(dir, nlines, seg_len, carries, block, ctxs);
    }

    fn kernel_name(&self) -> &'static str {
        "prefix_sum"
    }

    fn supports_strided(&self) -> bool {
        true
    }

    unsafe fn sweep_block_strided(
        &self,
        level: crate::simd::SimdLevel,
        _dir: Direction,
        nlines: usize,
        seg_len: usize,
        carries: &mut [f64],
        ptrs: &[*mut f64],
        elem_strides: &[isize],
        _ctxs: &[SegmentCtx],
    ) {
        debug_assert_eq!(carries.len(), nlines);
        let (buf, es) = (ptrs[0], elem_strides[0]);
        #[cfg(target_arch = "x86_64")]
        if level == crate::simd::SimdLevel::Avx2 {
            // SAFETY: caller guarantees the strided range; same kernel body
            // as the packed path, so bitwise identity holds by construction.
            crate::simd::avx2::prefix_sum(nlines, seg_len, carries, buf, es);
            return;
        }
        let _ = level;
        for k in 0..seg_len {
            let row = buf.offset(k as isize * es);
            for (l, acc) in carries.iter_mut().enumerate() {
                let v = row.add(l);
                *acc += *v;
                *v = *acc;
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

    fn sweep_block(
        &self,
        _dir: Direction,
        nlines: usize,
        seg_len: usize,
        carries: &mut [f64],
        block: &mut [AlignedVec],
        _ctxs: &[SegmentCtx],
    ) {
        debug_assert_eq!(carries.len(), nlines);
        debug_assert_block_aligned(block);
        let buf = &mut block[0];
        for k in 0..seg_len {
            let row = &mut buf[k * nlines..(k + 1) * nlines];
            for (prev, v) in carries.iter_mut().zip(row.iter_mut()) {
                *v += self.a * *prev;
                *prev = *v;
            }
        }
    }

    fn sweep_block_simd(
        &self,
        level: crate::simd::SimdLevel,
        dir: Direction,
        nlines: usize,
        seg_len: usize,
        carries: &mut [f64],
        block: &mut [AlignedVec],
        ctxs: &[SegmentCtx],
    ) {
        #[cfg(target_arch = "x86_64")]
        if level == crate::simd::SimdLevel::Avx2 {
            debug_assert_eq!(carries.len(), nlines);
            debug_assert_block_aligned(block);
            // SAFETY: `SimdLevel::Avx2` implies detected avx2+fma; the
            // line-minor block is a unit-lane view with row stride nlines.
            unsafe {
                crate::simd::avx2::first_order(
                    self.a,
                    nlines,
                    seg_len,
                    carries,
                    block[0].as_mut_ptr(),
                    nlines as isize,
                );
            }
            return;
        }
        self.sweep_block(dir, nlines, seg_len, carries, block, ctxs);
    }

    fn kernel_name(&self) -> &'static str {
        "first_order"
    }

    fn supports_strided(&self) -> bool {
        true
    }

    unsafe fn sweep_block_strided(
        &self,
        level: crate::simd::SimdLevel,
        _dir: Direction,
        nlines: usize,
        seg_len: usize,
        carries: &mut [f64],
        ptrs: &[*mut f64],
        elem_strides: &[isize],
        _ctxs: &[SegmentCtx],
    ) {
        debug_assert_eq!(carries.len(), nlines);
        let (buf, es) = (ptrs[0], elem_strides[0]);
        #[cfg(target_arch = "x86_64")]
        if level == crate::simd::SimdLevel::Avx2 {
            // SAFETY: caller guarantees the strided range; same kernel body
            // as the packed path, so bitwise identity holds by construction.
            crate::simd::avx2::first_order(self.a, nlines, seg_len, carries, buf, es);
            return;
        }
        let _ = level;
        for k in 0..seg_len {
            let row = buf.offset(k as isize * es);
            for (l, prev) in carries.iter_mut().enumerate() {
                let v = row.add(l);
                *v += self.a * *prev;
                *prev = *v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx0() -> SegmentCtx {
        SegmentCtx::origin(1, 0, Direction::Forward)
    }

    #[test]
    fn prefix_sum_whole_line() {
        let k = PrefixSumKernel::new(0);
        let mut carry = k.initial_carry(Direction::Forward);
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
        let mut carry = k.initial_carry(Direction::Forward);
        k.sweep_segment(Direction::Forward, &mut carry, &mut whole, &ctx0());

        let mut carry2 = k.initial_carry(Direction::Forward);
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
        let mut carry = k.initial_carry(Direction::Forward);
        let mut seg = vec![vec![1.0, 0.0, 0.0]];
        k.sweep_segment(Direction::Forward, &mut carry, &mut seg, &ctx0());
        assert_eq!(seg[0], vec![1.0, 0.5, 0.25]);
        assert_eq!(carry, vec![0.25]);
    }

    /// A kernel with no `sweep_block` override, to pin the default fallback.
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
    }

    /// Pack per-line data into a line-minor block buffer.
    fn pack_block(lines: &[Vec<f64>]) -> AlignedVec {
        let nl = lines.len();
        let n = lines[0].len();
        let mut out = AlignedVec::new();
        out.resize(n * nl, 0.0);
        for (l, line) in lines.iter().enumerate() {
            for (k, &v) in line.iter().enumerate() {
                out[k * nl + l] = v;
            }
        }
        out
    }

    #[test]
    fn blocked_overrides_match_default_fallback_bitwise() {
        // Both the default per-line fallback and the hand-blocked overrides
        // must equal sequential per-line sweeps exactly.
        let nl = 5;
        let n = 9;
        let lines: Vec<Vec<f64>> = (0..nl)
            .map(|l| {
                (0..n)
                    .map(|k| ((l * 31 + k * 7) % 13) as f64 - 6.0)
                    .collect()
            })
            .collect();
        let ctxs: Vec<SegmentCtx> = (0..nl)
            .map(|_| SegmentCtx::origin(1, 0, Direction::Forward))
            .collect();

        for use_fallback in [false, true] {
            let prefix = PrefixSumKernel::new(0);
            let mut carries = vec![0.25; nl];
            let mut block = vec![pack_block(&lines)];
            if use_fallback {
                let k = FallbackPrefix;
                k.sweep_block(Direction::Forward, nl, n, &mut carries, &mut block, &ctxs);
            } else {
                prefix.sweep_block(Direction::Forward, nl, n, &mut carries, &mut block, &ctxs);
            }
            for l in 0..nl {
                let mut carry = vec![0.25];
                let mut seg = vec![lines[l].clone()];
                prefix.sweep_segment(Direction::Forward, &mut carry, &mut seg, &ctxs[l]);
                assert_eq!(carries[l], carry[0], "carry, line {l}");
                for k in 0..n {
                    assert_eq!(block[0][k * nl + l], seg[0][k], "line {l} elem {k}");
                }
            }
        }

        // Same check for the first-order kernel's override.
        let fo = FirstOrderKernel::new(0, 0.75);
        let mut carries = vec![1.5; nl];
        let mut block = vec![pack_block(&lines)];
        fo.sweep_block(Direction::Forward, nl, n, &mut carries, &mut block, &ctxs);
        for l in 0..nl {
            let mut carry = vec![1.5];
            let mut seg = vec![lines[l].clone()];
            fo.sweep_segment(Direction::Forward, &mut carry, &mut seg, &ctxs[l]);
            assert_eq!(carries[l], carry[0], "carry, line {l}");
            for k in 0..n {
                assert_eq!(block[0][k * nl + l], seg[0][k], "line {l} elem {k}");
            }
        }
    }

    #[test]
    fn first_order_segmented_bitwise_equal() {
        let k = FirstOrderKernel::new(0, 0.9);
        let line: Vec<f64> = (0..32).map(|v| ((v * 7919) % 13) as f64 - 6.0).collect();
        let mut whole = vec![line.clone()];
        let mut c = k.initial_carry(Direction::Forward);
        k.sweep_segment(Direction::Forward, &mut c, &mut whole, &ctx0());

        for split in 1..31 {
            let mut c2 = k.initial_carry(Direction::Forward);
            let mut a = vec![line[..split].to_vec()];
            let mut b = vec![line[split..].to_vec()];
            k.sweep_segment(Direction::Forward, &mut c2, &mut a, &ctx0());
            k.sweep_segment(Direction::Forward, &mut c2, &mut b, &ctx0());
            let glued: Vec<f64> = a[0].iter().chain(b[0].iter()).copied().collect();
            assert_eq!(glued, whole[0], "split at {split} not bitwise equal");
        }
    }
}
