//! Line-block gather/scatter, and the lane view the sweep kernels run on.
//!
//! A blocked sweep processes `nlanes` lines of a tile at once. Each line is
//! a strided walk through the tile's raw storage; the block buffer lays the
//! lines out *line-minor* (element `k` of lane `l` at `k·nlanes + l`), so a
//! kernel's inner loop over lanes is unit-stride and auto-vectorizable.
//! [`gather_line_raw`] and [`scatter_line_raw`] perform that transpose in
//! both directions, one line at a time, with an optional reversal for
//! backward sweeps (element 0 of the block is the line's last storage
//! element). They take raw pointers so a parallel executor can let several
//! workers touch *disjoint lines* of the same array without materializing
//! overlapping `&mut` slices (which would be UB); they assert their bounds,
//! and the caller is responsible only for pointer validity and
//! element-level disjointness.
//!
//! [`Lanes`] is what a kernel sees: `nlanes` unit-stride lanes per field,
//! elements a signed stride apart. A line-minor block is one such view
//! (stride `nlanes`, [`Lanes::packed`]); so is a run of lines contiguous
//! in tile storage (stride `±` the tile's stride along the swept
//! dimension, [`Lanes::from_raw`]), which is how a sweep runs in place.

use crate::AlignedVec;
use std::marker::PhantomData;

#[inline]
fn check_geometry(
    buf_len: usize,
    block_len: usize,
    offset: usize,
    stride: usize,
    lane: usize,
    nlanes: usize,
) -> usize {
    assert!(nlanes > 0, "block needs at least one lane");
    assert!(lane < nlanes, "lane {lane} out of {nlanes}");
    assert_eq!(
        block_len % nlanes,
        0,
        "block length not a multiple of lane count"
    );
    let seg_len = block_len / nlanes;
    if seg_len > 0 {
        let last = offset + (seg_len - 1) * stride;
        assert!(
            last < buf_len,
            "line (offset {offset}, stride {stride}, len {seg_len}) overruns buffer of {buf_len}"
        );
    }
    seg_len
}

/// Copy the strided line at `offset`/`stride` of the `src_len`-element
/// buffer `src` into lane `lane` of the line-minor block buffer `block`
/// (which holds `block.len() / nlanes` elements per lane). With `reversed`,
/// the line is read back-to-front so block element 0 is the line's
/// highest-index storage element.
///
/// # Panics
/// Panics if `lane >= nlanes`, `block.len()` is not a multiple of `nlanes`,
/// or the line overruns `src`.
///
/// # Safety
/// `src..src+src_len` must be a live allocation, and no other thread may be
/// *writing* any of the elements this line addresses.
#[allow(clippy::too_many_arguments)]
pub unsafe fn gather_line_raw(
    src: *const f64,
    src_len: usize,
    offset: usize,
    stride: usize,
    reversed: bool,
    block: &mut [f64],
    lane: usize,
    nlanes: usize,
) {
    let seg_len = check_geometry(src_len, block.len(), offset, stride, lane, nlanes);
    if seg_len == 0 {
        return;
    }
    let lanes = block[lane..].iter_mut().step_by(nlanes);
    if reversed {
        let last = offset + (seg_len - 1) * stride;
        for (k, slot) in lanes.enumerate() {
            *slot = *src.add(last - k * stride);
        }
    } else {
        for (k, slot) in lanes.enumerate() {
            *slot = *src.add(offset + k * stride);
        }
    }
}

/// Inverse of [`gather_line_raw`]: copy lane `lane` of `block` back onto
/// the strided line at `offset`/`stride` of the `dst_len`-element buffer
/// `dst`.
///
/// # Panics
/// Same conditions as [`gather_line_raw`].
///
/// # Safety
/// `dst..dst+dst_len` must be a live allocation, and no other thread may be
/// *accessing* any of the elements this line addresses.
#[allow(clippy::too_many_arguments)]
pub unsafe fn scatter_line_raw(
    dst: *mut f64,
    dst_len: usize,
    offset: usize,
    stride: usize,
    reversed: bool,
    block: &[f64],
    lane: usize,
    nlanes: usize,
) {
    let seg_len = check_geometry(dst_len, block.len(), offset, stride, lane, nlanes);
    if seg_len == 0 {
        return;
    }
    let lanes = block[lane..].iter().step_by(nlanes);
    if reversed {
        let last = offset + (seg_len - 1) * stride;
        for (k, &v) in lanes.enumerate() {
            *dst.add(last - k * stride) = v;
        }
    } else {
        for (k, &v) in lanes.enumerate() {
            *dst.add(offset + k * stride) = v;
        }
    }
}

/// Where one field's lanes live: the address of lane 0, element 0 (the
/// sweep's first touch) and the signed distance between consecutive
/// elements of a lane. The [`Lanes`] constructors fill a caller-owned
/// table of these, so a reused table makes building a view
/// allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct LaneField {
    base: *mut f64,
    stride: isize,
}

// SAFETY: a `LaneField` is an address, not an access: it is dereferenced
// only through a `Lanes` view, whose constructors establish that every
// addressed element is valid and exclusively held for the view's lifetime.
unsafe impl Send for LaneField {}

/// `nlanes` parallel lanes of `seg_len` elements over one or more fields:
/// element `k` of lane `l` of field `f` sits `k·stride_f + l` elements past
/// field `f`'s base. Lanes are always unit-stride; the element stride is
/// signed so a backward sweep walks its lines from the far end.
///
/// Both constructors check the four extreme corners (first/last lane ×
/// first/last element) of every field against its buffer, which bounds the
/// whole affine range; [`Lanes::get`] and [`Lanes::set`] then only check
/// that the lane and element lie inside the view.
pub struct Lanes<'a> {
    fields: &'a [LaneField],
    nlanes: usize,
    seg_len: usize,
    _data: PhantomData<&'a mut [f64]>,
}

impl<'a> Lanes<'a> {
    /// A view of line-minor block buffers: element `k` of lane `l` of field
    /// `f` at `bufs[f][k·nlanes + l]` (stride `nlanes`). `table` is reused
    /// scratch for the per-field entries.
    ///
    /// # Panics
    /// Panics if `nlanes == 0` or a buffer holds fewer than
    /// `nlanes·seg_len` elements.
    pub fn packed(
        bufs: &'a mut [AlignedVec],
        nlanes: usize,
        seg_len: usize,
        table: &'a mut Vec<LaneField>,
    ) -> Self {
        let parts = bufs
            .iter_mut()
            .map(|b| (b.as_mut_ptr(), b.len(), 0, nlanes as isize));
        // SAFETY: every buffer is exclusively borrowed for 'a, and
        // `from_raw` checks the view against each buffer's length.
        unsafe { Self::from_raw(parts, nlanes, seg_len, table) }
    }

    /// A view over raw storage: one `(ptr, len, offset, stride)` per field,
    /// with lane 0, element 0 of the field at `ptr + offset` and elements
    /// `stride` apart. `table` is reused scratch for the per-field entries.
    ///
    /// # Panics
    /// Panics if `nlanes == 0` or a corner of a field's view lies outside
    /// `ptr..ptr+len`.
    ///
    /// # Safety
    /// Each `ptr..ptr+len` must be a live allocation valid for reads and
    /// writes during `'a`, and nothing else may access the elements the
    /// view addresses during `'a`.
    pub unsafe fn from_raw(
        parts: impl IntoIterator<Item = (*mut f64, usize, usize, isize)>,
        nlanes: usize,
        seg_len: usize,
        table: &'a mut Vec<LaneField>,
    ) -> Self {
        assert!(nlanes > 0, "view needs at least one lane");
        table.clear();
        for (ptr, len, offset, stride) in parts {
            if seg_len > 0 {
                for lane in [0, nlanes - 1] {
                    for k in [0, seg_len - 1] {
                        let idx = offset as isize + lane as isize + k as isize * stride;
                        assert!(
                            idx >= 0 && (idx as usize) < len,
                            "lane view (offset {offset}, lane {lane}, elem {k}·{stride}) \
                             overruns buffer of {len}"
                        );
                    }
                }
            }
            table.push(LaneField {
                base: ptr.wrapping_add(offset),
                stride,
            });
        }
        Lanes {
            fields: table,
            nlanes,
            seg_len,
            _data: PhantomData,
        }
    }

    /// Parallel lanes in the view.
    #[inline]
    pub fn nlanes(&self) -> usize {
        self.nlanes
    }

    /// Elements per lane.
    #[inline]
    pub fn seg_len(&self) -> usize {
        self.seg_len
    }

    /// Fields in the view.
    #[inline]
    pub fn nfields(&self) -> usize {
        self.fields.len()
    }

    #[inline]
    fn at(&self, f: usize, k: usize, l: usize) -> *mut f64 {
        assert!(
            k < self.seg_len && l < self.nlanes,
            "element {k} of lane {l} outside a {}×{} view",
            self.seg_len,
            self.nlanes
        );
        let field = self.fields[f];
        field
            .base
            .wrapping_offset(k as isize * field.stride + l as isize)
    }

    /// Element `k` of lane `l` of field `f`.
    #[inline]
    pub fn get(&self, f: usize, k: usize, l: usize) -> f64 {
        // SAFETY: `at` checked the lane and element; the constructor
        // checked that every such address lies inside the field's buffer.
        unsafe { *self.at(f, k, l) }
    }

    /// Overwrite element `k` of lane `l` of field `f`.
    #[inline]
    pub fn set(&mut self, f: usize, k: usize, l: usize, v: f64) {
        // SAFETY: as for `get`; `&mut self` is the view's exclusive access.
        unsafe { *self.at(f, k, l) = v }
    }

    /// Address of lane 0, element 0 of field `f`, for vector kernels that
    /// walk the view themselves: element `k` of lane `l` is
    /// `base(f).offset(k·stride + l)` for `k < seg_len`, `l < nlanes`.
    #[inline]
    pub fn base(&self, f: usize) -> *mut f64 {
        self.fields[f].base
    }

    /// The element stride every field shares, if they all share one.
    pub fn uniform_stride(&self) -> Option<isize> {
        let s = self.fields.first()?.stride;
        self.fields.iter().all(|f| f.stride == s).then_some(s)
    }

    /// The sub-view of fields `range` (same lanes and elements).
    pub fn field_range(&mut self, range: std::ops::Range<usize>) -> Lanes<'_> {
        Lanes {
            fields: &self.fields[range],
            nlanes: self.nlanes,
            seg_len: self.seg_len,
            _data: PhantomData,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gather(
        src: &[f64],
        off: usize,
        stride: usize,
        rev: bool,
        b: &mut [f64],
        l: usize,
        nl: usize,
    ) {
        // SAFETY: the pointer spans exactly `src`.
        unsafe { gather_line_raw(src.as_ptr(), src.len(), off, stride, rev, b, l, nl) }
    }

    fn scatter(
        dst: &mut [f64],
        off: usize,
        stride: usize,
        rev: bool,
        b: &[f64],
        l: usize,
        nl: usize,
    ) {
        // SAFETY: the pointer spans exactly `dst`.
        unsafe { scatter_line_raw(dst.as_mut_ptr(), dst.len(), off, stride, rev, b, l, nl) }
    }

    /// A one-field view of `src`, which it borrows exclusively.
    fn view<'a>(
        src: &'a mut [f64],
        offset: usize,
        nlanes: usize,
        seg_len: usize,
        stride: isize,
        table: &'a mut Vec<LaneField>,
    ) -> Lanes<'a> {
        let part = (src.as_mut_ptr(), src.len(), offset, stride);
        // SAFETY: the view borrows `src` mutably for its whole lifetime.
        unsafe { Lanes::from_raw([part], nlanes, seg_len, table) }
    }

    #[test]
    fn gather_scatter_roundtrip_strided() {
        // 3 lines of length 4, stride 5, interleaved in a 20-element buffer.
        let src: Vec<f64> = (0..20).map(|v| v as f64).collect();
        let offsets = [0usize, 1, 2];
        let mut block = vec![0.0; 4 * 3];
        for (lane, &off) in offsets.iter().enumerate() {
            gather(&src, off, 5, false, &mut block, lane, 3);
        }
        // line-minor layout: element k of lane l at k*3 + l
        for k in 0..4 {
            for (lane, &off) in offsets.iter().enumerate() {
                assert_eq!(block[k * 3 + lane], src[off + k * 5]);
            }
        }
        let mut dst = vec![-1.0; 20];
        for (lane, &off) in offsets.iter().enumerate() {
            scatter(&mut dst, off, 5, false, &block, lane, 3);
        }
        for (lane, &off) in offsets.iter().enumerate() {
            for k in 0..4 {
                assert_eq!(dst[off + k * 5], src[off + k * 5], "lane {lane} k {k}");
            }
        }
    }

    #[test]
    fn reversed_gather_reads_back_to_front() {
        let src: Vec<f64> = (0..10).map(|v| v as f64 * 2.0).collect();
        let mut block = vec![0.0; 5];
        gather(&src, 0, 2, true, &mut block, 0, 1);
        assert_eq!(block, vec![16.0, 12.0, 8.0, 4.0, 0.0]);
        let mut dst = vec![0.0; 10];
        scatter(&mut dst, 0, 2, true, &block, 0, 1);
        for k in 0..5 {
            assert_eq!(dst[2 * k], src[2 * k]);
        }
    }

    #[test]
    fn empty_block_is_a_noop() {
        let src = [1.0, 2.0];
        let mut block: Vec<f64> = vec![];
        gather(&src, 0, 1, false, &mut block, 0, 2);
        let mut dst = [0.0, 0.0];
        scatter(&mut dst, 0, 1, false, &block, 1, 2);
        assert_eq!(dst, [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "overruns buffer")]
    fn overrun_detected() {
        let src = [1.0; 8];
        let mut block = vec![0.0; 4];
        gather(&src, 2, 3, false, &mut block, 0, 1);
    }

    #[test]
    #[should_panic(expected = "lane 2 out of 2")]
    fn bad_lane_detected() {
        let src = [1.0; 4];
        let mut block = vec![0.0; 4];
        gather(&src, 0, 1, false, &mut block, 2, 2);
    }

    #[test]
    fn lane_view_addresses_match_gather() {
        // A forward view over the geometry the packers use addresses
        // exactly the elements a gather copies, and a packed view of the
        // gathered block reads them back unchanged.
        let mut src: Vec<f64> = (0..20).map(|v| v as f64).collect();
        let mut block = AlignedVec::from_slice(&[0.0; 12]);
        for lane in 0..3 {
            gather(&src, 2 + lane, 5, false, &mut block, lane, 3);
        }
        let mut bufs = [block];
        let mut packed_table = Vec::new();
        let packed = Lanes::packed(&mut bufs, 3, 4, &mut packed_table);
        assert_eq!(packed.uniform_stride(), Some(3));
        let mut table = Vec::new();
        let strided = view(&mut src, 2, 3, 4, 5, &mut table);
        assert_eq!(strided.uniform_stride(), Some(5));
        for lane in 0..3 {
            for k in 0..4 {
                let want = (2 + lane + 5 * k) as f64;
                assert_eq!(strided.get(0, k, lane), want, "lane {lane} k {k}");
                assert_eq!(packed.get(0, k, lane), want, "lane {lane} k {k}");
            }
        }
    }

    #[test]
    fn lane_view_backward_walks_negative_stride() {
        let mut src: Vec<f64> = (0..12).map(|v| v as f64).collect();
        // Two lanes of 3 elements walked backward: first touch at index 8/9.
        let mut table = Vec::new();
        let mut v = view(&mut src, 8, 2, 3, -4, &mut table);
        assert_eq!(v.get(0, 0, 0), 8.0);
        assert_eq!(v.get(0, 2, 0), 0.0);
        assert_eq!(v.get(0, 1, 1), 5.0);
        v.set(0, 2, 1, -1.0);
        assert_eq!(src[1], -1.0);
    }

    #[test]
    #[should_panic(expected = "overruns buffer")]
    fn lane_view_overrun_detected() {
        // Two lanes of 4 elements at packed stride 2 need 8 elements.
        let mut bufs = [AlignedVec::from_slice(&[0.0; 7])];
        Lanes::packed(&mut bufs, 2, 4, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "overruns buffer")]
    fn lane_view_negative_escape_detected() {
        let mut src = [0.0; 16];
        view(&mut src, 2, 1, 4, -4, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "outside a 3×2 view")]
    fn lane_view_access_outside_is_rejected() {
        let mut bufs = [AlignedVec::from_slice(&[0.0; 6])];
        Lanes::packed(&mut bufs, 2, 3, &mut Vec::new()).get(0, 0, 2);
    }
}
