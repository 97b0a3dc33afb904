//! The lane view the sweep kernels run on.
//!
//! A blocked sweep processes `nlanes` lines of a tile at once, one *lane*
//! per line. [`Lanes`] addresses them affinely: element `k` of lane `l` of
//! field `f` sits `k·stride_f + l·lane_stride_f` elements past field `f`'s
//! base, and both strides are signed.
//!
//! The executor sweeps one *row* of a tile per view, in place on tile
//! storage ([`Lanes::from_raw`]): lanes are the tile's stride along the
//! row's lane axis apart, and elements `±` its stride along the swept
//! dimension (negative for a backward sweep, which walks its lines from the
//! far end). [`Lanes::packed`] views line-minor scratch instead (element
//! `k` of lane `l` at `k·nlanes + l`), the layout the kernel tests and
//! microbenchmarks build.

use std::marker::PhantomData;

/// Where one field's lanes live: the address of lane 0, element 0 (the
/// sweep's first touch), the signed distance between consecutive elements
/// of a lane and the signed distance between consecutive lanes. The
/// [`Lanes`] constructors fill a caller-owned table of these, so a reused
/// table makes building a view allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct LaneField {
    base: *mut f64,
    stride: isize,
    lane_stride: isize,
}

/// `nlanes` parallel lanes of `seg_len` elements over one or more fields:
/// element `k` of lane `l` of field `f` sits `k·stride_f + l·lane_stride_f`
/// elements past field `f`'s base.
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
    /// `f` at `bufs[f][k·nlanes + l]` (stride `nlanes`, lane stride 1).
    /// `table` is reused scratch for the per-field entries.
    ///
    /// # Panics
    /// Panics if `nlanes == 0` or a buffer holds fewer than
    /// `nlanes·seg_len` elements.
    pub fn packed(
        bufs: &'a mut [Vec<f64>],
        nlanes: usize,
        seg_len: usize,
        table: &'a mut Vec<LaneField>,
    ) -> Self {
        let parts = bufs
            .iter_mut()
            .map(|b| (b.as_mut_ptr(), b.len(), 0, nlanes as isize, 1));
        // SAFETY: every buffer is exclusively borrowed for 'a, and
        // `from_raw` checks the view against each buffer's length.
        unsafe { Self::from_raw(parts, nlanes, seg_len, table) }
    }

    /// A view over raw storage: one `(ptr, len, offset, stride,
    /// lane_stride)` per field, with lane 0, element 0 of the field at
    /// `ptr + offset`, elements `stride` apart and lanes `lane_stride`
    /// apart. `table` is reused scratch for the per-field entries.
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
        parts: impl IntoIterator<Item = (*mut f64, usize, usize, isize, isize)>,
        nlanes: usize,
        seg_len: usize,
        table: &'a mut Vec<LaneField>,
    ) -> Self {
        assert!(nlanes > 0, "view needs at least one lane");
        table.clear();
        for (ptr, len, offset, stride, lane_stride) in parts {
            if seg_len > 0 {
                for lane in [0, nlanes - 1] {
                    for k in [0, seg_len - 1] {
                        let idx =
                            offset as isize + lane as isize * lane_stride + k as isize * stride;
                        assert!(
                            idx >= 0 && (idx as usize) < len,
                            "lane view (offset {offset}, lane {lane}·{lane_stride}, \
                             elem {k}·{stride}) overruns buffer of {len}"
                        );
                    }
                }
            }
            table.push(LaneField {
                base: ptr.wrapping_add(offset),
                stride,
                lane_stride,
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
            .wrapping_offset(k as isize * field.stride + l as isize * field.lane_stride)
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
    /// `base(f).offset(k·stride + l·lane_stride)` for `k < seg_len`,
    /// `l < nlanes`.
    #[inline]
    pub fn base(&self, f: usize) -> *mut f64 {
        self.fields[f].base
    }

    /// Field `f`'s `(stride, lane_stride)`: element `k` of lane `l` is
    /// `base(f).offset(k·stride + l·lane_stride)`, for vector kernels that
    /// address each field's lanes themselves.
    #[inline]
    pub fn strides(&self, f: usize) -> (isize, isize) {
        let field = self.fields[f];
        (field.stride, field.lane_stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-field view of `src`, which it borrows exclusively.
    fn view<'a>(
        src: &'a mut [f64],
        offset: usize,
        (nlanes, lane_stride): (usize, isize),
        seg_len: usize,
        stride: isize,
        table: &'a mut Vec<LaneField>,
    ) -> Lanes<'a> {
        let part = (src.as_mut_ptr(), src.len(), offset, stride, lane_stride);
        // SAFETY: the view borrows `src` mutably for its whole lifetime.
        unsafe { Lanes::from_raw([part], nlanes, seg_len, table) }
    }

    #[test]
    fn lane_view_addresses_match_packed() {
        // A forward view over three interleaved lines of stride 5 addresses
        // exactly the elements a line-minor block holds for them, and a
        // packed view of that block reads them back unchanged.
        let mut src: Vec<f64> = (0..20).map(|v| v as f64).collect();
        let mut block = vec![0.0; 12];
        for k in 0..4 {
            for lane in 0..3 {
                block[k * 3 + lane] = src[2 + lane + 5 * k];
            }
        }
        let mut bufs = [block];
        let mut packed_table = Vec::new();
        let packed = Lanes::packed(&mut bufs, 3, 4, &mut packed_table);
        assert_eq!(packed.strides(0), (3, 1));
        let mut table = Vec::new();
        let strided = view(&mut src, 2, (3, 1), 4, 5, &mut table);
        assert_eq!(strided.strides(0), (5, 1));
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
        let mut v = view(&mut src, 8, (2, 1), 3, -4, &mut table);
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
        let mut bufs = [vec![0.0; 7]];
        Lanes::packed(&mut bufs, 2, 4, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "overruns buffer")]
    fn lane_view_negative_escape_detected() {
        let mut src = [0.0; 16];
        view(&mut src, 2, (1, 1), 4, -4, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "outside a 3×2 view")]
    fn lane_view_access_outside_is_rejected() {
        let mut bufs = [vec![0.0; 6]];
        Lanes::packed(&mut bufs, 2, 3, &mut Vec::new()).get(0, 0, 2);
    }

    #[test]
    fn lane_view_walks_lane_strided_rows() {
        // Two 4-element lines lying along rows of a 2×6 array, the layout a
        // sweep along the unit-stride axis uses: each lane contiguous,
        // lanes 6 apart, walked from the far end at stride −1.
        let mut src: Vec<f64> = (0..12).map(|v| v as f64).collect();
        let mut table = Vec::new();
        let mut v = view(&mut src, 4, (2, 6), 4, -1, &mut table);
        assert_eq!(v.strides(0), (-1, 6));
        assert_eq!(v.get(0, 0, 0), 4.0);
        assert_eq!(v.get(0, 3, 0), 1.0);
        assert_eq!(v.get(0, 0, 1), 10.0);
        v.set(0, 3, 1, -1.0);
        assert_eq!(src[7], -1.0);
        // Lanes may run backward too.
        let mut table = Vec::new();
        let reversed_lanes = view(&mut src, 1, (2, -1), 3, 4, &mut table);
        assert_eq!(reversed_lanes.strides(0), (4, -1));
        assert_eq!(reversed_lanes.get(0, 2, 1), 8.0);
    }

    #[test]
    #[should_panic(expected = "overruns buffer")]
    fn lane_stride_overrun_detected() {
        // The last lane starts at 2 + 2·5 = 12 and ends at 14: past a
        // 14-element buffer although every lane-0 element fits.
        let mut src = [0.0; 14];
        view(&mut src, 2, (3, 5), 3, 1, &mut Vec::new());
    }
}
