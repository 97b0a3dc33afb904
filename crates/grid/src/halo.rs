//! Halo-augmented arrays: tile-local storage with ghost layers.
//!
//! Stencil phases (e.g. NAS SP's `compute_rhs`) read a `w`-wide layer of
//! neighbor data along every dimension. A [`HaloArray`] stores a tile's
//! interior plus `w` ghost planes on each side and exposes *logical* signed
//! indexing: interior indices are `0..extent`, ghosts live at `-w..0` and
//! `extent..extent+w`.
//!
//! Every accessor and face copy is allocation-free: element access folds
//! the index against the storage strides, and faces, ghost layers and the
//! interior are walked row by row (runs contiguous along the last
//! dimension) with a stack index.

use crate::array::ArrayD;
use crate::shape::Side;

/// Largest rank the row walkers handle (their index lives on the stack).
pub(crate) const MAX_DIMS: usize = 8;

/// A box of a padded storage array, walked row by row without allocating:
/// `lo..lo + ext` per dimension, in storage coordinates.
#[derive(Clone, Copy)]
struct StorageBox {
    d: usize,
    strides: [usize; MAX_DIMS],
    lo: [usize; MAX_DIMS],
    ext: [usize; MAX_DIMS],
}

impl StorageBox {
    /// Elements per row (the box's extent along the last dimension).
    fn row_len(&self) -> usize {
        self.ext[self.d - 1]
    }

    /// Call `f(idx, off)` for every row in row-major order: `idx` is the
    /// box-relative index of the row's first element (last component 0),
    /// `off` its storage offset.
    fn for_each_row(&self, mut f: impl FnMut(&[usize], usize)) {
        assert!(self.ext[..self.d].iter().all(|&e| e > 0), "empty box");
        let mut idx = [0usize; MAX_DIMS];
        loop {
            let off = (0..self.d)
                .map(|k| (self.lo[k] + idx[k]) * self.strides[k])
                .sum();
            f(&idx[..self.d], off);
            // Advance the leading dimensions like an odometer.
            let mut k = self.d - 1;
            loop {
                if k == 0 {
                    return;
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < self.ext[k] {
                    break;
                }
                idx[k] = 0;
            }
        }
    }
}

/// A dense array with `halo` ghost layers on every side of every dimension.
#[derive(Debug, Clone, PartialEq)]
pub struct HaloArray {
    /// Interior extents (without ghosts).
    interior: Vec<usize>,
    /// Ghost width per side.
    halo: usize,
    /// Backing storage of extents `interior[k] + 2·halo`.
    data: ArrayD<f64>,
}

impl HaloArray {
    /// Allocate a zero-filled halo array.
    ///
    /// ```
    /// use mp_grid::{HaloArray, Side};
    /// let mut a = HaloArray::zeros(&[2, 2], 1);
    /// a.set_i(&[1, 0], 7.0);                    // interior write
    /// a.set(&[-1, 0], 3.0);                     // ghost write (signed index)
    /// assert_eq!(a.pack_face(0, Side::High, 1), vec![7.0, 0.0]);
    /// ```
    pub fn zeros(interior: &[usize], halo: usize) -> Self {
        let padded: Vec<usize> = interior.iter().map(|&e| e + 2 * halo).collect();
        HaloArray {
            interior: interior.to_vec(),
            halo,
            data: ArrayD::zeros(&padded),
        }
    }

    /// Interior extents.
    pub fn interior(&self) -> &[usize] {
        &self.interior
    }

    /// Ghost width.
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.interior.len()
    }

    /// Storage offset of a logical (possibly ghost) index.
    #[inline]
    fn offset(&self, idx: &[isize]) -> usize {
        debug_assert_eq!(idx.len(), self.ndim());
        let h = self.halo as isize;
        idx.iter()
            .zip(&self.interior)
            .zip(self.strides())
            .fold(0, |off, ((&i, &e), &s)| {
                debug_assert!(
                    i >= -h && i < e as isize + h,
                    "logical index {i} outside [-{h}, {e}+{h})"
                );
                off + (i + h) as usize * s
            })
    }

    /// Storage offset of an unsigned logical index.
    #[inline]
    fn offset_i(&self, idx: &[usize]) -> usize {
        debug_assert_eq!(idx.len(), self.ndim());
        let h = self.halo;
        idx.iter()
            .zip(&self.interior)
            .zip(self.strides())
            .fold(0, |off, ((&i, &e), &s)| {
                debug_assert!(
                    i < e + h,
                    "index {i} outside the storage of extent {e}+2·{h}"
                );
                off + (i + h) * s
            })
    }

    /// Read at a logical (possibly ghost) index.
    #[inline]
    pub fn get(&self, idx: &[isize]) -> f64 {
        self.raw()[self.offset(idx)]
    }

    /// Write at a logical (possibly ghost) index.
    #[inline]
    pub fn set(&mut self, idx: &[isize], value: f64) {
        let off = self.offset(idx);
        self.raw_mut()[off] = value;
    }

    /// Interior-only convenience accessors (unsigned indices).
    #[inline]
    pub fn get_i(&self, idx: &[usize]) -> f64 {
        self.raw()[self.offset_i(idx)]
    }

    /// Interior-only write.
    #[inline]
    pub fn set_i(&mut self, idx: &[usize], value: f64) {
        let off = self.offset_i(idx);
        self.raw_mut()[off] = value;
    }

    /// A box of this array's storage: `lo(k)..lo(k) + ext(k)` along each
    /// dimension `k`.
    fn storage_box(&self, lo: impl Fn(usize) -> usize, ext: impl Fn(usize) -> usize) -> StorageBox {
        let d = self.ndim();
        assert!(
            d <= MAX_DIMS,
            "{d} dimensions exceed the row walker's {MAX_DIMS}"
        );
        let mut b = StorageBox {
            d,
            strides: [0; MAX_DIMS],
            lo: [0; MAX_DIMS],
            ext: [0; MAX_DIMS],
        };
        b.strides[..d].copy_from_slice(self.strides());
        for k in 0..d {
            b.lo[k] = lo(k);
            b.ext[k] = ext(k);
        }
        b
    }

    /// The interior, as a storage box.
    fn interior_box(&self) -> StorageBox {
        self.storage_box(|_| self.halo, |k| self.interior[k])
    }

    /// The `width`-deep slab on `side` of `dim`, as a storage box: the
    /// interior face a neighbor on that side needs (`ghost == false`), or
    /// the ghost layer a message from that neighbor fills (`ghost ==
    /// true`).
    fn face_box(&self, dim: usize, side: Side, width: usize, ghost: bool) -> StorageBox {
        let h = self.halo;
        assert!(width <= h || !ghost);
        let e = self.interior[dim];
        let at = match (side, ghost) {
            (Side::Low, false) => h,
            (Side::High, false) => h + e - width,
            (Side::Low, true) => h - width,
            (Side::High, true) => h + e,
        };
        self.storage_box(
            |k| if k == dim { at } else { h },
            |k| if k == dim { width } else { self.interior[k] },
        )
    }

    /// Pack the `width`-wide interior face on `side` of `dim` for sending.
    pub fn pack_face(&self, dim: usize, side: Side, width: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.face_len(dim, width));
        self.pack_face_into(dim, side, width, &mut out);
        out
    }

    /// [`HaloArray::pack_face`] without the allocation: append the face to
    /// `out`, so multi-tile halo messages can be assembled in one reused
    /// buffer.
    pub fn pack_face_into(&self, dim: usize, side: Side, width: usize, out: &mut Vec<f64>) {
        let b = self.face_box(dim, side, width, false);
        let (raw, n) = (self.raw(), b.row_len());
        out.reserve(self.face_len(dim, width));
        b.for_each_row(|_, off| out.extend_from_slice(&raw[off..off + n]));
    }

    /// Unpack a received face into the ghost layer on `side` of `dim`.
    ///
    /// # Panics
    /// Panics if `buf` is not exactly one face long.
    pub fn unpack_ghost(&mut self, dim: usize, side: Side, width: usize, buf: &[f64]) {
        assert_eq!(
            buf.len(),
            self.face_len(dim, width),
            "buffer/face size mismatch"
        );
        let b = self.face_box(dim, side, width, true);
        let n = b.row_len();
        let raw = self.raw_mut();
        let mut rows = buf.chunks_exact(n);
        b.for_each_row(|_, off| {
            raw[off..off + n].copy_from_slice(rows.next().expect("face rows"));
        });
    }

    /// Visit the interior row by row in row-major order: `f(idx, row)` for
    /// every run of `interior()[d−1]` elements contiguous along the last
    /// dimension, `idx` being the interior index of the row's first
    /// element.
    ///
    /// # Panics
    /// Panics if the array has more than 8 dimensions.
    pub fn for_each_interior_row(&self, mut f: impl FnMut(&[usize], &[f64])) {
        let b = self.interior_box();
        let (raw, n) = (self.raw(), b.row_len());
        b.for_each_row(|idx, off| f(idx, &raw[off..off + n]));
    }

    /// [`HaloArray::for_each_interior_row`] with mutable rows.
    pub fn for_each_interior_row_mut(&mut self, mut f: impl FnMut(&[usize], &mut [f64])) {
        let b = self.interior_box();
        let n = b.row_len();
        let raw = self.raw_mut();
        b.for_each_row(|idx, off| f(idx, &mut raw[off..off + n]));
    }

    /// The rows a 7-point stencil reads at interior row `(i, j)` of a 3-D
    /// array with ghost width ≥ 1, as slices of [`HaloArray::raw`]:
    /// `[x−, x+, y−, y+, z]`. The first four are the neighbor rows along
    /// dimensions 0 and 1 (`interior()[2]` elements each); `z` is the row
    /// itself with one ghost on each end (`interior()[2] + 2` elements), so
    /// element `k` has its centre at `z[k + 1]` and its dimension-2
    /// neighbors at `z[k]` and `z[k + 2]`.
    ///
    /// # Panics
    /// Panics if the array is not 3-D with a halo, or `(i, j)` lies
    /// outside the interior.
    pub fn stencil_rows(&self, i: usize, j: usize) -> [&[f64]; 5] {
        assert!(
            self.ndim() == 3 && self.halo >= 1,
            "needs a 3-D array with a halo"
        );
        assert!(
            i < self.interior[0] && j < self.interior[1],
            "row ({i}, {j}) outside the interior"
        );
        let (s0, s1, n) = (self.strides()[0], self.strides()[1], self.interior[2]);
        let base = self.interior_origin_offset() + i * s0 + j * s1;
        let raw = self.raw();
        let row = |off: usize| &raw[off..off + n];
        [
            row(base - s0),
            row(base + s0),
            row(base - s1),
            row(base + s1),
            &raw[base - 1..base + n + 1],
        ]
    }

    /// Number of elements in a face message.
    pub fn face_len(&self, dim: usize, width: usize) -> usize {
        self.interior
            .iter()
            .enumerate()
            .map(|(k, &e)| if k == dim { width } else { e })
            .product()
    }

    /// Row-major strides of the padded backing storage (one per dimension).
    /// Together with [`HaloArray::interior_origin_offset`] this lets callers
    /// compute line and row offsets directly.
    pub fn strides(&self) -> &[usize] {
        self.data.shape().strides()
    }

    /// Storage offset of the interior origin `(0, …, 0)`: interior point
    /// `base` lives at `interior_origin_offset() + Σ base[k]·strides()[k]`.
    pub fn interior_origin_offset(&self) -> usize {
        self.strides().iter().map(|&s| s * self.halo).sum()
    }

    /// Raw backing storage (row-major over the padded extents); use with
    /// [`HaloArray::strides`] and [`HaloArray::interior_origin_offset`].
    pub fn raw(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable raw backing storage.
    pub fn raw_mut(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }
}

/// One direction of a compiled halo exchange: which tiles contribute a
/// face, which receive one, the peer ranks, and every buffer length —
/// precomputed once from the rank's tile geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloDirPlan {
    /// Dimension being exchanged.
    pub dim: usize,
    /// Shift direction along `dim` (`+1` or `-1`).
    pub step: i64,
    /// Tag offset within the exchange's tag block (`dim · 2 + dir_idx`,
    /// matching the per-call executor's layout).
    pub tag_off: u64,
    /// Rank the aggregated face message goes to.
    pub to: u64,
    /// Rank the incoming message arrives from.
    pub from: u64,
    /// Which side of each sending tile is packed.
    pub side_send: Side,
    /// Which ghost side of each receiving tile is filled.
    pub side_recv: Side,
    /// Store indices of tiles with an interior neighbor `step` away, in
    /// store order (= packing order; both ranks enumerate identically).
    pub send_tiles: Vec<usize>,
    /// Store indices of tiles receiving a face, in store order.
    pub recv_tiles: Vec<usize>,
    /// Face length of each receiving tile, parallel to `recv_tiles`.
    pub recv_lens: Vec<usize>,
    /// Total outgoing message length in elements.
    pub send_len: usize,
    /// Total incoming message length in elements.
    pub recv_len: usize,
}

/// A compiled halo-exchange schedule for one rank: per-(dimension,
/// direction) face index lists and buffer sizes, built once per
/// `(store geometry, width)` and reused across timesteps. Field-agnostic:
/// every field of a tile shares the tile's interior extents, so one plan
/// serves any field (with sufficient ghost width) at execute time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloPlan {
    width: usize,
    dirs: Vec<HaloDirPlan>,
}

impl HaloPlan {
    /// Build the schedule from this rank's tiles. `gammas` is the tile-grid
    /// shape (dimensions with fewer than 2 slabs have no exchange);
    /// `neighbor(dim, step)` must return the rank owning the tiles one
    /// `step` away along `dim` — the multipartitioning's neighbor property
    /// guarantees it is unique, which is what makes one aggregated message
    /// per direction possible.
    pub fn build(
        store: &crate::dist::RankStore,
        gammas: &[u64],
        width: usize,
        neighbor: impl Fn(usize, i64) -> u64,
    ) -> Self {
        let face_len = |tile: &crate::dist::TileData, dim: usize| -> usize {
            tile.region
                .extent
                .iter()
                .enumerate()
                .map(|(k, &e)| if k == dim { width } else { e })
                .product()
        };
        let mut dirs = Vec::new();
        for (dim, &gamma) in gammas.iter().enumerate() {
            if gamma < 2 {
                continue;
            }
            for (dir_idx, step) in [(0u64, 1i64), (1, -1)] {
                let side_send = if step > 0 { Side::High } else { Side::Low };
                let in_grid = |c: i64| c >= 0 && c < gamma as i64;
                let mut send_tiles = Vec::new();
                let mut recv_tiles = Vec::new();
                let mut recv_lens = Vec::new();
                let mut send_len = 0usize;
                let mut recv_len = 0usize;
                for (i, tile) in store.tiles.iter().enumerate() {
                    if in_grid(tile.coord[dim] as i64 + step) {
                        send_tiles.push(i);
                        send_len += face_len(tile, dim);
                    }
                    if in_grid(tile.coord[dim] as i64 - step) {
                        recv_tiles.push(i);
                        let n = face_len(tile, dim);
                        recv_lens.push(n);
                        recv_len += n;
                    }
                }
                dirs.push(HaloDirPlan {
                    dim,
                    step,
                    tag_off: dim as u64 * 2 + dir_idx,
                    to: neighbor(dim, step),
                    from: neighbor(dim, -step),
                    side_send,
                    side_recv: side_send.opposite(),
                    send_tiles,
                    recv_tiles,
                    recv_lens,
                    send_len,
                    recv_len,
                });
            }
        }
        HaloPlan { width, dirs }
    }

    /// Ghost width the plan was built for.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The per-direction schedules, in execution order.
    pub fn dirs(&self) -> &[HaloDirPlan] {
        &self.dirs
    }

    /// Largest single message this plan sends (for buffer-pool sizing).
    pub fn max_send_len(&self) -> usize {
        self.dirs.iter().map(|d| d.send_len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logical_indexing() {
        let mut a = HaloArray::zeros(&[3, 3], 1);
        a.set(&[-1, 0], 5.0);
        a.set(&[3, 2], 7.0);
        a.set(&[1, 1], 9.0);
        assert_eq!(a.get(&[-1, 0]), 5.0);
        assert_eq!(a.get(&[3, 2]), 7.0);
        assert_eq!(a.get_i(&[1, 1]), 9.0);
    }

    #[test]
    fn face_exchange_between_two_tiles() {
        // Tile A | Tile B adjacent along dim 0. B's low ghost = A's high face.
        let mut a = HaloArray::zeros(&[2, 3], 1);
        let mut b = HaloArray::zeros(&[2, 3], 1);
        for i in 0..2usize {
            for j in 0..3usize {
                a.set_i(&[i, j], (10 * i + j) as f64);
            }
        }
        let msg = a.pack_face(0, Side::High, 1);
        assert_eq!(msg.len(), 3);
        assert_eq!(msg, vec![10.0, 11.0, 12.0]); // A's last interior row
        b.unpack_ghost(0, Side::Low, 1, &msg);
        for j in 0..3isize {
            assert_eq!(b.get(&[-1, j]), (10 + j) as f64);
        }
    }

    #[test]
    fn low_face_and_high_ghost() {
        let mut a = HaloArray::zeros(&[2, 2], 1);
        a.set_i(&[0, 0], 1.0);
        a.set_i(&[0, 1], 2.0);
        let msg = a.pack_face(0, Side::Low, 1);
        assert_eq!(msg, vec![1.0, 2.0]);
        let mut b = HaloArray::zeros(&[2, 2], 1);
        b.unpack_ghost(0, Side::High, 1, &msg);
        assert_eq!(b.get(&[2, 0]), 1.0);
        assert_eq!(b.get(&[2, 1]), 2.0);
    }

    #[test]
    fn face_len() {
        let a = HaloArray::zeros(&[4, 5, 6], 2);
        assert_eq!(a.face_len(0, 1), 30);
        assert_eq!(a.face_len(1, 2), 48);
        assert_eq!(a.face_len(2, 1), 20);
    }

    #[test]
    fn interior_line_matches_get_i() {
        // The interior line along `axis` through `base` starts at
        // `interior_origin_offset() + Σ_{k≠axis} base[k]·strides()[k]` and
        // steps by `strides()[axis]`.
        let mut a = HaloArray::zeros(&[3, 4, 5], 2);
        for i in 0..3 {
            for j in 0..4 {
                for k in 0..5 {
                    a.set_i(&[i, j, k], (i * 100 + j * 10 + k) as f64);
                }
            }
        }
        let base = [1usize, 2, 3];
        for axis in 0..3 {
            let s = a.strides();
            let off = (0..3)
                .filter(|&k| k != axis)
                .fold(a.interior_origin_offset(), |off, k| off + base[k] * s[k]);
            for k in 0..a.interior()[axis] {
                let mut idx = base;
                idx[axis] = k;
                assert_eq!(
                    a.raw()[off + k * s[axis]],
                    a.get_i(&idx),
                    "axis {axis} k {k}"
                );
            }
        }
    }

    #[test]
    fn stencil_rows_match_signed_indexing() {
        let mut a = HaloArray::zeros(&[3, 4, 5], 1);
        for (v, x) in a.raw_mut().iter_mut().zip(1..) {
            *v = x as f64;
        }
        for i in 0..3isize {
            for j in 0..4isize {
                let [xlo, xhi, ylo, yhi, z] = a.stencil_rows(i as usize, j as usize);
                assert_eq!(z.len(), 7);
                for k in 0..5isize {
                    let u = k as usize;
                    assert_eq!(xlo[u], a.get(&[i - 1, j, k]));
                    assert_eq!(xhi[u], a.get(&[i + 1, j, k]));
                    assert_eq!(ylo[u], a.get(&[i, j - 1, k]));
                    assert_eq!(yhi[u], a.get(&[i, j + 1, k]));
                    assert_eq!(z[u], a.get(&[i, j, k - 1]));
                    assert_eq!(z[u + 1], a.get(&[i, j, k]));
                    assert_eq!(z[u + 2], a.get(&[i, j, k + 1]));
                }
            }
        }
    }

    #[test]
    fn zero_halo_is_plain_array() {
        let mut a = HaloArray::zeros(&[3], 0);
        a.set_i(&[2], 8.0);
        assert_eq!(a.get(&[2]), 8.0);
        assert_eq!(a.face_len(0, 1), 1);
    }

    #[test]
    fn pack_face_into_appends() {
        let mut a = HaloArray::zeros(&[2, 2], 1);
        a.set_i(&[0, 0], 1.0);
        a.set_i(&[0, 1], 2.0);
        a.set_i(&[1, 0], 3.0);
        a.set_i(&[1, 1], 4.0);
        let mut out = vec![9.0];
        a.pack_face_into(0, Side::Low, 1, &mut out);
        a.pack_face_into(0, Side::High, 1, &mut out);
        assert_eq!(out, vec![9.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn halo_plan_diagonal_two_rank() {
        use crate::dist::{FieldDef, RankStore};
        use crate::tile::TileGrid;
        // p = 2 diagonal multipartitioning of an 8x8 grid into 2x2 tiles of
        // 4x4 elements: rank 0 owns (0,0) and (1,1), the neighbor in every
        // direction is rank 1.
        let grid = TileGrid::new(&[8, 8], &[2, 2]);
        let store = RankStore::allocate(
            0,
            &grid,
            &[vec![0, 0], vec![1, 1]],
            &[FieldDef::new("u", 1)],
        );
        let plan = HaloPlan::build(&store, &[2, 2], 1, |_, _| 1);
        assert_eq!(plan.width(), 1);
        // 2 dims x 2 directions.
        assert_eq!(plan.dirs().len(), 4);
        let d0 = &plan.dirs()[0];
        assert_eq!((d0.dim, d0.step, d0.tag_off), (0, 1, 0));
        assert_eq!((d0.to, d0.from), (1, 1));
        assert_eq!((d0.side_send, d0.side_recv), (Side::High, Side::Low));
        // Tile (0,0) can send upward along dim 0; tile (1,1) receives.
        assert_eq!(d0.send_tiles, vec![0]);
        assert_eq!(d0.recv_tiles, vec![1]);
        // Face of a 4x4 tile at width 1 is 4 elements.
        assert_eq!(d0.recv_lens, vec![4]);
        assert_eq!((d0.send_len, d0.recv_len), (4, 4));
        let d1 = &plan.dirs()[1];
        assert_eq!((d1.dim, d1.step, d1.tag_off), (0, -1, 1));
        assert_eq!(d1.send_tiles, vec![1]);
        assert_eq!(d1.recv_tiles, vec![0]);
        assert_eq!(plan.max_send_len(), 4);
        // A dimension with a single slab has no exchange.
        let narrow = HaloPlan::build(&store, &[2, 1], 1, |_, _| 1);
        assert_eq!(narrow.dirs().len(), 2);
        assert!(narrow.dirs().iter().all(|d| d.dim == 0));
    }

    #[test]
    fn wide_halo_exchange() {
        let mut a = HaloArray::zeros(&[4, 2], 2);
        for i in 0..4usize {
            for j in 0..2usize {
                a.set_i(&[i, j], (i * 2 + j) as f64);
            }
        }
        let msg = a.pack_face(0, Side::High, 2); // rows 2,3
        assert_eq!(msg, vec![4.0, 5.0, 6.0, 7.0]);
        let mut b = HaloArray::zeros(&[4, 2], 2);
        b.unpack_ghost(0, Side::Low, 2, &msg);
        assert_eq!(b.get(&[-2, 0]), 4.0);
        assert_eq!(b.get(&[-1, 1]), 7.0);
    }
}
