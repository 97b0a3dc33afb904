//! 64-byte-aligned `f64` buffers for vectorized kernels.
//!
//! Packed line-minor blocks ([`crate::lines::Lanes::packed`], the layout
//! the kernel tests, microbenchmarks and host calibration sweep) are read
//! and written with 256-bit vector loads on AVX2 hardware. Rust's `Vec`
//! only guarantees the allocator's 8-byte alignment for `f64`, so such
//! blocks are held in [`AlignedVec`] instead: a growable `f64` buffer whose
//! storage always starts on a 64-byte boundary (one cache line, and enough
//! for any SSE/AVX/AVX-512 lane width).
//!
//! `AlignedVec` derefs to `[f64]`, so everything downstream of allocation —
//! the kernels' slice arithmetic, the tests — works on it unchanged. Only creation, growth, and drop are custom: they
//! use [`std::alloc::alloc`] with an explicit 64-byte [`Layout`], keeping
//! the crate free of external dependencies.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

/// Alignment (bytes) of every [`AlignedVec`] allocation. One cache line;
/// a multiple of every vector width the kernels use.
pub const ALIGN: usize = 64;

/// A growable `f64` buffer whose storage is always 64-byte aligned.
///
/// Semantically a `Vec<f64>` restricted to the operations the sweep
/// executor needs (`resize`, `clear`, `push`, slice access); the pointer
/// returned by [`as_ptr`](slice::as_ptr) is guaranteed to be a multiple of
/// [`ALIGN`] whenever the buffer is non-empty.
pub struct AlignedVec {
    ptr: NonNull<f64>,
    len: usize,
    cap: usize,
}

// SAFETY: AlignedVec owns its allocation exclusively, exactly like Vec<f64>.
unsafe impl Send for AlignedVec {}
unsafe impl Sync for AlignedVec {}

impl AlignedVec {
    /// An empty buffer. Does not allocate.
    pub const fn new() -> Self {
        AlignedVec {
            ptr: NonNull::dangling(),
            len: 0,
            cap: 0,
        }
    }

    /// An empty buffer with room for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        let mut v = AlignedVec::new();
        v.grow_to(cap);
        v
    }

    /// A buffer holding a copy of `src`.
    pub fn from_slice(src: &[f64]) -> Self {
        let mut v = AlignedVec::with_capacity(src.len());
        // SAFETY: the fresh allocation has room for `src.len()` elements
        // and does not overlap `src`.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), v.ptr.as_ptr(), src.len());
        }
        v.len = src.len();
        v
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the buffer holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current capacity in elements.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Drop all elements, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Append one element, growing if needed.
    pub fn push(&mut self, value: f64) {
        if self.len == self.cap {
            self.grow_to((self.cap * 2).max(8));
        }
        // SAFETY: `len < cap` after the growth check.
        unsafe { self.ptr.as_ptr().add(self.len).write(value) };
        self.len += 1;
    }

    /// Resize to `new_len`, filling any new tail elements with `fill`.
    pub fn resize(&mut self, new_len: usize, fill: f64) {
        if new_len > self.cap {
            // Same doubling policy as Vec: amortized O(1) growth while
            // still jumping straight to a large first request.
            self.grow_to(new_len.max(self.cap * 2));
        }
        if new_len > self.len {
            // SAFETY: [len, new_len) is within capacity after the growth.
            unsafe {
                for k in self.len..new_len {
                    self.ptr.as_ptr().add(k).write(fill);
                }
            }
        }
        self.len = new_len;
    }

    /// Grow the allocation to hold at least `new_cap` elements, preserving
    /// contents. No-op when already large enough.
    fn grow_to(&mut self, new_cap: usize) {
        if new_cap <= self.cap {
            return;
        }
        let layout = Self::layout(new_cap);
        // SAFETY: `layout` has non-zero size (new_cap > cap >= 0).
        let raw = unsafe { alloc(layout) } as *mut f64;
        let Some(ptr) = NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        debug_assert_eq!(ptr.as_ptr() as usize % ALIGN, 0);
        if self.cap != 0 {
            // SAFETY: both regions are live and disjoint; `len <= cap`.
            unsafe {
                std::ptr::copy_nonoverlapping(self.ptr.as_ptr(), ptr.as_ptr(), self.len);
                dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap));
            }
        }
        self.ptr = ptr;
        self.cap = new_cap;
    }

    fn layout(cap: usize) -> Layout {
        Layout::from_size_align(cap * std::mem::size_of::<f64>(), ALIGN)
            .expect("AlignedVec layout overflow")
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.cap != 0 {
            // SAFETY: allocated in `grow_to` with the same layout.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) };
        }
    }
}

impl Deref for AlignedVec {
    type Target = [f64];
    #[inline]
    fn deref(&self) -> &[f64] {
        // SAFETY: [0, len) is initialized.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl DerefMut for AlignedVec {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f64] {
        // SAFETY: [0, len) is initialized and exclusively owned.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Default for AlignedVec {
    fn default() -> Self {
        AlignedVec::new()
    }
}

impl Clone for AlignedVec {
    fn clone(&self) -> Self {
        AlignedVec::from_slice(self)
    }
}

impl std::fmt::Debug for AlignedVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for AlignedVec {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<f64>> for AlignedVec {
    fn eq(&self, other: &Vec<f64>) -> bool {
        **self == other[..]
    }
}

impl From<Vec<f64>> for AlignedVec {
    fn from(v: Vec<f64>) -> Self {
        AlignedVec::from_slice(&v)
    }
}

impl From<&[f64]> for AlignedVec {
    fn from(v: &[f64]) -> Self {
        AlignedVec::from_slice(v)
    }
}

impl FromIterator<f64> for AlignedVec {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut v = AlignedVec::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_64_byte_aligned() {
        for n in [1, 3, 7, 8, 9, 64, 1000] {
            let v = AlignedVec::with_capacity(n);
            assert_eq!(v.as_ptr() as usize % ALIGN, 0, "cap {n}");
            let mut w = AlignedVec::new();
            w.resize(n, 1.5);
            assert_eq!(w.as_ptr() as usize % ALIGN, 0, "resize {n}");
            assert!(w.iter().all(|&x| x == 1.5));
        }
    }

    #[test]
    fn resize_preserves_prefix_and_fills_tail() {
        let mut v = AlignedVec::from_slice(&[1.0, 2.0, 3.0]);
        v.resize(6, 9.0);
        assert_eq!(&*v, &[1.0, 2.0, 3.0, 9.0, 9.0, 9.0]);
        v.resize(2, 0.0);
        assert_eq!(&*v, &[1.0, 2.0]);
        // Shrink keeps the allocation; regrow within capacity reuses it.
        let p = v.as_ptr();
        v.resize(6, 4.0);
        assert_eq!(v.as_ptr(), p);
        assert_eq!(&v[2..], &[4.0; 4]);
    }

    #[test]
    fn push_clear_clone_eq() {
        let mut v = AlignedVec::new();
        assert!(v.is_empty());
        for k in 0..100 {
            v.push(k as f64);
        }
        assert_eq!(v.len(), 100);
        assert_eq!(v[99], 99.0);
        let w = v.clone();
        assert_eq!(v, w);
        assert_eq!(w.as_ptr() as usize % ALIGN, 0);
        assert_eq!(v, (0..100).map(|k| k as f64).collect::<Vec<_>>());
        v.clear();
        assert!(v.is_empty());
        assert!(v.capacity() >= 100);
    }

    #[test]
    fn conversions_round_trip() {
        let v: AlignedVec = vec![1.0, 2.0].into();
        assert_eq!(&*v, &[1.0, 2.0]);
        let w: AlignedVec = [3.0f64, 4.0].iter().copied().collect();
        assert_eq!(&*w, &[3.0, 4.0]);
        let d = AlignedVec::default();
        assert!(d.is_empty());
        assert_eq!(format!("{v:?}"), "[1.0, 2.0]");
    }

    #[test]
    fn slice_mutation_through_deref() {
        let mut v = AlignedVec::from_slice(&[0.0; 8]);
        v[3] = 5.0;
        v.iter_mut().for_each(|x| *x += 1.0);
        assert_eq!(v[3], 6.0);
        assert_eq!(v[0], 1.0);
    }
}
