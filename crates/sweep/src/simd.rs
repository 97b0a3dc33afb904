//! Lane-vectorized sweep bodies with runtime dispatch.
//!
//! The lines of a tile row are independent recurrences, so a kernel can
//! sweep `W` of them at once, one per lane of a vector, doing per line
//! exactly the arithmetic of its scalar code: same operations, same order,
//! each individually IEEE-rounded. That makes every width **bitwise
//! identical** to the per-line reference (asserted by the lane-kernel and
//! property tests), which keeps every distributed-equals-serial guarantee
//! of the repo intact whichever level a rank dispatches to.
//!
//! Each kernel writes its lane body once, as a `LaneBody` over the
//! `LaneVec` trait, and `sweep` instantiates it at three widths inside one
//! `#[target_feature]` shim per level:
//!
//! * `f64`, one lane: all of [`SimdLevel::Scalar`], and the tail lanes of
//!   the other levels;
//! * `__m256d`, four lanes: [`SimdLevel::Avx2`], and at
//!   [`SimdLevel::Avx512`] the 4-lane group left after the 8-lane ones;
//! * `__m512d`, eight lanes: [`SimdLevel::Avx512`].
//!
//! Bodies address each field at its own `(stride, lane_stride)`
//! (`Field`): one vector access per lane group where the lanes are
//! adjacent, else one scalar access per lane. So every body also runs the
//! rows of a sweep along the unit-stride axis, whose lanes lie a tile row
//! apart. A lane group's line-major carries move as whole vectors: `W`
//! contiguous loads or stores and a `W×W` transpose in registers
//! (`load_carries`, `store_carries`).
//!
//! Three deliberate consequences of the bitwise contract:
//!
//! * **No FMA contraction.** `b − a·c` is a rounded multiply followed by a
//!   rounded subtract, never a fused operation, which rounds once and would
//!   produce different bits. FMA presence is still part of the AVX2 gate
//!   (every AVX2 CPU the kernels target has it, and a strict gate leaves
//!   room for contracted *non-exact* kernels later without re-detecting).
//! * **Branchless data-dependent branches.** The scalar kernels' branches
//!   become compares and `select`s that reproduce them lane for lane: the
//!   Thomas and block back-substitution validity flags (a lane is valid
//!   unless its flag `== 0.0`, so NaN counts as set, like `!=`), the penta
//!   back-substitution count, and the `== 0.0` skips of the block products
//!   and inverse (a skipped term differs from an added one where it is
//!   `0·∞`). A product or inverse row with no zero lane takes the
//!   unselected loop: same arithmetic. The block elimination's line start
//!   stays a branch: every lane of a row starts its line at the same
//!   element.
//! * **Per-lane fallback for pivoting.** The block inverse runs
//!   Gauss–Jordan on all lanes only while every lane keeps its diagonal
//!   pivot. If partial pivoting would swap rows in any lane, the group's
//!   element is inverted lane by lane with the scalar `block::mat_inv`, on
//!   stack arrays, so no lane's choice of pivot changes. A zero pivot
//!   panics with the scalar message.
//!
//! Dispatch is resolved **once at plan-build time**: [`SimdMode`] (the
//! `SweepOptions::simd` knob / `MP_SWEEP_SIMD` env var) resolves to a
//! [`SimdLevel`] via `is_x86_feature_detected!`, and the level is recorded
//! in the compiled plan. `sweep` asserts that the CPU has the level it
//! is handed, so a level that was not detected panics instead of running
//! instructions the CPU lacks.

use crate::recurrence::SegmentCtx;
use mp_grid::Lanes;
use std::fmt;

/// Requested vectorization mode — the `SweepOptions::simd` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdMode {
    /// Use the widest path the CPU supports (the default; `mpart profile`
    /// reports the path actually dispatched).
    Auto,
    /// Force the portable scalar path (the path hosts without AVX2+FMA
    /// take; also an A/B reference and escape hatch).
    Scalar,
}

impl SimdMode {
    /// Parse a knob value: `auto` or `scalar` (any case, surrounding
    /// whitespace ignored); anything else is `None`.
    pub fn parse(s: &str) -> Option<SimdMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "auto" => Some(SimdMode::Auto),
            "scalar" => Some(SimdMode::Scalar),
            _ => None,
        }
    }

    /// Mode from `MP_SWEEP_SIMD`, defaulting to [`SimdMode::Auto`]. A
    /// set-but-invalid value warns once per process (the
    /// [`crate::SweepOptions::from_env`] contract: env knobs never abort)
    /// and falls back to `Auto`.
    pub fn from_env() -> SimdMode {
        match std::env::var("MP_SWEEP_SIMD") {
            Err(_) => SimdMode::Auto,
            Ok(s) => SimdMode::parse(&s).unwrap_or_else(|| {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!("warning: ignoring invalid MP_SWEEP_SIMD={s:?}; using auto")
                });
                SimdMode::Auto
            }),
        }
    }

    /// Resolve the mode against the running CPU — the **single** feature
    /// detection point, called at plan-build time and recorded into the
    /// compiled plan. `Auto` is the widest [`SimdLevel::supported`] level.
    pub fn resolve(self) -> SimdLevel {
        match self {
            SimdMode::Scalar => SimdLevel::Scalar,
            SimdMode::Auto => SimdLevel::supported().last().unwrap_or(SimdLevel::Scalar),
        }
    }

    /// The knob's canonical spelling.
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Auto => "auto",
            SimdMode::Scalar => "scalar",
        }
    }
}

impl fmt::Display for SimdMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The vectorization level a plan actually dispatches to (a resolved
/// [`SimdMode`]). A kernel handed a level the CPU lacks panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// One lane at a time.
    Scalar,
    /// 4-lane bodies (AVX2 and FMA), then the tail lanes one at a time.
    Avx2,
    /// AVX-512 F/DQ/VL: 8-lane bodies, then at most one 4-lane group,
    /// then the tail lanes.
    Avx512,
}

impl SimdLevel {
    /// The level's display name (`mpart profile` prints this).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Every level this CPU runs, narrowest first: `Scalar` always, then
    /// `Avx2` with AVX2 and FMA, then `Avx512` with AVX-512 F, DQ and VL
    /// too.
    /// Tests and benchmarks iterate it; [`SimdMode::Auto`] picks the last.
    pub fn supported() -> impl Iterator<Item = SimdLevel> {
        [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|level| level.detected())
    }

    /// Whether this CPU has the level's instructions.
    fn detected(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            match self {
                SimdLevel::Scalar => true,
                SimdLevel::Avx2 => {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                SimdLevel::Avx512 => {
                    SimdLevel::Avx2.detected()
                        && is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512dq")
                        && is_x86_feature_detected!("avx512vl")
                }
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == SimdLevel::Scalar
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Lanes in the widest vector; lane-interleaved scratch such as
/// [`crate::block::LaneMat`] holds this many.
pub const MAX_LANES: usize = 8;

/// `W` lanes of `f64`, one per line of a tile row: the operations the lane
/// bodies are written in. Each is one instruction of the vector's width
/// (a load or store whose lanes are not adjacent is `W` scalar ones, and
/// the row moves are a transpose), and every lane is rounded as the scalar
/// operation would round it.
///
/// # Safety
/// The `__m256d` and `__m512d` methods run AVX2 and AVX-512 instructions
/// without checking the CPU, so every method is `unsafe`: call them only
/// where the CPU has `Self`'s level, which [`sweep`] asserts before it
/// enters a level's shim. A load or store also needs `p.offset(i·ls)`
/// valid for `i < W`.
pub(crate) trait LaneVec: Copy {
    /// Lanes per vector.
    const W: usize;
    /// One flag per lane, from a compare.
    type Mask: Copy;
    /// `v` in every lane.
    unsafe fn splat(v: f64) -> Self;
    /// Lane `i` from `p.offset(i·ls)`.
    unsafe fn load(p: *const f64, ls: isize) -> Self;
    /// Lane `i` to `p.offset(i·ls)`.
    unsafe fn store(self, p: *mut f64, ls: isize);
    /// `self + o` per lane.
    unsafe fn add(self, o: Self) -> Self;
    /// `self − o` per lane.
    unsafe fn sub(self, o: Self) -> Self;
    /// `self · o` per lane.
    unsafe fn mul(self, o: Self) -> Self;
    /// `self / o` per lane.
    unsafe fn div(self, o: Self) -> Self;
    /// `|self|` per lane.
    unsafe fn abs(self) -> Self;
    /// The lanes `== 0.0` (either sign; NaN is not).
    unsafe fn eq_zero(self) -> Self::Mask;
    /// The lanes where `self > o` (false where either is NaN).
    unsafe fn gt(self, o: Self) -> Self::Mask;
    /// The lanes where `self >= o` (false where either is NaN).
    unsafe fn ge(self, o: Self) -> Self::Mask;
    /// `t` in the lanes set in `m`, `f` in the others.
    unsafe fn select(m: Self::Mask, t: Self, f: Self) -> Self;
    /// Whether any lane of `m` is set.
    unsafe fn any(m: Self::Mask) -> bool;
    /// Entries `0..out.len()` of `W` rows `stride` apart, one vector per
    /// entry: lane `i` of `out[j]` from `p.add(i·stride + j)`. Each row's
    /// entries are adjacent, so a block of `W` entries is `W` contiguous
    /// loads and a `W×W` transpose in registers. The last, partial block
    /// is masked loads at 8 lanes, or one strided load per entry where
    /// that costs less (at 4 lanes, and for one or two entries at 8).
    ///
    /// # Safety
    /// As for every method, and `p.add(i·stride + j)` must be valid for
    /// reads for `i < W`, `j < out.len()`.
    unsafe fn load_rows(p: *const f64, stride: usize, out: &mut [Self]);
    /// Inverse of [`LaneVec::load_rows`]: lane `i` of `v[j]` to
    /// `p.add(i·stride + j)`, touching nothing else.
    ///
    /// # Safety
    /// As for [`LaneVec::load_rows`], for writes.
    unsafe fn store_rows(p: *mut f64, stride: usize, v: &[Self]);
}

/// [`LaneVec`]'s `add`, `sub`, `mul` and `div`, each the one operation
/// given for it.
macro_rules! arithmetic {
    ($($name:ident)*; $($op:path),*) => {
        $(
            #[inline(always)]
            unsafe fn $name(self, o: Self) -> Self {
                $op(self, o)
            }
        )*
    };
    ($($op:path),*) => {
        arithmetic!(add sub mul div; $($op),*);
    };
}

/// The one-lane instance: plain scalar arithmetic.
impl LaneVec for f64 {
    const W: usize = 1;
    type Mask = bool;
    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        v
    }
    #[inline(always)]
    unsafe fn load(p: *const f64, _ls: isize) -> Self {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64, _ls: isize) {
        *p = self
    }
    arithmetic!(
        std::ops::Add::add,
        std::ops::Sub::sub,
        std::ops::Mul::mul,
        std::ops::Div::div
    );
    #[inline(always)]
    unsafe fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    unsafe fn eq_zero(self) -> bool {
        self == 0.0
    }
    #[inline(always)]
    unsafe fn gt(self, o: Self) -> bool {
        self > o
    }
    #[inline(always)]
    unsafe fn ge(self, o: Self) -> bool {
        self >= o
    }
    #[inline(always)]
    unsafe fn select(m: bool, t: Self, f: Self) -> Self {
        if m {
            t
        } else {
            f
        }
    }
    #[inline(always)]
    unsafe fn any(m: bool) -> bool {
        m
    }
    #[inline(always)]
    unsafe fn load_rows(p: *const f64, _stride: usize, out: &mut [Self]) {
        for (j, v) in out.iter_mut().enumerate() {
            *v = *p.add(j);
        }
    }
    #[inline(always)]
    unsafe fn store_rows(p: *mut f64, _stride: usize, v: &[Self]) {
        for (j, &x) in v.iter().enumerate() {
            *p.add(j) = x;
        }
    }
}

/// One field of a lane view as the bodies address it: lane `l` of element
/// `k` at `base + k·stride + l·lane_stride`, for `k < seg_len` and
/// `l < nlanes` of the view (checked in debug builds).
#[derive(Clone, Copy)]
pub(crate) struct Field {
    base: *mut f64,
    stride: isize,
    lane_stride: isize,
    /// The view's `(seg_len, nlanes)`, for the debug builds' bounds checks
    /// (release builds copy three words per field, not five).
    #[cfg(debug_assertions)]
    bounds: (usize, usize),
}

impl Field {
    /// Field `f` of `lanes`.
    #[inline(always)]
    pub(crate) fn of(lanes: &Lanes<'_>, f: usize) -> Field {
        let (stride, lane_stride) = lanes.strides(f);
        Field {
            base: lanes.base(f),
            stride,
            lane_stride,
            #[cfg(debug_assertions)]
            bounds: (lanes.seg_len(), lanes.nlanes()),
        }
    }

    /// Where lane `l0` of element `k` lives; lanes `l0..l0 + W` must lie
    /// in the view (debug-asserted).
    #[inline(always)]
    fn at(self, k: usize, l0: usize, w: usize) -> *mut f64 {
        #[cfg(debug_assertions)]
        assert!(
            k < self.bounds.0 && l0 + w <= self.bounds.1,
            "outside the view"
        );
        #[cfg(not(debug_assertions))]
        let _ = w;
        self.base
            .wrapping_offset(k as isize * self.stride + l0 as isize * self.lane_stride)
    }

    /// Lanes `l0..l0 + V::W` of element `k`.
    ///
    /// # Safety
    /// `k < seg_len` and `l0 + V::W <= nlanes` (debug-asserted): the view's
    /// constructor checked every such address against its buffer. The
    /// view must still be live and `V`'s level available ([`LaneVec`]).
    #[inline(always)]
    pub(crate) unsafe fn load<V: LaneVec>(self, k: usize, l0: usize) -> V {
        V::load(self.at(k, l0, V::W), self.lane_stride)
    }

    /// Store `v` to lanes `l0..l0 + V::W` of element `k`.
    ///
    /// # Safety
    /// As for [`Field::load`], and the view must be the only access to
    /// these elements.
    #[inline(always)]
    pub(crate) unsafe fn store<V: LaneVec>(self, k: usize, l0: usize, v: V) {
        v.store(self.at(k, l0, V::W), self.lane_stride)
    }

    /// The field from lane `l0` on: lane `l` of the result is lane
    /// `l0 + l` of `self`. A body that takes its lane group's fields this
    /// way adds the lane offset once per group, not at every access.
    #[inline(always)]
    pub(crate) fn lanes_from(self, l0: usize) -> Field {
        Field {
            base: self.base.wrapping_offset(l0 as isize * self.lane_stride),
            #[cfg(debug_assertions)]
            bounds: {
                assert!(l0 < self.bounds.1, "outside the view");
                (self.bounds.0, self.bounds.1 - l0)
            },
            ..self
        }
    }

    /// Whether the field's lanes are adjacent (lane stride 1).
    #[inline(always)]
    pub(crate) fn adjacent(self) -> bool {
        self.lane_stride == 1
    }

    /// [`Field::load`] of a field whose lanes are adjacent: one vector
    /// load, with no test of the lane stride.
    ///
    /// # Safety
    /// As for [`Field::load`], and the field must be
    /// [`Field::adjacent`] (debug-asserted).
    #[inline(always)]
    pub(crate) unsafe fn load_adjacent<V: LaneVec>(self, k: usize, l0: usize) -> V {
        debug_assert!(self.adjacent(), "lanes not adjacent");
        V::load(self.at(k, l0, V::W), 1)
    }

    /// [`Field::store`] of a field whose lanes are adjacent.
    ///
    /// # Safety
    /// As for [`Field::store`], and the field must be
    /// [`Field::adjacent`] (debug-asserted).
    #[inline(always)]
    pub(crate) unsafe fn store_adjacent<V: LaneVec>(self, k: usize, l0: usize, v: V) {
        debug_assert!(self.adjacent(), "lanes not adjacent");
        v.store(self.at(k, l0, V::W), 1)
    }
}

/// Entries `j0..j0 + C` of the line-major carries (`clen` per lane) of
/// lanes `l0..l0 + V::W`, one vector per entry ([`LaneVec::load_rows`]);
/// entries from `clen` on read as `0.0`. The vectors come back by value,
/// so a body that keeps them in its loop state never hands that state to
/// a slice: one index that is not a constant would keep the whole array in
/// memory (DESIGN.md §12).
///
/// # Safety
/// `V`'s level must be available ([`LaneVec`]); the range is checked.
#[inline(always)]
pub(crate) unsafe fn load_carries<V: LaneVec, const C: usize>(
    carries: &[f64],
    clen: usize,
    l0: usize,
    j0: usize,
) -> [V; C] {
    assert!(
        j0 <= clen && (l0 + V::W) * clen <= carries.len(),
        "carry outside the row"
    );
    let mut v = [V::splat(0.0); C];
    // SAFETY: lane `i < W`, entry `j0 + j < clen` is carry element
    // `(l0 + i)·clen + j0 + j < (l0 + W)·clen <= carries.len()` (asserted).
    V::load_rows(
        carries.as_ptr().add(l0 * clen + j0),
        clen,
        &mut v[..C.min(clen - j0)],
    );
    v
}

/// Inverse of [`load_carries`]: entries from `clen` on are not stored.
///
/// # Safety
/// As for [`load_carries`].
#[inline(always)]
pub(crate) unsafe fn store_carries<V: LaneVec, const C: usize>(
    carries: &mut [f64],
    clen: usize,
    l0: usize,
    j0: usize,
    v: [V; C],
) {
    assert!(
        j0 <= clen && (l0 + V::W) * clen <= carries.len(),
        "carry outside the row"
    );
    // SAFETY: as in `load_carries`; `carries` is borrowed mutably.
    V::store_rows(
        carries.as_mut_ptr().add(l0 * clen + j0),
        clen,
        &v[..C.min(clen - j0)],
    )
}

/// A kernel's lane body: its recurrence written once over [`LaneVec`],
/// which [`sweep`] runs at every width. Implementations mark
/// [`LaneBody::sweep`] and their helpers `#[inline(always)]`, so that each
/// instance is compiled inside its level's `#[target_feature]` shim, and
/// handle lane vectors in plain loops: a closure over them (as passed to
/// `array::map` or `array::from_fn`) may stay out of line, compiled without
/// the shim's features, where every lane operation becomes a call.
pub(crate) trait LaneBody {
    /// Sweep lanes `lo..hi` of `lanes`, `V::W` at a time, evolving their
    /// line-major carries in place; `ctx` locates the row's lane 0 (the
    /// `sweep_lanes` contract).
    ///
    /// # Safety
    /// `V`'s level must be available, `lo <= hi <= lanes.nlanes()` and
    /// `hi − lo` a multiple of `V::W`.
    unsafe fn sweep<V: LaneVec>(
        &self,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctx: &SegmentCtx,
        lo: usize,
        hi: usize,
    );
}

/// Sweep every lane of `lanes` through `body` at `level`: the level's
/// widest groups first, then narrower ones, then the tail lanes one at a
/// time. This is the one place a body is instantiated.
///
/// # Panics
/// Panics if the CPU lacks `level` (see [`SimdLevel::supported`]).
pub(crate) fn sweep<B: LaneBody>(
    level: SimdLevel,
    body: &B,
    carries: &mut [f64],
    lanes: &mut Lanes<'_>,
    ctx: &SegmentCtx,
) {
    assert!(level.detected(), "this CPU cannot run SIMD level {level}");
    let nl = lanes.nlanes();
    match level {
        // SAFETY: the CPU has AVX2 and FMA (asserted above), which is all
        // the shim enables.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { x86::avx2(body, carries, lanes, ctx) },
        // SAFETY: the CPU has AVX-512 F/DQ/VL, AVX2 and FMA (asserted
        // above), which is all the shim enables.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512 => unsafe { x86::avx512(body, carries, lanes, ctx) },
        // SAFETY: the `f64` instance needs no instruction set, and
        // `0..nl` is every lane of the view.
        _ => unsafe { body.sweep::<f64>(carries, lanes, ctx, 0, nl) },
    }
}

/// The two vector levels: their shims and the `__m256d`/`__m512d`
/// instances of [`LaneVec`].
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{LaneBody, LaneVec};
    use crate::recurrence::SegmentCtx;
    use mp_grid::Lanes;
    use std::arch::x86_64::*;

    /// [`super::SimdLevel::Avx2`]: 4-lane groups, then the tail lanes.
    ///
    /// # Safety
    /// The CPU must have AVX2 and FMA.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn avx2<B: LaneBody>(
        body: &B,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctx: &SegmentCtx,
    ) {
        let nl = lanes.nlanes();
        let n4 = nl / 4 * 4;
        // (An empty range would still pay the instance's set-up.)
        if n4 > 0 {
            body.sweep::<__m256d>(carries, lanes, ctx, 0, n4);
        }
        if nl > n4 {
            body.sweep::<f64>(carries, lanes, ctx, n4, nl);
        }
    }

    /// [`super::SimdLevel::Avx512`]: 8-lane groups, then at most one
    /// 4-lane group, then the tail lanes. VL keeps a 4-lane masked store
    /// 256 bits wide (DESIGN.md §12).
    ///
    /// # Safety
    /// The CPU must have AVX-512 F, DQ and VL, AVX2 and FMA.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512dq",
        enable = "avx512vl",
        enable = "avx2",
        enable = "fma"
    )]
    pub(super) unsafe fn avx512<B: LaneBody>(
        body: &B,
        carries: &mut [f64],
        lanes: &mut Lanes<'_>,
        ctx: &SegmentCtx,
    ) {
        let nl = lanes.nlanes();
        let n8 = nl / 8 * 8;
        let n4 = n8 + (nl - n8) / 4 * 4;
        if n8 > 0 {
            body.sweep::<__m512d>(carries, lanes, ctx, 0, n8);
        }
        if n4 > n8 {
            body.sweep::<__m256d>(carries, lanes, ctx, n8, n4);
        }
        if nl > n4 {
            body.sweep::<f64>(carries, lanes, ctx, n4, nl);
        }
    }

    impl LaneVec for __m256d {
        const W: usize = 4;
        type Mask = __m256d;
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            _mm256_set1_pd(v)
        }
        /// One vector load when the lanes are adjacent, else four scalar
        /// ones.
        #[inline(always)]
        unsafe fn load(p: *const f64, ls: isize) -> Self {
            if ls == 1 {
                return _mm256_loadu_pd(p);
            }
            _mm256_set_pd(*p.offset(3 * ls), *p.offset(2 * ls), *p.offset(ls), *p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64, ls: isize) {
            if ls == 1 {
                return _mm256_storeu_pd(p, self);
            }
            let (lo, hi) = (
                _mm256_castpd256_pd128(self),
                _mm256_extractf128_pd::<1>(self),
            );
            _mm_storel_pd(p, lo);
            _mm_storeh_pd(p.offset(ls), lo);
            _mm_storel_pd(p.offset(2 * ls), hi);
            _mm_storeh_pd(p.offset(3 * ls), hi);
        }
        arithmetic!(_mm256_add_pd, _mm256_sub_pd, _mm256_mul_pd, _mm256_div_pd);
        #[inline(always)]
        unsafe fn abs(self) -> Self {
            _mm256_andnot_pd(_mm256_set1_pd(-0.0), self)
        }
        #[inline(always)]
        unsafe fn eq_zero(self) -> Self {
            _mm256_cmp_pd::<_CMP_EQ_OQ>(self, _mm256_setzero_pd())
        }
        #[inline(always)]
        unsafe fn gt(self, o: Self) -> Self {
            _mm256_cmp_pd::<_CMP_GT_OQ>(self, o)
        }
        #[inline(always)]
        unsafe fn ge(self, o: Self) -> Self {
            _mm256_cmp_pd::<_CMP_GE_OQ>(self, o)
        }
        #[inline(always)]
        unsafe fn select(m: Self, t: Self, f: Self) -> Self {
            _mm256_blendv_pd(f, t, m)
        }
        #[inline(always)]
        unsafe fn any(m: Self) -> bool {
            _mm256_movemask_pd(m) != 0
        }
        /// A partial block of entries is gathered one entry at a time:
        /// AVX2's masked loads and stores cost more than they save here.
        #[inline(always)]
        unsafe fn load_rows(p: *const f64, stride: usize, out: &mut [Self]) {
            for j0 in (0..out.len()).step_by(4) {
                let q = p.add(j0);
                // SAFETY (both arms): row `i < 4` reads entries
                // `j0..j0 + 4`, or the rest of the caller's range, from
                // `q.add(i·stride)`.
                if out.len() - j0 >= 4 {
                    let mut rows = [_mm256_setzero_pd(); 4];
                    for (i, r) in rows.iter_mut().enumerate() {
                        *r = _mm256_loadu_pd(q.add(i * stride));
                    }
                    out[j0..j0 + 4].copy_from_slice(&transpose4(rows));
                } else {
                    for (j, o) in out[j0..].iter_mut().enumerate() {
                        *o = Self::load(q.add(j), stride as isize);
                    }
                }
            }
        }
        #[inline(always)]
        unsafe fn store_rows(p: *mut f64, stride: usize, v: &[Self]) {
            for j0 in (0..v.len()).step_by(4) {
                let q = p.add(j0);
                // SAFETY (both arms): as in `load_rows`, for writes.
                if v.len() - j0 >= 4 {
                    let mut cols = [_mm256_setzero_pd(); 4];
                    cols.copy_from_slice(&v[j0..j0 + 4]);
                    for (i, &r) in transpose4(cols).iter().enumerate() {
                        _mm256_storeu_pd(q.add(i * stride), r);
                    }
                } else {
                    for (j, &x) in v[j0..].iter().enumerate() {
                        x.store(q.add(j), stride as isize);
                    }
                }
            }
        }
    }

    /// The 4×4 transpose: lane `i` of the result's vector `j` is lane `j`
    /// of `r[i]`.
    #[inline(always)]
    unsafe fn transpose4(r: [__m256d; 4]) -> [__m256d; 4] {
        // Entries 0 and 2 (`lo`), 1 and 3 (`hi`) of rows 0–1 and 2–3.
        let lo01 = _mm256_unpacklo_pd(r[0], r[1]);
        let hi01 = _mm256_unpackhi_pd(r[0], r[1]);
        let lo23 = _mm256_unpacklo_pd(r[2], r[3]);
        let hi23 = _mm256_unpackhi_pd(r[2], r[3]);
        [
            _mm256_permute2f128_pd::<0x20>(lo01, lo23),
            _mm256_permute2f128_pd::<0x20>(hi01, hi23),
            _mm256_permute2f128_pd::<0x31>(lo01, lo23),
            _mm256_permute2f128_pd::<0x31>(hi01, hi23),
        ]
    }

    impl LaneVec for __m512d {
        const W: usize = 8;
        type Mask = __mmask8;
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            _mm512_set1_pd(v)
        }
        /// One vector load when the lanes are adjacent, else eight scalar
        /// ones.
        #[inline(always)]
        unsafe fn load(p: *const f64, ls: isize) -> Self {
            if ls == 1 {
                return _mm512_loadu_pd(p);
            }
            let mut t = [0.0f64; 8];
            for (i, v) in t.iter_mut().enumerate() {
                *v = *p.offset(i as isize * ls);
            }
            _mm512_loadu_pd(t.as_ptr())
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64, ls: isize) {
            if ls == 1 {
                return _mm512_storeu_pd(p, self);
            }
            let mut t = [0.0f64; 8];
            _mm512_storeu_pd(t.as_mut_ptr(), self);
            for (i, v) in t.into_iter().enumerate() {
                *p.offset(i as isize * ls) = v;
            }
        }
        arithmetic!(_mm512_add_pd, _mm512_sub_pd, _mm512_mul_pd, _mm512_div_pd);
        #[inline(always)]
        unsafe fn abs(self) -> Self {
            _mm512_abs_pd(self)
        }
        #[inline(always)]
        unsafe fn eq_zero(self) -> __mmask8 {
            _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(self, _mm512_setzero_pd())
        }
        #[inline(always)]
        unsafe fn gt(self, o: Self) -> __mmask8 {
            _mm512_cmp_pd_mask::<_CMP_GT_OQ>(self, o)
        }
        #[inline(always)]
        unsafe fn ge(self, o: Self) -> __mmask8 {
            _mm512_cmp_pd_mask::<_CMP_GE_OQ>(self, o)
        }
        #[inline(always)]
        unsafe fn select(m: __mmask8, t: Self, f: Self) -> Self {
            _mm512_mask_blend_pd(m, f, t)
        }
        #[inline(always)]
        unsafe fn any(m: __mmask8) -> bool {
            m != 0
        }
        /// A partial block of one or two entries (Thomas's carries) is
        /// gathered one entry at a time, which costs less than a transpose
        /// of eight masked loads.
        #[inline(always)]
        unsafe fn load_rows(p: *const f64, stride: usize, out: &mut [Self]) {
            for j0 in (0..out.len()).step_by(8) {
                let (q, n) = (p.add(j0), (out.len() - j0).min(8));
                // SAFETY (all arms): row `i < 8` reads entries
                // `j0..j0 + n` of the caller's range from `q.add(i·stride)`;
                // the masked load touches only those.
                if n <= 2 {
                    for (j, o) in out[j0..].iter_mut().enumerate() {
                        *o = Self::load(q.add(j), stride as isize);
                    }
                    continue;
                }
                let mut rows = [_mm512_setzero_pd(); 8];
                if n == 8 {
                    for (i, r) in rows.iter_mut().enumerate() {
                        *r = _mm512_loadu_pd(q.add(i * stride));
                    }
                } else {
                    let m = 0xFF >> (8 - n);
                    for (i, r) in rows.iter_mut().enumerate() {
                        *r = _mm512_maskz_loadu_pd(m, q.add(i * stride));
                    }
                }
                for (o, c) in out[j0..].iter_mut().zip(transpose8(rows)) {
                    *o = c;
                }
            }
        }
        #[inline(always)]
        unsafe fn store_rows(p: *mut f64, stride: usize, v: &[Self]) {
            for j0 in (0..v.len()).step_by(8) {
                let (q, n) = (p.add(j0), (v.len() - j0).min(8));
                // SAFETY (all arms): as in `load_rows`, for writes; the
                // masked store writes only the rows' `n` entries.
                if n <= 2 {
                    for (j, &x) in v[j0..].iter().enumerate() {
                        x.store(q.add(j), stride as isize);
                    }
                    continue;
                }
                let mut cols = [_mm512_setzero_pd(); 8];
                for (c, &x) in cols.iter_mut().zip(&v[j0..]) {
                    *c = x;
                }
                let rows = transpose8(cols);
                if n == 8 {
                    for (i, &r) in rows.iter().enumerate() {
                        _mm512_storeu_pd(q.add(i * stride), r);
                    }
                } else {
                    let m = 0xFF >> (8 - n);
                    for (i, &r) in rows.iter().enumerate() {
                        _mm512_mask_storeu_pd(q.add(i * stride), m, r);
                    }
                }
            }
        }
    }

    /// The 8×8 transpose: lane `i` of the result's vector `j` is lane `j`
    /// of `r[i]`. Three rounds of eight shuffles, each pairing 64-bit, then
    /// 128-bit, then 256-bit pieces.
    #[inline(always)]
    unsafe fn transpose8(r: [__m512d; 8]) -> [__m512d; 8] {
        // Rows 2m and 2m + 1 interleaved: entries 0, 2, 4, 6 in `t[2m]`,
        // entries 1, 3, 5, 7 in `t[2m + 1]`.
        let mut t = [_mm512_setzero_pd(); 8];
        for m in 0..4 {
            t[2 * m] = _mm512_unpacklo_pd(r[2 * m], r[2 * m + 1]);
            t[2 * m + 1] = _mm512_unpackhi_pd(r[2 * m], r[2 * m + 1]);
        }
        // Rows 0–3 (`u[0..4]`) and 4–7 (`u[4..8]`), entries 0 and 4, 2 and
        // 6, 1 and 5, 3 and 7.
        let mut u = [_mm512_setzero_pd(); 8];
        for h in [0, 4] {
            u[h] = _mm512_shuffle_f64x2::<0x88>(t[h], t[h + 2]);
            u[h + 1] = _mm512_shuffle_f64x2::<0xDD>(t[h], t[h + 2]);
            u[h + 2] = _mm512_shuffle_f64x2::<0x88>(t[h + 1], t[h + 3]);
            u[h + 3] = _mm512_shuffle_f64x2::<0xDD>(t[h + 1], t[h + 3]);
        }
        [
            _mm512_shuffle_f64x2::<0x88>(u[0], u[4]),
            _mm512_shuffle_f64x2::<0x88>(u[2], u[6]),
            _mm512_shuffle_f64x2::<0x88>(u[1], u[5]),
            _mm512_shuffle_f64x2::<0x88>(u[3], u[7]),
            _mm512_shuffle_f64x2::<0xDD>(u[0], u[4]),
            _mm512_shuffle_f64x2::<0xDD>(u[2], u[6]),
            _mm512_shuffle_f64x2::<0xDD>(u[1], u[5]),
            _mm512_shuffle_f64x2::<0xDD>(u[3], u[7]),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parsing() {
        assert_eq!(SimdMode::parse("AUTO"), Some(SimdMode::Auto));
        assert_eq!(SimdMode::parse("  scalar "), Some(SimdMode::Scalar));
        // `avx2` names a level, not a mode: `auto` already picks it.
        for bad in ["avx2", "avx512", "", "sse9", "42"] {
            assert_eq!(SimdMode::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn resolve_respects_forcing_and_hardware() {
        assert_eq!(SimdMode::Scalar.resolve(), SimdLevel::Scalar);
        let levels: Vec<SimdLevel> = SimdLevel::supported().collect();
        assert_eq!(levels[0], SimdLevel::Scalar, "scalar runs everywhere");
        assert_eq!(Some(&SimdMode::Auto.resolve()), levels.last());
        // AVX-512 is only ever used on top of AVX2.
        assert!(!levels.contains(&SimdLevel::Avx512) || levels.contains(&SimdLevel::Avx2));
    }

    /// `W` rows of `clen` distinct bit patterns (quiet and signaling NaN
    /// payloads, signed zeros, subnormals of either sign) between
    /// sentinels, moved by `V`'s `load_rows`/`store_rows` whole and from
    /// mid-row: lane `i` of vector `j` holds entry `j` of row `i` bit for
    /// bit, and storing writes exactly the rows' entries back.
    ///
    /// # Safety
    /// `V`'s level must be available.
    unsafe fn rows_round_trip<V: LaneVec>(clen: usize) {
        const PAD: usize = 9;
        let sentinel = f64::from_bits(0x7FF4_DEAD_BEEF_0001);
        let value = |at: usize| {
            let a = at as u64 + 1;
            f64::from_bits(match at % 6 {
                0 => 0x7FF8_0000_0000_0000 | a,
                1 => 0xFFF0_0000_0000_0000 | a,
                2 => a,
                3 => 0x8000_0000_0000_0000 | a,
                4 => ((at % 12 / 6) as u64) << 63,
                _ => (at as f64 * 1.25 - 7.0).to_bits(),
            })
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let rows = V::W * clen;
        let mut src = vec![sentinel; PAD + rows + PAD];
        for at in 0..rows {
            src[PAD + at] = value(at);
        }
        for j0 in [0, clen / 2] {
            let mut v = vec![V::splat(0.0); clen - j0];
            V::load_rows(src.as_ptr().add(PAD + j0), clen, &mut v);
            for (j, vj) in v.iter().enumerate() {
                let mut lanes = [0.0; MAX_LANES];
                vj.store(lanes.as_mut_ptr(), 1);
                for (i, lane) in lanes[..V::W].iter().enumerate() {
                    let want = value(i * clen + j0 + j);
                    assert_eq!(
                        lane.to_bits(),
                        want.to_bits(),
                        "clen {clen} j0 {j0} row {i} entry {j}"
                    );
                }
            }
            let mut dst = vec![sentinel; src.len()];
            V::store_rows(dst.as_mut_ptr().add(PAD + j0), clen, &v);
            let mut want = vec![sentinel; src.len()];
            for at in (0..rows).filter(|at| at % clen >= j0) {
                want[PAD + at] = value(at);
            }
            assert_eq!(bits(&dst), bits(&want), "clen {clen} j0 {j0}: stored rows");
        }
    }

    #[test]
    fn rows_round_trip_bit_for_bit_at_every_level() {
        for clen in (1..=33).chain([90]) {
            for level in SimdLevel::supported() {
                // SAFETY: each instance runs only at a level this CPU has.
                unsafe {
                    match level {
                        SimdLevel::Scalar => rows_round_trip::<f64>(clen),
                        #[cfg(target_arch = "x86_64")]
                        SimdLevel::Avx2 => rows_round_trip::<std::arch::x86_64::__m256d>(clen),
                        #[cfg(target_arch = "x86_64")]
                        SimdLevel::Avx512 => rows_round_trip::<std::arch::x86_64::__m512d>(clen),
                        #[cfg(not(target_arch = "x86_64"))]
                        _ => unreachable!("only scalar runs here"),
                    }
                }
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for m in [SimdMode::Auto, SimdMode::Scalar] {
            assert_eq!(SimdMode::parse(m.name()), Some(m));
            assert_eq!(format!("{m}"), m.name());
        }
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
        assert_eq!(format!("{}", SimdLevel::Scalar), "scalar");
    }
}
