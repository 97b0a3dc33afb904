//! Lane-vectorized sweep microkernels with runtime dispatch.
//!
//! The four lanes of a 256-bit vector are four *lines* of a tile row —
//! independent recurrences. Vectorizing across lines therefore performs,
//! per line, exactly the arithmetic of the kernel's scalar lane loop: same
//! operations, same order, each individually IEEE-rounded. That makes the
//! AVX2 bodies here **bitwise identical** to the scalar loops (asserted by
//! the property tests), which in turn keeps every distributed-equals-serial
//! guarantee of the repo intact regardless of which path a rank happens to
//! dispatch to.
//!
//! There are eight bodies. The six one-value recurrences (Thomas and
//! pentadiagonal forward and backward, prefix sum, first-order) load a
//! lane group with one vector load, so they run only on views whose lanes
//! are adjacent in memory (lane stride 1, [`Lanes::uniform_stride`]). The
//! two 5×5 block-tridiagonal bodies (elimination and back substitution)
//! address each field at its own `(stride, lane_stride)`
//! ([`Lanes::strides`]): one vector access per lane group where the lanes
//! are adjacent, else four scalar ones. So they also run the rows of a
//! sweep along the unit-stride axis, whose lanes lie a tile row apart: at
//! about a thousand flops per lane and element, the per-lane loads and
//! stores cost little.
//!
//! Three deliberate consequences of the bitwise contract:
//!
//! * **No FMA contraction.** `b − a·c` is computed as a rounded multiply
//!   followed by a rounded subtract (`_mm256_mul_pd` + `_mm256_sub_pd`),
//!   never `_mm256_fnmadd_pd` — a fused operation rounds once and would
//!   produce different bits than the scalar path. FMA presence is still
//!   part of the dispatch gate (every AVX2 CPU the kernels target has it,
//!   and keeping the gate strict leaves room to add contracted *non-exact*
//!   kernels later without re-detecting).
//! * **Branchless data-dependent branches.** The scalar kernels' selects
//!   become vector compares and blends that reproduce them lane for lane:
//!   the Thomas and block back-substitution validity flags (an unordered
//!   not-equal, true on NaN like `!=`), the penta back-substitution count,
//!   the block elimination's line starts, and the `== 0.0` skips of the
//!   block products and inverse (a skipped term differs from an added one
//!   where it is `0·∞`). A product or inverse row with no zero lane takes
//!   the unblended loop, which is the same arithmetic.
//! * **Per-lane fallback for pivoting.** The block inverse runs
//!   Gauss–Jordan on all four lanes only while every lane keeps its
//!   diagonal pivot. If partial pivoting would swap rows in any lane, the
//!   group's element is inverted lane by lane with the scalar
//!   `block::mat_inv`, on stack arrays, so no lane's choice of pivot
//!   changes. A zero pivot panics with the scalar message.
//!
//! Dispatch is resolved **once at plan-build time**: [`SimdMode`] (the
//! `SweepOptions::simd` knob / `MP_SWEEP_SIMD` env var) resolves to a
//! [`SimdLevel`] via `is_x86_feature_detected!`, and the level is recorded
//! in the compiled plan — steady-state execution is branch-free and never
//! re-detects CPU features. The crate-level entry points below
//! (`thomas_forward` and friends) sweep the leading whole groups of four
//! lanes and return how many lanes they swept; the calling kernel's scalar
//! lane loop sweeps the `nlanes % 4` rest, so any lane count works and
//! every recurrence has one scalar body.

// Hosts without x86-64 compile the entry points down to `0`, leaving
// their arguments unused.
#![cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]

use crate::block::BlockCoeffs;
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
                crate::executor::warn_invalid_env("MP_SWEEP_SIMD", &s, "auto");
                SimdMode::Auto
            }),
        }
    }

    /// Resolve the mode against the running CPU — the **single** feature
    /// detection point, called at plan-build time and recorded into the
    /// compiled plan.
    pub fn resolve(self) -> SimdLevel {
        match self {
            SimdMode::Scalar => SimdLevel::Scalar,
            SimdMode::Auto => {
                if avx2_available() {
                    SimdLevel::Avx2
                } else {
                    SimdLevel::Scalar
                }
            }
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
/// [`SimdMode`]). `Avx2` is only ever constructed after feature detection
/// succeeded, so kernels may call the `avx2` intrinsics unconditionally
/// when handed this level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// Portable scalar lane loops.
    Scalar,
    /// 4-lane AVX2 bodies (with the scalar loop on the tail lanes).
    Avx2,
}

impl SimdLevel {
    /// The level's display name (`mpart profile` prints this).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether the AVX2 fast paths can run on this CPU (AVX2 **and** FMA; see
/// the module docs for why FMA is gated but never contracted).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The element stride the AVX2 bodies sweep `lanes` at: `Some` only at
/// [`SimdLevel::Avx2`] and when every field has lane stride 1 and all
/// fields share one element stride ([`Lanes::uniform_stride`]; the bodies
/// address lane `l` of every field as `base + k·row_stride + l`). `None`
/// leaves every lane to the caller's scalar loop — the case for a row
/// along the unit-stride axis, whose lanes lie a tile row apart.
fn avx2_stride(level: SimdLevel, lanes: &Lanes<'_>) -> Option<isize> {
    if level == SimdLevel::Avx2 {
        lanes.uniform_stride()
    } else {
        None
    }
}

/// Thomas forward elimination (fields `[a, b, c, d]`, carries `[c', d']`)
/// over the leading whole lane groups; returns the lanes swept.
pub(crate) fn thomas_forward(
    level: SimdLevel,
    carries: &mut [f64],
    lanes: &mut Lanes<'_>,
) -> usize {
    match avx2_stride(level, lanes) {
        // SAFETY: `SimdLevel::Avx2` is only constructed after avx2+fma
        // detection (`SimdMode::resolve`). `avx2_stride` returned `Some`
        // only for unit lane strides and one shared element stride, so the
        // bodies' `base + k·rs + l` addresses are exactly the view's, every
        // one of which its constructor checked.
        #[cfg(target_arch = "x86_64")]
        Some(rs) => unsafe { avx2::thomas_forward(carries, lanes, rs) },
        _ => 0,
    }
}

/// Thomas back substitution (fields `[c, d]`, carries `[x, valid]`) over
/// the leading whole lane groups; returns the lanes swept.
pub(crate) fn thomas_backward(
    level: SimdLevel,
    carries: &mut [f64],
    lanes: &mut Lanes<'_>,
) -> usize {
    match avx2_stride(level, lanes) {
        // SAFETY: as for `thomas_forward`.
        #[cfg(target_arch = "x86_64")]
        Some(rs) => unsafe { avx2::thomas_backward(carries, lanes, rs) },
        _ => 0,
    }
}

/// Pentadiagonal forward elimination (fields `[e, a, d, c, f, b]`, 6
/// carries) over the leading whole lane groups; returns the lanes swept.
pub(crate) fn penta_forward(level: SimdLevel, carries: &mut [f64], lanes: &mut Lanes<'_>) -> usize {
    match avx2_stride(level, lanes) {
        // SAFETY: as for `thomas_forward`.
        #[cfg(target_arch = "x86_64")]
        Some(rs) => unsafe { avx2::penta_forward(carries, lanes, rs) },
        _ => 0,
    }
}

/// Pentadiagonal back substitution (fields `[c, f, b]`, carries
/// `[x1, x2, count]`) over the leading whole lane groups; returns the
/// lanes swept.
pub(crate) fn penta_backward(
    level: SimdLevel,
    carries: &mut [f64],
    lanes: &mut Lanes<'_>,
) -> usize {
    match avx2_stride(level, lanes) {
        // SAFETY: as for `thomas_forward`.
        #[cfg(target_arch = "x86_64")]
        Some(rs) => unsafe { avx2::penta_backward(carries, lanes, rs) },
        _ => 0,
    }
}

/// Running prefix sum over the leading whole lane groups; returns the
/// lanes swept.
pub(crate) fn prefix_sum(level: SimdLevel, carries: &mut [f64], lanes: &mut Lanes<'_>) -> usize {
    match avx2_stride(level, lanes) {
        // SAFETY: as for `thomas_forward`.
        #[cfg(target_arch = "x86_64")]
        Some(rs) => unsafe { avx2::prefix_sum(carries, lanes, rs) },
        _ => 0,
    }
}

/// First-order recurrence `x[k] += a·x[k−1]` over the leading whole lane
/// groups; returns the lanes swept.
pub(crate) fn first_order(
    level: SimdLevel,
    a: f64,
    carries: &mut [f64],
    lanes: &mut Lanes<'_>,
) -> usize {
    match avx2_stride(level, lanes) {
        // SAFETY: as for `thomas_forward`.
        #[cfg(target_arch = "x86_64")]
        Some(rs) => unsafe { avx2::first_order(a, carries, lanes, rs) },
        _ => 0,
    }
}

/// Block-tridiagonal forward elimination (fields `[C' row-major, d]`,
/// carries `[C', d']`, blocks generated by `coeffs`) over the leading
/// whole lane groups; returns the lanes swept. Runs at any lane stride.
pub(crate) fn block_forward<const N: usize, S: BlockCoeffs<N>>(
    level: SimdLevel,
    coeffs: &S,
    carries: &mut [f64],
    lanes: &mut Lanes<'_>,
    ctxs: &[SegmentCtx],
) -> usize {
    match level {
        // SAFETY: `SimdLevel::Avx2` is only constructed after avx2+fma
        // detection (`SimdMode::resolve`). The body addresses element `k`
        // of lane `l` of field `f` as `base(f) + k·stride + l·lane_stride`
        // with `k < seg_len` and `l < nlanes`, exactly the view's own
        // addresses, every one of which its constructor checked; it indexes
        // carries and contexts by checked slice accesses.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::block_forward(coeffs, carries, lanes, ctxs) },
        _ => 0,
    }
}

/// Block back substitution (fields `[C' row-major, d']`, carries
/// `[x, valid]`) over the leading whole lane groups; returns the lanes
/// swept. Runs at any lane stride.
pub(crate) fn block_backward<const N: usize>(
    level: SimdLevel,
    carries: &mut [f64],
    lanes: &mut Lanes<'_>,
) -> usize {
    match level {
        // SAFETY: as for `block_forward`.
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2 => unsafe { avx2::block_backward::<N>(carries, lanes) },
        _ => 0,
    }
}

/// The AVX2 kernel bodies. Every function is `unsafe` with the same
/// contract: the caller must have verified AVX2+FMA support (guaranteed by
/// only reaching these through [`SimdLevel::Avx2`]), and the view must
/// address only valid elements no other thread touches (its constructors
/// guarantee that). Each body sweeps lanes `0..nlanes / 4 * 4` and returns
/// that count. The one-value bodies also need every field of `lanes` at
/// lane stride 1 and element stride `row_stride` (debug-asserted on
/// entry): element `k` of lane `l` is `lanes.base(f).offset(k·row_stride +
/// l)`, whether the view is packed scratch (`row_stride = nlanes`) or a
/// tile row across the unit-stride axis (`row_stride = ±strides[dim]`).
/// The block bodies take each field's own strides from the view.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::block::{BlockCoeffs, LaneMat, Mat};
    use crate::recurrence::{SegmentCtx, MAX_DIMS};
    use mp_grid::Lanes;
    use std::arch::x86_64::*;

    /// Lanes per vector iteration (`__m256d` holds 4 `f64`).
    const LANES: usize = 4;

    /// Entry `j` of the line-major carries (`clen` per line) of lanes
    /// `l0..l0+4`, as one lane vector.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn carry_entry(carries: &[f64], clen: usize, l0: usize, j: usize) -> __m256d {
        let mut t = [0.0f64; LANES];
        for (i, ti) in t.iter_mut().enumerate() {
            *ti = carries[(l0 + i) * clen + j];
        }
        _mm256_loadu_pd(t.as_ptr())
    }

    /// Inverse of [`carry_entry`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn set_carry_entry(carries: &mut [f64], clen: usize, l0: usize, j: usize, v: __m256d) {
        let mut t = [0.0f64; LANES];
        _mm256_storeu_pd(t.as_mut_ptr(), v);
        for (i, ti) in t.iter().enumerate() {
            carries[(l0 + i) * clen + j] = *ti;
        }
    }

    /// Transpose the line-major carries of lanes `l0..l0+4` (carry length
    /// `C` per line) into `C` lane vectors. Done once per lane group, so
    /// the scalar shuffle cost is amortized over the whole segment.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn load_carries<const C: usize>(carries: &[f64], l0: usize) -> [__m256d; C] {
        let mut out = [_mm256_setzero_pd(); C];
        for (j, v) in out.iter_mut().enumerate() {
            *v = carry_entry(carries, C, l0, j);
        }
        out
    }

    /// Inverse of [`load_carries`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store_carries<const C: usize>(carries: &mut [f64], l0: usize, v: &[__m256d; C]) {
        for (j, &vj) in v.iter().enumerate() {
            set_carry_entry(carries, C, l0, j, vj);
        }
    }

    /// Panic like the scalar Thomas kernels when any lane's pivot is zero.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn check_pivot(denom: __m256d, msg: &'static str) {
        let zero = _mm256_setzero_pd();
        if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(denom, zero)) != 0 {
            panic!("{}", msg);
        }
    }

    /// Thomas forward elimination, 4 lines per iteration. Mirrors the
    /// scalar lane loop of `ThomasForwardKernel`: per line
    /// `c' = c/(b − a·c'_prev)`, `d' = (d − a·d'_prev)/(b − a·c'_prev)`,
    /// with the multiply and subtract rounded separately (no FMA) and the
    /// quotient by vector division — all three correctly rounded, hence
    /// lane-wise bitwise equal to the scalar loop.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn thomas_forward(
        carries: &mut [f64],
        lanes: &Lanes<'_>,
        row_stride: isize,
    ) -> usize {
        debug_assert_eq!(lanes.uniform_stride(), Some(row_stride), "unit lane stride");
        let (seg_len, full) = (lanes.seg_len(), lanes.nlanes() / LANES * LANES);
        let (aa, bb, cc, dd) = (lanes.base(0), lanes.base(1), lanes.base(2), lanes.base(3));
        // Two lane groups (8 lines) advance together through the segment:
        // each group's recurrence is a serial multiply–subtract–divide
        // dependency chain, so a lone group leaves the divider idle most of
        // the time. Interleaving a second, independent chain roughly doubles
        // throughput. Lanes still see the exact per-line operation sequence.
        let paired = full / (2 * LANES) * (2 * LANES);
        for l0 in (0..paired).step_by(2 * LANES) {
            let l1 = l0 + LANES;
            let [mut cp0, mut dp0] = load_carries::<2>(carries, l0);
            let [mut cp1, mut dp1] = load_carries::<2>(carries, l1);
            for k in 0..seg_len {
                let r0 = k as isize * row_stride + l0 as isize;
                let r1 = k as isize * row_stride + l1 as isize;
                let a0 = _mm256_loadu_pd(aa.offset(r0));
                let a1 = _mm256_loadu_pd(aa.offset(r1));
                let b0 = _mm256_loadu_pd(bb.offset(r0));
                let b1 = _mm256_loadu_pd(bb.offset(r1));
                let denom0 = _mm256_sub_pd(b0, _mm256_mul_pd(a0, cp0));
                let denom1 = _mm256_sub_pd(b1, _mm256_mul_pd(a1, cp1));
                check_pivot(denom0, "zero pivot");
                check_pivot(denom1, "zero pivot");
                let c0 = _mm256_loadu_pd(cc.offset(r0));
                let c1 = _mm256_loadu_pd(cc.offset(r1));
                let d0 = _mm256_loadu_pd(dd.offset(r0));
                let d1 = _mm256_loadu_pd(dd.offset(r1));
                cp0 = _mm256_div_pd(c0, denom0);
                cp1 = _mm256_div_pd(c1, denom1);
                dp0 = _mm256_div_pd(_mm256_sub_pd(d0, _mm256_mul_pd(a0, dp0)), denom0);
                dp1 = _mm256_div_pd(_mm256_sub_pd(d1, _mm256_mul_pd(a1, dp1)), denom1);
                _mm256_storeu_pd(cc.offset(r0), cp0);
                _mm256_storeu_pd(cc.offset(r1), cp1);
                _mm256_storeu_pd(dd.offset(r0), dp0);
                _mm256_storeu_pd(dd.offset(r1), dp1);
            }
            store_carries::<2>(carries, l0, &[cp0, dp0]);
            store_carries::<2>(carries, l1, &[cp1, dp1]);
        }
        for l0 in (paired..full).step_by(LANES) {
            let [mut cp, mut dp] = load_carries::<2>(carries, l0);
            for k in 0..seg_len {
                let r = k as isize * row_stride + l0 as isize;
                let a = _mm256_loadu_pd(aa.offset(r));
                let b = _mm256_loadu_pd(bb.offset(r));
                let denom = _mm256_sub_pd(b, _mm256_mul_pd(a, cp));
                check_pivot(denom, "zero pivot");
                let c = _mm256_loadu_pd(cc.offset(r));
                let d = _mm256_loadu_pd(dd.offset(r));
                cp = _mm256_div_pd(c, denom);
                dp = _mm256_div_pd(_mm256_sub_pd(d, _mm256_mul_pd(a, dp)), denom);
                _mm256_storeu_pd(cc.offset(r), cp);
                _mm256_storeu_pd(dd.offset(r), dp);
            }
            store_carries::<2>(carries, l0, &[cp, dp]);
        }
        full
    }

    /// Thomas back substitution, 4 lines per iteration. The scalar kernel's
    /// `valid` carry flag (`x = d − c·x_next` once a downstream row exists,
    /// else `x = d`) becomes a compare + blend; after the first element
    /// every lane is valid, exactly as in the scalar loop.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn thomas_backward(
        carries: &mut [f64],
        lanes: &Lanes<'_>,
        row_stride: isize,
    ) -> usize {
        debug_assert_eq!(lanes.uniform_stride(), Some(row_stride), "unit lane stride");
        let (seg_len, full) = (lanes.seg_len(), lanes.nlanes() / LANES * LANES);
        let (cc, dd) = (lanes.base(0), lanes.base(1));
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        for l0 in (0..full).step_by(LANES) {
            let [mut xv, mut validv] = load_carries::<2>(carries, l0);
            for k in 0..seg_len {
                let r = k as isize * row_stride + l0 as isize;
                let d = _mm256_loadu_pd(dd.offset(r));
                let c = _mm256_loadu_pd(cc.offset(r));
                let cand = _mm256_sub_pd(d, _mm256_mul_pd(c, xv));
                // `valid != 0.0` — unordered-NEQ matches scalar `!=` on NaN.
                let m = _mm256_cmp_pd::<_CMP_NEQ_UQ>(validv, zero);
                xv = _mm256_blendv_pd(d, cand, m);
                _mm256_storeu_pd(dd.offset(r), xv);
                validv = one;
            }
            store_carries::<2>(carries, l0, &[xv, validv]);
        }
        full
    }

    /// Pentadiagonal forward elimination, 4 lines per iteration. Mirrors
    /// `eliminate_row` operation-for-operation (see `mp-sweep::penta`),
    /// carrying the two previous eliminated rows (6 values per line) in six
    /// lane vectors across the whole segment.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn penta_forward(
        carries: &mut [f64],
        lanes: &Lanes<'_>,
        row_stride: isize,
    ) -> usize {
        debug_assert_eq!(lanes.uniform_stride(), Some(row_stride), "unit lane stride");
        let (seg_len, full) = (lanes.seg_len(), lanes.nlanes() / LANES * LANES);
        let (ee, aa, dd) = (lanes.base(0), lanes.base(1), lanes.base(2));
        let (cc, ff, bb) = (lanes.base(3), lanes.base(4), lanes.base(5));
        for l0 in (0..full).step_by(LANES) {
            // Carry layout per line: [C1, F1, B1, C2, F2, B2] — row i−1
            // then row i−2, exactly as the scalar kernel stores them.
            let [mut p1c, mut p1f, mut p1b, mut p2c, mut p2f, mut p2b] =
                load_carries::<6>(carries, l0);
            for k in 0..seg_len {
                let r = k as isize * row_stride + l0 as isize;
                let e = _mm256_loadu_pd(ee.offset(r));
                let a = _mm256_loadu_pd(aa.offset(r));
                let d = _mm256_loadu_pd(dd.offset(r));
                let c = _mm256_loadu_pd(cc.offset(r));
                let f = _mm256_loadu_pd(ff.offset(r));
                let b = _mm256_loadu_pd(bb.offset(r));
                // Substitute x_{i−2} via row i−2.
                let a1 = _mm256_sub_pd(a, _mm256_mul_pd(e, p2c));
                let d1 = _mm256_sub_pd(d, _mm256_mul_pd(e, p2f));
                let b1 = _mm256_sub_pd(b, _mm256_mul_pd(e, p2b));
                // Substitute x_{i−1} via row i−1.
                let den = _mm256_sub_pd(d1, _mm256_mul_pd(a1, p1c));
                check_pivot(den, "zero pivot in pentadiagonal elimination");
                let c1 = _mm256_sub_pd(c, _mm256_mul_pd(a1, p1f));
                let b2 = _mm256_sub_pd(b1, _mm256_mul_pd(a1, p1b));
                let nc = _mm256_div_pd(c1, den);
                let nf = _mm256_div_pd(f, den);
                let nb = _mm256_div_pd(b2, den);
                _mm256_storeu_pd(cc.offset(r), nc);
                _mm256_storeu_pd(ff.offset(r), nf);
                _mm256_storeu_pd(bb.offset(r), nb);
                p2c = p1c;
                p2f = p1f;
                p2b = p1b;
                p1c = nc;
                p1f = nf;
                p1b = nb;
            }
            store_carries::<6>(carries, l0, &[p1c, p1f, p1b, p2c, p2f, p2b]);
        }
        full
    }

    /// Pentadiagonal back substitution, 4 lines per iteration. The scalar
    /// kernel's 3-way `count` match (how many downstream solution values
    /// exist yet: 0, 1, or 2) becomes two `≥` masks and a blend chain that
    /// keeps the scalar's left-associated `b − C·x₁ − F·x₂` rounding order.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn penta_backward(
        carries: &mut [f64],
        lanes: &Lanes<'_>,
        row_stride: isize,
    ) -> usize {
        debug_assert_eq!(lanes.uniform_stride(), Some(row_stride), "unit lane stride");
        let (seg_len, full) = (lanes.seg_len(), lanes.nlanes() / LANES * LANES);
        let (cc, ff, bb) = (lanes.base(0), lanes.base(1), lanes.base(2));
        let one = _mm256_set1_pd(1.0);
        let two = _mm256_set1_pd(2.0);
        for l0 in (0..full).step_by(LANES) {
            let [mut x1, mut x2, mut count] = load_carries::<3>(carries, l0);
            for k in 0..seg_len {
                let r = k as isize * row_stride + l0 as isize;
                let b = _mm256_loadu_pd(bb.offset(r));
                let c = _mm256_loadu_pd(cc.offset(r));
                let f = _mm256_loadu_pd(ff.offset(r));
                // count ∈ {0, 1, 2} exactly (integer-valued f64 arithmetic).
                let ge1 = _mm256_cmp_pd::<_CMP_GE_OQ>(count, one);
                let ge2 = _mm256_cmp_pd::<_CMP_GE_OQ>(count, two);
                let t1 = _mm256_sub_pd(b, _mm256_mul_pd(c, x1));
                let xa = _mm256_blendv_pd(b, t1, ge1);
                let t2 = _mm256_sub_pd(xa, _mm256_mul_pd(f, x2));
                let x = _mm256_blendv_pd(xa, t2, ge2);
                _mm256_storeu_pd(bb.offset(r), x);
                x2 = x1;
                x1 = x;
                // if count < 2 { count += 1 }
                count = _mm256_blendv_pd(_mm256_add_pd(count, one), count, ge2);
            }
            store_carries::<3>(carries, l0, &[x1, x2, count]);
        }
        full
    }

    /// An N×N block of lane vectors.
    type VMat<const N: usize> = [[__m256d; N]; N];

    /// Lanes `0..4` of a field whose lane 0 is at `p`, lanes `ls` apart:
    /// one vector load when they are adjacent, else four scalar ones.
    ///
    /// # Safety
    /// `p.offset(i·ls)` must be valid for reads for `i` in `0..4`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gather(p: *const f64, ls: isize) -> __m256d {
        if ls == 1 {
            return _mm256_loadu_pd(p);
        }
        _mm256_set_pd(*p.offset(3 * ls), *p.offset(2 * ls), *p.offset(ls), *p)
    }

    /// Inverse of [`gather`].
    ///
    /// # Safety
    /// `p.offset(i·ls)` must be valid for writes for `i` in `0..4`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn scatter(p: *mut f64, ls: isize, v: __m256d) {
        if ls == 1 {
            return _mm256_storeu_pd(p, v);
        }
        let (lo, hi) = (_mm256_castpd256_pd128(v), _mm256_extractf128_pd::<1>(v));
        _mm_storel_pd(p, lo);
        _mm_storeh_pd(p.offset(ls), lo);
        _mm_storel_pd(p.offset(2 * ls), hi);
        _mm_storeh_pd(p.offset(3 * ls), hi);
    }

    /// Whether any lane of any entry of `m` is `== 0.0`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn any_zero<const N: usize>(m: &VMat<N>) -> bool {
        let zero = _mm256_setzero_pd();
        let mut hit = zero;
        for row in m {
            for &v in row {
                hit = _mm256_or_pd(hit, _mm256_cmp_pd::<_CMP_EQ_OQ>(v, zero));
            }
        }
        _mm256_movemask_pd(hit) != 0
    }

    /// `block::mat_mul` per lane, into `out`. Its `a[i][k] == 0.0` skip
    /// becomes a blend that keeps the lane's partial sum, so signed zeros
    /// and `0·∞` come out as in the scalar code; a product whose left
    /// factor has no zero lane takes the unblended loop, which is the same
    /// arithmetic.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn mat_mul<const N: usize>(a: &VMat<N>, b: &VMat<N>, out: &mut VMat<N>) {
        let zero = _mm256_setzero_pd();
        let blend = any_zero(a);
        for (arow, orow) in a.iter().zip(out.iter_mut()) {
            let mut acc = [zero; N];
            for (&aik, brow) in arow.iter().zip(b) {
                if blend {
                    let skip = _mm256_cmp_pd::<_CMP_EQ_OQ>(aik, zero);
                    for (s, &bkj) in acc.iter_mut().zip(brow) {
                        let sum = _mm256_add_pd(*s, _mm256_mul_pd(aik, bkj));
                        *s = _mm256_blendv_pd(sum, *s, skip);
                    }
                } else {
                    for (s, &bkj) in acc.iter_mut().zip(brow) {
                        *s = _mm256_add_pd(*s, _mm256_mul_pd(aik, bkj));
                    }
                }
            }
            *orow = acc;
        }
    }

    /// `block::mat_vec` per lane.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn mat_vec<const N: usize>(a: &VMat<N>, x: &[__m256d; N]) -> [__m256d; N] {
        let mut out = [_mm256_setzero_pd(); N];
        for (o, arow) in out.iter_mut().zip(a) {
            let mut acc = _mm256_setzero_pd();
            for (&aij, &xj) in arow.iter().zip(x) {
                acc = _mm256_add_pd(acc, _mm256_mul_pd(aij, xj));
            }
            *o = acc;
        }
        out
    }

    /// `block::mat_inv` per lane, overwriting `m` with scratch and writing
    /// the inverse to `inv`; `false` if any lane's partial pivoting would
    /// pick a row below the diagonal. The lanes then disagree on the row
    /// swaps, and the caller inverts each lane with the scalar code. With
    /// diagonal pivots the scalar elimination swaps nothing, and this is
    /// its arithmetic on every value the inverse depends on; columns of
    /// `m` left of the pivot are never read again, so they are not
    /// updated. The scalar `f == 0.0` row skip becomes a blend, taken only
    /// when some lane of the row is zero.
    ///
    /// # Panics
    /// Panics with the scalar message if a lane's pivot is zero.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn mat_inv<const N: usize>(m: &mut VMat<N>, inv: &mut VMat<N>) -> bool {
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let sign = _mm256_set1_pd(-0.0);
        for (i, row) in inv.iter_mut().enumerate() {
            *row = [zero; N];
            row[i] = one;
        }
        for col in 0..N {
            // The scalar search moves off the diagonal only for a row
            // strictly larger in magnitude (an ordered compare: a NaN never
            // wins).
            let pivot = m[col][col];
            let mag = _mm256_andnot_pd(sign, pivot);
            let mut below = zero;
            for row in &m[col + 1..] {
                let v = _mm256_andnot_pd(sign, row[col]);
                below = _mm256_or_pd(below, _mm256_cmp_pd::<_CMP_GT_OQ>(v, mag));
            }
            if _mm256_movemask_pd(below) != 0 {
                return false;
            }
            if _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(pivot, zero)) != 0 {
                panic!("singular block in block-tridiagonal solve");
            }
            let scale = _mm256_div_pd(one, pivot);
            let mut mcol = m[col];
            let mut icol = inv[col];
            for v in &mut mcol[col + 1..] {
                *v = _mm256_mul_pd(*v, scale);
            }
            for v in icol.iter_mut() {
                *v = _mm256_mul_pd(*v, scale);
            }
            m[col] = mcol;
            inv[col] = icol;
            for r in 0..N {
                if r == col {
                    continue;
                }
                let f = m[r][col];
                let skip = _mm256_cmp_pd::<_CMP_EQ_OQ>(f, zero);
                let (mrow, irow) = (&mut m[r], &mut inv[r]);
                if _mm256_movemask_pd(skip) == 0 {
                    for j in col + 1..N {
                        mrow[j] = _mm256_sub_pd(mrow[j], _mm256_mul_pd(f, mcol[j]));
                    }
                    for (v, &c) in irow.iter_mut().zip(&icol) {
                        *v = _mm256_sub_pd(*v, _mm256_mul_pd(f, c));
                    }
                } else {
                    for j in col + 1..N {
                        let v = _mm256_sub_pd(mrow[j], _mm256_mul_pd(f, mcol[j]));
                        mrow[j] = _mm256_blendv_pd(v, mrow[j], skip);
                    }
                    for (v, &c) in irow.iter_mut().zip(&icol) {
                        let w = _mm256_sub_pd(*v, _mm256_mul_pd(f, c));
                        *v = _mm256_blendv_pd(w, *v, skip);
                    }
                }
            }
        }
        true
    }

    /// The pivoting fallback of [`mat_inv`]: each lane's block through the
    /// scalar `block::mat_inv`, on stack arrays.
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn mat_inv_per_lane<const N: usize>(a: &VMat<N>) -> VMat<N> {
        let mut blocks: LaneMat<N> = [[[0.0; LANES]; N]; N];
        for (out, row) in blocks.iter_mut().zip(a) {
            for (o, v) in out.iter_mut().zip(row) {
                _mm256_storeu_pd(o.as_mut_ptr(), *v);
            }
        }
        let mut invs: LaneMat<N> = [[[0.0; LANES]; N]; N];
        for l in 0..LANES {
            let m: Mat<N> = std::array::from_fn(|r| std::array::from_fn(|s| blocks[r][s][l]));
            let inv = crate::block::mat_inv(&m);
            for r in 0..N {
                for s in 0..N {
                    invs[r][s][l] = inv[r][s];
                }
            }
        }
        let mut out = [[_mm256_setzero_pd(); N]; N];
        for (orow, irow) in out.iter_mut().zip(&invs) {
            for (o, i) in orow.iter_mut().zip(irow) {
                *o = _mm256_loadu_pd(i.as_ptr());
            }
        }
        out
    }

    /// One block elimination row for four lines — `eliminate` on lane
    /// vectors: `(C', d')` from this row's blocks `abc` (`[A, B, C]`) and
    /// right-hand side `d` and the previous row's `(C', d')`. Lanes set in
    /// `start` begin their line here and skip the previous row, as the
    /// scalar `line_start` branch does.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn block_forward_step<const N: usize>(
        abc: &[VMat<N>; 3],
        d: &[__m256d; N],
        start: Option<__m256d>,
        cp: &mut VMat<N>,
        dp: &mut [__m256d; N],
    ) {
        let [a, b, c] = abc;
        let mut denom = [[_mm256_setzero_pd(); N]; N];
        mat_mul(a, cp, &mut denom);
        for (drow, brow) in denom.iter_mut().zip(b) {
            for (v, &bij) in drow.iter_mut().zip(brow) {
                *v = _mm256_sub_pd(bij, *v);
            }
        }
        let adp = mat_vec(a, dp);
        let mut rhs = [_mm256_setzero_pd(); N];
        for i in 0..N {
            rhs[i] = _mm256_sub_pd(d[i], adp[i]);
        }
        if let Some(start) = start {
            for (drow, brow) in denom.iter_mut().zip(b) {
                for (v, &bij) in drow.iter_mut().zip(brow) {
                    *v = _mm256_blendv_pd(*v, bij, start);
                }
            }
            for (v, &di) in rhs.iter_mut().zip(d) {
                *v = _mm256_blendv_pd(*v, di, start);
            }
        }
        let mut inv = [[_mm256_setzero_pd(); N]; N];
        let mut work = denom;
        if !mat_inv(&mut work, &mut inv) {
            inv = mat_inv_per_lane(&denom);
        }
        mat_mul(&inv, c, cp);
        *dp = mat_vec(&inv, &rhs);
    }

    /// Block-tridiagonal forward elimination, 4 lines per iteration:
    /// `BlockTriForwardKernel`'s lane loop per lane, with each element's
    /// blocks from [`BlockCoeffs::blocks4`]. Each field is addressed at
    /// its own strides, so rows whose lanes lie a tile row apart (a sweep
    /// along the unit-stride axis) run here too; per element, a lane's
    /// `N + N·N` loads and stores are small next to its ≈ 1 000 flops.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn block_forward<const N: usize, S: BlockCoeffs<N>>(
        coeffs: &S,
        carries: &mut [f64],
        lanes: &Lanes<'_>,
        ctxs: &[SegmentCtx],
    ) -> usize {
        let (seg_len, nl) = (lanes.seg_len(), lanes.nlanes());
        let clen = N * N + N;
        debug_assert_eq!(lanes.nfields(), clen, "fields [C', d]");
        debug_assert_eq!(carries.len(), nl * clen, "one carry per lane");
        debug_assert!(ctxs.len() >= nl, "one context per lane");
        let full = nl / LANES * LANES;
        let field = |f: usize| {
            let (stride, lane_stride) = lanes.strides(f);
            (lanes.base(f), stride, lane_stride)
        };
        let cpf: [[_; N]; N] = std::array::from_fn(|i| std::array::from_fn(|j| field(i * N + j)));
        let df: [_; N] = std::array::from_fn(|i| field(N * N + i));
        let mut abc: [LaneMat<N>; 3] = [[[[0.0; LANES]; N]; N]; 3];
        let mut blocks = [[[_mm256_setzero_pd(); N]; N]; 3];
        let mut pos = [[0; MAX_DIMS]; LANES];
        for l0 in (0..full).step_by(LANES) {
            let group = &ctxs[l0..l0 + LANES];
            let axis = group[0].axis;
            debug_assert!(group.iter().all(|c| c.axis == axis), "one swept axis");
            let mut cp = [[_mm256_setzero_pd(); N]; N];
            let mut dp = [_mm256_setzero_pd(); N];
            for (i, (cprow, dpi)) in cp.iter_mut().zip(&mut dp).enumerate() {
                for (j, v) in cprow.iter_mut().enumerate() {
                    *v = carry_entry(carries, clen, l0, i * N + j);
                }
                *dpi = carry_entry(carries, clen, l0, N * N + i);
            }
            // The lanes whose line starts at the segment's first element.
            let starts: [i64; LANES] =
                std::array::from_fn(|i| -i64::from(group[i].global_start[axis] == 0));
            let start = (starts != [0; LANES]).then(|| {
                _mm256_castsi256_pd(_mm256_set_epi64x(
                    starts[3], starts[2], starts[1], starts[0],
                ))
            });
            let [p0, p1, p2, p3] = &mut pos;
            let mut gs = [
                group[0].start_in(p0),
                group[1].start_in(p1),
                group[2].start_in(p2),
                group[3].start_in(p3),
            ];
            for k in 0..seg_len {
                for (g, ctx) in gs.iter_mut().zip(group) {
                    g[axis] = ctx.axis_coord(k);
                }
                coeffs.blocks4([&*gs[0], &*gs[1], &*gs[2], &*gs[3]], axis, &mut abc);
                for (bm, am) in blocks.iter_mut().zip(&abc) {
                    for (brow, arow) in bm.iter_mut().zip(am) {
                        for (bv, av) in brow.iter_mut().zip(arow) {
                            *bv = _mm256_loadu_pd(av.as_ptr());
                        }
                    }
                }
                let mut d = [_mm256_setzero_pd(); N];
                for (di, &(base, stride, ls)) in d.iter_mut().zip(&df) {
                    *di = gather(base.offset(k as isize * stride + l0 as isize * ls), ls);
                }
                let start = if k == 0 { start } else { None };
                block_forward_step(&blocks, &d, start, &mut cp, &mut dp);
                for (cprow, frow) in cp.iter().zip(&cpf) {
                    for (&v, &(base, stride, ls)) in cprow.iter().zip(frow) {
                        scatter(base.offset(k as isize * stride + l0 as isize * ls), ls, v);
                    }
                }
                for (&v, &(base, stride, ls)) in dp.iter().zip(&df) {
                    scatter(base.offset(k as isize * stride + l0 as isize * ls), ls, v);
                }
            }
            for (i, (cprow, &dpi)) in cp.iter().zip(&dp).enumerate() {
                for (j, &v) in cprow.iter().enumerate() {
                    set_carry_entry(carries, clen, l0, i * N + j, v);
                }
                set_carry_entry(carries, clen, l0, N * N + i, dpi);
            }
        }
        full
    }

    /// One block back-substitution row for four lines: `x = d' − C'·x_next`
    /// in lanes whose `valid` is not `0.0`, else `x = d'` — the scalar
    /// flag test as an unordered not-equal compare (true on NaN, like `!=`)
    /// and a blend.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn block_backward_step<const N: usize>(
        cp: &VMat<N>,
        dp: &[__m256d; N],
        valid: __m256d,
        x: &mut [__m256d; N],
    ) {
        let m = _mm256_cmp_pd::<_CMP_NEQ_UQ>(valid, _mm256_setzero_pd());
        let t = mat_vec(cp, x);
        for i in 0..N {
            x[i] = _mm256_blendv_pd(dp[i], _mm256_sub_pd(dp[i], t[i]), m);
        }
    }

    /// Block back substitution, 4 lines per iteration:
    /// `BlockTriBackwardKernel`'s lane loop per lane, fields addressed at
    /// their own strides as in [`block_forward`]. As in the scalar loop,
    /// every lane is valid after its first element, and the carry's flag
    /// leaves as `1.0`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn block_backward<const N: usize>(
        carries: &mut [f64],
        lanes: &Lanes<'_>,
    ) -> usize {
        let (seg_len, nl) = (lanes.seg_len(), lanes.nlanes());
        let clen = N + 1;
        debug_assert_eq!(lanes.nfields(), N * N + N, "fields [C', d']");
        debug_assert_eq!(carries.len(), nl * clen, "one carry per lane");
        let full = nl / LANES * LANES;
        let field = |f: usize| {
            let (stride, lane_stride) = lanes.strides(f);
            (lanes.base(f), stride, lane_stride)
        };
        let cpf: [[_; N]; N] = std::array::from_fn(|i| std::array::from_fn(|j| field(i * N + j)));
        let df: [_; N] = std::array::from_fn(|i| field(N * N + i));
        let one = _mm256_set1_pd(1.0);
        for l0 in (0..full).step_by(LANES) {
            let mut x = [_mm256_setzero_pd(); N];
            for (i, xi) in x.iter_mut().enumerate() {
                *xi = carry_entry(carries, clen, l0, i);
            }
            let mut valid = carry_entry(carries, clen, l0, N);
            for k in 0..seg_len {
                let at = |(base, stride, ls): (*mut f64, isize, isize)| {
                    (base.offset(k as isize * stride + l0 as isize * ls), ls)
                };
                let mut cp = [[_mm256_setzero_pd(); N]; N];
                for (cprow, frow) in cp.iter_mut().zip(&cpf) {
                    for (v, &f) in cprow.iter_mut().zip(frow) {
                        let (p, ls) = at(f);
                        *v = gather(p, ls);
                    }
                }
                let mut dp = [_mm256_setzero_pd(); N];
                for (v, &f) in dp.iter_mut().zip(&df) {
                    let (p, ls) = at(f);
                    *v = gather(p, ls);
                }
                block_backward_step(&cp, &dp, valid, &mut x);
                for (&v, &f) in x.iter().zip(&df) {
                    let (p, ls) = at(f);
                    scatter(p, ls, v);
                }
                valid = one;
            }
            for (i, &xi) in x.iter().enumerate() {
                set_carry_entry(carries, clen, l0, i, xi);
            }
            set_carry_entry(carries, clen, l0, N, one);
        }
        full
    }

    /// Running prefix sum, 4 lines per iteration (`carry_len == 1`, so the
    /// line-major carries for a lane group are already contiguous).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn prefix_sum(
        carries: &mut [f64],
        lanes: &Lanes<'_>,
        row_stride: isize,
    ) -> usize {
        debug_assert_eq!(lanes.uniform_stride(), Some(row_stride), "unit lane stride");
        let (seg_len, full) = (lanes.seg_len(), lanes.nlanes() / LANES * LANES);
        let buf = lanes.base(0);
        for l0 in (0..full).step_by(LANES) {
            let mut acc = _mm256_loadu_pd(carries.as_ptr().add(l0));
            for k in 0..seg_len {
                let r = k as isize * row_stride + l0 as isize;
                let v = _mm256_loadu_pd(buf.offset(r));
                acc = _mm256_add_pd(acc, v);
                _mm256_storeu_pd(buf.offset(r), acc);
            }
            _mm256_storeu_pd(carries.as_mut_ptr().add(l0), acc);
        }
        full
    }

    /// First-order recurrence `x[k] = x[k] + a·x[k−1]`, 4 lines per
    /// iteration.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn first_order(
        a: f64,
        carries: &mut [f64],
        lanes: &Lanes<'_>,
        row_stride: isize,
    ) -> usize {
        debug_assert_eq!(lanes.uniform_stride(), Some(row_stride), "unit lane stride");
        let (seg_len, full) = (lanes.seg_len(), lanes.nlanes() / LANES * LANES);
        let buf = lanes.base(0);
        let av = _mm256_set1_pd(a);
        for l0 in (0..full).step_by(LANES) {
            let mut prev = _mm256_loadu_pd(carries.as_ptr().add(l0));
            for k in 0..seg_len {
                let r = k as isize * row_stride + l0 as isize;
                let v = _mm256_loadu_pd(buf.offset(r));
                prev = _mm256_add_pd(v, _mm256_mul_pd(av, prev));
                _mm256_storeu_pd(buf.offset(r), prev);
            }
            _mm256_storeu_pd(carries.as_mut_ptr().add(l0), prev);
        }
        full
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
        for bad in ["avx2", "", "sse9", "42"] {
            assert_eq!(SimdMode::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn resolve_respects_forcing_and_hardware() {
        assert_eq!(SimdMode::Scalar.resolve(), SimdLevel::Scalar);
        let auto = SimdMode::Auto.resolve();
        if avx2_available() {
            assert_eq!(auto, SimdLevel::Avx2);
        } else {
            assert_eq!(auto, SimdLevel::Scalar);
        }
    }

    #[test]
    fn names_round_trip() {
        for m in [SimdMode::Auto, SimdMode::Scalar] {
            assert_eq!(SimdMode::parse(m.name()), Some(m));
            assert_eq!(format!("{m}"), m.name());
        }
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(format!("{}", SimdLevel::Scalar), "scalar");
    }
}
