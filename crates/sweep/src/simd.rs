//! Lane-vectorized sweep microkernels with runtime dispatch.
//!
//! The AVX2 bodies sweep [`Lanes`] views whose consecutive lanes are
//! adjacent in memory (lane stride 1), so the four lanes of a 256-bit
//! vector are four *lines* — independent recurrences. Vectorizing across
//! lines therefore performs, per line, exactly the arithmetic of the
//! kernel's scalar lane loop: same operations, same order, each
//! individually IEEE-rounded. That makes the
//! AVX2 bodies here **bitwise identical** to the scalar loops (asserted by
//! the property tests), which in turn keeps every distributed-equals-serial
//! guarantee of the repo intact regardless of which path a rank happens to
//! dispatch to.
//!
//! Two deliberate consequences of the bitwise contract:
//!
//! * **No FMA contraction.** `b − a·c` is computed as a rounded multiply
//!   followed by a rounded subtract (`_mm256_mul_pd` + `_mm256_sub_pd`),
//!   never `_mm256_fnmadd_pd` — a fused operation rounds once and would
//!   produce different bits than the scalar path. FMA presence is still
//!   part of the dispatch gate (every AVX2 CPU the kernels target has it,
//!   and keeping the gate strict leaves room to add contracted *non-exact*
//!   kernels later without re-detecting).
//! * **Branchless boundary handling.** Data-dependent branches in the
//!   scalar kernels (the Thomas back-substitution validity flag, the penta
//!   back-substitution count) become vector compares + blends that
//!   reproduce the scalar selects lane-for-lane.
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

/// The AVX2 kernel bodies. Every function is `unsafe` with the same
/// contract: the caller must have verified AVX2+FMA support (guaranteed by
/// only reaching these through [`SimdLevel::Avx2`]), every field of `lanes`
/// must have lane stride 1 and element stride `row_stride` (debug-asserted
/// on entry), and the view must address only valid elements no other
/// thread touches (its constructors guarantee that). Each body sweeps lanes
/// `0..nlanes / 4 * 4` and returns that count: element `k` of lane `l` is
/// `lanes.base(f).offset(k·row_stride + l)`, whether the view is packed
/// scratch (`row_stride = nlanes`) or a tile row across the unit-stride
/// axis (`row_stride = ±strides[dim]`).
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use mp_grid::Lanes;
    use std::arch::x86_64::*;

    /// Lanes per vector iteration (`__m256d` holds 4 `f64`).
    const LANES: usize = 4;

    /// Transpose the line-major carries of lanes `l0..l0+4` (carry length
    /// `C` per line) into `C` lane vectors. Done once per lane group, so
    /// the scalar shuffle cost is amortized over the whole segment.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn load_carries<const C: usize>(carries: &[f64], l0: usize) -> [__m256d; C] {
        let mut out = [_mm256_setzero_pd(); C];
        for (j, v) in out.iter_mut().enumerate() {
            let mut t = [0.0f64; LANES];
            for (i, ti) in t.iter_mut().enumerate() {
                *ti = carries[(l0 + i) * C + j];
            }
            *v = _mm256_loadu_pd(t.as_ptr());
        }
        out
    }

    /// Inverse of [`load_carries`].
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn store_carries<const C: usize>(carries: &mut [f64], l0: usize, v: &[__m256d; C]) {
        for (j, vj) in v.iter().enumerate() {
            let mut t = [0.0f64; LANES];
            _mm256_storeu_pd(t.as_mut_ptr(), *vj);
            for (i, ti) in t.iter().enumerate() {
                carries[(l0 + i) * C + j] = *ti;
            }
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
