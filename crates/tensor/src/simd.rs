//! Explicit-width SIMD micro-kernels behind the `simd` cargo feature.
//!
//! The scalar kernels in [`crate::gemm`] carry the repo's bit-identity
//! contract; these AVX2/FMA variants trade that exactness for speed. Each
//! SIMD kernel keeps the *structural* guarantees — every output element is
//! owned by one thread and accumulated in ascending-`k` order over the same
//! cache blocks — so results are still bit-identical across `GILLIS_THREADS`
//! settings and across repeated runs. What changes is the rounding: fused
//! multiply-add contracts `a*b + c` into one correctly-rounded operation,
//! so SIMD outputs differ from the scalar kernels by normal f32 rounding:
//! the GEMM driver's equal a scalar `f32::mul_add` loop to the bit, the
//! row dot's stay within the bound the proptests in `gemm.rs` check.
//!
//! # Dispatch
//!
//! [`simd_active`] gates every call site. It is `false` unless all of:
//!
//! 1. the crate was built with `--features simd`,
//! 2. the target is `x86_64` and the CPU reports AVX2 + FMA at runtime
//!    (checked once, cached in a [`OnceLock`](std::sync::OnceLock)),
//! 3. the `GILLIS_NO_SIMD` environment variable is unset.
//!
//! Anything else falls back to the scalar kernels transparently — same
//! public API, same shapes, no caller changes. On non-x86_64 targets the
//! feature compiles but stays scalar (NEON kernels are a documented gap:
//! this reproduction's CI hosts are x86_64 only).
//!
//! Where `simd_active` holds and the CPU also reports AVX-512F, the GEMM
//! driver runs a `12 × 32` tile of 512-bit FMAs instead of the `6 × 16` AVX2
//! one; [`gemm_kernel`] names the tile in use. Its bits are the AVX2 tile's:
//! `vfmadd231ps` is one IEEE fused multiply-add per lane at either width.
//! The batched GEMV's four-row tile and the weight fill have 512-bit bodies
//! there too, with the bits of their AVX2 ones. Every 512-bit body enables
//! `avx512f` and uses its intrinsics alone: one from a feature the body
//! does not enable compiles as an out-of-line call, silently.
//!
//! The window driver's vector body (`window_plane`) is generic over its
//! `Lanes`: zmm and ymm here, and four portable lanes (`Quad`) that every
//! build compiles, for a build or CPU without AVX2.

use crate::gemm::Im2col;
use crate::ops::window::{Weights, DEPTHWISE, MAX};

/// Returns whether the SIMD kernels are compiled in, supported by the CPU,
/// and not disabled via `GILLIS_NO_SIMD`. Cached after the first call.
#[inline]
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static ACTIVE: OnceLock<bool> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            std::env::var_os("GILLIS_NO_SIMD").is_none()
                && is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// Whether the 512-bit bodies run — the GEMM tile, the four-row GEMV tile,
/// the weight fill and the window body's zmm lanes: [`simd_active`] and
/// the CPU reports AVX-512F (which `std` detects once and caches).
#[inline]
pub(crate) fn avx512_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        simd_active() && is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// The GEMM micro-kernel this process runs, as `<kind> <rows>x<cols>`:
/// `scalar 6x16`, `avx2-fma 6x16` or `avx512-fma 12x32`.
pub fn gemm_kernel() -> &'static str {
    if avx512_active() {
        "avx512-fma 12x32"
    } else if simd_active() {
        "avx2-fma 6x16"
    } else {
        "scalar 6x16"
    }
}

/// Multipliers of [`hash24`]'s two rounds (the `lowbias32` pair).
const HASH_M1: u32 = 0x7feb_352d;
const HASH_M2: u32 = 0x846c_a68b;
/// `2^-24`: scales the 24 hash bits into `[0, 1)` exactly.
const UNIT_SCALE: f32 = 1.0 / (1u32 << 24) as f32;

/// The keyed counter hash behind [`crate::Tensor::uniform`]: two
/// multiply–xorshift rounds over `i ^ key_lo`, `key_hi` added between them,
/// top 24 bits kept. Integer-only, so the AVX2 body reproduces it exactly;
/// 24 bits because that is what an `f32` in `[0, 1)` holds without rounding.
#[inline]
fn hash24(key: u64, i: u32) -> u32 {
    let mut x = i ^ key as u32;
    x = (x ^ (x >> 16)).wrapping_mul(HASH_M1);
    x = (x ^ (x >> 15)).wrapping_add((key >> 32) as u32);
    x = x.wrapping_mul(HASH_M2);
    (x ^ (x >> 16)) >> 8
}

/// Fills `out` with elements `start..start + out.len()` of the uniform
/// stream `key` over `[lo, hi]`: element `i` is
/// `lo + hash24(key, i)·2^-24 · (hi − lo)`, a multiply then an add, never
/// fused. Every element depends on its index alone (taken modulo `2^32`),
/// and the scalar, AVX2 and AVX-512 bodies agree to the bit, so how a
/// buffer is cut into calls — and which body runs a piece — cannot show in
/// the result.
#[inline]
pub(crate) fn fill_uniform(key: u64, start: usize, lo: f32, hi: f32, out: &mut [f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if avx512_active() {
        // SAFETY: avx512_active() verified AVX-512F support at runtime.
        return unsafe { fill_uniform512(key, start, lo, hi, out) };
    } else if simd_active() {
        // SAFETY: simd_active() verified AVX2 support at runtime.
        return unsafe { fill_uniform_avx2(key, start, lo, hi, out) };
    }
    fill_uniform_scalar(key, start, lo, hi, out)
}

#[inline]
fn fill_uniform_scalar(key: u64, start: usize, lo: f32, hi: f32, out: &mut [f32]) {
    let span = hi - lo;
    for (j, o) in out.iter_mut().enumerate() {
        let unit = hash24(key, (start + j) as u32) as f32 * UNIT_SCALE;
        *o = lo + unit * span;
    }
}

/// The widest window the window kernels fold (depthwise convolution and
/// max pooling): the vector body keeps a lane mask per column of it.
pub const MAX_KW: usize = 8;

/// The largest column stride the window kernels fold: the vector body reads
/// a tap vector whole or as the even lanes of two.
pub const MAX_SW: usize = 2;

/// One plane of the window driver: its geometry, input, and filter taps
/// and initial value.
pub(crate) struct Plane<'a> {
    pub(crate) g: &'a Im2col,
    pub(crate) data: &'a [f32],
    pub(crate) wi: Weights<'a>,
}

/// A vector register of the window body, one IEEE operation per lane:
/// a zmm under AVX-512F, a ymm under AVX2 and FMA, or four portable lanes.
/// The methods are inlined into a caller compiled for the width's features.
///
/// # Safety
///
/// Every method needs a CPU with the width's features, and a pointer
/// valid for the lanes the method reads or writes.
pub(crate) trait Lanes: Copy {
    const N: usize;
    unsafe fn splat(v: f32) -> Self;
    unsafe fn load(at: *const f32) -> Self;
    /// The lanes whose bit in `mask` is set read from `at`, the others
    /// `pad`; a lane that is not read may lie off the allocation.
    unsafe fn load_masked(pad: Self, mask: u32, at: *const f32) -> Self;
    /// The even lanes of `a`, then those of `b`.
    unsafe fn even(a: Self, b: Self) -> Self;
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self;
    /// `vmaxps(a, b)`: `a` if `a > b`, else `b`.
    unsafe fn max(a: Self, b: Self) -> Self;
    /// Stores the first `n ≤ N` lanes at `at`.
    unsafe fn store_first(at: *mut f32, v: Self, n: usize);
}

/// The window driver's (`ops/window.rs`) vector body at horizontal stride
/// `SW` (1 or 2), in `L`: one plane into `out`. Four output rows whose taps
/// all lie on rows of the plane run together, any other row alone, in
/// blocks of two vectors of columns, then one. A block whose taps all lie
/// on the plane loads them plainly, any other one masked — lanes off the
/// plane read as padding — and a row's last vector is stored masked. A
/// stride-2 tap vector is the even lanes of two vectors from its first
/// column. Each lane takes one IEEE operation per tap, as the element's
/// definition in `ops/window.rs` does, so the bits are its.
///
/// # Safety
///
/// The CPU must support `L`'s width, and the window may be at most
/// [`MAX_KW`] columns wide.
#[inline(always)]
pub(crate) unsafe fn window_plane<L: Lanes, const F: u8, const SW: usize>(
    p: &Plane,
    out: &mut [f32],
) {
    let ((kh, kw), sh, (top, left)) = (p.g.kernel, p.g.stride.0, p.g.pad_tl);
    let ((in_h, in_w), (out_h, out_w)) = (p.g.in_hw, p.g.out_hw);
    let inside =
        |ox: usize, lanes: usize| ox * SW >= left && ox * SW - left + kw - 1 + lanes * SW <= in_w;
    let mut oy = 0;
    while oy < out_h {
        let four = oy + 4 <= out_h && oy * sh >= top && (oy + 3) * sh + kh <= top + in_h;
        for ox in (0..out_w).step_by(2 * L::N) {
            let (v2, live) = (ox + L::N < out_w, (out_w - ox).min(2 * L::N));
            let at = (oy, ox, out.as_mut_ptr().add(oy * out_w + ox), live);
            match (four, v2, inside(ox, live.next_multiple_of(L::N))) {
                (true, true, true) => block::<L, F, SW, 4, 2, false>(p, at),
                (true, true, false) => block::<L, F, SW, 4, 2, true>(p, at),
                (true, false, true) => block::<L, F, SW, 4, 1, false>(p, at),
                (true, false, false) => block::<L, F, SW, 4, 1, true>(p, at),
                (false, true, true) => block::<L, F, SW, 1, 2, false>(p, at),
                (false, true, false) => block::<L, F, SW, 1, 2, true>(p, at),
                (false, false, true) => block::<L, F, SW, 1, 1, false>(p, at),
                (false, false, false) => block::<L, F, SW, 1, 1, true>(p, at),
            }
        }
        oy += if four { 4 } else { 1 };
    }
}

/// `R` rows × `V` vectors of output columns from `(oy0, ox0)` through
/// every tap, stored at `out` with row stride `out_w` —
/// the first `live` lanes of each row. A tap row off the plane (`R = 1`
/// only) is all padding; with `E`, so is a lane off a row; without,
/// every tap column lies on the rows.
///
/// # Safety
///
/// As [`window_plane`]'s; `out` must be valid for `R` rows of `live`
/// writes at stride `out_w`, and without `E` every tap of the block must
/// lie on the plane.
#[inline(always)]
unsafe fn block<
    L: Lanes,
    const F: u8,
    const SW: usize,
    const R: usize,
    const V: usize,
    const E: bool,
>(
    p: &Plane,
    (oy0, ox0, out, live): (usize, usize, *mut f32, usize),
) {
    let (g, (w, init)) = (p.g, p.wi);
    let ((kh, kw), sh, (top, left)) = (g.kernel, g.stride.0, g.pad_tl);
    let ((in_h, in_w), out_w) = (g.in_hw, g.out_hw.1);
    let pad = L::splat(if F == MAX { f32::NEG_INFINITY } else { 0.0 });
    // Which of the `N·SW` input columns vector `v` of tap `kx` reads lie
    // on a row.
    let mut masks = [[u32::MAX; V]; MAX_KW];
    if E {
        let span = (L::N * SW) as isize;
        for (kx, mask) in masks[..kw].iter_mut().enumerate() {
            for (v, mask) in mask.iter_mut().enumerate() {
                let first = ((ox0 + L::N * v) * SW + kx) as isize - left as isize;
                let lo = (-first).clamp(0, span) as u64;
                let hi = (in_w as isize - first).clamp(lo as isize, span) as u64;
                *mask = (((1u64 << hi) - 1) & !((1u64 << lo) - 1)) as u32;
            }
        }
    }
    let data = p.data.as_ptr();
    let mut acc = [[L::splat(init); V]; R];
    for ky in 0..kh {
        let row = (oy0 * sh + ky).checked_sub(top).filter(|&iy| iy < in_h);
        let at = data.add(row.unwrap_or(0) * in_w);
        for (kx, masks) in masks[..kw].iter().enumerate() {
            let wt = match F {
                DEPTHWISE => L::splat(w[ky * kw + kx]),
                _ => pad,
            };
            let at = at.wrapping_add(ox0 * SW + kx).wrapping_sub(left);
            for (r, acc) in acc.iter_mut().enumerate() {
                for (v, acc) in acc.iter_mut().enumerate() {
                    let at = at.wrapping_add(r * sh * in_w + L::N * SW * v);
                    let load = |half: usize| {
                        let (at, k) = (at.wrapping_add(L::N * half), masks[v] >> (L::N * half));
                        if E {
                            L::load_masked(pad, k, at)
                        } else {
                            L::load(at)
                        }
                    };
                    let x = match (row, SW) {
                        (None, _) => pad,
                        (_, 1) => load(0),
                        _ => L::even(load(0), load(1)),
                    };
                    *acc = match F {
                        DEPTHWISE => L::fmadd(wt, x, *acc),
                        _ => L::max(x, *acc),
                    };
                }
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (v, acc) in acc.iter().enumerate() {
            L::store_first(
                out.add(r * out_w + L::N * v),
                *acc,
                live.saturating_sub(L::N * v).min(L::N),
            );
        }
    }
}

/// Four portable lanes in plain `f32` arithmetic, the multiply-add unfused:
/// the vector body of a build or CPU without AVX2, in SSE registers once
/// compiled.
#[derive(Clone, Copy)]
pub(crate) struct Quad([f32; 4]);

impl Lanes for Quad {
    const N: usize = 4;
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        Quad([v; 4])
    }
    #[inline(always)]
    unsafe fn load(at: *const f32) -> Self {
        Quad(at.cast::<[f32; 4]>().read_unaligned())
    }
    #[inline(always)]
    unsafe fn load_masked(pad: Self, mask: u32, at: *const f32) -> Self {
        let lane = |i: usize| match mask >> i & 1 {
            0 => pad.0[i],
            _ => *at.wrapping_add(i),
        };
        Quad(std::array::from_fn(lane))
    }
    #[inline(always)]
    unsafe fn even(a: Self, b: Self) -> Self {
        Quad([a.0[0], a.0[2], b.0[0], b.0[2]])
    }
    #[inline(always)]
    unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
        Quad(std::array::from_fn(|i| c.0[i] + a.0[i] * b.0[i]))
    }
    #[inline(always)]
    unsafe fn max(a: Self, b: Self) -> Self {
        Quad(std::array::from_fn(|i| {
            if a.0[i] > b.0[i] {
                a.0[i]
            } else {
                b.0[i]
            }
        }))
    }
    #[inline(always)]
    unsafe fn store_first(at: *mut f32, v: Self, n: usize) {
        at.copy_from_nonoverlapping(v.0.as_ptr(), n)
    }
}

/// [`window_plane`] in four portable lanes.
///
/// # Safety
///
/// The window may be at most [`MAX_KW`] columns wide.
pub(crate) unsafe fn window_plane_quad<const F: u8, const SW: usize>(
    g: &Im2col,
    data: &[f32],
    wi: Weights,
    out: &mut [f32],
) {
    window_plane::<Quad, F, SW>(&Plane { g, data, wi }, out)
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod x86 {
    use super::{fill_uniform_scalar, HASH_M1, HASH_M2, UNIT_SCALE};
    use super::{window_plane, Lanes, Plane};
    use crate::gemm::Im2col;
    use crate::ops::window::Weights;
    use std::arch::x86_64::*;

    /// AVX2 body of [`super::fill_uniform`]: eight consecutive indices per
    /// vector through the same integer rounds as `hash24`, an exact
    /// `i32 → f32` conversion of the 24 kept bits, then the same two
    /// multiplies and one add per lane (AVX2 alone has no fused form to
    /// contract them into). The scalar loop takes the tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn fill_uniform_avx2(key: u64, start: usize, lo: f32, hi: f32, out: &mut [f32]) {
        let k0 = _mm256_set1_epi32(key as u32 as i32);
        let k1 = _mm256_set1_epi32((key >> 32) as u32 as i32);
        let m1 = _mm256_set1_epi32(HASH_M1 as i32);
        let m2 = _mm256_set1_epi32(HASH_M2 as i32);
        let (vlo, vspan) = (_mm256_set1_ps(lo), _mm256_set1_ps(hi - lo));
        let vscale = _mm256_set1_ps(UNIT_SCALE);
        let mut idx = _mm256_add_epi32(
            _mm256_set1_epi32(start as u32 as i32),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        );
        let eight = _mm256_set1_epi32(8);
        let body = out.len() - out.len() % 8;
        for chunk in out[..body].chunks_exact_mut(8) {
            let mut x = _mm256_xor_si256(idx, k0);
            x = _mm256_mullo_epi32(_mm256_xor_si256(x, _mm256_srli_epi32::<16>(x)), m1);
            x = _mm256_add_epi32(_mm256_xor_si256(x, _mm256_srli_epi32::<15>(x)), k1);
            x = _mm256_mullo_epi32(x, m2);
            x = _mm256_srli_epi32::<8>(_mm256_xor_si256(x, _mm256_srli_epi32::<16>(x)));
            let unit = _mm256_mul_ps(_mm256_cvtepi32_ps(x), vscale);
            let v = _mm256_add_ps(vlo, _mm256_mul_ps(unit, vspan));
            _mm256_storeu_ps(chunk.as_mut_ptr(), v);
            idx = _mm256_add_epi32(idx, eight);
        }
        fill_uniform_scalar(key, start + body, lo, hi, &mut out[body..]);
    }

    /// [`fill_uniform_avx2`] sixteen indices per vector: the same integer
    /// rounds, conversion, and multiplies then add (unfused) per lane, with
    /// plain stores (streaming ones measured slower in a prototype). The
    /// scalar loop takes the tail.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn fill_uniform512(key: u64, start: usize, lo: f32, hi: f32, out: &mut [f32]) {
        let k0 = _mm512_set1_epi32(key as u32 as i32);
        let k1 = _mm512_set1_epi32((key >> 32) as u32 as i32);
        let m1 = _mm512_set1_epi32(HASH_M1 as i32);
        let m2 = _mm512_set1_epi32(HASH_M2 as i32);
        let (vlo, vspan) = (_mm512_set1_ps(lo), _mm512_set1_ps(hi - lo));
        let vscale = _mm512_set1_ps(UNIT_SCALE);
        let mut idx = _mm512_add_epi32(
            _mm512_set1_epi32(start as u32 as i32),
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        let body = out.len() - out.len() % 16;
        for chunk in out[..body].chunks_exact_mut(16) {
            let mut x = _mm512_xor_si512(idx, k0);
            x = _mm512_mullo_epi32(_mm512_xor_si512(x, _mm512_srli_epi32::<16>(x)), m1);
            x = _mm512_add_epi32(_mm512_xor_si512(x, _mm512_srli_epi32::<15>(x)), k1);
            x = _mm512_mullo_epi32(x, m2);
            x = _mm512_srli_epi32::<8>(_mm512_xor_si512(x, _mm512_srli_epi32::<16>(x)));
            let unit = _mm512_mul_ps(_mm512_cvtepi32_ps(x), vscale);
            let v = _mm512_add_ps(vlo, _mm512_mul_ps(unit, vspan));
            _mm512_storeu_ps(chunk.as_mut_ptr(), v);
            idx = _mm512_add_epi32(idx, _mm512_set1_epi32(16));
        }
        fill_uniform_scalar(key, start + body, lo, hi, &mut out[body..]);
    }

    /// The [`Lanes`] methods that are one intrinsic at either width.
    macro_rules! one_intrinsic {
        ($set1:ident, $loadu:ident, $fmadd:ident, $max:ident) => {
            #[inline(always)]
            unsafe fn splat(v: f32) -> Self {
                $set1(v)
            }
            #[inline(always)]
            unsafe fn load(at: *const f32) -> Self {
                $loadu(at)
            }
            #[inline(always)]
            unsafe fn fmadd(a: Self, b: Self, c: Self) -> Self {
                $fmadd(a, b, c)
            }
            #[inline(always)]
            unsafe fn max(a: Self, b: Self) -> Self {
                $max(a, b)
            }
        };
    }

    impl Lanes for __m512 {
        const N: usize = 16;
        one_intrinsic! { _mm512_set1_ps, _mm512_loadu_ps, _mm512_fmadd_ps, _mm512_max_ps }
        #[inline(always)]
        unsafe fn load_masked(pad: Self, mask: u32, at: *const f32) -> Self {
            _mm512_mask_loadu_ps(pad, mask as u16, at)
        }
        #[inline(always)]
        unsafe fn even(a: Self, b: Self) -> Self {
            let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
            _mm512_permutex2var_ps(a, even, b)
        }
        #[inline(always)]
        unsafe fn store_first(at: *mut f32, v: Self, n: usize) {
            _mm512_mask_storeu_ps(at, ((1u32 << n) - 1) as u16, v)
        }
    }

    impl Lanes for __m256 {
        const N: usize = 8;
        one_intrinsic! { _mm256_set1_ps, _mm256_loadu_ps, _mm256_fmadd_ps, _mm256_max_ps }
        #[inline(always)]
        unsafe fn load_masked(pad: Self, mask: u32, at: *const f32) -> Self {
            let bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
            let set = _mm256_and_si256(_mm256_set1_epi32(mask as i32), bits);
            let keep = _mm256_cmpeq_epi32(set, bits);
            _mm256_blendv_ps(pad, _mm256_maskload_ps(at, keep), _mm256_castsi256_ps(keep))
        }
        #[inline(always)]
        unsafe fn even(a: Self, b: Self) -> Self {
            // a0 a2 b0 b2 | a4 a6 b4 b6, then its 64-bit pairs as 0 2 1 3.
            let pairs = _mm256_castps_pd(_mm256_shuffle_ps::<0b10_00_10_00>(a, b));
            _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(pairs))
        }
        #[inline(always)]
        unsafe fn store_first(at: *mut f32, v: Self, n: usize) {
            let first = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(n as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            _mm256_maskstore_ps(at, first, v)
        }
    }

    /// [`window_plane`] in zmm registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and the window may be at most
    /// [`MAX_KW`](super::MAX_KW) columns wide.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn window_plane512<const F: u8, const SW: usize>(
        g: &Im2col,
        data: &[f32],
        wi: Weights,
        out: &mut [f32],
    ) {
        window_plane::<__m512, F, SW>(&Plane { g, data, wi }, out)
    }

    /// [`window_plane`] in ymm registers.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and the window may be at most
    /// [`MAX_KW`](super::MAX_KW) columns wide.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn window_plane256<const F: u8, const SW: usize>(
        g: &Im2col,
        data: &[f32],
        wi: Weights,
        out: &mut [f32],
    ) {
        window_plane::<__m256, F, SW>(&Plane { g, data, wi }, out)
    }

    /// The `M × 16` FMA micro-kernel of `gemm`'s blocked driver: the tile's
    /// `2·M` accumulator vectors are loaded from `C`, take one fused
    /// multiply-add per `k` step in ascending order, and are stored back.
    /// `b` is one packed micro-panel (`kc` groups of 16 columns); the `M`
    /// rows of `A` are read in place at stride `lda`. Every instance gives
    /// an element the same history, so row grouping never changes rounding.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA. `a` must be valid for reads of
    /// `M` rows of `kc` elements at stride `lda`, `b` of `16·kc` elements,
    /// and `c` for reads and writes of `M` rows of 16 elements at stride
    /// `ldc` that nothing else accesses during the call.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn micro_fma<const M: usize>(
        kc: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        c: *mut f32,
        ldc: usize,
    ) {
        let mut acc = [[_mm256_setzero_ps(); 2]; M];
        for (r, acc) in acc.iter_mut().enumerate() {
            acc[0] = _mm256_loadu_ps(c.add(r * ldc));
            acc[1] = _mm256_loadu_ps(c.add(r * ldc + 8));
        }
        for kk in 0..kc {
            let b0 = _mm256_loadu_ps(b.add(kk * 16));
            let b1 = _mm256_loadu_ps(b.add(kk * 16 + 8));
            for (r, acc) in acc.iter_mut().enumerate() {
                let av = _mm256_broadcast_ss(&*a.add(r * lda + kk));
                acc[0] = _mm256_fmadd_ps(av, b0, acc[0]);
                acc[1] = _mm256_fmadd_ps(av, b1, acc[1]);
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            _mm256_storeu_ps(c.add(r * ldc), acc[0]);
            _mm256_storeu_ps(c.add(r * ldc + 8), acc[1]);
        }
    }

    /// [`micro_fma`] at 512 bits: the `M × 32` tile of the AVX-512 build,
    /// two zmm accumulators per row (`M = 12` keeps 24 in flight). Each lane
    /// takes the same fused multiply-add per `k` step, ascending, so an
    /// element's bits equal the AVX2 kernel's.
    ///
    /// # Safety
    ///
    /// As [`micro_fma`], with AVX-512F instead of AVX2 and FMA, `b` holding
    /// `32·kc` elements and `c` rows of 32.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn micro_fma512<const M: usize>(
        kc: usize,
        a: *const f32,
        lda: usize,
        b: *const f32,
        c: *mut f32,
        ldc: usize,
    ) {
        let mut acc = [[_mm512_setzero_ps(); 2]; M];
        for (r, acc) in acc.iter_mut().enumerate() {
            acc[0] = _mm512_loadu_ps(c.add(r * ldc));
            acc[1] = _mm512_loadu_ps(c.add(r * ldc + 16));
        }
        for kk in 0..kc {
            let b0 = _mm512_loadu_ps(b.add(kk * 32));
            let b1 = _mm512_loadu_ps(b.add(kk * 32 + 16));
            for (r, acc) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a.add(r * lda + kk));
                acc[0] = _mm512_fmadd_ps(av, b0, acc[0]);
                acc[1] = _mm512_fmadd_ps(av, b1, acc[1]);
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            _mm512_storeu_ps(c.add(r * ldc), acc[0]);
            _mm512_storeu_ps(c.add(r * ldc + 16), acc[1]);
        }
    }

    /// FMA row dots for `gemv` and `gemv_multi`: `row` against the `Q`
    /// vectors back to back in `xs`, one accumulator vector each. A chain's
    /// eight f32 lanes accumulate with FMA, then fold in the same fixed tree
    /// order as the scalar kernel, plus a scalar tail. Deterministic for a
    /// given length, and the same for a vector whatever `Q` it rode in.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and `xs` must hold `Q·row.len()`
    /// elements.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn row_dots_fma<const Q: usize>(row: &[f32], xs: &[f32]) -> [f32; Q] {
        let n = row.len();
        let mut vacc = [_mm256_setzero_ps(); Q];
        let mut j = 0;
        while j + 8 <= n {
            let vw = _mm256_loadu_ps(row.as_ptr().add(j));
            for (q, vacc) in vacc.iter_mut().enumerate() {
                let vx = _mm256_loadu_ps(xs.as_ptr().add(q * n + j));
                *vacc = _mm256_fmadd_ps(vw, vx, *vacc);
            }
            j += 8;
        }
        let mut out = [0.0f32; Q];
        for (q, out) in out.iter_mut().enumerate() {
            let mut acc = [0.0f32; 8];
            _mm256_storeu_ps(acc.as_mut_ptr(), vacc[q]);
            *out = fold_chain(&acc, row, &xs[q * n..(q + 1) * n], j);
        }
        out
    }

    /// A row dot chain's result: its eight lanes `a` folded in the fixed
    /// tree, plus the serial tail of `row · x` from column `j`, added last.
    #[inline(always)]
    fn fold_chain(a: &[f32], row: &[f32], x: &[f32], j: usize) -> f32 {
        let tail = row[j..]
            .iter()
            .zip(&x[j..])
            .fold(0.0f32, |t, (r, x)| t + r * x);
        ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7])) + tail
    }

    /// [`row_dots_fma`] for four rows back to back in `rows`, in zmm
    /// registers: rows 0 and 1 share one, each in its own eight-lane half,
    /// as do rows 2 and 3, and each eight-column `x` chunk is loaded once
    /// and broadcast to both halves; each row is prefetched 2 KiB ahead. A
    /// half is one `(row, q)` chain of `row_dots_fma` — eight lanes, one FMA
    /// per chunk, ascending, the same fold and serial tail — so every dot
    /// has its bits ([`fold_chain`]). The moves are AVX-512F's own (`f64x4`
    /// casts).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F, and `xs` must hold `Q·rows.len()/4`
    /// elements.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn row_dots4_512<const Q: usize>(rows: &[f32], xs: &[f32]) -> [[f32; Q]; 4] {
        let (n, w, x) = (rows.len() / 4, rows.as_ptr(), xs.as_ptr());
        let mut acc = [[_mm512_setzero_ps(); Q]; 2];
        let mut j = 0;
        while j + 8 <= n {
            let mut pairs = [_mm512_setzero_ps(); 2];
            for r in 0..4 {
                _mm_prefetch::<_MM_HINT_T0>(w.wrapping_add(r * n + j + 512).cast());
            }
            for (p, pair) in pairs.iter_mut().enumerate() {
                let lo = _mm256_loadu_pd(w.add(2 * p * n + j).cast());
                let hi = _mm256_loadu_pd(w.add((2 * p + 1) * n + j).cast());
                *pair = _mm512_castpd_ps(_mm512_insertf64x4::<1>(_mm512_castpd256_pd512(lo), hi));
            }
            for q in 0..Q {
                let xq = _mm512_broadcast_f64x4(_mm256_loadu_pd(x.add(q * n + j).cast()));
                for (pair, acc) in pairs.iter().zip(&mut acc) {
                    acc[q] = _mm512_fmadd_ps(*pair, _mm512_castpd_ps(xq), acc[q]);
                }
            }
            j += 8;
        }
        let mut out = [[0.0f32; Q]; 4];
        for (p, acc) in acc.iter().enumerate() {
            for (q, acc) in acc.iter().enumerate() {
                let mut lanes = [0.0f32; 16];
                _mm512_storeu_ps(lanes.as_mut_ptr(), *acc);
                for (half, a) in lanes.chunks_exact(8).enumerate() {
                    let (r, x) = (2 * p + half, &xs[q * n..(q + 1) * n]);
                    out[r][q] = fold_chain(a, &rows[r * n..(r + 1) * n], x, j);
                }
            }
        }
        out
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) use x86::{
    micro_fma, micro_fma512, row_dots4_512, row_dots_fma, window_plane256, window_plane512,
};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use x86::{fill_uniform512, fill_uniform_avx2};

/// One multiply-add of the active mode — fused when the SIMD kernels run,
/// `mul` + `add` otherwise. A naive loop over it is the exact reference the
/// f32 GEMM driver is tested against in either build.
#[cfg(test)]
pub(crate) fn madd(a: f32, b: f32, acc: f32) -> f32 {
    if simd_active() {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The one-element formula, written out: what every body, chunking and
    /// width must reproduce.
    pub(crate) fn uniform_element(key: u64, i: usize, lo: f32, hi: f32) -> f32 {
        let unit = hash24(key, i as u32) as f32 / 16_777_216.0;
        lo + unit * (hi - lo)
    }

    #[test]
    fn fill_uniform_is_the_element_formula_in_every_body() {
        // A span that is no power of two, so a fused multiply-add would
        // round some elements differently.
        let (key, lo, hi) = (0x0123_4567_89ab_cdef_u64, -0.1f32, 0.3f32);
        // Starts off the eight- and sixteen-lane grids and across the 2^32
        // index wrap (inside a sixteen-lane vector for the last two);
        // lengths with and without a scalar tail at either width.
        let starts = [
            0usize,
            3,
            5,
            13,
            1 << 19,
            u32::MAX as usize - 11,
            u32::MAX as usize - 20,
        ];
        for start in starts {
            for len in (0usize..=48).chain([64, 1003]) {
                let want: Vec<u32> = (start..start + len)
                    .map(|i| uniform_element(key, i, lo, hi).to_bits())
                    .collect();
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
                let mut got = vec![f32::NAN; len];
                fill_uniform_scalar(key, start, lo, hi, &mut got);
                assert_eq!(bits(&got), want, "scalar, start {start} len {len}");
                got.fill(f32::NAN);
                fill_uniform(key, start, lo, hi, &mut got);
                assert_eq!(bits(&got), want, "dispatched, start {start} len {len}");
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                if simd_active() {
                    got.fill(f32::NAN);
                    // SAFETY: simd_active() verified AVX2 support at runtime.
                    unsafe { fill_uniform_avx2(key, start, lo, hi, &mut got) };
                    assert_eq!(bits(&got), want, "avx2, start {start} len {len}");
                }
                #[cfg(all(feature = "simd", target_arch = "x86_64"))]
                if avx512_active() {
                    got.fill(f32::NAN);
                    // SAFETY: avx512_active() verified AVX-512F at runtime.
                    unsafe { fill_uniform512(key, start, lo, hi, &mut got) };
                    assert_eq!(bits(&got), want, "avx512, start {start} len {len}");
                }
            }
        }
        if !avx512_active() {
            println!("skipping the 16-lane body: this CPU reports no AVX-512F");
        }
    }

    #[test]
    fn hash24_keeps_24_bits_and_spreads_them() {
        // Every value fits an f32 mantissa, and over 2^16 consecutive
        // counters each of the 24 bits is set about half the time.
        let mut ones = [0u32; 24];
        for i in 0..1u32 << 16 {
            let h = hash24(42, i);
            assert!(h < 1 << 24);
            for (b, n) in ones.iter_mut().enumerate() {
                *n += (h >> b) & 1;
            }
        }
        for (b, &n) in ones.iter().enumerate() {
            // sigma = sqrt(2^16)/2 = 128; five of them.
            assert!(n.abs_diff(1 << 15) < 640, "bit {b} set {n} times of 65536");
        }
    }

    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn fma_kernels_close_to_scalar() {
        if !simd_active() {
            return;
        }
        let n = 37;
        let row: Vec<f32> = (0..n).map(|i| (i as f32 * 0.7).sin()).collect();
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).cos()).collect();
        let got = unsafe { row_dots_fma::<1>(&row, &x) }[0];
        let want: f32 = row.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((got - want).abs() < 1e-4, "{got} vs {want}");
    }

    /// Every row count of both micro-kernels gives an element the six-row
    /// AVX2 kernel's rounding and the `mul_add` fold's — that is what keeps
    /// SIMD outputs independent of how thread chunking and the matrix edge
    /// group rows into tiles, and of which tile the CPU runs.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn every_row_count_matches_the_six_row_kernel_per_element() {
        if !simd_active() {
            return;
        }
        let (kc, lda) = (13, 17);
        let a: Vec<f32> = (0..12 * lda).map(|i| (i as f32 * 0.11).cos()).collect();
        let b: Vec<f32> = (0..kc * 16).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut six = vec![0.5f32; 6 * 16];
        unsafe { micro_fma::<6>(kc, a.as_ptr(), lda, b.as_ptr(), six.as_mut_ptr(), 16) };
        // Each row alone, and the top four together.
        let mut four = vec![0.5f32; 4 * 16];
        unsafe { micro_fma::<4>(kc, a.as_ptr(), lda, b.as_ptr(), four.as_mut_ptr(), 16) };
        assert_eq!(four, six[..4 * 16]);
        for r in 0..6 {
            let mut one = vec![0.5f32; 16];
            unsafe {
                micro_fma::<1>(
                    kc,
                    a[r * lda..].as_ptr(),
                    lda,
                    b.as_ptr(),
                    one.as_mut_ptr(),
                    16,
                )
            };
            for j in 0..16 {
                assert_eq!(
                    one[j].to_bits(),
                    six[r * 16 + j].to_bits(),
                    "row {r} col {j}"
                );
                let want =
                    (0..kc).fold(0.5f32, |acc, kk| madd(a[r * lda + kk], b[kk * 16 + j], acc));
                assert_eq!(
                    one[j].to_bits(),
                    want.to_bits(),
                    "row {r} col {j} vs mul_add"
                );
            }
        }

        if !avx512_active() {
            println!("skipping the 12x32 kernel: this CPU reports no AVX-512F");
            return;
        }
        type Micro = unsafe fn(usize, *const f32, usize, *const f32, *mut f32, usize);
        let wide: [Micro; 12] = [
            micro_fma512::<1>,
            micro_fma512::<2>,
            micro_fma512::<3>,
            micro_fma512::<4>,
            micro_fma512::<5>,
            micro_fma512::<6>,
            micro_fma512::<7>,
            micro_fma512::<8>,
            micro_fma512::<9>,
            micro_fma512::<10>,
            micro_fma512::<11>,
            micro_fma512::<12>,
        ];
        // A full panel, and one of 21 columns padded with zeros as the
        // packer pads the matrix edge (its tile's padded columns start 0).
        for width in [32, 21] {
            let live = |i: usize, x: f32| if i % 32 < width { x } else { 0.0 };
            let b: Vec<f32> = (0..kc * 32)
                .map(|i| live(i, (i as f32 * 0.37).sin()))
                .collect();
            let init: Vec<f32> = (0..12 * 32)
                .map(|i| live(i, 0.5 + (i % 7) as f32 * 0.25))
                .collect();
            // The AVX2 tile over the same twelve rows and 32 columns: two
            // row halves × two 16-column panels.
            let mut narrow = init.clone();
            for (r0, h) in [(0, 0), (0, 16), (6, 0), (6, 16)] {
                let b16: Vec<f32> = (0..kc * 16).map(|i| b[i / 16 * 32 + h + i % 16]).collect();
                let (a, c) = (a[r0 * lda..].as_ptr(), narrow[r0 * 32 + h..].as_mut_ptr());
                unsafe { micro_fma::<6>(kc, a, lda, b16.as_ptr(), c, 32) };
            }
            for (m, micro) in wide.iter().enumerate().map(|(i, f)| (i + 1, f)) {
                let mut got = init[..m * 32].to_vec();
                unsafe { micro(kc, a.as_ptr(), lda, b.as_ptr(), got.as_mut_ptr(), 32) };
                for (i, (got, six)) in got.iter().zip(&narrow).enumerate() {
                    let (r, j) = (i / 32, i % 32);
                    if j >= width {
                        continue;
                    }
                    let want = (0..kc).fold(init[i], |acc, kk| {
                        madd(a[r * lda + kk], b[kk * 32 + j], acc)
                    });
                    let at = format!("width {width}, {m} rows, row {r} col {j}");
                    assert_eq!(got.to_bits(), six.to_bits(), "{at} vs 6x16");
                    assert_eq!(got.to_bits(), want.to_bits(), "{at} vs mul_add");
                }
            }
        }
    }
}
