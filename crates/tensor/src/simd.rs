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
/// and the scalar and AVX2 bodies agree to the bit, so how a buffer is cut
/// into calls — and which body runs a piece — cannot show in the result.
#[inline]
pub(crate) fn fill_uniform(key: u64, start: usize, lo: f32, hi: f32, out: &mut [f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
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

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::{fill_uniform_scalar, HASH_M1, HASH_M2, UNIT_SCALE};
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
            let mut tail = 0.0f32;
            for k in j..n {
                tail += row[k] * xs[q * n + k];
            }
            let folded =
                ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
            *out = folded + tail;
        }
        out
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) use avx2::{micro_fma, row_dots_fma};

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use avx2::fill_uniform_avx2;

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
    fn fill_uniform_is_the_element_formula_in_both_bodies() {
        let (key, lo, hi) = (0x0123_4567_89ab_cdef_u64, -0.125f32, 0.125f32);
        // Starts off the eight-lane grid and across the 2^32 index wrap;
        // lengths with and without a scalar tail.
        for start in [0usize, 5, 1 << 19, u32::MAX as usize - 11] {
            for len in [0usize, 1, 7, 8, 9, 64, 1003] {
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
            }
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

    /// Every row count of the micro-kernel gives an element the six-row
    /// kernel's rounding — that is what keeps SIMD outputs independent of
    /// how thread chunking and the matrix edge group rows into tiles.
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    #[test]
    fn every_row_count_matches_the_six_row_kernel_per_element() {
        if !simd_active() {
            return;
        }
        let (kc, lda) = (13, 17);
        let a: Vec<f32> = (0..6 * lda).map(|i| (i as f32 * 0.11).cos()).collect();
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
    }
}
