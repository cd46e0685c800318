//! The one sliding-window driver behind depthwise convolution and pooling:
//! [`window_into`] slides a `kh × kw` window over each CHW plane of `batch`
//! images and folds each output element's taps in `(ky, kx)` order with one
//! of three [`Fold`]s:
//!
//! - **depthwise**: from the channel's bias (or `0.0`), one multiply-add per
//!   tap, a padding tap multiplying an explicit `+0.0` — the history the GEMM
//!   driver gives a convolution element. Fused under
//!   [`simd_active`](crate::simd::simd_active), `acc + w·x` otherwise.
//! - **max**: an `f32::max` chain from `-inf` over the in-bounds taps. A
//!   padding tap holds `-inf`, which never replaces the accumulator (the
//!   chain never holds a NaN); the AVX2 `vmaxps(tap, acc)` keeps the
//!   accumulator on a NaN tap and on a `±0.0` tie, as the chain does.
//! - **avg**: the in-bounds sum from `+0.0` (a padding tap adds `+0.0`, which
//!   moves no such sum), divided by `kh·kw` inside and by the in-bounds tap
//!   count on the borders (`0.0` where there is none).
//!
//! Nothing else — vector width, row blocking, batch, thread split — reaches
//! an element, so outputs are bit-identical at any width and batch, and a
//! `simd` build's scalar body computes what the scalar build computes.
//!
//! A thread copies one plane at a time into a padded buffer ([`Site::Window`])
//! whose rows are cut into `sw` phases (padded columns `q, q + sw, ..`): one
//! `kx`'s taps over a run of output columns are then a contiguous slice at
//! any stride, and each input row, copied once, serves every output row whose
//! window covers it. The AVX2 body folds four output rows × two vectors in
//! registers through all taps (eight independent chains); the scalar body
//! sweeps a row once per tap. Planes split across the pool in contiguous
//! runs above the GEMM's small-work cutoff.

use gillis_pool::{Pool, Task};

use crate::gemm::{self, Im2col};
use crate::scratch::{self, Site};

/// How an output element folds the taps of its window.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Fold<'a> {
    /// Depthwise convolution with `[c, kh, kw]` filters and a `[c]` bias.
    Depthwise {
        weight: &'a [f32],
        bias: Option<&'a [f32]>,
    },
    /// Max pooling.
    Max,
    /// Average pooling, padding excluded from the divisor.
    Avg,
}

/// [`Fold`] tags, as const parameters of the row bodies.
const DEPTHWISE: u8 = 0;
const MAX: u8 = 1;
const AVG: u8 = 2;

/// Output columns per vector of the AVX2 body.
const LANES: usize = 8;
/// Output rows folded together, so narrow planes still give the AVX2 body
/// eight independent multiply-add chains.
const BAND: usize = 4;

/// The padded, phase-split copy of one plane: `rows` rows of `sw` phases of
/// `lv` entries; entry `j` of phase `q` of row `r` is padded element
/// `(r, q + j·sw)`.
struct Padded {
    rows: usize,
    lv: usize,
    row_len: usize,
}

impl Padded {
    fn new(g: &Im2col) -> Self {
        let ((kh, kw), (sh, sw)) = (g.kernel, g.stride);
        // A whole vector of output columns stays inside every tap's phase.
        let lv = g.out_hw.1.next_multiple_of(LANES) + (kw - 1) / sw;
        Padded {
            rows: (g.out_hw.0 - 1) * sh + kh,
            lv,
            row_len: sw * lv,
        }
    }

    /// Copies `plane` into `buf`, `pad` wherever the padded plane lies off
    /// the input.
    fn fill(&self, g: &Im2col, plane: &[f32], pad: f32, buf: &mut [f32]) {
        let ((in_h, in_w), (pt, pl), sw) = (g.in_hw, g.pad_tl, g.stride.1);
        for (r, row) in buf.chunks_exact_mut(self.row_len).enumerate() {
            let Some(iy) = r.checked_sub(pt).filter(|&iy| iy < in_h) else {
                row.fill(pad);
                continue;
            };
            let src = &plane[iy * in_w..][..in_w];
            for (q, phase) in row.chunks_exact_mut(self.lv).enumerate() {
                // Entries `lo .. hi` hold input columns `q + j·sw − pl`.
                let lo = pl.saturating_sub(q).div_ceil(sw).min(self.lv);
                let hi = (in_w + pl)
                    .saturating_sub(q)
                    .div_ceil(sw)
                    .clamp(lo, self.lv);
                phase[..lo].fill(pad);
                phase[hi..].fill(pad);
                if lo == hi {
                    continue;
                }
                let (src, dst) = (&src[q + lo * sw - pl..], &mut phase[lo..hi]);
                let last = dst.len() - 1;
                match sw {
                    1 => dst.copy_from_slice(&src[..dst.len()]),
                    // (Pairs, so the compiler sees the stride.)
                    2 => {
                        for (d, pair) in dst[..last].iter_mut().zip(src.chunks_exact(2)) {
                            *d = pair[0];
                        }
                        dst[last] = src[2 * last];
                    }
                    _ => dst
                        .iter_mut()
                        .zip(src.iter().step_by(sw))
                        .for_each(|(d, s)| *d = *s),
                }
            }
        }
    }
}

/// Slides `g`'s window over the `batch × g.channels` planes of `inputs`
/// (`batch` CHW images back to back) and writes every output element,
/// folded as `fold` says, into `outs` (`batch` outputs of
/// `g.channels × out_h × out_w`).
///
/// # Panics
///
/// Panics if a buffer length is inconsistent with `batch` and `g`.
pub(crate) fn window_into(inputs: &[f32], batch: usize, g: &Im2col, fold: Fold, outs: &mut [f32]) {
    let planes = batch * g.channels;
    assert_eq!(
        inputs.len(),
        planes * g.in_hw.0 * g.in_hw.1,
        "inputs must be batch CHW"
    );
    assert_eq!(outs.len(), planes * g.n(), "outs must be batch outputs");
    if let Fold::Depthwise { weight, bias } = fold {
        assert_eq!(weight.len(), g.k(), "weight must be [c, kh, kw]");
        assert!(
            bias.is_none_or(|b| b.len() == g.channels),
            "bias must be [c]"
        );
    }
    let taps = (planes * g.n()).saturating_mul(g.kernel.0 * g.kernel.1);
    let threads = gemm::gemm_threads(taps).clamp(1, planes.max(1));
    if threads == 1 {
        return fold_planes(g, fold, inputs, 0, outs);
    }
    let per = planes.div_ceil(threads);
    let tasks: Vec<Task> = outs
        .chunks_mut(per * g.n())
        .enumerate()
        .map(|(t, outs)| -> Task { Box::new(move || fold_planes(g, fold, inputs, t * per, outs)) })
        .collect();
    Pool::global().join_all(tasks);
}

/// Folds planes `p0 ..` — as many as `outs` holds — on the calling thread.
fn fold_planes(g: &Im2col, fold: Fold, inputs: &[f32], p0: usize, outs: &mut [f32]) {
    let padded = Padded::new(g);
    let mut buf = scratch::take(Site::Window);
    let need = padded.rows * padded.row_len;
    if buf.len() < need {
        buf.resize(need, 0.0);
    }
    let (in_plane, out_w, taps) = (g.in_hw.0 * g.in_hw.1, g.out_hw.1, g.kernel.0 * g.kernel.1);
    let pad = match fold {
        Fold::Max => f32::NEG_INFINITY,
        _ => 0.0,
    };
    for (p, out) in (p0..).zip(outs.chunks_exact_mut(g.n())) {
        let plane = &inputs[p * in_plane..][..in_plane];
        padded.fill(g, plane, pad, &mut buf[..need]);
        for (band, out) in out.chunks_mut(BAND * out_w).enumerate() {
            let oy0 = band * BAND;
            let src = &buf[oy0 * g.stride.0 * padded.row_len..need];
            match fold {
                Fold::Depthwise { weight, bias } => {
                    let (ch, padded) = (p % g.channels, &padded);
                    let w = &weight[ch * taps..][..taps];
                    let init = bias.map_or(0.0, |b| b[ch]);
                    fold_rows::<DEPTHWISE>((g, padded, w, init), src, out);
                }
                Fold::Max => fold_rows::<MAX>((g, &padded, &[], f32::NEG_INFINITY), src, out),
                Fold::Avg => {
                    fold_rows::<AVG>((g, &padded, &[], 0.0), src, out);
                    for (oy, out) in (oy0..).zip(out.chunks_exact_mut(out_w)) {
                        divide_avg(g, oy, out);
                    }
                }
            }
        }
    }
    scratch::put(Site::Window, buf);
}

/// What the rows of one plane share: the geometry, the padded layout, the
/// channel's `kh·kw` filter taps (depthwise only) and the initial value.
type Taps<'a> = (&'a Im2col, &'a Padded, &'a [f32], f32);

/// Folds consecutive output rows — as many as `out` holds — from `src`, the
/// padded plane from the first row's first window row on.
fn fold_rows<const F: u8>(taps: Taps, src: &[f32], out: &mut [f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if crate::simd::simd_active() {
        // SAFETY: simd_active() verified AVX2+FMA at runtime, and every
        // caller passes `Padded::new` of the geometry it passes.
        return unsafe { avx2::fold_rows::<F>(taps, src, out) };
    }
    let (g, padded, w, init) = taps;
    let ((kh, kw), (sh, sw)) = (g.kernel, g.stride);
    for (r, out) in out.chunks_exact_mut(g.out_hw.1).enumerate() {
        out.fill(init);
        for ky in 0..kh {
            let row = &src[(r * sh + ky) * padded.row_len..][..padded.row_len];
            for kx in 0..kw {
                let taps = &row[kx % sw * padded.lv + kx / sw..][..out.len()];
                let wt = w.get(ky * kw + kx).copied().unwrap_or(0.0);
                for (acc, &x) in out.iter_mut().zip(taps) {
                    *acc = match F {
                        DEPTHWISE => *acc + wt * x,
                        MAX => acc.max(x),
                        _ => *acc + x,
                    };
                }
            }
        }
    }
}

/// Turns output row `oy`'s window sums into means over the in-bounds taps.
fn divide_avg(g: &Im2col, oy: usize, out: &mut [f32]) {
    // In-bounds taps of window `o` (stride `s`, extent `k`) over `n` inputs
    // after `p` padding.
    let inside = |o: usize, k: usize, s: usize, p: usize, n: usize| {
        (o * s + k).min(p + n).saturating_sub((o * s).max(p))
    };
    let ((kh, kw), (sh, sw), (pt, pl), (in_h, in_w)) = (g.kernel, g.stride, g.pad_tl, g.in_hw);
    let rows = inside(oy, kh, sh, pt, in_h);
    for (ox, acc) in out.iter_mut().enumerate() {
        let taps = rows * inside(ox, kw, sw, pl, in_w);
        *acc = if taps == 0 { 0.0 } else { *acc / taps as f32 };
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::{Taps, BAND, DEPTHWISE, LANES, MAX};
    use std::arch::x86_64::*;

    /// AVX2 body of [`super::fold_rows`]: a full band of [`BAND`] rows at
    /// once, a shorter one row by row.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA, and the layout in `taps` must be
    /// `Padded::new` of its geometry: its phases are then a whole number of
    /// vectors longer than any row's last tap, so every load of a block
    /// stays inside the rows the assertion below checks.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn fold_rows<const F: u8>(taps: Taps, src: &[f32], out: &mut [f32]) {
        let (g, padded, ..) = taps;
        let ((kh, sh), out_w) = ((g.kernel.0, g.stride.0), g.out_hw.1);
        let rows = out.len() / out_w;
        assert!(src.len() >= ((rows - 1) * sh + kh) * padded.row_len);
        if rows == BAND {
            return band::<F, BAND>(taps, src.as_ptr(), out);
        }
        for (r, out) in out.chunks_exact_mut(out_w).enumerate() {
            band::<F, 1>(taps, src[r * sh * padded.row_len..].as_ptr(), out);
        }
    }

    /// `R` output rows (`out`, at stride `out_w`) from `src` on: blocks of
    /// two vectors of columns, one, then the last partial vector through a
    /// stack copy (a phase is long enough to read it whole).
    ///
    /// # Safety
    ///
    /// As [`fold_rows`]; `src` must hold the `R` rows' padded rows.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn band<const F: u8, const R: usize>(taps: Taps, src: *const f32, out: &mut [f32]) {
        let (out_w, dst, mut ox) = (taps.0.out_hw.1, out.as_mut_ptr(), 0);
        while ox + 2 * LANES <= out_w {
            block::<F, R, 2>(taps, src.add(ox), dst.add(ox), out_w);
            ox += 2 * LANES;
        }
        if ox + LANES <= out_w {
            block::<F, R, 1>(taps, src.add(ox), dst.add(ox), out_w);
            ox += LANES;
        }
        if ox < out_w {
            let mut tail = [[0.0f32; LANES]; R];
            block::<F, R, 1>(taps, src.add(ox), tail.as_mut_ptr().cast(), LANES);
            for (out, tail) in out[ox..].chunks_mut(out_w).zip(&tail) {
                out[..out_w - ox].copy_from_slice(&tail[..out_w - ox]);
            }
        }
    }

    /// `R` rows × `V` vectors of output columns from `src` through every
    /// tap, written at `out` with row stride `ld`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 and FMA; the taps of `V·LANES` columns of
    /// the `R` rows from `src` must lie inside the padded rows, and `out`
    /// must be valid for `R` rows of `V·LANES` writes at stride `ld`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn block<const F: u8, const R: usize, const V: usize>(
        (g, padded, w, init): Taps,
        src: *const f32,
        out: *mut f32,
        ld: usize,
    ) {
        let ((kh, kw), (sh, sw)) = (g.kernel, g.stride);
        let mut acc = [[_mm256_set1_ps(init); V]; R];
        for ky in 0..kh {
            // Tap column `kx` starts at `phase·lv + shift` of a padded row.
            let (mut phase, mut shift) = (0, 0);
            for kx in 0..kw {
                let wt = match F {
                    DEPTHWISE => _mm256_broadcast_ss(&w[ky * kw + kx]),
                    _ => _mm256_setzero_ps(),
                };
                for (r, acc) in acc.iter_mut().enumerate() {
                    let taps = src.add((r * sh + ky) * padded.row_len + phase * padded.lv + shift);
                    for (v, acc) in acc.iter_mut().enumerate() {
                        let x = _mm256_loadu_ps(taps.add(v * LANES));
                        *acc = match F {
                            DEPTHWISE => _mm256_fmadd_ps(wt, x, *acc),
                            MAX => _mm256_max_ps(x, *acc),
                            _ => _mm256_add_ps(*acc, x),
                        };
                    }
                }
                phase += 1;
                if phase == sw {
                    (phase, shift) = (0, shift + 1);
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            for (v, acc) in acc.iter().enumerate() {
                _mm256_storeu_ps(out.add(r * ld + v * LANES), *acc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::madd;
    use proptest::prelude::*;

    /// Every element folded on its own, straight from the module docs.
    fn naive(x: &[f32], g: &Im2col, fold: Fold) -> Vec<f32> {
        let ((in_h, in_w), (kh, kw), (sh, sw)) = (g.in_hw, g.kernel, g.stride);
        let mut out = Vec::new();
        for (ch, plane) in x.chunks_exact(in_h * in_w).enumerate() {
            let ch = ch % g.channels;
            for oy in 0..g.out_hw.0 {
                for ox in 0..g.out_hw.1 {
                    let mut acc = match fold {
                        Fold::Depthwise { bias, .. } => bias.map_or(0.0, |b| b[ch]),
                        Fold::Max => f32::NEG_INFINITY,
                        Fold::Avg => 0.0,
                    };
                    let mut inside = 0;
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * sh + ky).wrapping_sub(g.pad_tl.0);
                            let ix = (ox * sw + kx).wrapping_sub(g.pad_tl.1);
                            let tap = (iy < in_h && ix < in_w).then(|| plane[iy * in_w + ix]);
                            inside += usize::from(tap.is_some());
                            acc = match (fold, tap) {
                                (Fold::Depthwise { weight, .. }, _) => {
                                    let w = weight[(ch * kh + ky) * kw + kx];
                                    madd(w, tap.unwrap_or(0.0), acc)
                                }
                                (Fold::Max, Some(v)) => acc.max(v),
                                (Fold::Avg, Some(v)) => acc + v,
                                (_, None) => acc,
                            };
                        }
                    }
                    out.push(match (fold, inside) {
                        (Fold::Avg, 0) => 0.0,
                        (Fold::Avg, n) => acc / n as f32,
                        _ => acc,
                    });
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Batches of several images, any kernel and stride, padding up to
        /// wider than the window (whole windows and phases off the input),
        /// and rows from a partial vector up to several blocks: every fold
        /// is its element-by-element definition, and a batch's items are
        /// the items run alone.
        #[test]
        fn every_fold_is_its_definition_at_any_batch(
            (batch, channels) in (1usize..4, 1usize..4),
            (in_h, in_w) in (1usize..12, 1usize..40),
            kernel in (1usize..6, 1usize..6),
            stride in (1usize..4, 1usize..4),
            (top, left, bottom, right) in (0usize..6, 0usize..6, 0usize..3, 0usize..3),
            seed in 0u32..1000,
        ) {
            let (h, w) = (in_h + top + bottom, in_w + left + right);
            prop_assume!(h >= kernel.0 && w >= kernel.1);
            let g = Im2col {
                channels,
                in_hw: (in_h, in_w),
                kernel,
                stride,
                pad_tl: (top, left),
                out_hw: ((h - kernel.0) / stride.0 + 1, (w - kernel.1) / stride.1 + 1),
            };
            let pseudo = |i: usize, s: u32| {
                ((i as u32 ^ s).wrapping_mul(2654435761) % 2001) as f32 * 1e-3 - 1.0
            };
            let item = channels * in_h * in_w;
            let x: Vec<f32> = (0..batch * item).map(|i| pseudo(i, seed)).collect();
            let weight: Vec<f32> = (0..g.k()).map(|i| pseudo(i, seed ^ 0xbeef)).collect();
            let bias: Vec<f32> = (0..channels).map(|i| pseudo(i, seed ^ 0x77)).collect();
            let folds = [
                Fold::Depthwise { weight: &weight, bias: Some(&bias) },
                Fold::Depthwise { weight: &weight, bias: None },
                Fold::Max,
                Fold::Avg,
            ];
            for fold in folds {
                let mut got = vec![f32::NAN; batch * g.n() * channels];
                window_into(&x, batch, &g, fold, &mut got);
                prop_assert_eq!(bits(&got), bits(&naive(&x, &g, fold)), "{:?}", fold);
                for (x, want) in x.chunks(item).zip(got.chunks(g.n() * channels)) {
                    let mut alone = vec![f32::NAN; want.len()];
                    window_into(x, 1, &g, fold, &mut alone);
                    prop_assert_eq!(bits(&alone), bits(want));
                }
            }
        }
    }

    /// A layer big enough to split across the pool computes what one thread
    /// does.
    #[test]
    fn the_thread_split_leaves_no_trace() {
        let g = Im2col {
            channels: 24,
            in_hw: (30, 45),
            kernel: (3, 3),
            stride: (2, 1),
            pad_tl: (1, 1),
            out_hw: (15, 45),
        };
        let x: Vec<f32> = (0..24 * 30 * 45).map(|i| (i % 101) as f32 * 0.01).collect();
        let weight: Vec<f32> = (0..g.k()).map(|i| (i % 7) as f32 * 0.1 - 0.3).collect();
        let fold = Fold::Depthwise {
            weight: &weight,
            bias: None,
        };
        let mut wide = vec![0.0; 24 * g.n()];
        window_into(&x, 1, &g, fold, &mut wide);
        let mut one = vec![0.0; 24 * g.n()];
        gillis_pool::with_width_cap(1, || window_into(&x, 1, &g, fold, &mut one));
        assert_eq!(bits(&wide), bits(&one));
        assert_eq!(bits(&one), bits(&naive(&x, &g, fold)));
    }
}
