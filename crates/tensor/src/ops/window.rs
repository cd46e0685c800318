//! The one sliding-window driver behind depthwise convolution and max
//! pooling: [`window_into`] slides a `kh × kw` window over each CHW plane of
//! `batch` images and folds each output element's taps in `(ky, kx)` order
//! with one of two [`Fold`]s:
//!
//! - **depthwise**: from the channel's bias (or `0.0`), one multiply-add per
//!   tap, a padding tap multiplying an explicit `+0.0` — the history the GEMM
//!   driver gives a convolution element. Fused under
//!   [`simd_active`](crate::simd::simd_active), `acc + w·x` otherwise.
//! - **max**: an `f32::max` chain from `-inf` over the in-bounds taps. A
//!   padding tap holds `-inf`, which never replaces the accumulator (the
//!   chain never holds a NaN); `vmaxps(tap, acc)` keeps the accumulator on a
//!   NaN tap and on a `±0.0` tie, as the chain does.
//!
//! Each plane then takes the caller's [`Epilogue`]. Nothing else — vector
//! width, row blocking, batch, thread split — reaches an element, so outputs
//! are bit-identical at any width and batch, and a `simd` build's bodies
//! compute what the scalar build computes.
//!
//! One body folds every plane: the vector body (`simd.rs`), in zmm registers
//! under AVX-512F, ymm under AVX2, and four portable lanes elsewhere. It
//! reads the plane where it lies and synthesises the padding (a tap row off
//! the plane, or a tap column off a row, is the padding value, never
//! stored), folds four output rows × two vectors in registers through all
//! taps, loads a block's taps plainly where they all lie on the plane and
//! masked at its edges, and reads a stride-2 tap as two vectors' even lanes.
//! So it takes any row stride but only windows up to
//! [`MAX_KW`](crate::simd::MAX_KW) columns wide at a column stride of at
//! most [`MAX_SW`](crate::simd::MAX_SW). Every catalog layer is such a
//! window; any other is rejected where it enters: by `Graph::add` in
//! `gillis-model`, with `InvalidArgument` by `depthwise_conv2d` and
//! `max_pool2d`, and by an assertion in [`window_into`], which the `unsafe`
//! call into the body relies on. Planes split across the pool in contiguous
//! runs above the GEMM's small-work cutoff.

use gillis_pool::Pool;

use crate::error::TensorError;
use crate::gemm::{self, epilogue_rows, Epilogue, Im2col};
use crate::simd::{MAX_KW, MAX_SW};
use crate::Result;

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
}

/// [`Fold`] tags, as const parameters of the bodies.
pub(crate) const DEPTHWISE: u8 = 0;
pub(crate) const MAX: u8 = 1;

/// The vector body's lanes: four portable ones (unfused, for a build or CPU
/// without AVX2), ymm (AVX2 and FMA) or zmm (AVX-512F) registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    Quad,
    Ymm,
    Zmm,
}

impl Body {
    /// The bodies this process runs, the widest last.
    fn available() -> &'static [Body] {
        use crate::simd::{avx512_active, simd_active};
        match (simd_active(), avx512_active()) {
            (_, true) => &[Body::Ymm, Body::Zmm],
            (true, false) => &[Body::Ymm],
            _ => &[Body::Quad],
        }
    }
}

/// Rejects a window the driver does not fold.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] unless the window is at most
/// [`MAX_KW`] columns wide, at a column stride from 1 to [`MAX_SW`].
pub(crate) fn check_window(kernel: (usize, usize), stride: (usize, usize)) -> Result<()> {
    if kernel.1 <= MAX_KW && (1..=MAX_SW).contains(&stride.1) {
        return Ok(());
    }
    Err(TensorError::InvalidArgument(format!(
        "window {kernel:?} at stride {stride:?} is not foldable: at most {MAX_KW} columns \
         wide, at a column stride from 1 to {MAX_SW}"
    )))
}

/// Slides `g`'s window over the `batch × g.channels` planes of `inputs`
/// (`batch` CHW images back to back) and writes every output element,
/// folded as `fold` says and then rewritten by `epilogue` (plane `p` being
/// channel `p % g.channels`), into `outs` (`batch` outputs of
/// `g.channels × out_h × out_w`), on `threads` threads or, for `None`, as
/// many as the GEMM's small-work cutoff gives.
///
/// # Panics
///
/// Panics if a buffer length is inconsistent with `batch` and `g`, or if
/// the window is wider than [`MAX_KW`] columns or its column stride is not
/// 1 to [`MAX_SW`] — the vector body's precondition, so checked in every
/// build.
pub(crate) fn window_into(
    inputs: &[f32],
    batch: usize,
    g: &Im2col,
    (fold, epilogue): (Fold, &[Epilogue]),
    outs: &mut [f32],
    threads: Option<usize>,
) {
    check_window(g.kernel, g.stride).expect("the vector body folds every window it is given");
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
    let threads = threads.unwrap_or_else(|| gemm::gemm_threads(taps));
    let threads = threads.clamp(1, planes.max(1));
    if threads == 1 {
        return fold_planes(g, (fold, epilogue), inputs, 0, outs);
    }
    let per = planes.div_ceil(threads);
    let chunks = outs.chunks_mut(per * g.n()).enumerate();
    Pool::global().for_each_item(chunks, |(t, outs)| {
        fold_planes(g, (fold, epilogue), inputs, t * per, outs);
    });
}

/// Folds planes `p0 ..` — as many as `outs` holds — on the calling thread.
fn fold_planes(
    g: &Im2col,
    (fold, epilogue): (Fold, &[Epilogue]),
    inputs: &[f32],
    p0: usize,
    outs: &mut [f32],
) {
    let in_plane = g.in_hw.0 * g.in_hw.1;
    for (p, out) in (p0..).zip(outs.chunks_exact_mut(g.n())) {
        let (plane, ch) = (&inputs[p * in_plane..][..in_plane], p % g.channels);
        fold_plane(Body::Zmm, g, fold, (plane, ch), out);
        // SAFETY: `out` is one exclusively borrowed plane.
        unsafe { epilogue_rows(epilogue, ch, out.as_mut_ptr(), (1, out.len(), 0)) };
    }
}

/// Folds `plane`, of channel `ch`, into `out` with `body` if this process
/// runs it, else with the widest body it runs. `g` is a window
/// [`window_into`] accepts.
fn fold_plane(body: Body, g: &Im2col, fold: Fold, (plane, ch): (&[f32], usize), out: &mut [f32]) {
    let bodies = Body::available();
    let body = if bodies.contains(&body) {
        body
    } else {
        bodies[bodies.len() - 1]
    };
    let taps = g.kernel.0 * g.kernel.1;
    let (f, wi) = match fold {
        Fold::Depthwise { weight, bias } => (
            DEPTHWISE,
            (&weight[ch * taps..][..taps], bias.map_or(0.0, |b| b[ch])),
        ),
        Fold::Max => (MAX, (&[][..], f32::NEG_INFINITY)),
    };
    // SAFETY: the body is one this process runs, so the CPU has its
    // features, and `window_into` asserted the window at most MAX_KW wide.
    unsafe { vector(body, f, g.stride.1)(g, plane, wi, out) }
}

/// One instance of the vector body: a plane's geometry, input, weights and
/// output.
type Vector = unsafe fn(&Im2col, &[f32], Weights, &mut [f32]);

/// The instance of the vector body that folds `f` at column stride `sw`
/// (1 or 2) in `body`'s lanes.
fn vector(body: Body, f: u8, sw: usize) -> Vector {
    macro_rules! at_stride {
        ($body:ident) => {
            match (f, sw) {
                (DEPTHWISE, 1) => crate::simd::$body::<DEPTHWISE, 1>,
                (DEPTHWISE, _) => crate::simd::$body::<DEPTHWISE, 2>,
                (_, 1) => crate::simd::$body::<MAX, 1>,
                _ => crate::simd::$body::<MAX, 2>,
            }
        };
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    match body {
        Body::Zmm => return at_stride!(window_plane512),
        Body::Ymm => return at_stride!(window_plane256),
        Body::Quad => {}
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = body;
    at_stride!(window_plane_quad)
}

/// A plane's filter taps (depthwise only) and its fold's initial value.
pub(crate) type Weights<'a> = (&'a [f32], f32);

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
                    };
                    for ky in 0..kh {
                        for kx in 0..kw {
                            let iy = (oy * sh + ky).wrapping_sub(g.pad_tl.0);
                            let ix = (ox * sw + kx).wrapping_sub(g.pad_tl.1);
                            let tap = (iy < in_h && ix < in_w).then(|| plane[iy * in_w + ix]);
                            acc = match (fold, tap) {
                                (Fold::Depthwise { weight, .. }, _) => {
                                    let w = weight[(ch * kh + ky) * kw + kx];
                                    madd(w, tap.unwrap_or(0.0), acc)
                                }
                                (Fold::Max, Some(v)) => acc.max(v),
                                (Fold::Max, None) => acc,
                            };
                        }
                    }
                    out.push(acc);
                }
            }
        }
        out
    }

    /// Every plane of `x` folded by `body` (no epilogue).
    fn fold_with(body: Body, x: &[f32], g: &Im2col, fold: Fold) -> Vec<f32> {
        let mut out = vec![f32::NAN; x.len() / (g.in_hw.0 * g.in_hw.1) * g.n()];
        let planes = x.chunks_exact(g.in_hw.0 * g.in_hw.1);
        for (p, (plane, out)) in planes.zip(out.chunks_exact_mut(g.n())).enumerate() {
            fold_plane(body, g, fold, (plane, p % g.channels), out);
        }
        out
    }

    /// Every body this process runs.
    fn bodies() -> impl Iterator<Item = Body> {
        Body::available().iter().copied()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Batches of several images, windows up to the full `MAX_KW`
        /// columns, row strides 1 to 3 and column strides 1 and 2, padding
        /// up to wider than the window (whole windows and phases off the
        /// input), and rows from a partial vector up to several blocks:
        /// every fold is its element-by-element definition in every body
        /// this CPU runs, and a batch's items are the items run alone.
        #[test]
        fn every_fold_is_its_definition_at_any_batch(
            (batch, channels) in (1usize..4, 1usize..4),
            (in_h, in_w) in (1usize..12, 1usize..40),
            kernel in (1usize..6, 1usize..=MAX_KW),
            stride in (1usize..4, 1usize..=MAX_SW),
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
            ];
            for fold in folds {
                let mut got = vec![f32::NAN; batch * g.n() * channels];
                window_into(&x, batch, &g, (fold, &[]), &mut got, None);
                prop_assert_eq!(bits(&got), bits(&naive(&x, &g, fold)), "{:?}", fold);
                for body in bodies() {
                    prop_assert_eq!(bits(&fold_with(body, &x, &g, fold)), bits(&got), "{:?}", body);
                }
                for (x, want) in x.chunks(item).zip(got.chunks(g.n() * channels)) {
                    let mut alone = vec![f32::NAN; want.len()];
                    window_into(x, 1, &g, (fold, &[]), &mut alone, None);
                    prop_assert_eq!(bits(&alone), bits(want));
                }
            }
        }
    }

    /// A window wider than its plane on both sides: some taps of every
    /// output element lie off the plane, and some tap columns meet no input
    /// column at all.
    #[test]
    fn a_window_wider_than_its_plane_reads_only_the_plane() {
        for (in_hw, stride) in [((1, 1), (1, 1)), ((3, 1), (1, 1)), ((1, 2), (3, 2))] {
            let g = Im2col {
                channels: 2,
                in_hw,
                kernel: (5, 5),
                stride,
                pad_tl: (2, 2),
                out_hw: ((in_hw.0 - 1) / stride.0 + 1, (in_hw.1 - 1) / stride.1 + 1),
            };
            let x: Vec<f32> = (0..2 * in_hw.0 * in_hw.1).map(|i| i as f32 - 1.5).collect();
            let weight: Vec<f32> = (0..g.k()).map(|i| (i % 7) as f32 * 0.25 - 0.5).collect();
            let bias = [0.5, -0.25];
            let folds = [
                Fold::Depthwise {
                    weight: &weight,
                    bias: Some(&bias),
                },
                Fold::Max,
            ];
            for fold in folds {
                let mut got = vec![f32::NAN; 2 * g.n()];
                window_into(&x, 1, &g, (fold, &[]), &mut got, None);
                let want = naive(&x, &g, fold);
                assert_eq!(bits(&got), bits(&want), "{fold:?} {in_hw:?}");
                for body in bodies() {
                    let got = fold_with(body, &x, &g, fold);
                    assert_eq!(bits(&got), bits(&want), "{body:?} {fold:?} {in_hw:?}");
                }
            }
        }
    }

    /// The driver refuses, in every build, a window its one body does not
    /// fold: here a column stride of 3.
    #[test]
    #[should_panic(expected = "not foldable")]
    fn a_column_stride_past_max_sw_panics() {
        let g = Im2col {
            channels: 1,
            in_hw: (4, 9),
            kernel: (3, 3),
            stride: (1, MAX_SW + 1),
            pad_tl: (0, 0),
            out_hw: (2, 3),
        };
        let mut out = vec![0.0; g.n()];
        window_into(&[0.0; 36], 1, &g, (Fold::Max, &[]), &mut out, Some(1));
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
        window_into(&x, 1, &g, (fold, &[]), &mut wide, None);
        let mut one = vec![0.0; 24 * g.n()];
        gillis_pool::with_width_cap(1, || window_into(&x, 1, &g, (fold, &[]), &mut one, None));
        assert_eq!(bits(&wide), bits(&one));
        assert_eq!(bits(&one), bits(&naive(&x, &g, fold)));
    }
}
