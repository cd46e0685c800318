//! Depthwise 2-D convolution: one filter per channel.
//!
//! Depthwise convolutions (MobileNet-style) are *channel-local*: output
//! channel `c` depends only on input channel `c`. For Gillis this is the
//! best of both worlds — a depthwise layer chains through both spatial
//! partitions (it is convolution-like) and channel partitions (it is
//! channel-local), so it never breaks a group.
//!
//! The kernel is the sliding-window driver shared with pooling
//! (`ops/window.rs`): an output element takes the channel's bias, then one
//! multiply-add per tap in `(ky, kx)` order with padding taps multiplying an
//! explicit `+0.0` — the per-element history the GEMM driver gives a full
//! convolution, so the two agree to the bit in either arithmetic mode.

use super::conv::{conv2d_output_hw, lowering};
use super::window::{check_window, window_into, Fold};
use super::Conv2dParams;
use crate::error::TensorError;
use crate::gemm::Epilogue;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Depthwise convolution: `input` is `CHW`, `weight` is `[c, kh, kw]` (one
/// filter per channel), `bias` is `[c]` (optional).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for inconsistent shapes, a
/// kernel larger than the padded input, or a window the window driver does
/// not fold (wider than [`MAX_KW`](crate::simd::MAX_KW) or at a column
/// stride above [`MAX_SW`](crate::simd::MAX_SW)), and
/// [`TensorError::ShapeMismatch`] for a bias of the wrong length.
pub fn depthwise_conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let in_dims = input.shape().dims();
    let w_dims = weight.shape().dims();
    if in_dims.len() != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "depthwise input must be CHW, got rank {}",
            in_dims.len()
        )));
    }
    if w_dims.len() != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "depthwise weight must be [c, kh, kw], got rank {}",
            w_dims.len()
        )));
    }
    let (c, in_h, in_w) = (in_dims[0], in_dims[1], in_dims[2]);
    if w_dims[0] != c {
        return Err(TensorError::InvalidArgument(format!(
            "depthwise weight has {} filters for {c} channels",
            w_dims[0]
        )));
    }
    if (w_dims[1], w_dims[2]) != params.kernel {
        return Err(TensorError::InvalidArgument(format!(
            "weight kernel ({}, {}) != declared kernel {:?}",
            w_dims[1], w_dims[2], params.kernel
        )));
    }
    if let Some(b) = bias {
        if b.shape().dims() != [c] {
            return Err(TensorError::ShapeMismatch {
                expected: Shape::new(vec![c]),
                actual: b.shape().clone(),
            });
        }
    }
    check_window(params.kernel, params.stride)?;
    let (out_h, out_w) = conv2d_output_hw((in_h, in_w), params).ok_or_else(|| {
        TensorError::InvalidArgument(format!(
            "padded input ({in_h}, {in_w}) smaller than kernel {:?}",
            params.kernel
        ))
    })?;
    let mut out = vec![0.0f32; c * out_h * out_w];
    depthwise_conv2d_into(
        input.data(),
        1,
        c,
        in_h,
        in_w,
        weight.data(),
        bias.map(|b| b.data()),
        params,
        (out_h, out_w),
        &mut out,
        &[],
    );
    Tensor::from_vec(Shape::new(vec![c, out_h, out_w]), out)
}

/// Depthwise convolution of `batch` CHW inputs (laid out back to back in
/// `inputs`) over raw buffers, writing `batch` outputs of
/// `c · out_h · out_w` into `outs` — the compiled-partition hot path (shapes
/// are validated once at compile time, so the per-query call just computes),
/// and what [`depthwise_conv2d`] runs at `batch = 1`.
///
/// The window driver (`ops/window.rs`) gives every output element the
/// history a convolution element has in the GEMM driver: the channel's bias,
/// then one multiply-add per tap in `(ky, kx)` order, a padding tap
/// multiplying an explicit `+0.0` (fused under
/// [`simd_active`](crate::simd::simd_active)). So each item's output is
/// bit-identical to convolving it alone, at any thread count, and a warmed
/// thread performs no heap allocation here. `epilogue` rewrites each output
/// plane right after the driver folds it.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent with the dimensions, or if
/// [`depthwise_conv2d`] would reject the window.
#[allow(clippy::too_many_arguments)]
pub fn depthwise_conv2d_into(
    inputs: &[f32],
    batch: usize,
    c: usize,
    in_h: usize,
    in_w: usize,
    w: &[f32],
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    out_hw: (usize, usize),
    outs: &mut [f32],
    epilogue: &[Epilogue],
) {
    let geom = lowering(c, in_h, in_w, params, out_hw);
    let fold = Fold::Depthwise { weight: w, bias };
    window_into(inputs, batch, &geom, (fold, epilogue), outs, None);
}

/// Reference per-channel loop the window driver is validated against: bias
/// first, then one multiply-add of the active mode ([`crate::simd::madd`])
/// per tap in `(ky, kx)` order, a padding tap multiplying an explicit `0.0`.
#[cfg(test)]
pub(crate) fn depthwise_conv2d_naive(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let in_dims = input.shape().dims();
    let (c, in_h, in_w) = (in_dims[0], in_dims[1], in_dims[2]);
    let (out_h, out_w) = conv2d_output_hw((in_h, in_w), params).unwrap();
    let (kh, kw) = params.kernel;
    let (sh, sw) = params.stride;
    let x = input.data();
    let w = weight.data();
    let mut out = Vec::with_capacity(c * out_h * out_w);
    for ch in 0..c {
        let b = bias.map(|b| b.data()[ch]).unwrap_or(0.0);
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = b;
                for ky in 0..kh {
                    for kx in 0..kw {
                        let iy = (oy * sh + ky).wrapping_sub(params.padding.top);
                        let ix = (ox * sw + kx).wrapping_sub(params.padding.left);
                        let v = if iy < in_h && ix < in_w {
                            x[(ch * in_h + iy) * in_w + ix]
                        } else {
                            0.0
                        };
                        acc = crate::simd::madd(w[(ch * kh + ky) * kw + kx], v, acc);
                    }
                }
                out.push(acc);
            }
        }
    }
    Tensor::from_vec(Shape::new(vec![c, out_h, out_w]), out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::conv2d;
    use crate::ops::Padding;
    use crate::simd::{MAX_KW, MAX_SW};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Asymmetric padding (a halo slice), kernels up to the full
        /// `MAX_KW` columns, row strides 1 to 3 and column strides 1 and 2,
        /// and rows long enough for the two-vector blocks, single vectors
        /// and a partial vector of the vector body.
        #[test]
        fn window_path_matches_naive_reference_bitwise(
            c in 1usize..6,
            (in_h, in_w) in (3usize..10, 3usize..80),
            (kh, kw) in (1usize..6, 1usize..=MAX_KW),
            stride in (1usize..4, 1usize..=MAX_SW),
            (top, bottom, left, right) in (0usize..3, 0usize..3, 0usize..3, 0usize..3),
            seed in 0u32..1000,
        ) {
            let padding = Padding { top, bottom, left, right };
            let params = Conv2dParams { kernel: (kh, kw), stride, padding };
            prop_assume!(conv2d_output_hw((in_h, in_w), &params).is_some());
            let pseudo = |i: usize, s: u32| {
                ((i as u32 ^ s).wrapping_mul(2654435761) % 2001) as f32 * 1e-3 - 1.0
            };
            let input =
                Tensor::from_fn(Shape::new(vec![c, in_h, in_w]), |i| pseudo(i, seed));
            let weight = Tensor::from_fn(Shape::new(vec![c, kh, kw]), |i| {
                pseudo(i, seed ^ 0xbeef)
            });
            let bias = Tensor::from_fn(Shape::new(vec![c]), |i| pseudo(i, seed ^ 0x77));
            let fast = depthwise_conv2d(&input, &weight, Some(&bias), &params).unwrap();
            let naive = depthwise_conv2d_naive(&input, &weight, Some(&bias), &params).unwrap();
            let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&fast), bits(&naive));
        }
    }

    #[test]
    fn matches_block_diagonal_full_convolution() {
        // A depthwise conv equals a full conv whose filter bank is
        // block-diagonal across channels.
        let input = Tensor::from_fn(Shape::new(vec![3, 6, 6]), |i| ((i * 7) % 11) as f32 * 0.1);
        let dw_weight = Tensor::from_fn(Shape::new(vec![3, 3, 3]), |i| ((i * 5) % 13) as f32 * 0.1);
        let bias = Tensor::from_fn(Shape::new(vec![3]), |i| i as f32);
        let params = Conv2dParams::square(3, 1, 1);
        let dw = depthwise_conv2d(&input, &dw_weight, Some(&bias), &params).unwrap();

        let mut full_w = Tensor::zeros(Shape::new(vec![3, 3, 3, 3]));
        for c in 0..3usize {
            for k in 0..9usize {
                let v = dw_weight.data()[c * 9 + k];
                full_w.data_mut()[c * 27 + c * 9 + k] = v;
            }
        }
        let full = conv2d(&input, &full_w, Some(&bias), &params).unwrap();
        assert!(dw.max_abs_diff(&full).unwrap() < 1e-5);
    }

    #[test]
    fn channel_partition_is_exact() {
        // The channel-local property: slicing input channels and weights
        // slices the output exactly.
        let input = Tensor::from_fn(Shape::new(vec![4, 5, 5]), |i| (i as f32).sin());
        let weight = Tensor::from_fn(Shape::new(vec![4, 3, 3]), |i| (i as f32 * 0.3).cos());
        let params = Conv2dParams::square(3, 1, 1);
        let full = depthwise_conv2d(&input, &weight, None, &params).unwrap();
        let mut parts = Vec::new();
        for p in 0..2 {
            let ins = input.slice(0, p * 2..(p + 1) * 2).unwrap();
            let ws = weight.slice(0, p * 2..(p + 1) * 2).unwrap();
            parts.push(depthwise_conv2d(&ins, &ws, None, &params).unwrap());
        }
        let stitched = Tensor::concat(&parts, 0).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-6);
    }

    #[test]
    fn spatial_partition_with_halo_is_exact() {
        let input = Tensor::from_fn(Shape::new(vec![2, 8, 8]), |i| ((i * 13) % 7) as f32);
        let weight = Tensor::from_fn(Shape::new(vec![2, 3, 3]), |i| (i % 4) as f32 * 0.25);
        let sym = Conv2dParams::square(3, 1, 1);
        let full = depthwise_conv2d(&input, &weight, None, &sym).unwrap();
        let top_in = input.slice(1, 0..5).unwrap();
        let bot_in = input.slice(1, 3..8).unwrap();
        let p_top = Conv2dParams {
            kernel: (3, 3),
            stride: (1, 1),
            padding: Padding {
                top: 1,
                bottom: 0,
                left: 1,
                right: 1,
            },
        };
        let p_bot = Conv2dParams {
            kernel: (3, 3),
            stride: (1, 1),
            padding: Padding {
                top: 0,
                bottom: 1,
                left: 1,
                right: 1,
            },
        };
        let top = depthwise_conv2d(&top_in, &weight, None, &p_top).unwrap();
        let bot = depthwise_conv2d(&bot_in, &weight, None, &p_bot).unwrap();
        let stitched = Tensor::concat(&[top, bot], 1).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-6);
    }

    #[test]
    fn rejects_bad_shapes() {
        let input = Tensor::zeros(Shape::new(vec![3, 4, 4]));
        let wrong_c = Tensor::zeros(Shape::new(vec![2, 3, 3]));
        let params = Conv2dParams::square(3, 1, 1);
        assert!(depthwise_conv2d(&input, &wrong_c, None, &params).is_err());
        let w = Tensor::zeros(Shape::new(vec![3, 3, 3]));
        let bad_bias = Tensor::zeros(Shape::new(vec![5]));
        assert!(depthwise_conv2d(&input, &w, Some(&bad_bias), &params).is_err());
        let flat = Tensor::zeros(Shape::new(vec![4]));
        assert!(depthwise_conv2d(&flat, &w, None, &params).is_err());
    }
}
