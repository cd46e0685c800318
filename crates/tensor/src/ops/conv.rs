//! 2-D convolution over `CHW` tensors.

use serde::{Deserialize, Serialize};

use super::Padding;
use crate::error::TensorError;
use crate::gemm::{self, Epilogue};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Parameters of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Conv2dParams {
    /// Kernel height and width.
    pub kernel: (usize, usize),
    /// Vertical and horizontal stride.
    pub stride: (usize, usize),
    /// Per-side zero padding.
    pub padding: Padding,
}

impl Conv2dParams {
    /// Square kernel with equal stride and symmetric padding — the common
    /// case in the paper's CNN zoo.
    pub fn square(kernel: usize, stride: usize, padding: usize) -> Self {
        Conv2dParams {
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: Padding::symmetric(padding),
        }
    }
}

/// Output spatial size of a convolution/pooling window sweep.
///
/// Returns `None` if the padded input is smaller than the kernel.
pub fn conv2d_output_hw(in_hw: (usize, usize), params: &Conv2dParams) -> Option<(usize, usize)> {
    let (kh, kw) = params.kernel;
    let (sh, sw) = params.stride;
    let h = in_hw.0 + params.padding.top + params.padding.bottom;
    let w = in_hw.1 + params.padding.left + params.padding.right;
    if h < kh || w < kw || sh == 0 || sw == 0 {
        return None;
    }
    Some(((h - kh) / sh + 1, (w - kw) / sw + 1))
}

/// 2-D convolution: `input` is `CHW`, `weight` is `[out_c, in_c, kh, kw]`,
/// `bias` is `[out_c]` (optional).
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the shapes are inconsistent or
/// the padded input is smaller than the kernel, and
/// [`TensorError::ShapeMismatch`] if `bias` does not match `out_c`.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    params: &Conv2dParams,
) -> Result<Tensor> {
    let in_dims = input.shape().dims();
    let w_dims = weight.shape().dims();
    if in_dims.len() != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d input must be CHW, got rank {}",
            in_dims.len()
        )));
    }
    if w_dims.len() != 4 {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d weight must be [out_c, in_c, kh, kw], got rank {}",
            w_dims.len()
        )));
    }
    let (in_c, in_h, in_w) = (in_dims[0], in_dims[1], in_dims[2]);
    let (out_c, w_in_c, kh, kw) = (w_dims[0], w_dims[1], w_dims[2], w_dims[3]);
    if in_c != w_in_c {
        return Err(TensorError::InvalidArgument(format!(
            "conv2d input channels {in_c} != weight input channels {w_in_c}"
        )));
    }
    if (kh, kw) != params.kernel {
        return Err(TensorError::InvalidArgument(format!(
            "weight kernel ({kh}, {kw}) != declared kernel {:?}",
            params.kernel
        )));
    }
    if let Some(b) = bias {
        if b.shape().dims() != [out_c] {
            return Err(TensorError::ShapeMismatch {
                expected: Shape::new(vec![out_c]),
                actual: b.shape().clone(),
            });
        }
    }
    let (out_h, out_w) = conv2d_output_hw((in_h, in_w), params).ok_or_else(|| {
        TensorError::InvalidArgument(format!(
            "padded input ({in_h}, {in_w}) smaller than kernel {:?}",
            params.kernel
        ))
    })?;

    let mut out = vec![0.0f32; out_c * out_h * out_w];
    conv2d_into(
        input.data(),
        1,
        in_c,
        in_h,
        in_w,
        weight.data(),
        bias.map(|b| b.data()),
        params,
        (out_h, out_w),
        &mut out,
        &[],
    );
    Tensor::from_vec(Shape::new(vec![out_c, out_h, out_w]), out)
}

/// The im2col geometry of `params` over a `[channels, in_h, in_w]` input.
pub(super) fn lowering(
    channels: usize,
    in_h: usize,
    in_w: usize,
    params: &Conv2dParams,
    out_hw: (usize, usize),
) -> gemm::Im2col {
    gemm::Im2col {
        channels,
        in_hw: (in_h, in_w),
        kernel: params.kernel,
        stride: params.stride,
        pad_tl: (params.padding.top, params.padding.left),
        out_hw,
    }
}

/// Pre-initializes the accumulation: every `n`-long output row starts from its
/// channel's bias (the rows of item-major outputs cycle through the channels),
/// or from zero without one.
pub(super) fn fill_bias(outs: &mut [f32], n: usize, bias: Option<&[f32]>) {
    match bias {
        Some(b) if n > 0 => {
            for (row, &bv) in outs.chunks_exact_mut(n).zip(b.iter().cycle()) {
                row.fill(bv);
            }
        }
        _ => outs.fill(0.0),
    }
}

/// Allocation-free convolution of `batch` CHW inputs (laid out back to back
/// in `inputs`) over raw buffers — the compiled-partition hot path, and what
/// [`conv2d`] runs at `batch = 1`. `weight` is the `[out_c, in_c·kh·kw]`
/// filter rows, borrowed as they lie in the weight tensor, `bias` has `out_c`
/// entries, and `outs` holds `batch` outputs of `out_c · out_h · out_w` for
/// the `out_hw` implied by `params` (callers precompute it via
/// [`conv2d_output_hw`]).
///
/// The bias pre-initializes each output and [`gemm::conv_gemm_with_threads`]
/// accumulates onto it, packing the input block by block in bounded
/// per-thread scratch: no im2col matrix and no copy of the weights exist, and
/// a warmed thread performs no heap allocation here. Each item's output is
/// bit-identical to convolving it alone, at any thread count — a batch only
/// shares the traversal of the filter rows. `epilogue` (channel `i` is filter
/// row `i`) rewrites each block of columns after its last accumulation, in
/// the task that computed it, while the block is in cache.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent with the dimensions.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    inputs: &[f32],
    batch: usize,
    in_c: usize,
    in_h: usize,
    in_w: usize,
    weight: &[f32],
    bias: Option<&[f32]>,
    params: &Conv2dParams,
    out_hw: (usize, usize),
    outs: &mut [f32],
    epilogue: &[Epilogue],
) {
    let geom = lowering(in_c, in_h, in_w, params, out_hw);
    let (n_dim, k_dim) = (geom.n(), geom.k());
    let out_c = weight.len() / k_dim.max(1);
    assert_eq!(
        outs.len(),
        batch * out_c * n_dim,
        "outs must be batch outputs"
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), out_c, "bias must be [out_c]");
    }
    fill_bias(outs, n_dim, bias);
    let macs = (batch * out_c).saturating_mul(n_dim).saturating_mul(k_dim);
    let threads = gemm::gemm_threads(macs);
    gemm::conv_gemm_with_threads(out_c, weight, &geom, inputs, batch, outs, threads, epilogue);
}

/// Reference 6-loop convolution the GEMM path is validated against, over raw
/// buffers: bias first, then one multiply-add of the active mode
/// ([`crate::simd::madd`]) per tap in ascending (ic, ky, kx) order. A tap in
/// the padding multiplies an explicit `0.0`, as the lowering has it, so the
/// two agree to the bit — the sign of a zero included.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv2d_naive(
    input: &[f32],
    in_c: usize,
    in_h: usize,
    in_w: usize,
    weight: &[f32],
    bias: &[f32],
    params: &Conv2dParams,
    (out_h, out_w): (usize, usize),
) -> Vec<f32> {
    let (kh, kw) = params.kernel;
    let (sh, sw) = params.stride;
    let k_dim = in_c * kh * kw;
    let mut out = Vec::with_capacity(bias.len() * out_h * out_w);
    for (oc, &b) in bias.iter().enumerate() {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let mut acc = b;
                for (tap, &w) in weight[oc * k_dim..][..k_dim].iter().enumerate() {
                    let (ic, ky, kx) = (tap / (kh * kw), tap / kw % kh, tap % kw);
                    let iy = (oy * sh + ky).wrapping_sub(params.padding.top);
                    let ix = (ox * sw + kx).wrapping_sub(params.padding.left);
                    let x = if iy < in_h && ix < in_w {
                        input[(ic * in_h + iy) * in_w + ix]
                    } else {
                        0.0
                    };
                    acc = crate::simd::madd(w, x, acc);
                }
                out.push(acc);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch;
    use proptest::prelude::*;

    fn t(shape: Vec<usize>, data: Vec<f32>) -> Tensor {
        Tensor::from_vec(Shape::new(shape), data).unwrap()
    }

    fn pseudo(i: usize, seed: u32) -> f32 {
        ((i as u32 ^ seed).wrapping_mul(2654435761) % 2001) as f32 * 1e-3 - 1.0
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One convolution shape: `[in_c, in_h, in_w]` → `out_c` filters of
    /// `kernel`², `stride`, padding (top, bottom, left, right).
    #[derive(Debug, Clone, Copy)]
    struct Case {
        in_c: usize,
        out_c: usize,
        in_hw: (usize, usize),
        kernel: usize,
        stride: usize,
        pad: (usize, usize, usize, usize),
    }

    /// Holds the driver to the naive reference, to the bit, on `case`: each
    /// item of a batch of one and of three, at every thread count the repo
    /// tests, and through [`conv2d_into`]'s own choice of threads.
    fn check_against_naive(case: Case, seed: u32) {
        let Case {
            in_c,
            out_c,
            in_hw: (in_h, in_w),
            kernel,
            stride,
            pad: (top, bottom, left, right),
        } = case;
        let params = Conv2dParams {
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: Padding {
                top,
                bottom,
                left,
                right,
            },
        };
        let out_hw = conv2d_output_hw((in_h, in_w), &params).expect("case fits its kernel");
        let geom = lowering(in_c, in_h, in_w, &params, out_hw);
        let (in_len, out_len) = (in_c * in_h * in_w, out_c * geom.n());
        let inputs: Vec<f32> = (0..3 * in_len).map(|i| pseudo(i, seed ^ 0x51)).collect();
        let weight: Vec<f32> = (0..out_c * geom.k())
            .map(|i| pseudo(i, seed ^ 0xbeef))
            .collect();
        let bias: Vec<f32> = (0..out_c).map(|i| pseudo(i, seed ^ 0x77)).collect();
        let want: Vec<f32> = inputs
            .chunks_exact(in_len)
            .flat_map(|x| conv2d_naive(x, in_c, in_h, in_w, &weight, &bias, &params, out_hw))
            .collect();
        for batch in [1usize, 3] {
            let (inputs, want) = (&inputs[..batch * in_len], bits(&want[..batch * out_len]));
            let mut got = vec![f32::NAN; batch * out_len];
            conv2d_into(
                inputs,
                batch,
                in_c,
                in_h,
                in_w,
                &weight,
                Some(&bias),
                &params,
                out_hw,
                &mut got,
                &[],
            );
            assert_eq!(bits(&got), want, "{case:?} batch={batch}");
            for threads in [1usize, 2, 8] {
                fill_bias(&mut got, geom.n(), Some(&bias));
                gemm::conv_gemm_with_threads(
                    out_c,
                    &weight,
                    &geom,
                    inputs,
                    batch,
                    &mut got,
                    threads,
                    &[],
                );
                assert_eq!(bits(&got), want, "{case:?} batch={batch} threads={threads}");
            }
        }
    }

    #[test]
    fn every_edge_of_the_blocked_driver_matches_the_naive_reference() {
        let case = |in_c, out_c, in_hw, kernel, stride, pad| Case {
            in_c,
            out_c,
            in_hw,
            kernel,
            stride,
            pad,
        };
        let cases = [
            // Pointwise: the image is the matrix; 25 columns, 7 rows.
            case(5, 7, (5, 5), 1, 1, (0, 0, 0, 0)),
            // 1×1 with a stride is not: it gathers.
            case(4, 6, (9, 7), 1, 2, (0, 0, 0, 0)),
            // A `Rows` halo piece (no bottom padding) and a `Cols` one (no
            // left padding) of a 3×3 "same" convolution.
            case(3, 13, (6, 11), 3, 1, (1, 0, 1, 1)),
            case(3, 5, (11, 6), 3, 1, (1, 1, 0, 1)),
            // Fewer than 16 outputs, and a single output row and channel.
            case(2, 1, (3, 3), 3, 1, (1, 1, 1, 1)),
            case(6, 4, (5, 5), 5, 2, (2, 1, 0, 2)),
            // A 7×7 stride-2 stem; 5×5 over more padding than input.
            case(3, 8, (13, 12), 7, 2, (3, 2, 3, 3)),
            case(1, 3, (2, 2), 5, 1, (2, 2, 2, 2)),
            // k = 270 crosses KC; n = 23² = 529 crosses NC.
            case(30, 7, (6, 5), 3, 1, (1, 1, 1, 1)),
            case(2, 11, (23, 23), 3, 1, (1, 1, 1, 1)),
            case(2, 3, (47, 46), 3, 2, (0, 1, 0, 1)),
        ];
        for (i, case) in cases.into_iter().enumerate() {
            check_against_naive(case, 17 * i as u32);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn gemm_path_matches_naive_reference(
            (in_c, out_c) in (1usize..5, 1usize..15),
            in_hw in (1usize..12, 1usize..12),
            (kernel, stride) in (0usize..4, 1usize..3),
            pad in (0usize..4, 0usize..4, 0usize..4, 0usize..4),
            seed in 0u32..1000,
        ) {
            let kernel = 2 * kernel + 1;
            prop_assume!(in_hw.0 + pad.0 + pad.1 >= kernel && in_hw.1 + pad.2 + pad.3 >= kernel);
            check_against_naive(Case { in_c, out_c, in_hw, kernel, stride, pad }, seed);
        }

        /// A batch through one call equals its items convolved one by one:
        /// the batch shares the filter rows of a `KC` step, nothing else.
        #[test]
        fn batched_packed_path_is_bit_identical_to_sequential(
            (in_c, out_c) in (1usize..5, 1usize..9),
            (in_h, in_w) in (3usize..9, 3usize..9),
            kernel in 1usize..4,
            stride in 1usize..3,
            pad in 0usize..2,
            batch_sel in 0usize..3,
            seed in 0u32..1000,
        ) {
            let batch = [2usize, 3, 8][batch_sel];
            let params = Conv2dParams::square(kernel, stride, pad);
            prop_assume!(conv2d_output_hw((in_h, in_w), &params).is_some());
            let out_hw = conv2d_output_hw((in_h, in_w), &params).unwrap();
            let in_len = in_c * in_h * in_w;
            let out_len = out_c * out_hw.0 * out_hw.1;
            let inputs: Vec<f32> =
                (0..batch * in_len).map(|i| pseudo(i, seed ^ 0x51)).collect();
            let weight: Vec<f32> = (0..out_c * in_c * kernel * kernel)
                .map(|i| pseudo(i, seed ^ 0xbeef))
                .collect();
            let bias: Vec<f32> = (0..out_c).map(|i| pseudo(i, seed ^ 0x77)).collect();
            let mut seq = vec![0.0f32; batch * out_len];
            for (x, out) in inputs.chunks(in_len).zip(seq.chunks_mut(out_len)) {
                conv2d_into(x, 1, in_c, in_h, in_w, &weight, Some(&bias), &params, out_hw, out, &[]);
            }
            let mut batched = vec![0.0f32; batch * out_len];
            conv2d_into(
                &inputs, batch, in_c, in_h, in_w, &weight, Some(&bias), &params, out_hw,
                &mut batched, &[],
            );
            prop_assert_eq!(bits(&seq), bits(&batched));
        }
    }

    #[test]
    fn a_wide_convolution_holds_one_packed_block_of_scratch() {
        // 64→128 channels, 3×3, 112×112: the im2col matrix of this layer is
        // 576 × 12 544 floats (29 MB). On a thread that has run nothing
        // else, the driver leaves behind one packed block and no more.
        let peak = std::thread::spawn(|| {
            let params = Conv2dParams::square(3, 1, 1);
            let (c, hw) = (64, 112);
            let geom = lowering(c, hw, hw, &params, (hw, hw));
            let input = vec![0.5f32; c * hw * hw];
            let weight = vec![0.25f32; 128 * geom.k()];
            let mut out = vec![0.0f32; 128 * geom.n()];
            gemm::conv_gemm_with_threads(128, &weight, &geom, &input, 1, &mut out, 1, &[]);
            // Interior outputs see all 576 taps of 0.5 · 0.25.
            assert_eq!(out[hw + 1], 72.0);
            scratch::largest_site_bytes()
        })
        .join()
        .unwrap();
        assert!(peak > 0, "the driver packs through scratch");
        assert!(peak <= gemm::PACKED_BLOCK_BYTES, "{peak} bytes of scratch");
    }

    #[test]
    fn output_size_formula() {
        let p = Conv2dParams::square(3, 1, 1);
        assert_eq!(conv2d_output_hw((8, 8), &p), Some((8, 8)));
        let p = Conv2dParams::square(3, 2, 1);
        assert_eq!(conv2d_output_hw((8, 8), &p), Some((4, 4)));
        let p = Conv2dParams::square(7, 2, 3);
        assert_eq!(conv2d_output_hw((224, 224), &p), Some((112, 112)));
        let p = Conv2dParams::square(5, 1, 0);
        assert_eq!(conv2d_output_hw((3, 3), &p), None);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with weight 1 is the identity for a single channel.
        let input = t(vec![1, 3, 3], (1..=9).map(|x| x as f32).collect());
        let weight = t(vec![1, 1, 1, 1], vec![1.0]);
        let out = conv2d(&input, &weight, None, &Conv2dParams::square(1, 1, 0)).unwrap();
        assert_eq!(out, input);
    }

    #[test]
    fn known_3x3_convolution() {
        // All-ones 3x3 kernel over an all-ones 3x3 input, no padding:
        // single output = 9.
        let input = Tensor::full(Shape::new(vec![1, 3, 3]), 1.0);
        let weight = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let out = conv2d(&input, &weight, None, &Conv2dParams::square(3, 1, 0)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 1]);
        assert_eq!(out.data(), &[9.0]);
    }

    #[test]
    fn padding_contributes_zeros() {
        let input = Tensor::full(Shape::new(vec![1, 1, 1]), 2.0);
        let weight = Tensor::full(Shape::new(vec![1, 1, 3, 3]), 1.0);
        let out = conv2d(&input, &weight, None, &Conv2dParams::square(3, 1, 1)).unwrap();
        // Only the centre tap sees the input.
        assert_eq!(out.shape().dims(), &[1, 1, 1]);
        assert_eq!(out.data(), &[2.0]);
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let input = Tensor::zeros(Shape::new(vec![1, 2, 2]));
        let weight = Tensor::zeros(Shape::new(vec![2, 1, 1, 1]));
        let bias = t(vec![2], vec![0.5, -1.5]);
        let out = conv2d(&input, &weight, Some(&bias), &Conv2dParams::square(1, 1, 0)).unwrap();
        assert_eq!(out.shape().dims(), &[2, 2, 2]);
        assert_eq!(&out.data()[..4], &[0.5; 4]);
        assert_eq!(&out.data()[4..], &[-1.5; 4]);
    }

    #[test]
    fn multi_channel_accumulates() {
        // Two input channels of constants 1 and 10; 1x1 weights 2 and 3
        // => every output = 1*2 + 10*3 = 32.
        let mut input = Tensor::zeros(Shape::new(vec![2, 2, 2]));
        for i in 0..4 {
            input.data_mut()[i] = 1.0;
            input.data_mut()[4 + i] = 10.0;
        }
        let weight = t(vec![1, 2, 1, 1], vec![2.0, 3.0]);
        let out = conv2d(&input, &weight, None, &Conv2dParams::square(1, 1, 0)).unwrap();
        assert!(out.data().iter().all(|&x| x == 32.0));
    }

    #[test]
    fn asymmetric_padding_equivalence_on_split() {
        // Convolving the full input with symmetric padding must equal
        // convolving halo-extended halves with one-sided padding, stitched.
        let input = Tensor::from_fn(Shape::new(vec![2, 6, 5]), |i| (i as f32).sin());
        let weight = Tensor::from_fn(Shape::new(vec![3, 2, 3, 3]), |i| (i as f32 * 0.1).cos());
        let full = conv2d(&input, &weight, None, &Conv2dParams::square(3, 1, 1)).unwrap();

        // Split output rows 0..3 and 3..6. With k=3, s=1, p=1 the first part
        // needs input rows 0..4 (pad top only), second needs rows 2..6 (pad
        // bottom only).
        let top = input.slice(1, 0..4).unwrap();
        let bot = input.slice(1, 2..6).unwrap();
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
        let out_top = conv2d(&top, &weight, None, &p_top).unwrap();
        let out_bot = conv2d(&bot, &weight, None, &p_bot).unwrap();
        let stitched = Tensor::concat(&[out_top, out_bot], 1).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-5);
    }

    #[test]
    fn channel_partition_equivalence() {
        // Partitioning output channels: each worker applies a subset of
        // filters to the whole input; concat along channel dim reproduces it.
        let input = Tensor::from_fn(Shape::new(vec![3, 4, 4]), |i| i as f32 * 0.01);
        let weight = Tensor::from_fn(Shape::new(vec![4, 3, 3, 3]), |i| (i % 7) as f32 * 0.1);
        let params = Conv2dParams::square(3, 1, 1);
        let full = conv2d(&input, &weight, None, &params).unwrap();
        let w0 = weight.slice(0, 0..2).unwrap();
        let w1 = weight.slice(0, 2..4).unwrap();
        let o0 = conv2d(&input, &w0, None, &params).unwrap();
        let o1 = conv2d(&input, &w1, None, &params).unwrap();
        let stitched = Tensor::concat(&[o0, o1], 0).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-6);
    }

    #[test]
    fn rejects_inconsistent_shapes() {
        let input = Tensor::zeros(Shape::new(vec![2, 4, 4]));
        let weight = Tensor::zeros(Shape::new(vec![1, 3, 3, 3]));
        assert!(conv2d(&input, &weight, None, &Conv2dParams::square(3, 1, 1)).is_err());
        let bad_rank = Tensor::zeros(Shape::new(vec![4, 4]));
        let w = Tensor::zeros(Shape::new(vec![1, 2, 3, 3]));
        assert!(conv2d(&bad_rank, &w, None, &Conv2dParams::square(3, 1, 1)).is_err());
    }
}
