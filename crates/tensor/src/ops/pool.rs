//! Max pooling and global average pooling over `CHW` tensors.
//!
//! Windowed pooling runs on the sliding-window driver shared with depthwise
//! convolution (`ops/window.rs`): max pooling is an `f32::max` chain from
//! `-inf` over a window's in-bounds taps in `(ky, kx)` order, independent of
//! the thread count, the batch and the arithmetic mode.

use serde::{Deserialize, Serialize};

use super::conv::{conv2d_output_hw, lowering, Conv2dParams};
use super::window::{check_window, window_into, Fold};
use super::Padding;
use crate::error::TensorError;
use crate::gemm::Epilogue;
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Parameters of a 2-D pooling window sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pool2dParams {
    /// Window height and width.
    pub kernel: (usize, usize),
    /// Vertical and horizontal stride.
    pub stride: (usize, usize),
    /// Per-side padding. A padding tap is `-inf`, which never wins a max.
    pub padding: Padding,
}

impl Pool2dParams {
    /// Square window with equal stride and symmetric padding.
    pub fn square(kernel: usize, stride: usize, padding: usize) -> Self {
        Pool2dParams {
            kernel: (kernel, kernel),
            stride: (stride, stride),
            padding: Padding::symmetric(padding),
        }
    }

    fn as_conv(&self) -> Conv2dParams {
        Conv2dParams {
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        }
    }
}

/// Max pooling over a `CHW` tensor.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-`CHW` inputs, windows
/// larger than the padded input, and windows the window driver does not
/// fold (wider than [`MAX_KW`](crate::simd::MAX_KW) or at a column stride
/// above [`MAX_SW`](crate::simd::MAX_SW)).
pub fn max_pool2d(input: &Tensor, params: &Pool2dParams) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "max_pool2d input must be CHW, got rank {}",
            dims.len()
        )));
    }
    check_window(params.kernel, params.stride)?;
    let (c, in_h, in_w) = (dims[0], dims[1], dims[2]);
    let (out_h, out_w) = conv2d_output_hw((in_h, in_w), &params.as_conv()).ok_or_else(|| {
        TensorError::InvalidArgument(format!(
            "padded input ({in_h}, {in_w}) smaller than pooling window {:?}",
            params.kernel
        ))
    })?;
    let mut out = vec![0.0f32; c * out_h * out_w];
    max_pool2d_into(
        input.data(),
        1,
        c,
        (in_h, in_w),
        (out_h, out_w),
        params,
        &mut out,
        &[],
    );
    Tensor::from_vec(Shape::new(vec![c, out_h, out_w]), out)
}

/// Max pooling of `batch` CHW inputs (back to back in `data`) over raw
/// buffers, writing `batch` outputs of `c · out_h · out_w` into `out`: an
/// `f32::max` chain from `-inf` over each window's in-bounds taps in
/// `(ky, kx)` order, through the window driver (`ops/window.rs`).
/// Bit-identical to [`max_pool2d`] per item, at any thread count.
/// `epilogue` rewrites each output plane right after the driver folds it.
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent with the dimensions, or if
/// [`max_pool2d`] would reject the window.
#[allow(clippy::too_many_arguments)]
pub fn max_pool2d_into(
    data: &[f32],
    batch: usize,
    c: usize,
    in_hw: (usize, usize),
    out_hw: (usize, usize),
    params: &Pool2dParams,
    out: &mut [f32],
    epilogue: &[Epilogue],
) {
    let geom = lowering(c, in_hw.0, in_hw.1, &params.as_conv(), out_hw);
    window_into(data, batch, &geom, (Fold::Max, epilogue), out, None);
}

/// Global average pooling: reduces `CHW` to `[C]`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-`CHW` inputs.
pub fn global_avg_pool(input: &Tensor) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "global_avg_pool input must be CHW, got rank {}",
            dims.len()
        )));
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    let plane = h * w;
    if plane == 0 {
        return Err(TensorError::InvalidArgument(
            "global_avg_pool over empty spatial plane".into(),
        ));
    }
    let mut out = vec![0.0f32; c];
    global_avg_pool_into(input.data(), c, plane, &mut out);
    Tensor::from_vec(Shape::new(vec![c]), out)
}

/// Global average pooling over raw buffers writing into a caller-owned
/// output of length `c`. Bit-identical to [`global_avg_pool`].
///
/// # Panics
///
/// Panics if buffer lengths are inconsistent with the dimensions or the
/// spatial plane is empty.
pub fn global_avg_pool_into(data: &[f32], c: usize, plane: usize, out: &mut [f32]) {
    assert!(plane > 0, "global_avg_pool over empty spatial plane");
    assert_eq!(data.len(), c * plane, "input must be CHW");
    assert_eq!(out.len(), c, "out must be [c]");
    for (ch, o) in out.iter_mut().enumerate() {
        *o = data[ch * plane..(ch + 1) * plane].iter().sum::<f32>() / plane as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_pool_2x2() {
        let input = Tensor::from_vec(
            Shape::new(vec![1, 2, 4]),
            vec![1.0, 3.0, 2.0, 4.0, 5.0, 0.0, -1.0, 9.0],
        )
        .unwrap();
        let out = max_pool2d(&input, &Pool2dParams::square(2, 2, 0)).unwrap();
        assert_eq!(out.shape().dims(), &[1, 1, 2]);
        assert_eq!(out.data(), &[5.0, 9.0]);
    }

    #[test]
    fn global_avg_pool_means_each_channel() {
        let input =
            Tensor::from_vec(Shape::new(vec![2, 1, 2]), vec![1.0, 3.0, 10.0, 20.0]).unwrap();
        let out = global_avg_pool(&input).unwrap();
        assert_eq!(out.shape().dims(), &[2]);
        assert_eq!(out.data(), &[2.0, 15.0]);
    }

    #[test]
    fn pool_spatial_split_equivalence() {
        // Pooling a full input equals pooling halo-extended halves stitched,
        // for a 2x2/2 window (no halo needed at even split points).
        let input = Tensor::from_fn(Shape::new(vec![3, 8, 6]), |i| ((i * 37) % 11) as f32);
        let params = Pool2dParams::square(2, 2, 0);
        let full = max_pool2d(&input, &params).unwrap();
        let top = input.slice(1, 0..4).unwrap();
        let bot = input.slice(1, 4..8).unwrap();
        let stitched = Tensor::concat(
            &[
                max_pool2d(&top, &params).unwrap(),
                max_pool2d(&bot, &params).unwrap(),
            ],
            1,
        )
        .unwrap();
        assert_eq!(full, stitched);
    }

    /// The windows' taps in `(ky, kx)` order, in-bounds ones only, of every
    /// output element of a `c × in_h × in_w` input.
    fn windows((c, in_h, in_w): (usize, usize, usize), p: &Pool2dParams) -> Vec<Vec<usize>> {
        let (out_h, out_w) = conv2d_output_hw((in_h, in_w), &p.as_conv()).unwrap();
        let mut all = Vec::new();
        for ch in 0..c {
            for oy in 0..out_h {
                for ox in 0..out_w {
                    let mut taps = Vec::new();
                    for ky in 0..p.kernel.0 {
                        for kx in 0..p.kernel.1 {
                            let iy = (oy * p.stride.0 + ky).wrapping_sub(p.padding.top);
                            let ix = (ox * p.stride.1 + kx).wrapping_sub(p.padding.left);
                            if iy < in_h && ix < in_w {
                                taps.push((ch * in_h + iy) * in_w + ix);
                            }
                        }
                    }
                    all.push(taps);
                }
            }
        }
        all
    }

    /// Square and lopsided windows, asymmetric padding (a halo slice) and a
    /// padding as wide as the window, over rows long enough for every
    /// vector path of the window driver.
    fn geometries() -> Vec<Pool2dParams> {
        let lopsided = Pool2dParams {
            kernel: (2, 3),
            stride: (1, 2),
            padding: Padding {
                top: 1,
                bottom: 0,
                left: 2,
                right: 1,
            },
        };
        vec![
            Pool2dParams::square(2, 2, 0),
            Pool2dParams::square(3, 2, 1),
            Pool2dParams::square(3, 1, 1),
            Pool2dParams::square(2, 1, 2),
            lopsided,
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn max_pool_is_the_scalar_max_chain_on_nan_signed_zeros_and_padding() {
        let special = [f32::NAN, 0.0, -0.0, f32::NEG_INFINITY, 1.5, -2.0, -0.0, 0.0];
        let dims = (3, 7, 70);
        let input = Tensor::from_fn(Shape::new(vec![dims.0, dims.1, dims.2]), |i| {
            special[(i * 2654435761) % 61 % special.len()]
        });
        for p in geometries() {
            let want: Vec<f32> = windows(dims, &p)
                .iter()
                .map(|taps| {
                    let chain = |acc: f32, &i: &usize| acc.max(input.data()[i]);
                    taps.iter().fold(f32::NEG_INFINITY, chain)
                })
                .collect();
            let got = max_pool2d(&input, &p).unwrap();
            assert_eq!(bits(got.data()), bits(&want), "{p:?}");
        }
    }

    #[test]
    fn rejects_bad_rank_and_oversize_window() {
        let flat = Tensor::zeros(Shape::new(vec![4]));
        assert!(max_pool2d(&flat, &Pool2dParams::square(2, 2, 0)).is_err());
        assert!(global_avg_pool(&flat).is_err());
        let tiny = Tensor::zeros(Shape::new(vec![1, 2, 2]));
        assert!(max_pool2d(&tiny, &Pool2dParams::square(5, 1, 0)).is_err());
    }
}
