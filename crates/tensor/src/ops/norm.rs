//! Inference-time batch normalization.

use crate::error::TensorError;
use crate::gemm::{apply_epilogue, Epilogue};
use crate::shape::Shape;
use crate::tensor::Tensor;
use crate::Result;

/// Frozen batch-norm statistics and affine parameters, one value per channel.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNormParams {
    /// Learned scale `gamma`, shape `[C]`.
    pub gamma: Tensor,
    /// Learned shift `beta`, shape `[C]`.
    pub beta: Tensor,
    /// Running mean, shape `[C]`.
    pub mean: Tensor,
    /// Running variance, shape `[C]`.
    pub var: Tensor,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl BatchNormParams {
    /// Identity normalization for `channels` channels (`gamma = 1`,
    /// everything else zero) — useful in tests.
    pub fn identity(channels: usize) -> Self {
        BatchNormParams {
            gamma: Tensor::full(Shape::new(vec![channels]), 1.0),
            beta: Tensor::zeros(Shape::new(vec![channels])),
            mean: Tensor::zeros(Shape::new(vec![channels])),
            var: Tensor::full(Shape::new(vec![channels]), 1.0),
            eps: 1e-5,
        }
    }
}

/// Applies inference-time batch normalization to a `CHW` tensor:
/// `y = gamma * (x - mean) / sqrt(var + eps) + beta`, per channel.
///
/// Batch norm is element-wise along the spatial dimensions, so it is freely
/// partitionable along height/width — which is why Gillis merges it into the
/// preceding convolution.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-`CHW` input and
/// [`TensorError::ShapeMismatch`] if parameter lengths differ from the
/// channel count.
pub fn batch_norm(input: &Tensor, params: &BatchNormParams) -> Result<Tensor> {
    let dims = input.shape().dims();
    if dims.len() != 3 {
        return Err(TensorError::InvalidArgument(format!(
            "batch_norm input must be CHW, got rank {}",
            dims.len()
        )));
    }
    let (c, h, w) = (dims[0], dims[1], dims[2]);
    for (name, t) in [
        ("gamma", &params.gamma),
        ("beta", &params.beta),
        ("mean", &params.mean),
        ("var", &params.var),
    ] {
        if t.shape().dims() != [c] {
            let _ = name;
            return Err(TensorError::ShapeMismatch {
                expected: Shape::new(vec![c]),
                actual: t.shape().clone(),
            });
        }
    }
    let (scale, shift) = batch_norm_fold(params);
    let bn = Epilogue::Affine {
        scale,
        shift,
        relu: false,
    };
    let mut out = input.data().to_vec();
    apply_epilogue(&[bn], h * w, 0, &mut out);
    Tensor::from_vec(input.shape().clone(), out)
}

/// Folds frozen batch-norm parameters into per-channel `(scale, shift)`
/// constants: `y = x·scale + shift` with `scale = gamma/√(var+eps)` and
/// `shift = beta − mean·scale`.
///
/// [`batch_norm`] applies them as an [`Epilogue::Affine`], as a kernel
/// that fuses the batch norm does.
pub fn batch_norm_fold(params: &BatchNormParams) -> (Vec<f32>, Vec<f32>) {
    let c = params.gamma.shape().len();
    let mut scale = Vec::with_capacity(c);
    let mut shift = Vec::with_capacity(c);
    for ch in 0..c {
        let g = params.gamma.data()[ch];
        let b = params.beta.data()[ch];
        let m = params.mean.data()[ch];
        let inv_std = 1.0 / (params.var.data()[ch] + params.eps).sqrt();
        let s = g * inv_std;
        scale.push(s);
        shift.push(b - m * s);
    }
    (scale, shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_params_are_nearly_identity() {
        let input = Tensor::from_fn(Shape::new(vec![2, 2, 2]), |i| i as f32);
        let out = batch_norm(&input, &BatchNormParams::identity(2)).unwrap();
        assert!(input.max_abs_diff(&out).unwrap() < 1e-4);
    }

    #[test]
    fn normalizes_against_running_stats() {
        let input = Tensor::full(Shape::new(vec![1, 1, 2]), 5.0);
        let params = BatchNormParams {
            gamma: Tensor::full(Shape::new(vec![1]), 2.0),
            beta: Tensor::full(Shape::new(vec![1]), 1.0),
            mean: Tensor::full(Shape::new(vec![1]), 3.0),
            var: Tensor::full(Shape::new(vec![1]), 4.0),
            eps: 0.0,
        };
        // y = 2 * (5 - 3) / 2 + 1 = 3
        let out = batch_norm(&input, &params).unwrap();
        assert_eq!(out.data(), &[3.0, 3.0]);
    }

    #[test]
    fn spatial_partition_equivalence() {
        let input = Tensor::from_fn(Shape::new(vec![3, 4, 4]), |i| (i as f32).cos());
        let params = BatchNormParams {
            gamma: Tensor::from_fn(Shape::new(vec![3]), |i| i as f32 + 0.5),
            beta: Tensor::from_fn(Shape::new(vec![3]), |i| -(i as f32)),
            mean: Tensor::from_fn(Shape::new(vec![3]), |i| i as f32 * 0.1),
            var: Tensor::from_fn(Shape::new(vec![3]), |i| 1.0 + i as f32),
            eps: 1e-5,
        };
        let full = batch_norm(&input, &params).unwrap();
        let top = batch_norm(&input.slice(1, 0..2).unwrap(), &params).unwrap();
        let bot = batch_norm(&input.slice(1, 2..4).unwrap(), &params).unwrap();
        let stitched = Tensor::concat(&[top, bot], 1).unwrap();
        assert!(full.max_abs_diff(&stitched).unwrap() < 1e-6);
    }

    #[test]
    fn rejects_wrong_param_lengths() {
        let input = Tensor::zeros(Shape::new(vec![3, 2, 2]));
        assert!(batch_norm(&input, &BatchNormParams::identity(2)).is_err());
    }
}
