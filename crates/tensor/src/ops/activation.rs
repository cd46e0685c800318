//! Element-wise activations.
//!
//! Element-wise ops are trivially partitionable along every dimension, which
//! is why Gillis folds them into the preceding weight-intensive layer.

use crate::error::TensorError;
use crate::tensor::Tensor;
use crate::Result;

/// Rectified linear unit, element-wise.
pub fn relu(input: &Tensor) -> Tensor {
    input.map(|x| x.max(0.0))
}

/// Logistic sigmoid of one value: the expression behind [`sigmoid`] and the
/// LSTM gates, which must agree to the bit.
#[inline]
pub(crate) fn sigmoid_f32(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Logistic sigmoid, element-wise.
pub fn sigmoid(input: &Tensor) -> Tensor {
    input.map(sigmoid_f32)
}

/// Hyperbolic tangent, element-wise.
pub fn tanh(input: &Tensor) -> Tensor {
    input.map(f32::tanh)
}

/// Numerically stable softmax over a rank-1 tensor.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] if the input is not rank 1 or is
/// empty.
pub fn softmax(input: &Tensor) -> Result<Tensor> {
    if input.shape().rank() != 1 || input.shape().is_empty() {
        return Err(TensorError::InvalidArgument(
            "softmax expects a non-empty rank-1 tensor".into(),
        ));
    }
    let mut out = vec![0.0f32; input.shape().len()];
    softmax_into(input.data(), &mut out);
    Tensor::from_vec(input.shape().clone(), out)
}

/// Numerically stable softmax over raw buffers writing into a caller-owned
/// output — the compiled-partition hot path. Bit-identical to [`softmax`]:
/// exponentials are written into `out` first, then normalized in place with
/// the same summation order.
///
/// # Panics
///
/// Panics if `x` is empty or `out.len() != x.len()`.
pub fn softmax_into(x: &[f32], out: &mut [f32]) {
    assert!(!x.is_empty(), "softmax over empty input");
    assert_eq!(out.len(), x.len(), "out must match input");
    let max = x.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for (o, &v) in out.iter_mut().zip(x.iter()) {
        *o = (v - max).exp();
    }
    let sum: f32 = out.iter().sum();
    for o in out.iter_mut() {
        *o /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    #[test]
    fn relu_clamps_negatives() {
        let t = Tensor::from_vec(Shape::new(vec![4]), vec![-1.0, 0.0, 2.0, -0.5]).unwrap();
        assert_eq!(relu(&t).data(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn sigmoid_at_zero_is_half() {
        let t = Tensor::zeros(Shape::new(vec![2]));
        let s = sigmoid(&t);
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn tanh_is_odd() {
        let t = Tensor::from_vec(Shape::new(vec![2]), vec![0.7, -0.7]).unwrap();
        let o = tanh(&t);
        assert!((o.data()[0] + o.data()[1]).abs() < 1e-6);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let t = Tensor::from_vec(Shape::new(vec![3]), vec![1.0, 3.0, 2.0]).unwrap();
        let s = softmax(&t).unwrap();
        let sum: f32 = s.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(s.data()[1] > s.data()[2] && s.data()[2] > s.data()[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let t = Tensor::from_vec(Shape::new(vec![2]), vec![1000.0, 1000.0]).unwrap();
        let s = softmax(&t).unwrap();
        assert!((s.data()[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn softmax_rejects_bad_rank() {
        assert!(softmax(&Tensor::zeros(Shape::new(vec![2, 2]))).is_err());
    }
}
