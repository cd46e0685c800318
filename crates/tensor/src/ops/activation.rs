//! Element-wise activations.
//!
//! Element-wise ops are trivially partitionable along every dimension, which
//! is why Gillis folds them into the preceding weight-intensive layer.

use crate::tensor::Tensor;

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
}
