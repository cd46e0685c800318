//! Layer operations: the vocabulary of the compute-graph IR.

use serde::{Deserialize, Serialize};

use gillis_tensor::simd::{MAX_KW, MAX_SW};
use gillis_tensor::Shape;

use crate::error::ModelError;
use crate::Result;

/// A layer operation in the compute graph.
///
/// Spatial operations use square kernels/strides/padding — every model in
/// the paper's benchmark zoo is square. Shapes are single-query (no batch
/// dimension): `CHW` for spatial tensors, `[features]` for vectors, and
/// `[seq, features]` for recurrent layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerOp {
    /// Graph input with a fixed shape.
    Input {
        /// Shape of the query tensor.
        shape: Shape,
    },
    /// 2-D convolution (square kernel), with bias.
    Conv2d {
        /// Number of output channels (filters).
        out_channels: usize,
        /// Kernel side length.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Symmetric padding.
        padding: usize,
    },
    /// Depthwise 2-D convolution: one filter per channel (MobileNet-style).
    /// Channel-local *and* spatially windowed — it chains through both
    /// partition dimensions.
    DepthwiseConv2d {
        /// Kernel side length.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Symmetric padding.
        padding: usize,
    },
    /// Inference-time batch normalization (element-wise per channel).
    BatchNorm,
    /// Rectified linear unit (element-wise).
    Relu,
    /// Max pooling (square window).
    MaxPool2d {
        /// Window side length.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Symmetric padding.
        padding: usize,
    },
    /// Global average pooling: `CHW` → `[C]`.
    GlobalAvgPool,
    /// Flattens any tensor to rank 1.
    Flatten,
    /// Fully connected layer with bias.
    Dense {
        /// Number of output features.
        out_features: usize,
    },
    /// Element-wise addition of two inputs (residual join).
    Add,
    /// Channel-wise concatenation of `n` inputs (inception join).
    Concat,
    /// One LSTM layer unrolled over the sequence: `[seq, in]` → `[seq, hidden]`.
    Lstm {
        /// Hidden size.
        hidden: usize,
    },
}

impl LayerOp {
    /// Whether this op is element-wise (freely partitionable along every
    /// dimension) — the class Gillis folds into preceding weight layers.
    pub fn is_element_wise(&self) -> bool {
        matches!(self, LayerOp::BatchNorm | LayerOp::Relu)
    }

    /// Whether this op owns trainable weights.
    pub fn has_weights(&self) -> bool {
        matches!(
            self,
            LayerOp::Conv2d { .. }
                | LayerOp::DepthwiseConv2d { .. }
                | LayerOp::Dense { .. }
                | LayerOp::Lstm { .. }
                | LayerOp::BatchNorm
        )
    }

    /// Infers the output shape from the input shapes.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadWiring`] if the inputs are inconsistent with
    /// the op, and [`ModelError::Unsupported`] for a depthwise or pooling
    /// window the window kernels do not fold (stride above
    /// [`MAX_SW`], side above [`MAX_KW`]).
    pub fn infer_shape(&self, inputs: &[&Shape]) -> Result<Shape> {
        let one = |inputs: &[&Shape]| -> Result<Shape> {
            if inputs.len() != 1 {
                return Err(ModelError::BadWiring(format!(
                    "{self:?} expects 1 input, got {}",
                    inputs.len()
                )));
            }
            Ok(inputs[0].clone())
        };
        match self {
            LayerOp::Input { shape } => {
                if inputs.is_empty() {
                    Ok(shape.clone())
                } else {
                    Err(ModelError::BadWiring("input op takes no inputs".into()))
                }
            }
            LayerOp::Conv2d {
                out_channels,
                kernel,
                stride,
                padding,
            } => {
                let s = one(inputs)?;
                let d = chw(&s)?;
                let (oh, ow) =
                    spatial_out(d.1, d.2, *kernel, *stride, *padding).ok_or_else(|| {
                        ModelError::BadWiring(format!("conv kernel {kernel} larger than input {s}"))
                    })?;
                Ok(Shape::new(vec![*out_channels, oh, ow]))
            }
            LayerOp::DepthwiseConv2d {
                kernel,
                stride,
                padding,
            } => {
                check_window(self, *kernel, *stride)?;
                let s = one(inputs)?;
                let d = chw(&s)?;
                let (oh, ow) =
                    spatial_out(d.1, d.2, *kernel, *stride, *padding).ok_or_else(|| {
                        ModelError::BadWiring(format!(
                            "depthwise kernel {kernel} larger than input {s}"
                        ))
                    })?;
                Ok(Shape::new(vec![d.0, oh, ow]))
            }
            LayerOp::BatchNorm | LayerOp::Relu => one(inputs),
            LayerOp::MaxPool2d {
                kernel,
                stride,
                padding,
            } => {
                check_window(self, *kernel, *stride)?;
                let s = one(inputs)?;
                let d = chw(&s)?;
                let (oh, ow) =
                    spatial_out(d.1, d.2, *kernel, *stride, *padding).ok_or_else(|| {
                        ModelError::BadWiring(format!("pool window {kernel} larger than input {s}"))
                    })?;
                Ok(Shape::new(vec![d.0, oh, ow]))
            }
            LayerOp::GlobalAvgPool => {
                let s = one(inputs)?;
                let d = chw(&s)?;
                Ok(Shape::new(vec![d.0]))
            }
            LayerOp::Flatten => {
                let s = one(inputs)?;
                Ok(Shape::new(vec![s.len()]))
            }
            LayerOp::Dense { out_features } => {
                let s = one(inputs)?;
                if s.rank() != 1 {
                    return Err(ModelError::BadWiring(format!(
                        "dense expects rank-1 input, got {s}"
                    )));
                }
                Ok(Shape::new(vec![*out_features]))
            }
            LayerOp::Add => {
                if inputs.len() != 2 || inputs[0] != inputs[1] {
                    return Err(ModelError::BadWiring(format!(
                        "add expects two equal shapes, got {inputs:?}"
                    )));
                }
                Ok(inputs[0].clone())
            }
            LayerOp::Concat => {
                if inputs.len() < 2 {
                    return Err(ModelError::BadWiring("concat expects >= 2 inputs".into()));
                }
                let first = chw(inputs[0])?;
                let mut channels = 0;
                for s in inputs {
                    let d = chw(s)?;
                    if (d.1, d.2) != (first.1, first.2) {
                        return Err(ModelError::BadWiring(format!(
                            "concat spatial mismatch: {s} vs {}",
                            inputs[0]
                        )));
                    }
                    channels += d.0;
                }
                Ok(Shape::new(vec![channels, first.1, first.2]))
            }
            LayerOp::Lstm { hidden } => {
                let s = one(inputs)?;
                if s.rank() != 2 {
                    return Err(ModelError::BadWiring(format!(
                        "lstm expects [seq, features] input, got {s}"
                    )));
                }
                Ok(Shape::new(vec![s.dims()[0], *hidden]))
            }
        }
    }

    /// Forward-pass floating-point operations for this op, given its input
    /// and output shapes (multiply-accumulate counted as 2 FLOPs).
    pub fn flops(&self, inputs: &[&Shape], output: &Shape) -> u64 {
        match self {
            LayerOp::Input { .. } | LayerOp::Flatten => 0,
            LayerOp::Conv2d { kernel, .. } => {
                let in_c = inputs[0].dims()[0] as u64;
                let out = output.len() as u64;
                2 * out * in_c * (*kernel as u64) * (*kernel as u64)
            }
            LayerOp::DepthwiseConv2d { kernel, .. } => {
                2 * output.len() as u64 * (*kernel as u64) * (*kernel as u64)
            }
            LayerOp::BatchNorm => 4 * output.len() as u64,
            LayerOp::Relu => output.len() as u64,
            LayerOp::MaxPool2d { kernel, .. } => {
                output.len() as u64 * (*kernel as u64) * (*kernel as u64)
            }
            LayerOp::GlobalAvgPool => inputs[0].len() as u64,
            LayerOp::Dense { .. } => 2 * inputs[0].len() as u64 * output.len() as u64,
            LayerOp::Add => output.len() as u64,
            LayerOp::Concat => 0,
            LayerOp::Lstm { hidden } => {
                let seq = inputs[0].dims()[0] as u64;
                let in_f = inputs[0].dims()[1] as u64;
                let h = *hidden as u64;
                // Four gates, each a matvec over [in + hidden], per step.
                seq * (2 * 4 * h * (in_f + h) + 12 * h)
            }
        }
    }

    /// Number of trainable parameters, given input and output shapes.
    pub fn param_count(&self, inputs: &[&Shape], output: &Shape) -> u64 {
        match self {
            LayerOp::Conv2d {
                out_channels,
                kernel,
                ..
            } => {
                let in_c = inputs[0].dims()[0] as u64;
                let k = *kernel as u64;
                (*out_channels as u64) * in_c * k * k + *out_channels as u64
            }
            LayerOp::DepthwiseConv2d { kernel, .. } => {
                let c = inputs[0].dims()[0] as u64;
                let k = *kernel as u64;
                c * k * k + c
            }
            LayerOp::BatchNorm => 4 * inputs[0].dims()[0] as u64,
            LayerOp::Dense { out_features } => {
                (*out_features as u64) * inputs[0].len() as u64 + *out_features as u64
            }
            LayerOp::Lstm { hidden } => {
                let in_f = inputs[0].dims()[1] as u64;
                let h = *hidden as u64;
                4 * h * (in_f + h) + 4 * h
            }
            _ => {
                let _ = output;
                0
            }
        }
    }
}

/// Rejects a sliding window (depthwise or max pooling) that the window
/// kernels' vector body does not fold.
fn check_window(op: &LayerOp, kernel: usize, stride: usize) -> Result<()> {
    if kernel > MAX_KW || stride > MAX_SW {
        return Err(ModelError::Unsupported(format!(
            "{op:?}: a window must be at most {MAX_KW} wide, at a stride of at most {MAX_SW}"
        )));
    }
    Ok(())
}

/// Destructures a `CHW` shape.
fn chw(s: &Shape) -> Result<(usize, usize, usize)> {
    let d = s.dims();
    if d.len() != 3 {
        return Err(ModelError::BadWiring(format!(
            "expected CHW shape, got {s}"
        )));
    }
    Ok((d[0], d[1], d[2]))
}

/// Output spatial size of a square window sweep, or `None` if infeasible.
pub(crate) fn spatial_out(
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
) -> Option<(usize, usize)> {
    let ph = h + 2 * padding;
    let pw = w + 2 * padding;
    if ph < kernel || pw < kernel || stride == 0 {
        return None;
    }
    Some(((ph - kernel) / stride + 1, (pw - kernel) / stride + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(dims: Vec<usize>) -> Shape {
        Shape::new(dims)
    }

    #[test]
    fn conv_shape_inference() {
        let op = LayerOp::Conv2d {
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = s(vec![3, 224, 224]);
        let out = op.infer_shape(&[&input]).unwrap();
        assert_eq!(out.dims(), &[64, 224, 224]);
    }

    #[test]
    fn strided_conv_downsamples() {
        let op = LayerOp::Conv2d {
            out_channels: 64,
            kernel: 7,
            stride: 2,
            padding: 3,
        };
        let out = op.infer_shape(&[&s(vec![3, 224, 224])]).unwrap();
        assert_eq!(out.dims(), &[64, 112, 112]);
    }

    #[test]
    fn pool_and_gap_shapes() {
        let pool = LayerOp::MaxPool2d {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(
            pool.infer_shape(&[&s(vec![64, 112, 112])]).unwrap().dims(),
            &[64, 56, 56]
        );
        let gap = LayerOp::GlobalAvgPool;
        assert_eq!(
            gap.infer_shape(&[&s(vec![512, 7, 7])]).unwrap().dims(),
            &[512]
        );
    }

    #[test]
    fn add_requires_equal_shapes() {
        let a = s(vec![8, 4, 4]);
        let b = s(vec![8, 4, 4]);
        let c = s(vec![4, 4, 4]);
        assert!(LayerOp::Add.infer_shape(&[&a, &b]).is_ok());
        assert!(LayerOp::Add.infer_shape(&[&a, &c]).is_err());
        assert!(LayerOp::Add.infer_shape(&[&a]).is_err());
    }

    #[test]
    fn concat_sums_channels() {
        let a = s(vec![8, 4, 4]);
        let b = s(vec![16, 4, 4]);
        let out = LayerOp::Concat.infer_shape(&[&a, &b]).unwrap();
        assert_eq!(out.dims(), &[24, 4, 4]);
        let bad = s(vec![8, 2, 4]);
        assert!(LayerOp::Concat.infer_shape(&[&a, &bad]).is_err());
    }

    #[test]
    fn lstm_shape_and_params() {
        let op = LayerOp::Lstm { hidden: 2048 };
        let input = s(vec![10, 2048]);
        let out = op.infer_shape(&[&input]).unwrap();
        assert_eq!(out.dims(), &[10, 2048]);
        // 4*h*(in+h) + 4h with in = h = 2048 => ~33.6M params.
        let p = op.param_count(&[&input], &out);
        assert_eq!(p, 4 * 2048 * (2048 + 2048) + 4 * 2048);
    }

    #[test]
    fn conv_flops_match_formula() {
        let op = LayerOp::Conv2d {
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let input = s(vec![3, 224, 224]);
        let out = op.infer_shape(&[&input]).unwrap();
        let flops = op.flops(&[&input], &out);
        assert_eq!(flops, 2 * 64 * 224 * 224 * 3 * 3 * 3);
    }

    #[test]
    fn vgg_fc6_is_the_biggest_dense_layer() {
        // VGG fc6: 25088 -> 4096 = 102.8M params.
        let op = LayerOp::Dense { out_features: 4096 };
        let input = s(vec![25088]);
        let out = op.infer_shape(&[&input]).unwrap();
        assert_eq!(op.param_count(&[&input], &out), 25088 * 4096 + 4096);
    }

    #[test]
    fn infeasible_spatial_ops_are_rejected() {
        let op = LayerOp::Conv2d {
            out_channels: 1,
            kernel: 5,
            stride: 1,
            padding: 0,
        };
        assert!(op.infer_shape(&[&s(vec![1, 3, 3])]).is_err());
        let dense = LayerOp::Dense { out_features: 10 };
        assert!(dense.infer_shape(&[&s(vec![2, 3])]).is_err());
    }

    /// A window the window kernels cannot fold — 9 wide, or at stride 3 —
    /// is refused by `Graph::add` and by the tensor kernels alike; 8 wide
    /// at stride 2 is the edge both accept.
    #[test]
    fn a_window_the_vector_body_cannot_fold_is_rejected() {
        use gillis_tensor::ops::{depthwise_conv2d, max_pool2d, Conv2dParams, Pool2dParams};
        use gillis_tensor::{Tensor, TensorError};
        let input = s(vec![2, 20, 20]);
        let x = Tensor::zeros(input.clone());
        for (kernel, stride, ok) in [(9, 1, false), (3, 3, false), (8, 2, true)] {
            for op in [
                LayerOp::DepthwiseConv2d {
                    kernel,
                    stride,
                    padding: 0,
                },
                LayerOp::MaxPool2d {
                    kernel,
                    stride,
                    padding: 0,
                },
            ] {
                let mut g = crate::Graph::new();
                let shape = input.clone();
                let id = g.add("input", LayerOp::Input { shape }, &[]).unwrap();
                let added = g.add("window", op.clone(), &[id]);
                assert_eq!(added.is_ok(), ok, "{op:?}");
                if !ok {
                    assert!(matches!(added, Err(ModelError::Unsupported(_))), "{op:?}");
                }
            }
            let w = Tensor::zeros(s(vec![2, kernel, kernel]));
            let params = Conv2dParams::square(kernel, stride, 0);
            let results = [
                depthwise_conv2d(&x, &w, None, &params).map(|_| ()),
                max_pool2d(&x, &Pool2dParams::square(kernel, stride, 0)).map(|_| ()),
            ];
            for result in results {
                match result {
                    Ok(()) => assert!(ok, "kernel {kernel} stride {stride}"),
                    Err(e) => assert!(!ok && matches!(e, TensorError::InvalidArgument(_)), "{e}"),
                }
            }
        }
    }

    #[test]
    fn elementwise_classification() {
        assert!(LayerOp::Relu.is_element_wise());
        assert!(LayerOp::BatchNorm.is_element_wise());
        assert!(!LayerOp::Conv2d {
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0
        }
        .is_element_wise());
        assert!(LayerOp::BatchNorm.has_weights());
        assert!(!LayerOp::Relu.has_weights());
    }
}
