//! Layer compute kernels.
//!
//! All kernels operate on single-query (batch-free) tensors: convolutional
//! layers use `CHW` layout, dense layers use rank-1 vectors. Convolution and
//! pooling accept *asymmetric* padding via [`Padding`], which is what lets a
//! fork-join worker run on a halo-extended spatial slice and pad only the
//! sides that coincide with the true tensor border.

mod activation;
mod conv;
mod dense;
mod depthwise;
mod norm;
mod pool;
mod rnn;

pub use activation::{relu, relu_into, sigmoid, softmax, softmax_into, tanh};
pub use conv::{conv2d, conv2d_into, conv2d_output_hw, Conv2dParams};
pub use dense::{dense, dense_into, dense_multi_into};
pub use depthwise::{depthwise_conv2d, depthwise_conv2d_into};
pub use norm::{batch_norm, batch_norm_fold, batch_norm_folded_into, BatchNormParams};
pub use pool::{
    avg_pool2d, avg_pool2d_into, global_avg_pool, global_avg_pool_into, max_pool2d,
    max_pool2d_into, Pool2dParams,
};
pub use rnn::{
    lstm_cell, lstm_gates_len, lstm_sequence, lstm_sequence_into, LstmParams, LstmState,
};

use serde::{Deserialize, Serialize};

/// Per-side spatial padding for convolution and pooling.
///
/// Symmetric padding `p` is `Padding::symmetric(p)`. Asymmetric padding lets a
/// spatial partition pad only its outer border: an interior partition that has
/// been halo-extended uses zero padding on its interior edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Padding {
    /// Rows added above the input.
    pub top: usize,
    /// Rows added below the input.
    pub bottom: usize,
    /// Columns added left of the input.
    pub left: usize,
    /// Columns added right of the input.
    pub right: usize,
}

impl Padding {
    /// Equal padding on all four sides.
    pub fn symmetric(p: usize) -> Self {
        Padding {
            top: p,
            bottom: p,
            left: p,
            right: p,
        }
    }

    /// No padding.
    pub fn none() -> Self {
        Padding::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_padding_sets_all_sides() {
        let p = Padding::symmetric(2);
        assert_eq!((p.top, p.bottom, p.left, p.right), (2, 2, 2, 2));
        assert_eq!(Padding::none(), Padding::default());
    }
}
