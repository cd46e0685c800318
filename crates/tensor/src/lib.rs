//! Minimal f32 tensor library backing the Gillis reproduction.
//!
//! The Gillis paper serves models with MXNet; this crate provides the small
//! set of real compute kernels the reproduction needs so that partitioned
//! execution can be checked for *semantic equivalence* against unpartitioned
//! execution — the property the paper's fork-join runtime relies on.
//!
//! The crate deliberately implements only what DNN inference over single
//! queries requires:
//!
//! - [`Shape`] / [`Tensor`] — dense, row-major, `f32`.
//! - Slicing and stitching along arbitrary dimensions ([`Tensor::slice`],
//!   [`Tensor::concat`]) — the primitives a fork-join master uses to scatter
//!   inputs and gather partial outputs.
//! - Layer kernels in [`ops`]: 2-D convolution, max/average pooling, dense
//!   (fully connected), batch normalization, element-wise activations, and an
//!   LSTM cell.
//!
//! # Examples
//!
//! ```
//! use gillis_tensor::{Tensor, Shape};
//!
//! let t = Tensor::zeros(Shape::new(vec![3, 8, 8]));
//! assert_eq!(t.shape().len(), 3 * 8 * 8);
//! ```

pub mod error;
pub mod gemm;
pub mod ops;
mod pages;
pub mod scratch;
pub mod shape;
pub mod simd;
pub mod tensor;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Convenient result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
