//! DNN graph IR, layer merging, and the Gillis benchmark model zoo.
//!
//! The Gillis paper consumes ONNX models and serves them with MXNet. This
//! crate plays both roles for the reproduction:
//!
//! - [`op::LayerOp`] / [`graph::Graph`] — an ONNX-like compute-graph IR with
//!   shape inference and FLOP/parameter accounting.
//! - [`merge`] — the paper's §III-C merging pass: element-wise layers are
//!   folded into the preceding weight-intensive layer and parallel branches
//!   (residual / inception modules) are merged, producing a *linear* chain of
//!   [`linear::MergedLayer`]s that the partitioner consumes.
//! - [`zoo`] — programmatic builders for the paper's benchmark families:
//!   VGG-11/16/19, ResNet-34/50/101, WRN-{34,50}-{3,4,5}, and RNN-k.
//! - [`exec`] — a reference executor (full, row-range, and channel-range
//!   forward passes) standing in for MXNet, used to prove that partitioned
//!   execution is semantics-preserving.
//! - [`span`] — the geometry of a spatial partition: which rows of every
//!   intermediate value a row range of a group's output takes, shared by
//!   [`exec`] and [`compiled`].
//!
//! # Examples
//!
//! ```
//! use gillis_model::zoo;
//!
//! let model = zoo::vgg11();
//! assert!(model.layers().len() > 5);
//! // VGG-11 has ~133M parameters => ~530 MB of f32 weights.
//! let mb = model.weight_bytes() as f64 / (1024.0 * 1024.0);
//! assert!(mb > 400.0 && mb < 700.0);
//! ```

pub mod compiled;
pub mod error;
pub mod exec;
pub mod graph;
pub mod linear;
pub mod merge;
pub mod op;
pub mod span;
pub mod weights;
pub mod zoo;

pub use error::ModelError;
pub use graph::{Graph, NodeId};
pub use linear::{LayerClass, LinearModel, MergedLayer, ReceptiveField};
pub use op::LayerOp;

/// Convenient result alias for fallible model operations.
pub type Result<T> = std::result::Result<T, ModelError>;
