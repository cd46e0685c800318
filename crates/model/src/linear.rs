//! The linear model: what the partitioner consumes after merging.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use gillis_tensor::Shape;

use crate::graph::{Graph, NodeId};

/// Composed receptive-field geometry of a (merged) spatial layer: the square
/// kernel/stride/padding an output element's dependency cone projects onto
/// the layer's input.
///
/// Receptive fields compose: applying `a` then `b` behaves like a single
/// window of kernel `a.k + (b.k - 1) * a.s`, stride `a.s * b.s`, padding
/// `a.p + b.p * a.s`. This is how a layer *group* computes the input halo a
/// spatial partition needs (paper §III-C, Fig 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReceptiveField {
    /// Effective square-kernel side length.
    pub kernel: usize,
    /// Effective stride.
    pub stride: usize,
    /// Effective symmetric padding.
    pub padding: usize,
}

impl ReceptiveField {
    /// The identity window (1×1, stride 1, no padding).
    pub fn identity() -> Self {
        ReceptiveField {
            kernel: 1,
            stride: 1,
            padding: 0,
        }
    }

    /// Receptive field of applying `self` first, then `next`.
    pub fn then(&self, next: &ReceptiveField) -> ReceptiveField {
        ReceptiveField {
            kernel: self.kernel + (next.kernel - 1) * self.stride,
            stride: self.stride * next.stride,
            padding: self.padding + next.padding * self.stride,
        }
    }

    /// Input rows required to compute output rows `out`, clamped to an input
    /// of height `in_h`. Returns `(rows, pad_top, pad_bottom)` where the pads
    /// are the zero rows the partition must synthesize because its window
    /// extends past the true tensor border.
    pub fn input_rows(&self, out: Range<usize>, in_h: usize) -> (Range<usize>, usize, usize) {
        if out.is_empty() {
            return (0..0, 0, 0);
        }
        let lo = out.start as isize * self.stride as isize - self.padding as isize;
        let hi = (out.end - 1) as isize * self.stride as isize - self.padding as isize
            + self.kernel as isize;
        let pad_top = (-lo).max(0) as usize;
        let pad_bottom = (hi - in_h as isize).max(0) as usize;
        let start = lo.max(0) as usize;
        let end = (hi.min(in_h as isize)).max(lo.max(0)) as usize;
        (start..end, pad_top, pad_bottom)
    }

    /// Number of output rows produced from an input of height `in_h`
    /// (symmetric padding applied).
    pub fn output_rows(&self, in_h: usize) -> usize {
        let padded = in_h + 2 * self.padding;
        if padded < self.kernel {
            0
        } else {
            (padded - self.kernel) / self.stride + 1
        }
    }
}

/// Partitioning class of a merged layer — what Gillis's tensor-dependency
/// analysis (§III-C) concludes about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerClass {
    /// Convolution-like: output elements have a *local* spatial response, so
    /// the layer can be partitioned along height/width given a halo.
    ConvLike {
        /// Composed receptive field of the merged layer.
        rf: ReceptiveField,
        /// Whether output-channel partitioning is possible by splitting the
        /// filter bank (true only when the merged layer contains exactly one
        /// weighted convolution — Fig 2b).
        channel_splittable: bool,
        /// Whether output channel `c` depends only on input channel `c`
        /// (true for pooling/element-wise-only merged layers), so channel
        /// partitions chain through without weight splitting.
        channel_local: bool,
    },
    /// Fully-connected-like: every output depends on the entire input; only
    /// output-unit (weight-split) partitioning is possible, and the layer is
    /// a barrier for layer grouping (Fig 6's `L3`).
    DenseLike,
    /// Global reduction over space (global average pooling): channel-local
    /// but not spatially partitionable.
    Reduction,
    /// Recurrent (LSTM): no intra-layer parallelization (paper §V-B); the
    /// partitioner may only place whole layers.
    Recurrent,
}

impl LayerClass {
    /// Whether this class supports spatial (height/width) partitioning.
    pub fn supports_spatial(&self) -> bool {
        matches!(self, LayerClass::ConvLike { .. })
    }

    /// The receptive field, if spatial.
    pub fn receptive_field(&self) -> Option<ReceptiveField> {
        match self {
            LayerClass::ConvLike { rf, .. } => Some(*rf),
            _ => None,
        }
    }

    /// Whether output channels can be computed from a filter subset applied
    /// to the full input.
    pub fn channel_splittable(&self) -> bool {
        match self {
            LayerClass::ConvLike {
                channel_splittable, ..
            } => *channel_splittable,
            LayerClass::DenseLike => true,
            LayerClass::Reduction => false,
            LayerClass::Recurrent => false,
        }
    }

    /// Whether output channel `c` depends only on input channel `c`.
    pub fn channel_local(&self) -> bool {
        match self {
            LayerClass::ConvLike { channel_local, .. } => *channel_local,
            LayerClass::Reduction => true,
            _ => false,
        }
    }
}

/// A merged layer: the unit of grouping and parallelization.
///
/// Produced by the merging pass ([`crate::merge::merge_graph`]): element-wise
/// operations are folded into the preceding weight-intensive node, and branch
/// modules (residual blocks, inception modules) become a single merged layer,
/// so the model becomes a linear chain (paper Fig 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergedLayer {
    /// Name (taken from the head node).
    pub name: String,
    /// Partitioning class.
    pub class: LayerClass,
    /// Input shape (output shape of the previous merged layer).
    pub in_shape: Shape,
    /// Output shape.
    pub out_shape: Shape,
    /// Total forward FLOPs of all constituent nodes.
    pub flops: u64,
    /// Total weight bytes (f32) of all constituent nodes.
    pub weight_bytes: u64,
    /// Constituent graph nodes in topological order.
    pub nodes: Vec<NodeId>,
}

impl MergedLayer {
    /// Output activation size in bytes (f32).
    pub fn out_bytes(&self) -> u64 {
        4 * self.out_shape.len() as u64
    }

    /// Input activation size in bytes (f32).
    pub fn in_bytes(&self) -> u64 {
        4 * self.in_shape.len() as u64
    }
}

/// A model after merging: a linear chain of [`MergedLayer`]s plus the
/// original graph (kept for reference execution).
///
/// A built model is immutable and its clones share one description: `clone`
/// counts a reference instead of copying the graph and the layers, so every
/// builder, deployment and runtime of one model holds the same storage.
/// Equality still compares contents.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel(Arc<Description>);

/// What a [`LinearModel`] shares between its clones.
#[derive(PartialEq, Serialize, Deserialize)]
struct Description {
    name: String,
    graph: Graph,
    layers: Vec<MergedLayer>,
    input_shape: Shape,
}

impl fmt::Debug for LinearModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = &self.0;
        f.debug_struct("LinearModel")
            .field("name", &d.name)
            .field("graph", &d.graph)
            .field("layers", &d.layers)
            .field("input_shape", &d.input_shape)
            .finish()
    }
}

impl LinearModel {
    /// Assembles a linear model. Used by the merging pass and by tests that
    /// construct chains directly.
    pub fn new(
        name: impl Into<String>,
        graph: Graph,
        layers: Vec<MergedLayer>,
        input_shape: Shape,
    ) -> Self {
        LinearModel(Arc::new(Description {
            name: name.into(),
            graph,
            layers,
            input_shape,
        }))
    }

    /// Model name, e.g. `"vgg16"` or `"wrn-50-4"`.
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// The merged layers, in execution order.
    pub fn layers(&self) -> &[MergedLayer] {
        &self.0.layers
    }

    /// The underlying compute graph.
    pub fn graph(&self) -> &Graph {
        &self.0.graph
    }

    /// The query input shape.
    pub fn input_shape(&self) -> &Shape {
        &self.0.input_shape
    }

    /// Total weight bytes across all merged layers.
    pub fn weight_bytes(&self) -> u64 {
        self.layers().iter().map(|l| l.weight_bytes).sum()
    }

    /// Total forward FLOPs across all merged layers.
    pub fn total_flops(&self) -> u64 {
        self.layers().iter().map(|l| l.flops).sum()
    }

    /// A per-layer summary table: name, class, output shape, FLOPs, weights.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(
            s,
            "{} — {} merged layers, {:.1} GFLOPs, {:.0} MB weights",
            self.name(),
            self.layers().len(),
            self.total_flops() as f64 / 1e9,
            self.weight_bytes() as f64 / 1e6
        )
        .ok();
        writeln!(
            s,
            "{:>3}  {:<14} {:<10} {:<16} {:>10} {:>11}",
            "#", "layer", "class", "output", "MFLOPs", "weights(MB)"
        )
        .ok();
        for (i, l) in self.layers().iter().enumerate() {
            let class = match l.class {
                LayerClass::ConvLike { .. } => "conv-like",
                LayerClass::DenseLike => "dense",
                LayerClass::Reduction => "reduction",
                LayerClass::Recurrent => "recurrent",
            };
            writeln!(
                s,
                "{:>3}  {:<14} {:<10} {:<16} {:>10.0} {:>11.1}",
                i,
                l.name,
                class,
                l.out_shape.to_string(),
                l.flops as f64 / 1e6,
                l.weight_bytes as f64 / 1e6
            )
            .ok();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_rf_is_neutral_for_then() {
        let id = ReceptiveField::identity();
        let conv = ReceptiveField {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(id.then(&conv), conv);
        assert_eq!(conv.then(&id), conv);
    }

    #[test]
    fn rf_composition_matches_known_values() {
        // Two 3x3 stride-1 pad-1 convs compose to 5x5 stride-1 pad-2.
        let c3 = ReceptiveField {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let both = c3.then(&c3);
        assert_eq!(
            both,
            ReceptiveField {
                kernel: 5,
                stride: 1,
                padding: 2
            }
        );
        // 7x7/2/3 conv then 3x3/2/1 pool: k = 7 + 2*2 = 11, s = 4, p = 3 + 2 = 5.
        let c7 = ReceptiveField {
            kernel: 7,
            stride: 2,
            padding: 3,
        };
        let p3 = ReceptiveField {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(
            c7.then(&p3),
            ReceptiveField {
                kernel: 11,
                stride: 4,
                padding: 5
            }
        );
    }

    #[test]
    fn rf_composition_is_associative_on_output_count() {
        let a = ReceptiveField {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let b = ReceptiveField {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let c = ReceptiveField {
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        let left = a.then(&b).then(&c);
        let right = a.then(&b.then(&c));
        assert_eq!(left, right);
    }

    #[test]
    fn output_rows_matches_sequential_application() {
        let a = ReceptiveField {
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let b = ReceptiveField {
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        let composed = a.then(&b);
        for h in [8usize, 16, 23, 224] {
            let seq = b.output_rows(a.output_rows(h));
            assert_eq!(composed.output_rows(h), seq, "h = {h}");
        }
    }

    #[test]
    fn input_rows_cover_and_clamp() {
        let rf = ReceptiveField {
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        // Full output needs full input with pad 1 on both sides.
        let (rows, pt, pb) = rf.input_rows(0..8, 8);
        assert_eq!((rows, pt, pb), (0..8, 1, 1));
        // Interior slice needs a one-row halo on each side, no padding.
        let (rows, pt, pb) = rf.input_rows(3..5, 8);
        assert_eq!((rows, pt, pb), (2..6, 0, 0));
        // Top slice pads only at the top.
        let (rows, pt, pb) = rf.input_rows(0..4, 8);
        assert_eq!((rows, pt, pb), (0..5, 1, 0));
        // Empty range.
        let (rows, pt, pb) = rf.input_rows(2..2, 8);
        assert!(rows.is_empty());
        assert_eq!((pt, pb), (0, 0));
    }

    #[test]
    fn strided_input_rows() {
        let rf = ReceptiveField {
            kernel: 7,
            stride: 2,
            padding: 3,
        };
        // Output rows 0..112 of a 224-input (the classic ResNet stem).
        assert_eq!(rf.output_rows(224), 112);
        let (rows, pt, pb) = rf.input_rows(56..112, 224);
        // start = 56*2 - 3 = 109; end = 111*2 - 3 + 7 = 226 -> clamp 224, pad 2.
        assert_eq!(rows, 109..224);
        assert_eq!((pt, pb), (0, 2));
    }

    #[test]
    fn summary_lists_every_layer() {
        let model = crate::zoo::tiny_vgg();
        let s = model.summary();
        assert!(s.contains("tiny-vgg"));
        for l in model.layers() {
            assert!(s.contains(&l.name), "summary missing {}", l.name);
        }
        assert_eq!(s.lines().count(), model.layers().len() + 2);
    }

    const _: () = {
        const fn shared_across_threads<T: Send + Sync>() {}
        shared_across_threads::<LinearModel>();
    };

    #[test]
    fn clones_share_one_description() {
        let a = crate::zoo::tiny_resnet();
        let b = a.clone();
        assert!(std::ptr::eq(a.graph(), b.graph()));
        assert!(std::ptr::eq(a.layers(), b.layers()));
        assert!(std::ptr::eq(a.input_shape(), b.input_shape()));
    }

    #[test]
    fn equality_compares_contents() {
        let a = crate::zoo::tiny_resnet();
        let rebuilt = crate::zoo::tiny_resnet();
        assert!(!std::ptr::eq(a.graph(), rebuilt.graph()));
        assert_eq!(a, rebuilt);
        assert_ne!(a, crate::zoo::tiny_vgg());
    }

    #[test]
    fn debug_prints_the_fields() {
        let m = crate::zoo::tiny_vgg();
        let expected = format!(
            "LinearModel {{ name: {:?}, graph: {:?}, layers: {:?}, input_shape: {:?} }}",
            m.name(),
            m.graph(),
            m.layers(),
            m.input_shape()
        );
        assert_eq!(format!("{m:?}"), expected);
    }

    #[test]
    fn class_capabilities() {
        let conv = LayerClass::ConvLike {
            rf: ReceptiveField::identity(),
            channel_splittable: true,
            channel_local: false,
        };
        assert!(conv.supports_spatial());
        assert!(conv.channel_splittable());
        assert!(!conv.channel_local());
        assert!(LayerClass::DenseLike.channel_splittable());
        assert!(!LayerClass::DenseLike.supports_spatial());
        assert!(LayerClass::Reduction.channel_local());
        assert!(!LayerClass::Recurrent.supports_spatial());
        assert!(LayerClass::ConvLike {
            rf: ReceptiveField::identity(),
            channel_splittable: false,
            channel_local: true
        }
        .channel_local());
    }
}
