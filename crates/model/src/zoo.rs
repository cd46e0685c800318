//! The benchmark model zoo: every model family the paper evaluates.
//!
//! Builders return merged [`LinearModel`]s ready for partitioning:
//!
//! - VGG-11/16/19 (paper Figs 9, 10, 13, 15)
//! - ResNet-34/50/101 (Fig 10)
//! - Wide ResNet `WRN-{34,50}-{3,4,5}` (Figs 1, 9, 10, 11, 13, 14)
//! - `RNN-k`: stacked LSTM layers with 2K hidden size (Figs 12, 15)
//!
//! Wide ResNet follows §II-B: every convolution's input *and* output channel
//! counts are multiplied by the widening scalar `k`, growing the model
//! quadratically in `k`. The RNN family uses a 4096-dim input embedding
//! feeding 2048-unit LSTM layers, which places the single-function memory
//! cliff at 10+ layers exactly as the paper reports (§V-B: "a single function
//! can only support RNN models with up to 9 layers" under the 1.4 GB budget).
//!
//! Model weights are *not* materialized here — the zoo describes topology and
//! cost. Use [`crate::weights::init_weights`] to generate weights for the
//! small test models.

use gillis_tensor::Shape;

use crate::graph::Graph;
use crate::linear::LinearModel;
use crate::merge::merge_graph;
use crate::op::LayerOp;

/// Standard ImageNet-style input resolution used by the paper's CNNs.
pub const CNN_RESOLUTION: usize = 224;
/// Sequence length used for the RNN family.
pub const RNN_SEQ_LEN: usize = 10;
/// Hidden size of the RNN family ("2K hidden size", §V-A).
pub const RNN_HIDDEN: usize = 2048;
/// Input embedding dimension feeding the first LSTM layer.
pub const RNN_EMBED: usize = 4096;

fn conv(out_channels: usize, kernel: usize, stride: usize, padding: usize) -> LayerOp {
    LayerOp::Conv2d {
        out_channels,
        kernel,
        stride,
        padding,
    }
}

/// Builds a VGG model from its per-stage convolution plan.
/// `None` entries are 2×2/2 max-pool markers.
fn vgg_from_plan(name: &str, plan: &[Option<usize>], resolution: usize) -> LinearModel {
    let mut g = Graph::new();
    let mut cur = g
        .add(
            "input",
            LayerOp::Input {
                shape: Shape::new(vec![3, resolution, resolution]),
            },
            &[],
        )
        .expect("input node");
    let (mut ci, mut pi) = (0, 0);
    for step in plan {
        match step {
            Some(channels) => {
                ci += 1;
                cur = g
                    .add(format!("conv{ci}"), conv(*channels, 3, 1, 1), &[cur])
                    .expect("conv node");
                cur = g
                    .add(format!("relu{ci}"), LayerOp::Relu, &[cur])
                    .expect("relu node");
            }
            None => {
                pi += 1;
                cur = g
                    .add(
                        format!("pool{pi}"),
                        LayerOp::MaxPool2d {
                            kernel: 2,
                            stride: 2,
                            padding: 0,
                        },
                        &[cur],
                    )
                    .expect("pool node");
            }
        }
    }
    cur = g.add("flatten", LayerOp::Flatten, &[cur]).expect("flatten");
    for (i, out) in [4096usize, 4096, 1000].iter().enumerate() {
        cur = g
            .add(
                format!("fc{}", i + 6),
                LayerOp::Dense { out_features: *out },
                &[cur],
            )
            .expect("dense node");
        if i < 2 {
            cur = g
                .add(format!("fc{}_relu", i + 6), LayerOp::Relu, &[cur])
                .expect("relu node");
        }
    }
    merge_graph(name, g).expect("vgg graphs are mergeable")
}

/// VGG-11 ("configuration A").
pub fn vgg11() -> LinearModel {
    let c = |n| Some(n);
    vgg_from_plan(
        "vgg11",
        &[
            c(64),
            None,
            c(128),
            None,
            c(256),
            c(256),
            None,
            c(512),
            c(512),
            None,
            c(512),
            c(512),
            None,
        ],
        CNN_RESOLUTION,
    )
}

/// VGG-16 ("configuration D").
pub fn vgg16() -> LinearModel {
    let c = |n| Some(n);
    vgg_from_plan(
        "vgg16",
        &[
            c(64),
            c(64),
            None,
            c(128),
            c(128),
            None,
            c(256),
            c(256),
            c(256),
            None,
            c(512),
            c(512),
            c(512),
            None,
            c(512),
            c(512),
            c(512),
            None,
        ],
        CNN_RESOLUTION,
    )
}

/// VGG-19 ("configuration E").
pub fn vgg19() -> LinearModel {
    let c = |n| Some(n);
    vgg_from_plan(
        "vgg19",
        &[
            c(64),
            c(64),
            None,
            c(128),
            c(128),
            None,
            c(256),
            c(256),
            c(256),
            c(256),
            None,
            c(512),
            c(512),
            c(512),
            c(512),
            None,
            c(512),
            c(512),
            c(512),
            c(512),
            None,
        ],
        CNN_RESOLUTION,
    )
}

/// Which residual block structure a ResNet uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    /// Two 3×3 convolutions (ResNet-18/34).
    Basic,
    /// 1×1 reduce, 3×3, 1×1 expand (×4) (ResNet-50/101/152).
    Bottleneck,
}

/// Builds a (wide) ResNet. `width_mult = 1` is the classical model.
fn resnet_impl(
    name: &str,
    kind: BlockKind,
    stage_blocks: [usize; 4],
    width_mult: usize,
    resolution: usize,
) -> LinearModel {
    let mut g = Graph::new();
    let mut cur = g
        .add(
            "input",
            LayerOp::Input {
                shape: Shape::new(vec![3, resolution, resolution]),
            },
            &[],
        )
        .expect("input node");
    let w = |c: usize| c * width_mult;

    // Stem: 7x7/2 conv + BN + ReLU + 3x3/2 max pool.
    cur = g
        .add("stem_conv", conv(w(64), 7, 2, 3), &[cur])
        .expect("stem");
    cur = g
        .add("stem_bn", LayerOp::BatchNorm, &[cur])
        .expect("stem bn");
    cur = g
        .add("stem_relu", LayerOp::Relu, &[cur])
        .expect("stem relu");
    cur = g
        .add(
            "stem_pool",
            LayerOp::MaxPool2d {
                kernel: 3,
                stride: 2,
                padding: 1,
            },
            &[cur],
        )
        .expect("stem pool");

    let expansion = match kind {
        BlockKind::Basic => 1,
        BlockKind::Bottleneck => 4,
    };
    let mut in_channels = w(64);
    for (stage, &blocks) in stage_blocks.iter().enumerate() {
        let base = w(64 << stage);
        let out_channels = base * expansion;
        for block in 0..blocks {
            let stride = if stage > 0 && block == 0 { 2 } else { 1 };
            let tag = format!("s{}b{}", stage + 1, block + 1);
            let branch_input = cur;

            // Main branch.
            let mut b = branch_input;
            match kind {
                BlockKind::Basic => {
                    b = g
                        .add(format!("{tag}_conv1"), conv(base, 3, stride, 1), &[b])
                        .expect("conv1");
                    b = g
                        .add(format!("{tag}_bn1"), LayerOp::BatchNorm, &[b])
                        .expect("bn1");
                    b = g
                        .add(format!("{tag}_relu1"), LayerOp::Relu, &[b])
                        .expect("relu1");
                    b = g
                        .add(format!("{tag}_conv2"), conv(base, 3, 1, 1), &[b])
                        .expect("conv2");
                    b = g
                        .add(format!("{tag}_bn2"), LayerOp::BatchNorm, &[b])
                        .expect("bn2");
                }
                BlockKind::Bottleneck => {
                    b = g
                        .add(format!("{tag}_conv1"), conv(base, 1, 1, 0), &[b])
                        .expect("conv1");
                    b = g
                        .add(format!("{tag}_bn1"), LayerOp::BatchNorm, &[b])
                        .expect("bn1");
                    b = g
                        .add(format!("{tag}_relu1"), LayerOp::Relu, &[b])
                        .expect("relu1");
                    b = g
                        .add(format!("{tag}_conv2"), conv(base, 3, stride, 1), &[b])
                        .expect("conv2");
                    b = g
                        .add(format!("{tag}_bn2"), LayerOp::BatchNorm, &[b])
                        .expect("bn2");
                    b = g
                        .add(format!("{tag}_relu2"), LayerOp::Relu, &[b])
                        .expect("relu2");
                    b = g
                        .add(format!("{tag}_conv3"), conv(out_channels, 1, 1, 0), &[b])
                        .expect("conv3");
                    b = g
                        .add(format!("{tag}_bn3"), LayerOp::BatchNorm, &[b])
                        .expect("bn3");
                }
            }

            // Shortcut: identity, or projection when shape changes.
            let shortcut = if stride != 1 || in_channels != out_channels {
                let sc = g
                    .add(
                        format!("{tag}_sc_conv"),
                        conv(out_channels, 1, stride, 0),
                        &[branch_input],
                    )
                    .expect("shortcut conv");
                g.add(format!("{tag}_sc_bn"), LayerOp::BatchNorm, &[sc])
                    .expect("shortcut bn")
            } else {
                branch_input
            };

            let add = g
                .add(format!("{tag}_add"), LayerOp::Add, &[b, shortcut])
                .expect("add");
            cur = g
                .add(format!("{tag}_relu"), LayerOp::Relu, &[add])
                .expect("block relu");
            in_channels = out_channels;
        }
    }

    cur = g.add("gap", LayerOp::GlobalAvgPool, &[cur]).expect("gap");
    cur = g.add("flatten", LayerOp::Flatten, &[cur]).expect("flatten");
    g.add("fc", LayerOp::Dense { out_features: 1000 }, &[cur])
        .expect("fc");
    merge_graph(name, g).expect("resnet graphs are mergeable")
}

/// ResNet-34.
pub fn resnet34() -> LinearModel {
    resnet_impl(
        "resnet34",
        BlockKind::Basic,
        [3, 4, 6, 3],
        1,
        CNN_RESOLUTION,
    )
}

/// ResNet-50.
pub fn resnet50() -> LinearModel {
    resnet_impl(
        "resnet50",
        BlockKind::Bottleneck,
        [3, 4, 6, 3],
        1,
        CNN_RESOLUTION,
    )
}

/// ResNet-101.
pub fn resnet101() -> LinearModel {
    resnet_impl(
        "resnet101",
        BlockKind::Bottleneck,
        [3, 4, 23, 3],
        1,
        CNN_RESOLUTION,
    )
}

/// Wide ResNet `WRN-34-k`: ResNet-34 with every convolution widened `k`×.
///
/// # Panics
///
/// Panics if `widen == 0`.
pub fn wrn34(widen: usize) -> LinearModel {
    assert!(widen > 0, "widening scalar must be positive");
    resnet_impl(
        &format!("wrn-34-{widen}"),
        BlockKind::Basic,
        [3, 4, 6, 3],
        widen,
        CNN_RESOLUTION,
    )
}

/// Wide ResNet `WRN-50-k`: ResNet-50 with every convolution widened `k`×.
///
/// # Panics
///
/// Panics if `widen == 0`.
pub fn wrn50(widen: usize) -> LinearModel {
    assert!(widen > 0, "widening scalar must be positive");
    resnet_impl(
        &format!("wrn-50-{widen}"),
        BlockKind::Bottleneck,
        [3, 4, 6, 3],
        widen,
        CNN_RESOLUTION,
    )
}

/// `RNN-k`: `k` stacked LSTM layers (hidden 2048) over a 4096-dim embedded
/// sequence of length 10.
///
/// # Panics
///
/// Panics if `layers == 0`.
pub fn rnn(layers: usize) -> LinearModel {
    rnn_sized(layers, RNN_EMBED, RNN_HIDDEN)
}

/// The RNN-k architecture at another width: `layers` stacked LSTM layers of
/// `hidden` units over an `embed`-dim sequence of length [`RNN_SEQ_LEN`] —
/// [`rnn`] small enough for tests that execute it with real weights.
///
/// # Panics
///
/// Panics if `layers == 0`.
pub fn rnn_sized(layers: usize, embed: usize, hidden: usize) -> LinearModel {
    assert!(layers > 0, "rnn needs at least one layer");
    let mut g = Graph::new();
    let mut cur = g
        .add(
            "input",
            LayerOp::Input {
                shape: Shape::new(vec![RNN_SEQ_LEN, embed]),
            },
            &[],
        )
        .expect("input node");
    for i in 0..layers {
        cur = g
            .add(format!("lstm{}", i + 1), LayerOp::Lstm { hidden }, &[cur])
            .expect("lstm node");
    }
    let name = match (embed, hidden) {
        (RNN_EMBED, RNN_HIDDEN) => format!("rnn-{layers}"),
        _ => format!("rnn-{layers}-{embed}x{hidden}"),
    };
    merge_graph(name, g).expect("rnn graphs are mergeable")
}

/// A small VGG-style CNN over 3×16×16 inputs — used by tests that execute
/// models with real weights.
pub fn tiny_vgg() -> LinearModel {
    let c = |n| Some(n);
    vgg_from_plan("tiny-vgg", &[c(8), None, c(16), c(16), None], 16).rename_fc_for_tiny()
}

/// A small two-stage ResNet over 3×16×16 inputs — used by tests that execute
/// models with real weights.
pub fn tiny_resnet() -> LinearModel {
    resnet_impl("tiny-resnet", BlockKind::Basic, [1, 1, 1, 1], 1, 64)
}

/// MobileNet-V1-style network: a strided stem convolution followed by
/// depthwise-separable blocks (depthwise 3×3 + BN + ReLU, pointwise 1×1 +
/// BN + ReLU), global pooling, and a classifier.
///
/// Not in the paper's benchmark zoo — included because depthwise layers are
/// *channel-local*, giving Gillis channel-partitionable chains
/// (`[pointwise conv, depthwise conv]` groups) that the paper's models
/// lack.
fn mobilenet_impl(name: &str, resolution: usize, width: usize, classes: usize) -> LinearModel {
    let mut g = Graph::new();
    let mut cur = g
        .add(
            "input",
            LayerOp::Input {
                shape: Shape::new(vec![3, resolution, resolution]),
            },
            &[],
        )
        .expect("input");
    cur = g.add("stem", conv(width, 3, 2, 1), &[cur]).expect("stem");
    cur = g.add("stem_bn", LayerOp::BatchNorm, &[cur]).expect("bn");
    cur = g.add("stem_relu", LayerOp::Relu, &[cur]).expect("relu");
    // (out_channels multiplier over `width`, stride) per separable block.
    let blocks: [(usize, usize); 7] = [(2, 1), (4, 2), (4, 1), (8, 2), (8, 1), (16, 2), (16, 1)];
    for (i, (mult, stride)) in blocks.iter().enumerate() {
        let tag = format!("b{}", i + 1);
        cur = g
            .add(
                format!("{tag}_dw"),
                LayerOp::DepthwiseConv2d {
                    kernel: 3,
                    stride: *stride,
                    padding: 1,
                },
                &[cur],
            )
            .expect("dw");
        cur = g
            .add(format!("{tag}_dw_bn"), LayerOp::BatchNorm, &[cur])
            .expect("bn");
        cur = g
            .add(format!("{tag}_dw_relu"), LayerOp::Relu, &[cur])
            .expect("relu");
        cur = g
            .add(format!("{tag}_pw"), conv(width * mult, 1, 1, 0), &[cur])
            .expect("pw");
        cur = g
            .add(format!("{tag}_pw_bn"), LayerOp::BatchNorm, &[cur])
            .expect("bn");
        cur = g
            .add(format!("{tag}_pw_relu"), LayerOp::Relu, &[cur])
            .expect("relu");
    }
    cur = g.add("gap", LayerOp::GlobalAvgPool, &[cur]).expect("gap");
    cur = g.add("flatten", LayerOp::Flatten, &[cur]).expect("flatten");
    g.add(
        "fc",
        LayerOp::Dense {
            out_features: classes,
        },
        &[cur],
    )
    .expect("fc");
    merge_graph(name, g).expect("mobilenet graphs are mergeable")
}

/// A MobileNet-style separable-convolution network at ImageNet resolution.
pub fn mobilenet() -> LinearModel {
    mobilenet_impl("mobilenet", CNN_RESOLUTION, 32, 1000)
}

/// A small MobileNet-style network over 3×32×32 inputs — used by tests that
/// execute depthwise-separable models with real weights.
pub fn tiny_mobilenet() -> LinearModel {
    mobilenet_impl("tiny-mobilenet", 32, 4, 10)
}

/// A small Inception-style CNN over 3×16×16 inputs: two inception modules
/// (parallel 1×1 / 3×3 / 5×5 branches joined by channel concatenation, as in
/// paper Fig 5 left) followed by a classifier. Exercises `Concat` branch
/// merging and its spatial partitioning.
pub fn tiny_inception() -> LinearModel {
    let mut g = Graph::new();
    let mut cur = g
        .add(
            "input",
            LayerOp::Input {
                shape: Shape::new(vec![3, 16, 16]),
            },
            &[],
        )
        .expect("input");
    cur = g.add("stem", conv(8, 3, 1, 1), &[cur]).expect("stem");
    cur = g.add("stem_relu", LayerOp::Relu, &[cur]).expect("relu");
    for m in 0..2 {
        let tag = format!("inc{}", m + 1);
        let b1 = g
            .add(format!("{tag}_b1_conv"), conv(4, 1, 1, 0), &[cur])
            .expect("1x1 branch");
        let b1 = g
            .add(format!("{tag}_b1_relu"), LayerOp::Relu, &[b1])
            .expect("relu");
        let b3 = g
            .add(format!("{tag}_b3_conv"), conv(6, 3, 1, 1), &[cur])
            .expect("3x3 branch");
        let b3 = g
            .add(format!("{tag}_b3_relu"), LayerOp::Relu, &[b3])
            .expect("relu");
        let b5 = g
            .add(format!("{tag}_b5_conv"), conv(2, 5, 1, 2), &[cur])
            .expect("5x5 branch");
        let b5 = g
            .add(format!("{tag}_b5_relu"), LayerOp::Relu, &[b5])
            .expect("relu");
        cur = g
            .add(format!("{tag}_concat"), LayerOp::Concat, &[b1, b3, b5])
            .expect("concat join");
    }
    cur = g
        .add(
            "pool",
            LayerOp::MaxPool2d {
                kernel: 2,
                stride: 2,
                padding: 0,
            },
            &[cur],
        )
        .expect("pool");
    cur = g.add("gap", LayerOp::GlobalAvgPool, &[cur]).expect("gap");
    cur = g.add("flatten", LayerOp::Flatten, &[cur]).expect("flatten");
    g.add("fc", LayerOp::Dense { out_features: 10 }, &[cur])
        .expect("fc");
    merge_graph("tiny-inception", g).expect("inception graphs are mergeable")
}

impl LinearModel {
    /// Replaces the tiny-VGG classifier head (4096-wide FC layers are
    /// enormous relative to a 16×16 model) with a compact one.
    fn rename_fc_for_tiny(self) -> LinearModel {
        // Rebuild with small dense layers instead of the ImageNet head.
        let mut g = Graph::new();
        let mut cur = g
            .add(
                "input",
                LayerOp::Input {
                    shape: Shape::new(vec![3, 16, 16]),
                },
                &[],
            )
            .expect("input");
        cur = g.add("conv1", conv(8, 3, 1, 1), &[cur]).expect("conv");
        cur = g.add("relu1", LayerOp::Relu, &[cur]).expect("relu");
        cur = g
            .add(
                "pool1",
                LayerOp::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                },
                &[cur],
            )
            .expect("pool");
        cur = g.add("conv2", conv(16, 3, 1, 1), &[cur]).expect("conv");
        cur = g.add("relu2", LayerOp::Relu, &[cur]).expect("relu");
        cur = g.add("conv3", conv(16, 3, 1, 1), &[cur]).expect("conv");
        cur = g.add("relu3", LayerOp::Relu, &[cur]).expect("relu");
        cur = g
            .add(
                "pool2",
                LayerOp::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                },
                &[cur],
            )
            .expect("pool");
        cur = g.add("flatten", LayerOp::Flatten, &[cur]).expect("flatten");
        cur = g
            .add("fc1", LayerOp::Dense { out_features: 32 }, &[cur])
            .expect("fc1");
        cur = g.add("fc1_relu", LayerOp::Relu, &[cur]).expect("relu");
        g.add("fc2", LayerOp::Dense { out_features: 10 }, &[cur])
            .expect("fc2");
        crate::merge::merge_graph("tiny-vgg", g).expect("tiny vgg merges")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LayerClass;

    const MB: f64 = 1024.0 * 1024.0;

    fn weight_mb(m: &LinearModel) -> f64 {
        m.weight_bytes() as f64 / MB
    }

    /// Trainable parameters: four bytes each.
    fn params(m: &LinearModel) -> f64 {
        (m.weight_bytes() / 4) as f64
    }

    #[test]
    fn vgg_parameter_counts_match_literature() {
        // Known totals: VGG-11 ~132.9M, VGG-16 ~138.4M, VGG-19 ~143.7M.
        let v11 = params(&vgg11()) / 1e6;
        let v16 = params(&vgg16()) / 1e6;
        let v19 = params(&vgg19()) / 1e6;
        assert!((v11 - 132.9).abs() < 1.0, "vgg11 params {v11}M");
        assert!((v16 - 138.4).abs() < 1.0, "vgg16 params {v16}M");
        assert!((v19 - 143.7).abs() < 1.0, "vgg19 params {v19}M");
    }

    #[test]
    fn resnet_parameter_counts_match_literature() {
        let r34 = params(&resnet34()) / 1e6;
        let r50 = params(&resnet50()) / 1e6;
        let r101 = params(&resnet101()) / 1e6;
        assert!((r34 - 21.8).abs() < 0.5, "resnet34 params {r34}M");
        assert!((r50 - 25.6).abs() < 1.0, "resnet50 params {r50}M");
        assert!((r101 - 44.5).abs() < 1.5, "resnet101 params {r101}M");
    }

    #[test]
    fn wrn_grows_quadratically() {
        let base = params(&resnet50());
        let w3 = params(&wrn50(3));
        let w5 = params(&wrn50(5));
        // Conv-dominated: ratios close to k^2.
        assert!(w3 / base > 7.5 && w3 / base < 9.5, "ratio {}", w3 / base);
        assert!(w5 / base > 20.0 && w5 / base < 26.0, "ratio {}", w5 / base);
    }

    /// The paper's model-memory budget: 1.4 GB (decimal), §V-A.
    const BUDGET_MB: f64 = 1.4e9 / MB;

    #[test]
    fn memory_cliffs_match_paper_claims() {
        let m = BUDGET_MB;
        // Fits in a single Lambda function (paper Fig 9).
        assert!(weight_mb(&vgg19()) < m);
        assert!(weight_mb(&wrn34(4)) < m, "{}", weight_mb(&wrn34(4)));
        assert!(weight_mb(&wrn50(3)) < m, "{}", weight_mb(&wrn50(3)));
        // Too large for a single function (paper Fig 11).
        assert!(weight_mb(&wrn34(5)) > m);
        assert!(weight_mb(&wrn50(4)) > m);
        assert!(weight_mb(&wrn50(5)) > m);
    }

    #[test]
    fn rnn_cliff_is_at_nine_layers() {
        // Paper §V-B: a single function supports RNNs up to 9 layers.
        let m = BUDGET_MB;
        assert!(weight_mb(&rnn(9)) < m, "{}", weight_mb(&rnn(9)));
        assert!(weight_mb(&rnn(10)) > m, "{}", weight_mb(&rnn(10)));
    }

    #[test]
    fn rnn_layers_are_recurrent_merged_layers() {
        let model = rnn(4);
        assert_eq!(model.layers().len(), 4);
        assert!(model
            .layers()
            .iter()
            .all(|l| l.class == LayerClass::Recurrent));
    }

    #[test]
    fn resnet_merges_blocks_into_single_layers() {
        let model = resnet34();
        // stem conv, stem pool, 16 blocks, gap, fc = 20 merged layers.
        assert_eq!(model.layers().len(), 20);
        let spatial = model
            .layers()
            .iter()
            .filter(|l| l.class.supports_spatial())
            .count();
        assert_eq!(spatial, 18); // everything except gap + fc
    }

    #[test]
    fn vgg_merges_to_expected_layer_count() {
        // VGG-11: 8 conv layers + 5 pools + 3 fc = 16 merged layers.
        assert_eq!(vgg11().layers().len(), 16);
        // VGG-16: 13 conv + 5 pools + 3 fc = 21.
        assert_eq!(vgg16().layers().len(), 21);
        // VGG-19: 16 conv + 5 pools + 3 fc = 24.
        assert_eq!(vgg19().layers().len(), 24);
    }

    #[test]
    fn vgg_shapes_flow_to_classifier() {
        let model = vgg16();
        let last_spatial = model
            .layers()
            .iter()
            .rev()
            .find(|l| l.class.supports_spatial())
            .unwrap();
        assert_eq!(last_spatial.out_shape.dims(), &[512, 7, 7]);
        assert_eq!(model.layers().last().unwrap().out_shape.dims(), &[1000]);
    }

    #[test]
    fn tiny_models_are_small_and_mergeable() {
        let v = tiny_vgg();
        assert!(v.weight_bytes() < 2 * 1024 * 1024);
        assert_eq!(v.input_shape().dims(), &[3, 16, 16]);
        let r = tiny_resnet();
        assert!(r.weight_bytes() < 60 * 1024 * 1024);
        assert_eq!(r.layers().last().unwrap().out_shape.dims(), &[1000]);
    }

    #[test]
    #[should_panic(expected = "widening scalar")]
    fn zero_widening_panics() {
        let _ = wrn50(0);
    }

    #[test]
    fn mobilenet_depthwise_layers_are_channel_local_and_spatial() {
        let model = mobilenet();
        // stem + 7 x (dw, pw) + gap + fc = 17 merged layers.
        assert_eq!(model.layers().len(), 17);
        let dw_layers: Vec<_> = model
            .layers()
            .iter()
            .filter(|l| l.name.ends_with("_dw"))
            .collect();
        assert_eq!(dw_layers.len(), 7);
        for l in &dw_layers {
            assert!(l.class.supports_spatial(), "{} not spatial", l.name);
            assert!(l.class.channel_local(), "{} not channel-local", l.name);
            assert!(!l.class.channel_splittable());
        }
        // Pointwise layers are classic single-conv heads.
        let pw = model
            .layers()
            .iter()
            .find(|l| l.name.ends_with("_pw"))
            .unwrap();
        assert!(pw.class.channel_splittable());
        // MobileNet is small: ~a few million parameters.
        let millions = params(&model) / 1e6;
        assert!(millions > 0.5 && millions < 10.0, "{millions}M params");
    }

    #[test]
    fn tiny_inception_merges_modules() {
        let model = tiny_inception();
        // stem, 2 inception modules, pool, gap, fc = 6 merged layers.
        assert_eq!(model.layers().len(), 6);
        let inc = &model.layers()[1];
        // 3 branches x (conv + relu) + concat = 7 nodes.
        assert_eq!(inc.nodes.len(), 7);
        match inc.class {
            LayerClass::ConvLike {
                rf,
                channel_splittable,
                channel_local,
            } => {
                // Widest branch: 5x5 stride-1 pad-2.
                assert_eq!(rf.kernel, 5);
                assert_eq!(rf.stride, 1);
                assert_eq!(rf.padding, 2);
                // Multi-conv modules are not channel-splittable.
                assert!(!channel_splittable);
                assert!(!channel_local);
            }
            other => panic!("expected ConvLike inception module, got {other:?}"),
        }
        // Concat sums branch channels: 4 + 6 + 2 = 12.
        assert_eq!(inc.out_shape.dims(), &[12, 16, 16]);
    }
}
