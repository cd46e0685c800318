//! Per-layer-type runtime regression (paper §IV-A, "Model Runtime").
//!
//! "For each type of layer, we run it with various configurations in a
//! single function, profile the execution time, and build a regression model
//! for prediction. Given a DNN, we infer its runtime by summing up all the
//! predicted layer execution times."

use rand::rngs::StdRng;
use rand::SeedableRng;

use gillis_faas::compute::EffClass;
use gillis_faas::PlatformProfile;

use gillis_model::{LayerClass, LayerOp, LinearModel, MergedLayer};

use crate::regression::LinearRegression;

/// Which profiling class a layer op belongs to, or `None` for zero-cost ops.
pub fn class_of_op(op: &LayerOp) -> Option<EffClass> {
    match op {
        LayerOp::Conv2d { .. } => Some(EffClass::Conv),
        // Depthwise kernels have low arithmetic intensity (memory-bound):
        // model them with the pooling efficiency class.
        LayerOp::DepthwiseConv2d { .. } => Some(EffClass::Pool),
        LayerOp::Dense { .. } => Some(EffClass::Dense),
        LayerOp::Lstm { .. } => Some(EffClass::Recurrent),
        LayerOp::MaxPool2d { .. } | LayerOp::GlobalAvgPool => Some(EffClass::Pool),
        LayerOp::BatchNorm | LayerOp::Relu | LayerOp::Add => Some(EffClass::ElementWise),
        LayerOp::Input { .. } | LayerOp::Flatten | LayerOp::Concat => None,
    }
}

/// The dominant profiling class of a merged layer, used when per-node detail
/// is not needed.
pub fn eff_class_of_layer(layer: &MergedLayer) -> EffClass {
    match layer.class {
        LayerClass::DenseLike => EffClass::Dense,
        LayerClass::Recurrent => EffClass::Recurrent,
        LayerClass::Reduction => EffClass::Pool,
        LayerClass::ConvLike { channel_local, .. } => {
            if channel_local {
                EffClass::Pool
            } else {
                EffClass::Conv
            }
        }
    }
}

/// Emission order of [`flops_by_class`]: alphabetical by debug name, the
/// order the historical `format!("{c:?}")` sort produced.
const CLASS_EMIT_ORDER: [EffClass; 5] = [
    EffClass::Conv,
    EffClass::Dense,
    EffClass::ElementWise,
    EffClass::Pool,
    EffClass::Recurrent,
];

/// Dense index of a class into [`CLASS_EMIT_ORDER`].
fn class_rank(class: EffClass) -> usize {
    match class {
        EffClass::Conv => 0,
        EffClass::Dense => 1,
        EffClass::ElementWise => 2,
        EffClass::Pool => 3,
        EffClass::Recurrent => 4,
    }
}

/// Breaks a merged layer's FLOPs down by profiling class, walking its
/// constituent graph nodes. The partitioner scales these per-class totals by
/// the partition fraction when predicting partition compute times.
///
/// This sits on the planner's innermost path (every group analysis of every
/// DP cell consults it), so totals accumulate into a fixed five-slot array
/// indexed by class rank — no hashing, no allocation beyond the result.
pub fn flops_by_class(model: &LinearModel, layer: &MergedLayer) -> Vec<(EffClass, u64)> {
    let graph = model.graph();
    let mut totals = [0u64; CLASS_EMIT_ORDER.len()];
    let mut seen = [false; CLASS_EMIT_ORDER.len()];
    for &id in &layer.nodes {
        let node = &graph.nodes()[id.0];
        if let Some(class) = class_of_op(&node.op) {
            let in_shapes: Vec<_> = node
                .inputs
                .iter()
                .map(|&i| &graph.nodes()[i.0].output_shape)
                .collect();
            let rank = class_rank(class);
            totals[rank] += node.op.flops(&in_shapes, &node.output_shape);
            seen[rank] = true;
        }
    }
    CLASS_EMIT_ORDER
        .iter()
        .zip(totals)
        .zip(seen)
        .filter(|&(_, s)| s)
        .map(|((&c, f), _)| (c, f))
        .collect()
}

/// Per-class linear runtime models fitted from profiling runs.
#[derive(Debug, Clone)]
pub struct LayerRuntimeModel {
    /// One regression per class, in [`ALL_CLASSES`] order: `predict_ms` runs
    /// several times per partition of every option of every DP cell, where
    /// hashing the class cost four fifths of a group prediction.
    per_class: Vec<LinearRegression>,
    /// Relative standard deviation of the profiling residuals — an estimate
    /// of the platform's run-to-run compute variance, used by the tail
    /// (quantile) latency predictor.
    noise_rel_std: f64,
}

const ALL_CLASSES: [EffClass; 5] = [
    EffClass::Conv,
    EffClass::Dense,
    EffClass::Recurrent,
    EffClass::Pool,
    EffClass::ElementWise,
];

impl LayerRuntimeModel {
    /// Profiles each layer class on the platform (noisy measurements across
    /// a log-spaced FLOP sweep, several repetitions each) and fits a
    /// per-class regression `time = a · flops + b`.
    pub fn profiled(platform: &PlatformProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut per_class = Vec::with_capacity(ALL_CLASSES.len());
        let mut rel_residuals: Vec<f64> = Vec::new();
        for class in ALL_CLASSES {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            // Sweep from 1 MFLOP to ~40 GFLOPs: the range real layers span.
            let mut flops = 1_000_000u64;
            while flops <= 40_000_000_000 {
                for _ in 0..5 {
                    xs.push([flops as f64]);
                    ys.push(platform.compute_ms_noisy(flops, class, &mut rng));
                }
                flops = (flops as f64 * 2.3) as u64;
            }
            // 1/y² weights: minimize relative error so small layers are
            // predicted as accurately as large ones.
            let weights: Vec<f64> = ys.iter().map(|y| 1.0 / (y * y).max(1e-12)).collect();
            let model = LinearRegression::fit_weighted(&xs, &ys, Some(&weights))
                .expect("profiling sweep produces a well-posed regression");
            for (x, y) in xs.iter().zip(ys.iter()) {
                let pred = model.predict(x);
                if pred > 0.0 {
                    rel_residuals.push((y - pred) / pred);
                }
            }
            per_class.push(model);
        }
        let noise_rel_std = gillis_faas::stats::variance(&rel_residuals).sqrt();
        LayerRuntimeModel {
            per_class,
            noise_rel_std,
        }
    }

    /// Builds the exact (noise-free) runtime model from the platform's
    /// ground-truth constants.
    pub fn analytic(platform: &PlatformProfile) -> Self {
        let per_class = ALL_CLASSES.map(|class| {
            // Ground truth is exactly linear: time = overhead + flops/peak.
            let per_flop =
                platform.compute_ms(1_000_000_000, class) - platform.per_layer_overhead_ms;
            LinearRegression {
                coeffs: vec![per_flop / 1e9],
                intercept: platform.per_layer_overhead_ms,
            }
        });
        LayerRuntimeModel {
            per_class: per_class.into(),
            noise_rel_std: platform.compute_noise_rel_std,
        }
    }

    /// Estimated relative standard deviation of compute times (from
    /// profiling residuals, or the ground-truth constant for analytic
    /// models).
    pub fn noise_rel_std(&self) -> f64 {
        self.noise_rel_std
    }

    /// Predicted execution time (ms) of `flops` of `class` work.
    pub fn predict_ms(&self, flops: u64, class: EffClass) -> f64 {
        let slot = ALL_CLASSES.iter().position(|&c| c == class);
        self.per_class[slot.expect("ALL_CLASSES lists every class")]
            .predict(&[flops as f64])
            .max(0.0)
    }

    /// Predicted runtime of a whole model in one function: the sum over all
    /// graph nodes of their predicted layer times (paper §IV-A).
    pub fn predict_model_ms(&self, model: &LinearModel) -> f64 {
        let graph = model.graph();
        graph
            .nodes()
            .iter()
            .filter_map(|n| {
                let class = class_of_op(&n.op)?;
                let in_shapes: Vec<_> = n
                    .inputs
                    .iter()
                    .map(|&i| &graph.nodes()[i.0].output_shape)
                    .collect();
                Some(self.predict_ms(n.op.flops(&in_shapes, &n.output_shape), class))
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gillis_model::zoo;

    #[test]
    fn profiled_regression_is_accurate() {
        // Fig 15 (top left): prediction error within a few percent.
        let platform = PlatformProfile::aws_lambda();
        let model = LayerRuntimeModel::profiled(&platform, 7);
        for class in ALL_CLASSES {
            for flops in [50_000_000u64, 2_000_000_000, 20_000_000_000] {
                let truth = platform.compute_ms(flops, class);
                let pred = model.predict_ms(flops, class);
                let rel = (truth - pred).abs() / truth;
                assert!(rel < 0.06, "{class:?}/{flops}: {pred} vs {truth}");
            }
        }
    }

    #[test]
    fn class_mapping_covers_all_ops() {
        assert_eq!(
            class_of_op(&LayerOp::Conv2d {
                out_channels: 1,
                kernel: 1,
                stride: 1,
                padding: 0
            }),
            Some(EffClass::Conv)
        );
        assert_eq!(
            class_of_op(&LayerOp::Dense { out_features: 1 }),
            Some(EffClass::Dense)
        );
        assert_eq!(
            class_of_op(&LayerOp::Lstm { hidden: 1 }),
            Some(EffClass::Recurrent)
        );
        assert_eq!(class_of_op(&LayerOp::Flatten), None);
        assert_eq!(class_of_op(&LayerOp::Relu), Some(EffClass::ElementWise));
        assert_eq!(class_of_op(&LayerOp::GlobalAvgPool), Some(EffClass::Pool));
    }

    #[test]
    fn model_runtime_prediction_sums_layers() {
        let platform = PlatformProfile::aws_lambda();
        let runtime = LayerRuntimeModel::analytic(&platform);
        let vgg = zoo::vgg16();
        let predicted = runtime.predict_model_ms(&vgg);
        // VGG-16 is ~31 GFLOPs of mostly-conv work on a 28 GFLOP/s
        // instance: expect on the order of 1.0–2.0 s.
        assert!(
            predicted > 800.0 && predicted < 2500.0,
            "vgg16 predicted {predicted}"
        );
    }

    #[test]
    fn deeper_models_predict_longer_runtimes() {
        let platform = PlatformProfile::aws_lambda();
        let runtime = LayerRuntimeModel::analytic(&platform);
        let v11 = runtime.predict_model_ms(&zoo::vgg11());
        let v16 = runtime.predict_model_ms(&zoo::vgg16());
        let v19 = runtime.predict_model_ms(&zoo::vgg19());
        assert!(v11 < v16 && v16 < v19);
    }

    #[test]
    fn flops_by_class_emits_debug_alphabetical_order() {
        // The rank table must match the historical `format!("{c:?}")` sort.
        let ranked: Vec<String> = CLASS_EMIT_ORDER.iter().map(|c| format!("{c:?}")).collect();
        let mut sorted = ranked.clone();
        sorted.sort();
        assert_eq!(ranked, sorted);
        for (i, &c) in CLASS_EMIT_ORDER.iter().enumerate() {
            assert_eq!(class_rank(c), i);
        }
        // And real layers come out sorted.
        for model in [zoo::vgg16(), zoo::mobilenet(), zoo::rnn(2)] {
            for layer in model.layers() {
                let names: Vec<String> = flops_by_class(&model, layer)
                    .iter()
                    .map(|(c, _)| format!("{c:?}"))
                    .collect();
                let mut sorted = names.clone();
                sorted.sort();
                assert_eq!(names, sorted, "{}", layer.name);
            }
        }
    }

    #[test]
    fn eff_class_of_merged_layers() {
        let vgg = zoo::vgg11();
        let classes: Vec<EffClass> = vgg.layers().iter().map(eff_class_of_layer).collect();
        assert_eq!(classes[0], EffClass::Conv);
        assert!(classes.contains(&EffClass::Pool));
        assert_eq!(*classes.last().unwrap(), EffClass::Dense);
        let rnn = zoo::rnn(2);
        assert!(rnn
            .layers()
            .iter()
            .all(|l| eff_class_of_layer(l) == EffClass::Recurrent));
    }
}
