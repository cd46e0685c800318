//! Width 1 means one thread: a compiled plan run at `threads = 1` keeps
//! every kernel inside it — the conv GEMM, the depthwise and pooling window
//! driver, the dense GEMV and the LSTM's input projection — on the calling
//! thread, whatever width the pool has. Otherwise "one thread" would still
//! fan its inner kernels out, and a width-1 timing would compare the pool
//! with itself.
//!
//! The check counts the batches the calling thread hands to pool workers
//! (`gillis_pool::batches_handed_off`). It is its own test binary, so no
//! other test shares the process's pool while it counts.

use gillis_core::PlannedGroup;
use gillis_core::{group_options, CompiledPlanExec, ExecutionPlan, PartitionOption, Placement};
use gillis_model::merge::merge_graph;
use gillis_model::weights::init_weights;
use gillis_model::{zoo, Graph, LayerOp, LinearModel};
use gillis_tensor::{Shape, Tensor};

/// Every window kernel and the conv and dense ones, each above its
/// small-work cutoff, so each would fan out on a pool of two or more.
fn wide_cnn() -> LinearModel {
    let mut g = Graph::new();
    let shape = Shape::new(vec![16, 32, 32]);
    let mut cur = g.add("input", LayerOp::Input { shape }, &[]).unwrap();
    let layers = [
        (
            "conv",
            LayerOp::Conv2d {
                out_channels: 32,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        ),
        (
            "dw",
            LayerOp::DepthwiseConv2d {
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        ),
        (
            "max",
            LayerOp::MaxPool2d {
                kernel: 3,
                stride: 1,
                padding: 1,
            },
        ),
        ("flatten", LayerOp::Flatten),
        ("fc", LayerOp::Dense { out_features: 16 }),
    ];
    for (name, op) in layers {
        cur = g.add(name, op, &[cur]).unwrap();
    }
    merge_graph("wide-cnn", g).unwrap()
}

/// Every layer split two ways where it can be, run whole otherwise.
fn split2(model: &LinearModel) -> ExecutionPlan {
    let groups = (0..model.layers().len())
        .map(|i| {
            let opts = group_options(model, i, i + 1, &[2]);
            let split = opts
                .iter()
                .copied()
                .find(|o| matches!(o, PartitionOption::Split { .. }));
            PlannedGroup {
                start: i,
                end: i + 1,
                option: split.unwrap_or(PartitionOption::Single),
                placement: match split {
                    Some(_) => Placement::Workers,
                    None => Placement::Master,
                },
            }
        })
        .collect();
    ExecutionPlan::new(groups)
}

#[test]
fn a_width_one_run_keeps_every_kernel_on_the_calling_thread() {
    for model in [wide_cnn(), zoo::rnn_sized(1, 512, 256)] {
        let weights = init_weights(model.graph(), 3).unwrap();
        let x = Tensor::from_fn(model.input_shape().clone(), |i| (i % 13) as f32 * 0.1);
        for plan in [ExecutionPlan::single_function(&model), split2(&model)] {
            let mut exec = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
            let before = gillis_pool::batches_handed_off();
            exec.run_raw_with_threads(&weights, x.data(), 1).unwrap();
            let handed = gillis_pool::batches_handed_off() - before;
            assert_eq!(handed, 0, "{}: a width-1 run used the pool", model.name());
            // The same run at the pool's width does fan out, so the model is
            // big enough for the check above to mean something.
            if gillis_pool::gillis_threads() >= 2 {
                exec.run_raw_with_threads(&weights, x.data(), 2).unwrap();
                let wide = gillis_pool::batches_handed_off() - before;
                assert!(wide > 0, "{}: nothing fans out at width 2", model.name());
            }
        }
    }
}
