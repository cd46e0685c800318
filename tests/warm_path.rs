//! The facade's warm path keys its compiled plan on the weights' content
//! stamp, holds one plan at a time, and compiled channel pieces read their
//! weight rows from the live map. Everything here is a count or a bit
//! pattern; nothing is timed.

use gillis::core::{
    group_options, CompiledPlanExec, ExecutionPlan, PartDim, PartitionOption, Placement,
    PlannedGroup,
};
use gillis::model::exec::Executor;
use gillis::model::weights::{init_weights, ModelWeights, NodeWeights};
use gillis::model::{zoo, LinearModel};
use gillis::serving::Gillis;
use gillis::tensor::Tensor;

fn query(model: &LinearModel) -> Tensor {
    Tensor::from_fn(model.input_shape().clone(), |i| {
        ((i * 37 % 101) as f32 - 50.0) / 50.0
    })
}

fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

fn forward(model: &LinearModel, weights: &ModelWeights, x: &Tensor) -> Tensor {
    Executor::new(model.graph(), weights)
        .forward(model, x)
        .unwrap()
}

#[test]
fn a_weight_set_rebuilt_in_the_same_place_is_never_served_stale_panels() {
    // Every `w` lands on the same stack slot and the allocator hands its heap
    // blocks out again, so an address cannot tell the sets apart; the stamp
    // can, and each seed compiles against its own weights. What a compile
    // snapshots is the folded batch-norm constants: tiny-mobilenet has them
    // (a stale plan would normalise with the previous seed's), tiny-vgg has
    // none and must hold all the same.
    for model in [zoo::tiny_vgg(), zoo::tiny_mobilenet()] {
        let deployment = Gillis::new(model.clone()).deploy().unwrap();
        let x = query(&model);
        for seed in 0..4u64 {
            let w = init_weights(model.graph(), seed).unwrap();
            let out = deployment.infer(&w, &x).unwrap();
            let what = format!("{} seed {seed}", model.name());
            assert_bits_eq(&out, &forward(&model, &w, &x), &what);
            let plan = deployment.warm_plan().expect("the model compiles");
            assert_eq!(plan.weights_stamp, w.stamp(), "{what}");
            assert_eq!(plan.compiles, seed + 1, "{what}");
        }
    }
}

#[test]
fn moved_and_cloned_weights_reuse_the_plan_and_a_swap_replaces_it() {
    struct Holder {
        weights: ModelWeights,
    }
    let model = zoo::tiny_vgg();
    let deployment = Gillis::new(model.clone()).deploy().unwrap();
    let x = query(&model);
    let weights = init_weights(model.graph(), 11).unwrap();
    let reference = forward(&model, &weights, &x);
    assert!(deployment.warm_plan().is_none());
    assert_bits_eq(
        &deployment.infer(&weights, &x).unwrap(),
        &reference,
        "first",
    );
    let plan = deployment.warm_plan().unwrap();
    assert_eq!((plan.compiles, plan.weights_stamp), (1, weights.stamp()));
    assert!(plan.activation_bytes > 0);

    // Into a struct on the heap, and a clone of that: same content, same
    // stamp, same plan.
    let held = Box::new(Holder { weights });
    let copy = held.weights.clone();
    for w in [&held.weights, &copy] {
        assert_bits_eq(&deployment.infer(w, &x).unwrap(), &reference, "moved");
        assert_eq!(deployment.warm_plan(), Some(plan));
    }

    // Other content: one new plan of the same size takes the slot, and going
    // back compiles again — the slot holds one plan, not a history.
    let other = init_weights(model.graph(), 12).unwrap();
    let out = deployment.infer(&other, &x).unwrap();
    assert_bits_eq(&out, &forward(&model, &other, &x), "swapped");
    let swapped = deployment.warm_plan().unwrap();
    assert_eq!(
        (swapped.compiles, swapped.weights_stamp),
        (2, other.stamp())
    );
    assert_eq!(swapped.activation_bytes, plan.activation_bytes);
    assert_bits_eq(&deployment.infer(&copy, &x).unwrap(), &reference, "back");
    assert_eq!(deployment.warm_plan().unwrap().compiles, 3);
}

#[test]
fn a_four_way_channel_split_of_the_dense_layers_reads_the_live_weights() {
    // Every layer its own group; the dense ones split four ways by channel.
    let model = zoo::tiny_vgg();
    let channel4 = PartitionOption::Split {
        dim: PartDim::Channel,
        parts: 4,
    };
    let mut dense_groups = 0;
    let groups = (0..model.layers().len())
        .map(|i| {
            let dense = !model.layers()[i].class.supports_spatial()
                && group_options(&model, i, i + 1, &[4]).contains(&channel4);
            dense_groups += usize::from(dense);
            PlannedGroup {
                start: i,
                end: i + 1,
                option: if dense {
                    channel4
                } else {
                    PartitionOption::Single
                },
                placement: if dense {
                    Placement::Workers
                } else {
                    Placement::Master
                },
            }
        })
        .collect();
    assert!(dense_groups >= 2, "tiny-vgg has dense layers to split");
    let plan = ExecutionPlan::new(groups);
    let weights = init_weights(model.graph(), 3).unwrap();
    let x = query(&model);
    let mut exec = CompiledPlanExec::compile(&model, &plan, &weights).unwrap();
    for threads in [1, 2] {
        let (out, shape) = exec
            .run_raw_with_threads(&weights, x.data(), threads)
            .unwrap();
        let out = Tensor::from_vec(shape.clone(), out.to_vec()).unwrap();
        assert_bits_eq(&out, &forward(&model, &weights, &x), "Cx4 dense");
    }

    // The pieces hold row ranges, not copies: with the first dense layer's
    // weights replaced in the map, the same compiled plan computes the new
    // model. (Conv panels are packed at compile time, so only dense differs.)
    let dense = model
        .graph()
        .nodes()
        .iter()
        .find(|n| matches!(weights.get(n.id), Ok(NodeWeights::Dense { .. })))
        .unwrap()
        .id;
    let Ok(NodeWeights::Dense { weight, bias }) = weights.get(dense).cloned() else {
        unreachable!("just matched");
    };
    let mut other = weights.clone();
    other.insert(
        dense,
        NodeWeights::Dense {
            weight: weight.map(|w| -0.5 * w),
            bias: bias.map(|b| b + 0.25),
        },
    );
    let out = exec.run(&other, &x).unwrap();
    assert_bits_eq(&out, &forward(&model, &other, &x), "live dense rows");
    assert!(out.data() != forward(&model, &weights, &x).data());
}
