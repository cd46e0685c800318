//! Property-based tests of the headline invariant: partitioned execution is
//! numerically identical to unpartitioned execution, for arbitrary valid
//! plans over real weights.

use proptest::prelude::*;

use gillis::core::{
    execute_plan_tensors, execute_plan_tensors_with_threads, ExecutionPlan, PartDim,
    PartitionOption, Placement, PlannedGroup,
};
use gillis::model::exec::Executor;
use gillis::model::weights::init_weights;
use gillis::model::zoo;
use gillis::tensor::Tensor;

/// Builds a random valid plan for `tiny_vgg` from proptest-chosen cut points
/// and option selectors.
fn plan_from_choices(
    model: &gillis::model::LinearModel,
    cuts: &[bool],
    option_picks: &[u8],
) -> ExecutionPlan {
    let n = model.layers().len();
    let mut groups = Vec::new();
    let mut start = 0;
    for end in 1..=n {
        let force_cut =
            end == n || gillis::core::group_options(model, start, end + 1, &[2, 4]).is_empty();
        let cut = force_cut || cuts[end - 1];
        if !cut {
            continue;
        }
        let opts = gillis::core::group_options(model, start, end, &[2, 4]);
        // Height splits are only executable when the extent divides evenly
        // enough; all options from group_options are valid by construction.
        let pick = option_picks[end - 1] as usize % opts.len();
        let option = opts[pick];
        groups.push(PlannedGroup {
            start,
            end,
            option,
            placement: if option == PartitionOption::Single {
                Placement::Master
            } else {
                Placement::Workers
            },
        });
        start = end;
    }
    ExecutionPlan::new(groups)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_plans_preserve_semantics(
        cuts in prop::collection::vec(any::<bool>(), 16),
        picks in prop::collection::vec(any::<u8>(), 16),
        weight_seed in 0u64..1000,
        input_seed in 0u64..1000,
    ) {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), weight_seed).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = Tensor::from_fn(model.input_shape().clone(), |i| {
            let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(input_seed);
            ((x >> 33) % 2000) as f32 / 1000.0 - 1.0
        });
        let reference = exec.forward(&model, &input).unwrap();

        let plan = plan_from_choices(&model, &cuts, &picks);
        plan.validate(&model, u64::MAX).unwrap();
        let partitioned = execute_plan_tensors(&model, &plan, &weights, &input).unwrap();
        let diff = reference.max_abs_diff(&partitioned).unwrap();
        prop_assert!(diff < 1e-3, "diverged by {diff} on plan {plan:?}");
    }

    #[test]
    fn random_plans_preserve_semantics_on_inception_model(
        cuts in prop::collection::vec(any::<bool>(), 8),
        picks in prop::collection::vec(any::<u8>(), 8),
        weight_seed in 0u64..500,
    ) {
        let model = zoo::tiny_inception();
        let weights = init_weights(model.graph(), weight_seed).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = Tensor::from_fn(model.input_shape().clone(), |i| {
            ((i * 131) % 23) as f32 / 11.5 - 1.0
        });
        let reference = exec.forward(&model, &input).unwrap();
        let plan = plan_from_choices(&model, &cuts, &picks);
        plan.validate(&model, u64::MAX).unwrap();
        let partitioned = execute_plan_tensors(&model, &plan, &weights, &input).unwrap();
        let diff = reference.max_abs_diff(&partitioned).unwrap();
        prop_assert!(diff < 1e-3, "diverged by {diff}");
    }

    #[test]
    fn random_plans_preserve_semantics_on_mobilenet_model(
        cuts in prop::collection::vec(any::<bool>(), 20),
        picks in prop::collection::vec(any::<u8>(), 20),
        weight_seed in 0u64..500,
    ) {
        // Depthwise-separable chains exercise channel partitioning of
        // multi-layer groups (pointwise head + channel-local depthwise).
        let model = zoo::tiny_mobilenet();
        let weights = init_weights(model.graph(), weight_seed).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = Tensor::from_fn(model.input_shape().clone(), |i| {
            ((i * 97) % 29) as f32 / 14.5 - 1.0
        });
        let reference = exec.forward(&model, &input).unwrap();
        let plan = plan_from_choices(&model, &cuts, &picks);
        plan.validate(&model, u64::MAX).unwrap();
        let partitioned = execute_plan_tensors(&model, &plan, &weights, &input).unwrap();
        let diff = reference.max_abs_diff(&partitioned).unwrap();
        prop_assert!(diff < 1e-3, "diverged by {diff} on plan {plan:?}");
    }

    #[test]
    fn random_plans_preserve_semantics_on_residual_model(
        cuts in prop::collection::vec(any::<bool>(), 24),
        picks in prop::collection::vec(any::<u8>(), 24),
        weight_seed in 0u64..500,
    ) {
        let model = zoo::tiny_resnet();
        let weights = init_weights(model.graph(), weight_seed).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = Tensor::from_fn(model.input_shape().clone(), |i| {
            ((i * 31) % 17) as f32 / 8.5 - 1.0
        });
        let reference = exec.forward(&model, &input).unwrap();
        let plan = plan_from_choices(&model, &cuts, &picks);
        plan.validate(&model, u64::MAX).unwrap();
        let partitioned = execute_plan_tensors(&model, &plan, &weights, &input).unwrap();
        let diff = reference.max_abs_diff(&partitioned).unwrap();
        prop_assert!(diff < 5e-3, "diverged by {diff}");
    }
}

/// One Hx4 group over the pool and the first three residual blocks of
/// `tiny_resnet` (an identity shortcut, then two strided projection
/// shortcuts): the skip input of every block has two consumers, which is what
/// the span plan evaluates once. Bit-identical to `forward` at any thread
/// count (and under injected crashes: `serving`'s
/// `crash_recovery_returns_exact_tensor`).
#[test]
fn forced_split_over_residual_blocks_is_bit_identical() {
    let model = zoo::tiny_resnet();
    let n = model.layers().len();
    let split = PartitionOption::Split {
        dim: PartDim::Height,
        parts: 4,
    };
    let group = |start, end, option| PlannedGroup {
        start,
        end,
        option,
        placement: if option == PartitionOption::Single {
            Placement::Master
        } else {
            Placement::Workers
        },
    };
    let plan = ExecutionPlan::new(vec![
        group(0, 1, PartitionOption::Single),
        group(1, 5, split),
        group(5, n, PartitionOption::Single),
    ]);
    plan.validate(&model, u64::MAX).unwrap();

    let weights = init_weights(model.graph(), 17).unwrap();
    let input = Tensor::from_fn(model.input_shape().clone(), |i| {
        ((i * 37) % 19) as f32 / 9.5 - 1.0
    });
    let reference = Executor::new(model.graph(), &weights)
        .forward(&model, &input)
        .unwrap();
    let assert_bits = |out: &Tensor, what: &str| {
        assert_eq!(reference.shape(), out.shape(), "{what}");
        for (a, b) in reference.data().iter().zip(out.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}");
        }
    };
    for threads in [1usize, 2, 8] {
        let out =
            execute_plan_tensors_with_threads(&model, &plan, &weights, &input, threads).unwrap();
        assert_bits(&out, &format!("{threads} threads"));
    }
}
