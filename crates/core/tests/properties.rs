//! Property-based tests of partition geometry and plan accounting.

use proptest::prelude::*;

use gillis_core::partition::{analyze_group, balanced_ranges, group_options, PartitionWork};
use gillis_core::{ExecutionPlan, PartDim, PartitionOption, Placement, PlannedGroup};
use gillis_model::zoo;

proptest! {
    #[test]
    fn balanced_ranges_partition_exactly(total in 0usize..10_000, parts in 1usize..64) {
        let ranges = balanced_ranges(total, parts);
        prop_assert_eq!(ranges.len(), parts);
        let mut expected = 0;
        for r in &ranges {
            prop_assert_eq!(r.start, expected);
            expected = r.end;
        }
        prop_assert_eq!(expected, total);
        let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1);
    }

    #[test]
    fn spatial_analysis_conserves_io_and_replicates_weights(
        start in 0usize..4,
        len in 1usize..3,
        parts_pick in 0usize..3,
    ) {
        let model = zoo::vgg11();
        let end = start + len;
        let opts = group_options(&model, start, end, &[2, 4, 8]);
        let spatial: Vec<PartitionOption> = opts
            .into_iter()
            .filter(|o| matches!(o, PartitionOption::Split { dim: PartDim::Height | PartDim::Width, .. }))
            .collect();
        prop_assume!(!spatial.is_empty());
        let option = spatial[parts_pick % spatial.len()];
        let split = analyze_group(&model, start, end, option).unwrap();
        let single = analyze_group(&model, start, end, PartitionOption::Single).unwrap();

        // Outputs tile the full output exactly.
        let out_total: u64 = split.partitions.iter().map(|p| p.output_bytes).sum();
        prop_assert_eq!(out_total, single.partitions[0].output_bytes);
        // Inputs cover at least the full input (halos only add).
        let in_total: u64 = split.partitions.iter().map(|p| p.input_bytes).sum();
        prop_assert!(in_total >= single.partitions[0].input_bytes);
        // Weights are replicated per partition.
        for p in &split.partitions {
            prop_assert_eq!(p.weight_bytes, single.partitions[0].weight_bytes);
        }
        // Halo redundancy only ever adds compute.
        prop_assert!(split.total_flops() >= single.total_flops());
    }

    #[test]
    fn channel_analysis_conserves_weights_and_flops(
        layer in 0usize..16,
        parts in 2usize..9,
    ) {
        let model = zoo::vgg11();
        let opts = group_options(&model, layer, layer + 1, &[parts]);
        prop_assume!(opts.contains(&PartitionOption::Split {
            dim: PartDim::Channel,
            parts
        }));
        let option = PartitionOption::Split {
            dim: PartDim::Channel,
            parts,
        };
        let split = analyze_group(&model, layer, layer + 1, option).unwrap();
        let single = analyze_group(&model, layer, layer + 1, PartitionOption::Single).unwrap();
        let w_split: u64 = split.partitions.iter().map(|p| p.weight_bytes).sum();
        let w_single = single.partitions[0].weight_bytes;
        // Weight split conserves total weights (up to per-part rounding).
        prop_assert!(w_split.abs_diff(w_single) <= parts as u64);
        let f_split = split.total_flops();
        let f_single = single.total_flops();
        prop_assert!(f_split.abs_diff(f_single) <= f_single / 100 + parts as u64);
        // Outputs tile exactly.
        let out: u64 = split.partitions.iter().map(PartitionWork::output_bytes_value).sum();
        prop_assert!(out.abs_diff(single.partitions[0].output_bytes) <= 4 * parts as u64);
    }

    #[test]
    fn plan_text_roundtrips_for_random_plans(
        cuts in prop::collection::vec(any::<bool>(), 16),
        picks in prop::collection::vec(any::<u8>(), 16),
    ) {
        let model = zoo::vgg11();
        let n = model.layers().len();
        let mut groups = Vec::new();
        let mut start = 0;
        for end in 1..=n {
            let force = end == n || group_options(&model, start, end + 1, &[2, 4]).is_empty();
            if !(force || cuts[end - 1]) {
                continue;
            }
            let opts = group_options(&model, start, end, &[2, 4]);
            let option = opts[picks[end - 1] as usize % opts.len()];
            groups.push(PlannedGroup {
                start,
                end,
                option,
                placement: if picks[end - 1].is_multiple_of(2) || option.parts() == 1 {
                    if option.parts() == 1 {
                        Placement::Master
                    } else {
                        Placement::MasterAndWorkers
                    }
                } else {
                    Placement::Workers
                },
            });
            start = end;
        }
        let plan = ExecutionPlan::new(groups);
        let parsed = ExecutionPlan::from_text(&plan.to_text()).unwrap();
        prop_assert_eq!(parsed, plan);
    }
}

/// Helper so the proptest above can sum output bytes through a method
/// pointer (keeps the closure form clippy-clean).
trait OutputBytes {
    fn output_bytes_value(&self) -> u64;
}

impl OutputBytes for PartitionWork {
    fn output_bytes_value(&self) -> u64 {
        self.output_bytes
    }
}
