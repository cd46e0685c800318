//! Partition geometry: how a layer group is split into independent pieces.
//!
//! Implements the tensor-dependency analysis of paper §III-C / Fig 2:
//!
//! - **Spatial** partitions slice the output height (or width) of a group of
//!   convolution-like layers; each piece needs a halo of input rows given by
//!   the group's composed receptive field, which also quantifies the
//!   redundant computation grouping introduces.
//! - **Channel** partitions split a filter bank (single conv head) or weight
//!   matrix (dense layer) so each worker holds a weight subset but needs the
//!   whole input; channel-local layers (pools, global pooling) chain through.
//! - **Single** keeps the group whole (the only option for LSTM layers).

use serde::{Deserialize, Serialize};

use gillis_faas::compute::EffClass;
use gillis_model::{LinearModel, MergedLayer};
use gillis_perf::flops_by_class;

use crate::error::CoreError;
use crate::Result;

/// The dimension a group is split along.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartDim {
    /// Output height.
    Height,
    /// Output width.
    Width,
    /// Output channels (or dense output units).
    Channel,
}

impl PartDim {
    /// The axis of a group's CHW output this dimension cuts, which is also
    /// the axis the pieces' outputs are joined along.
    pub fn axis(self) -> usize {
        match self {
            PartDim::Channel => 0,
            PartDim::Height => 1,
            PartDim::Width => 2,
        }
    }
}

/// How a layer group is parallelized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionOption {
    /// The whole group runs as one partition (in the master or one worker).
    Single,
    /// The group output is split into `parts` pieces along `dim`.
    Split {
        /// Split dimension.
        dim: PartDim,
        /// Number of partitions (>= 2).
        parts: usize,
    },
}

impl PartitionOption {
    /// Number of partitions this option produces.
    pub fn parts(&self) -> usize {
        match self {
            PartitionOption::Single => 1,
            PartitionOption::Split { parts, .. } => *parts,
        }
    }
}

impl std::fmt::Display for PartitionOption {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionOption::Single => write!(f, "single"),
            PartitionOption::Split { dim, parts } => {
                let d = match dim {
                    PartDim::Height => "H",
                    PartDim::Width => "W",
                    PartDim::Channel => "C",
                };
                write!(f, "{d}x{parts}")
            }
        }
    }
}

/// The work and data footprint of one partition of a group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionWork {
    /// FLOPs by profiling class (halo redundancy included for spatial
    /// partitions).
    pub flops: Vec<(EffClass, u64)>,
    /// Weight bytes this partition's function must hold.
    pub weight_bytes: u64,
    /// Bytes the master ships to this partition (its input slice).
    pub input_bytes: u64,
    /// Bytes this partition returns (its output slice).
    pub output_bytes: u64,
}

impl PartitionWork {
    /// Total FLOPs across classes.
    pub fn total_flops(&self) -> u64 {
        self.flops.iter().map(|(_, f)| f).sum()
    }

    /// Memory footprint of running this partition in a function: weights
    /// plus input and output activations. The compiled executor holds what
    /// this prices — the weights once, and per piece in flight the few live
    /// activations its steps read and write
    /// (`CompiledPlanExec::activation_bytes`) — not one buffer per op.
    pub fn mem_bytes(&self) -> u64 {
        self.weight_bytes + self.input_bytes + self.output_bytes
    }
}

/// Full analysis of a (group, option) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupAnalysis {
    /// The analyzed option.
    pub option: PartitionOption,
    /// One entry per partition.
    pub partitions: Vec<PartitionWork>,
}

impl GroupAnalysis {
    /// Largest per-partition memory footprint.
    pub fn max_partition_mem(&self) -> u64 {
        self.partitions
            .iter()
            .map(PartitionWork::mem_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total FLOPs across partitions (>= the unpartitioned group FLOPs for
    /// spatial splits — the difference is halo redundancy, §III-C).
    pub fn total_flops(&self) -> u64 {
        self.partitions.iter().map(PartitionWork::total_flops).sum()
    }
}

/// Per-layer FLOPs-by-class tables for a whole model, computed once and
/// shared across every group analysis.
///
/// `flops_by_class` walks a merged layer's constituent graph nodes, which is
/// far too slow to repeat for every `(group, option)` pair the planner
/// visits — the DP alone analyzes `O(n²)` groups with ~a dozen options each.
/// Build this table once per model (or let
/// [`EvalCache`](crate::cache::EvalCache) do it) and analyze groups through
/// [`analyze_group_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelFlops {
    per_layer: Vec<Vec<(EffClass, u64)>>,
}

impl ModelFlops {
    /// Computes the per-layer tables for `model`.
    pub fn new(model: &LinearModel) -> Self {
        ModelFlops {
            per_layer: model
                .layers()
                .iter()
                .map(|l| flops_by_class(model, l))
                .collect(),
        }
    }

    /// The tables of layers `start..end`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds for the model this table was
    /// built from.
    pub fn layers(&self, start: usize, end: usize) -> &[Vec<(EffClass, u64)>] {
        &self.per_layer[start..end]
    }

    /// Number of layers covered.
    pub fn len(&self) -> usize {
        self.per_layer.len()
    }

    /// Whether the model had no layers.
    pub fn is_empty(&self) -> bool {
        self.per_layer.is_empty()
    }
}

/// Splits `total` into `parts` balanced contiguous ranges.
pub fn balanced_ranges(total: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    assert!(parts > 0, "parts must be positive");
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let end = total * (p + 1) / parts;
        out.push(start..end);
        start = end;
    }
    out
}

/// The join axis of the group `layers` split along `dim`, and the balanced
/// range of the group output each of the `parts` pieces owns along it — the
/// one split geometry the planner prices and both executors cut by.
pub fn split_ranges(
    layers: &[MergedLayer],
    dim: PartDim,
    parts: usize,
) -> (usize, Vec<std::ops::Range<usize>>) {
    let axis = dim.axis();
    let extent = layers[layers.len() - 1].out_shape.dims()[axis];
    (axis, balanced_ranges(extent, parts))
}

/// Whether all layers in the group can be group-parallelized spatially.
fn group_is_spatial(layers: &[MergedLayer]) -> bool {
    layers.iter().all(|l| l.class.supports_spatial())
}

/// Whether the group can be channel-partitioned: either every layer is
/// channel-local (input channels are sliced through), or the head splits its
/// weights (and takes the full input) and the remaining layers are
/// channel-local.
fn group_is_channel(layers: &[MergedLayer]) -> bool {
    let Some((head, rest)) = layers.split_first() else {
        return false;
    };
    (head.class.channel_local() || head.class.channel_splittable())
        && rest.iter().all(|l| l.class.channel_local())
}

/// Enumerates the feasible partitioning options of the group
/// `model.layers()[start..end]`, given the parallelism degrees to consider.
///
/// Every non-empty group admits at least [`PartitionOption::Single`]; a
/// structurally mixed group (e.g. a dense layer grouped with convolutions —
/// Fig 6's `L3` barrier) admits nothing else. Only an empty range yields an
/// empty vector. The options of `start..end` are a subsequence of those of
/// `end - 1..end`: extents come from the last layer, and a longer group can
/// only lose joint parallelizability.
pub fn group_options(
    model: &LinearModel,
    start: usize,
    end: usize,
    degrees: &[usize],
) -> Vec<PartitionOption> {
    let layers = &model.layers()[start..end];
    if layers.is_empty() {
        return Vec::new();
    }
    // Any group can at least run whole (sequentially, in one function);
    // split options additionally require joint parallelizability.
    let mut options = vec![PartitionOption::Single];
    if group_is_spatial(layers) {
        let out = &layers[layers.len() - 1].out_shape;
        for (dim, extent) in [
            (PartDim::Height, out.dims()[1]),
            (PartDim::Width, out.dims()[2]),
        ] {
            for &parts in degrees {
                if parts >= 2 && extent >= parts {
                    options.push(PartitionOption::Split { dim, parts });
                }
            }
        }
    }
    if group_is_channel(layers) {
        let out = &layers[layers.len() - 1].out_shape;
        let extent = out.dims()[0];
        for &parts in degrees {
            if parts >= 2 && extent >= parts {
                options.push(PartitionOption::Split {
                    dim: PartDim::Channel,
                    parts,
                });
            }
        }
    }
    options
}

/// Analyzes one (group, option) pair: per-partition FLOPs (with halo
/// redundancy), weight bytes, and transfer sizes.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] if the option is not applicable to
/// the group (use [`group_options`] to enumerate valid options).
pub fn analyze_group(
    model: &LinearModel,
    start: usize,
    end: usize,
    option: PartitionOption,
) -> Result<GroupAnalysis> {
    let layers = model
        .layers()
        .get(start..end)
        .ok_or_else(|| CoreError::InvalidArgument(format!("group {start}..{end} out of range")))?;
    let tables: Vec<Vec<(EffClass, u64)>> =
        layers.iter().map(|l| flops_by_class(model, l)).collect();
    analyze_group_inner(layers, &tables, option)
}

/// [`analyze_group`] against a precomputed [`ModelFlops`] table, skipping the
/// per-layer graph walks. Results are identical to `analyze_group`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidArgument`] if the option is not applicable to
/// the group.
pub fn analyze_group_with(
    model: &LinearModel,
    flops: &ModelFlops,
    start: usize,
    end: usize,
    option: PartitionOption,
) -> Result<GroupAnalysis> {
    let layers = model
        .layers()
        .get(start..end)
        .ok_or_else(|| CoreError::InvalidArgument(format!("group {start}..{end} out of range")))?;
    analyze_group_inner(layers, flops.layers(start, end), option)
}

fn analyze_group_inner(
    layers: &[MergedLayer],
    per_layer_flops: &[Vec<(EffClass, u64)>],
    option: PartitionOption,
) -> Result<GroupAnalysis> {
    if layers.is_empty() {
        return Err(CoreError::InvalidArgument("empty group".into()));
    }
    let mut walker = GroupWalker::new(layers, per_layer_flops, option);
    for _ in layers {
        walker.extend()?;
    }
    Ok(walker.analysis)
}

/// Suffix-incremental group analysis: holds the [`GroupAnalysis`] of a group
/// under one option and grows the group one layer at the front.
///
/// Everything a longer group adds to a shorter one with the same end is one
/// more step of the same walk. A spatial split walks each partition's output
/// rows backward through the receptive fields, so the rows `start - 1..end`
/// needs of its input are the rows `start..end` needs pushed through one
/// more layer; FLOPs and weight bytes are `u64` sums of per-layer terms.
/// Analyzing every start of one end therefore costs one walk, not one walk
/// per start — and a single group's analysis is the same walk, stopped at
/// its start.
pub(crate) struct GroupWalker<'a> {
    /// Layers the group may grow over (it ends where the slice ends) and
    /// their index-aligned FLOPs tables.
    layers: &'a [MergedLayer],
    tables: &'a [Vec<(EffClass, u64)>],
    /// Layers taken so far, from the back.
    len: usize,
    /// Per partition — spatial splits: the rows needed of the group's
    /// input; channel splits: the output channels produced.
    ranges: Vec<std::ops::Range<usize>>,
    /// Whether every layer taken so far is channel-local.
    all_local: bool,
    analysis: GroupAnalysis,
}

impl<'a> GroupWalker<'a> {
    /// An empty group at the end of `layers` (`tables` index-aligned).
    pub(crate) fn new(
        layers: &'a [MergedLayer],
        tables: &'a [Vec<(EffClass, u64)>],
        option: PartitionOption,
    ) -> Self {
        GroupWalker {
            layers,
            tables,
            len: 0,
            ranges: Vec::new(),
            all_local: true,
            analysis: GroupAnalysis {
                option,
                partitions: Vec::new(),
            },
        }
    }

    /// Number of layers in the group.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The analysis of the group as grown so far.
    pub(crate) fn analysis(&self) -> &GroupAnalysis {
        &self.analysis
    }

    /// Grows the group by the layer in front of it.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidArgument`] if the option does not apply
    /// to the grown group (no longer group contains it either, so the walker
    /// is spent) or no layer is left.
    pub(crate) fn extend(&mut self) -> Result<()> {
        let invalid = |why: String| Err(CoreError::InvalidArgument(why));
        let Some(li) = self.layers.len().checked_sub(self.len + 1) else {
            return invalid("group out of range".into());
        };
        let (layer, table) = (&self.layers[li], &self.tables[li]);
        let last = &self.layers[self.layers.len() - 1];
        let parts = &mut self.analysis.partitions;
        // A partition before its first layer: only its output is known.
        let blank = |output_bytes: u64| PartitionWork {
            flops: Vec::new(),
            weight_bytes: 0,
            input_bytes: 0,
            output_bytes,
        };
        match self.analysis.option {
            PartitionOption::Single => {
                if self.len == 0 {
                    parts.push(blank(last.out_bytes()));
                }
                merge_flops_front(&mut parts[0].flops, table, |f| f);
                parts[0].weight_bytes += layer.weight_bytes;
                parts[0].input_bytes = layer.in_bytes();
            }
            PartitionOption::Split { parts: n, .. } if n < 2 => {
                return invalid("split needs at least two parts".into());
            }
            PartitionOption::Split {
                dim: dim @ (PartDim::Height | PartDim::Width),
                parts: n,
            } => {
                let d = dim.axis();
                let Some(rf) = layer.class.receptive_field() else {
                    return invalid(format!(
                        "layer '{}' is not spatially partitionable",
                        layer.name
                    ));
                };
                // Elements per row: the product of the other extents.
                let other = |dims: &[usize]| -> usize {
                    let but_d = dims.iter().enumerate().filter(|&(i, _)| i != d);
                    but_d.map(|(_, &x)| x).product()
                };
                if self.len == 0 {
                    // Spatial partitions slice the group's output rows.
                    self.ranges = balanced_ranges(last.out_shape.dims()[d], n);
                    let other_out = other(last.out_shape.dims());
                    let out_bytes = |r: &std::ops::Range<usize>| 4 * (r.len() * other_out) as u64;
                    parts.extend(self.ranges.iter().map(|r| blank(out_bytes(r))));
                }
                let extent = layer.out_shape.dims()[d];
                let in_extent = layer.in_shape.dims()[d];
                let other_in = other(layer.in_shape.dims());
                for (part, rows) in parts.iter_mut().zip(&mut self.ranges) {
                    // `rows` are in this layer's output coordinates; the
                    // fraction of the layer computed includes the halo.
                    let frac = rows.len() as f64 / extent as f64;
                    for &(class, f) in table {
                        merge_flops(&mut part.flops, class, (f as f64 * frac).round() as u64);
                    }
                    *rows = rf.input_rows(rows.clone(), in_extent).0;
                    // Spatial partitions replicate the full group weights.
                    part.weight_bytes += layer.weight_bytes;
                    part.input_bytes = 4 * (rows.len() * other_in) as u64;
                }
            }
            PartitionOption::Split {
                dim: PartDim::Channel,
                parts: n,
            } => {
                // The new head must pass channels through or split its own
                // weights, and everything behind it must pass them through.
                let local = layer.class.channel_local();
                if !(self.all_local && (local || layer.class.channel_splittable())) {
                    return invalid(format!(
                        "layer '{}' cannot head a channel-partitioned group",
                        layer.name
                    ));
                }
                self.all_local = local;
                let out_extent = last.out_shape.dims()[0];
                if self.len == 0 {
                    self.ranges = balanced_ranges(out_extent, n);
                    parts.extend(self.ranges.iter().map(|r| {
                        let frac = r.len() as f64 / out_extent as f64;
                        blank((last.out_bytes() as f64 * frac).round() as u64)
                    }));
                }
                for (part, channels) in parts.iter_mut().zip(&self.ranges) {
                    let frac = channels.len() as f64 / out_extent as f64;
                    let scale = |x: u64| (x as f64 * frac).round() as u64;
                    merge_flops_front(&mut part.flops, table, scale);
                    part.weight_bytes += scale(layer.weight_bytes);
                    part.input_bytes = if local {
                        scale(layer.in_bytes())
                    } else {
                        // Weight-split heads consume the entire input (Fig 2b).
                        layer.in_bytes()
                    };
                }
            }
        }
        self.len += 1;
        Ok(())
    }
}

fn merge_flops(acc: &mut Vec<(EffClass, u64)>, class: EffClass, f: u64) {
    if f == 0 {
        return;
    }
    match acc.iter_mut().find(|(c, _)| *c == class) {
        Some((_, total)) => *total += f,
        None => acc.push((class, f)),
    }
}

/// Merges a new head layer's `table` (each entry through `scale`) into
/// `acc` so that `acc` reads as if accumulated head-first: the head's
/// classes lead in table order, the rest keep their order. Predictions sum
/// per-class times in entry order, so the order is part of the result.
fn merge_flops_front(
    acc: &mut Vec<(EffClass, u64)>,
    table: &[(EffClass, u64)],
    scale: impl Fn(u64) -> u64,
) {
    let mut front = 0;
    for &(class, f) in table {
        let f = scale(f);
        if f == 0 {
            continue;
        }
        match acc.iter().position(|(c, _)| *c == class) {
            Some(at) => {
                acc[at].1 += f;
                if at >= front {
                    acc[front..=at].rotate_right(1);
                    front += 1;
                }
            }
            None => {
                acc.insert(front, (class, f));
                front += 1;
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use gillis_model::zoo;

    #[test]
    fn balanced_ranges_cover_exactly() {
        for (total, parts) in [(10usize, 3usize), (16, 4), (7, 7), (5, 2), (100, 16)] {
            let ranges = balanced_ranges(total, parts);
            assert_eq!(ranges.len(), parts);
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges[parts - 1].end, total);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "unbalanced: {sizes:?}");
        }
    }

    #[test]
    fn vgg_first_conv_group_options() {
        let vgg = zoo::vgg11();
        let degrees = [2, 4, 8, 16];
        // First merged layer: conv1 (+relu) — spatial + channel splittable.
        let opts = group_options(&vgg, 0, 1, &degrees);
        assert!(opts.contains(&PartitionOption::Single));
        assert!(opts.contains(&PartitionOption::Split {
            dim: PartDim::Height,
            parts: 16
        }));
        assert!(opts.contains(&PartitionOption::Split {
            dim: PartDim::Channel,
            parts: 4
        }));
    }

    #[test]
    fn dense_barrier_blocks_grouping() {
        let vgg = zoo::vgg11();
        let n = vgg.layers().len();
        // A group spanning the last spatial layer and the first dense layer
        // cannot be *split* (Fig 6's L3) — it may only run whole.
        let opts = group_options(&vgg, n - 4, n - 2, &[2, 4]);
        assert_eq!(opts, vec![PartitionOption::Single], "got {opts:?}");
        // The dense layer alone supports Single and Channel.
        let opts = group_options(&vgg, n - 3, n - 2, &[2, 4]);
        assert!(opts.contains(&PartitionOption::Single));
        assert!(opts.contains(&PartitionOption::Split {
            dim: PartDim::Channel,
            parts: 4
        }));
    }

    #[test]
    fn recurrent_layers_admit_only_single() {
        let rnn = zoo::rnn(4);
        let opts = group_options(&rnn, 0, 2, &[2, 4, 8]);
        assert_eq!(opts, vec![PartitionOption::Single]);
    }

    #[test]
    fn spatial_split_adds_halo_redundancy() {
        // Two *stacked* 3x3 convolutions (VGG-16 conv1+conv2): the second
        // conv's halo forces partitions to recompute rows of the first.
        let vgg = zoo::vgg16();
        let single = analyze_group(&vgg, 0, 2, PartitionOption::Single).unwrap();
        let split = analyze_group(
            &vgg,
            0,
            2,
            PartitionOption::Split {
                dim: PartDim::Height,
                parts: 4,
            },
        )
        .unwrap();
        assert_eq!(split.partitions.len(), 4);
        // Redundant halo work makes the split total exceed the single total.
        assert!(split.total_flops() > single.total_flops());
        // ...but not by much for a 2-layer group.
        assert!((split.total_flops() as f64) < single.total_flops() as f64 * 1.1);
        // Every partition replicates the full group weights.
        for p in &split.partitions {
            assert_eq!(p.weight_bytes, single.partitions[0].weight_bytes);
        }
        // Interior partitions ship more input (halos) than out_len/total of
        // the input.
        let total_in: u64 = split.partitions.iter().map(|p| p.input_bytes).sum();
        assert!(total_in > single.partitions[0].input_bytes);
    }

    #[test]
    fn channel_split_divides_weights_not_input() {
        let vgg = zoo::vgg11();
        let single = analyze_group(&vgg, 0, 1, PartitionOption::Single).unwrap();
        let split = analyze_group(
            &vgg,
            0,
            1,
            PartitionOption::Split {
                dim: PartDim::Channel,
                parts: 4,
            },
        )
        .unwrap();
        let w_total: u64 = split.partitions.iter().map(|p| p.weight_bytes).sum();
        let w_single = single.partitions[0].weight_bytes;
        assert!((w_total as i64 - w_single as i64).unsigned_abs() <= 8);
        for p in &split.partitions {
            // Full input to each worker.
            assert_eq!(p.input_bytes, single.partitions[0].input_bytes);
            assert!(p.weight_bytes < w_single);
        }
        // No redundant compute for channel splits.
        let f_split = split.total_flops();
        let f_single = single.total_flops();
        assert!((f_split as f64 - f_single as f64).abs() / (f_single as f64) < 0.01);
    }

    #[test]
    fn dense_channel_split_shares_output_units() {
        let vgg = zoo::vgg11();
        let n = vgg.layers().len();
        let dense_idx = n - 3; // fc6
        let split = analyze_group(
            &vgg,
            dense_idx,
            dense_idx + 1,
            PartitionOption::Split {
                dim: PartDim::Channel,
                parts: 8,
            },
        )
        .unwrap();
        assert_eq!(split.partitions.len(), 8);
        let single =
            analyze_group(&vgg, dense_idx, dense_idx + 1, PartitionOption::Single).unwrap();
        // fc6 is 4096 units: each of 8 partitions holds 1/8 of ~411 MB.
        let w = split.partitions[0].weight_bytes;
        assert!((w as f64 - single.partitions[0].weight_bytes as f64 / 8.0).abs() < 1e5);
    }

    #[test]
    fn residual_stage_group_is_spatial_only() {
        let resnet = zoo::resnet34();
        // Layers 2..5: residual blocks (merged). Multi-conv blocks are not
        // channel-splittable.
        let opts = group_options(&resnet, 2, 5, &[2, 4]);
        assert!(opts.iter().all(|o| !matches!(
            o,
            PartitionOption::Split {
                dim: PartDim::Channel,
                ..
            }
        )));
        assert!(opts.len() > 1, "expected spatial options, got {opts:?}");
    }

    #[test]
    fn mobilenet_separable_chains_are_channel_partitionable() {
        // [pointwise conv, depthwise conv] groups: the pointwise head splits
        // its filter bank, the depthwise layer chains channel-locally — a
        // channel-partitionable multi-layer group the paper's models lack.
        let model = zoo::mobilenet();
        let pw_idx = model
            .layers()
            .iter()
            .position(|l| l.name.ends_with("_pw"))
            .expect("pointwise layer");
        // The next layer is the following block's depthwise conv.
        assert!(model.layers()[pw_idx + 1].name.ends_with("_dw"));
        let opts = group_options(&model, pw_idx, pw_idx + 2, &[2, 4]);
        assert!(
            opts.contains(&PartitionOption::Split {
                dim: PartDim::Channel,
                parts: 4
            }),
            "got {opts:?}"
        );
        // Channel split divides the weights of BOTH layers and ships the
        // full group input to every worker.
        let split = analyze_group(
            &model,
            pw_idx,
            pw_idx + 2,
            PartitionOption::Split {
                dim: PartDim::Channel,
                parts: 4,
            },
        )
        .unwrap();
        let single = analyze_group(&model, pw_idx, pw_idx + 2, PartitionOption::Single).unwrap();
        let w_total: u64 = split.partitions.iter().map(|p| p.weight_bytes).sum();
        assert!(w_total.abs_diff(single.partitions[0].weight_bytes) <= 8);
        for p in &split.partitions {
            assert_eq!(p.input_bytes, single.partitions[0].input_bytes);
        }
    }

    #[test]
    fn analyze_rejects_invalid_combinations() {
        let rnn = zoo::rnn(2);
        assert!(analyze_group(
            &rnn,
            0,
            1,
            PartitionOption::Split {
                dim: PartDim::Height,
                parts: 2
            }
        )
        .is_err());
        let vgg = zoo::vgg11();
        assert!(analyze_group(&vgg, 0, 0, PartitionOption::Single).is_err());
        assert!(analyze_group(
            &vgg,
            0,
            1,
            PartitionOption::Split {
                dim: PartDim::Height,
                parts: 1
            }
        )
        .is_err());
    }

    /// The from-scratch analysis the walker replaced, kept as the oracle:
    /// every group is walked whole, head to tail, as the paper describes it.
    mod reference {
        use super::super::*;

        /// Whether the group can be channel-partitioned: either every layer is
        /// channel-local (slice input channels through), or the head splits its
        /// weights and the remaining layers are channel-local.
        fn group_channel_mode(layers: &[MergedLayer]) -> Option<ChannelMode> {
            if layers.iter().all(|l| l.class.channel_local()) {
                return Some(ChannelMode::AllLocal);
            }
            let (head, rest) = layers.split_first()?;
            if head.class.channel_splittable() && rest.iter().all(|l| l.class.channel_local()) {
                return Some(ChannelMode::SplitHead);
            }
            None
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum ChannelMode {
            /// Head layer's weights are split; full input shipped to every worker.
            SplitHead,
            /// Every layer passes channels through; input channels are sliced.
            AllLocal,
        }

        pub(super) fn analyze(
            layers: &[MergedLayer],
            per_layer_flops: &[Vec<(EffClass, u64)>],
            start: usize,
            end: usize,
            option: PartitionOption,
        ) -> Result<GroupAnalysis> {
            if layers.is_empty() {
                return Err(CoreError::InvalidArgument("empty group".into()));
            }
            let partitions = match option {
                PartitionOption::Single => vec![whole_group_work(layers, per_layer_flops)],
                PartitionOption::Split { dim, parts } => {
                    if parts < 2 {
                        return Err(CoreError::InvalidArgument(
                            "split needs at least two parts".into(),
                        ));
                    }
                    match dim {
                        PartDim::Height | PartDim::Width => {
                            if !group_is_spatial(layers) {
                                return Err(CoreError::InvalidArgument(format!(
                                    "group {start}..{end} is not spatially partitionable"
                                )));
                            }
                            spatial_partition_work(layers, per_layer_flops, dim, parts)?
                        }
                        PartDim::Channel => {
                            let mode = group_channel_mode(layers).ok_or_else(|| {
                                CoreError::InvalidArgument(format!(
                                    "group {start}..{end} is not channel-partitionable"
                                ))
                            })?;
                            channel_partition_work(layers, per_layer_flops, parts, mode)?
                        }
                    }
                }
            };
            Ok(GroupAnalysis { option, partitions })
        }

        /// The whole group as a single partition.
        fn whole_group_work(
            layers: &[MergedLayer],
            per_layer_flops: &[Vec<(EffClass, u64)>],
        ) -> PartitionWork {
            let mut flops: Vec<(EffClass, u64)> = Vec::new();
            for table in per_layer_flops {
                for &(class, f) in table {
                    merge_flops(&mut flops, class, f);
                }
            }
            PartitionWork {
                flops,
                weight_bytes: layers.iter().map(|l| l.weight_bytes).sum(),
                input_bytes: layers[0].in_bytes(),
                output_bytes: layers[layers.len() - 1].out_bytes(),
            }
        }

        /// Spatial split: walk output ranges backward through the group's receptive
        /// fields, accumulating per-layer fractional FLOPs (halo redundancy falls
        /// out naturally) and the input slice each partition needs.
        fn spatial_partition_work(
            layers: &[MergedLayer],
            per_layer_flops: &[Vec<(EffClass, u64)>],
            dim: PartDim,
            parts: usize,
        ) -> Result<Vec<PartitionWork>> {
            let dim_idx = match dim {
                PartDim::Height => 1,
                PartDim::Width => 2,
                PartDim::Channel => unreachable!("channel handled separately"),
            };
            let last = &layers[layers.len() - 1];
            let out_extent = last.out_shape.dims()[dim_idx];
            let group_weights: u64 = layers.iter().map(|l| l.weight_bytes).sum();

            let mut out = Vec::with_capacity(parts);
            for range in balanced_ranges(out_extent, parts) {
                let out_len = range.len();
                let mut flops: Vec<(EffClass, u64)> = Vec::new();
                // Current range, in the *output* coordinates of the layer being
                // visited (walking backward).
                let mut cur = range.clone();
                for (li, layer) in layers.iter().enumerate().rev() {
                    let extent = layer.out_shape.dims()[dim_idx];
                    let frac = cur.len() as f64 / extent as f64;
                    for &(class, f) in &per_layer_flops[li] {
                        merge_flops(&mut flops, class, (f as f64 * frac).round() as u64);
                    }
                    let rf = layer.class.receptive_field().ok_or_else(|| {
                        CoreError::InvalidArgument("non-spatial layer in spatial group".into())
                    })?;
                    let in_extent = layer.in_shape.dims()[dim_idx];
                    let (in_range, _, _) = rf.input_rows(cur.clone(), in_extent);
                    cur = in_range;
                }
                // `cur` is now the required slice of the group input.
                let in_shape = layers[0].in_shape.dims();
                let other_in: usize = in_shape
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != dim_idx)
                    .map(|(_, &d)| d)
                    .product();
                let out_shape = last.out_shape.dims();
                let other_out: usize = out_shape
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != dim_idx)
                    .map(|(_, &d)| d)
                    .product();
                out.push(PartitionWork {
                    flops,
                    // Spatial partitions replicate the full group weights.
                    weight_bytes: group_weights,
                    input_bytes: 4 * (cur.len() * other_in) as u64,
                    output_bytes: 4 * (out_len * other_out) as u64,
                });
            }
            Ok(out)
        }

        /// Channel split: the head's weights are divided across partitions (or, for
        /// all-local groups, the input channels are sliced); downstream layers scale
        /// proportionally.
        fn channel_partition_work(
            layers: &[MergedLayer],
            per_layer_flops: &[Vec<(EffClass, u64)>],
            parts: usize,
            mode: ChannelMode,
        ) -> Result<Vec<PartitionWork>> {
            let last = &layers[layers.len() - 1];
            let out_extent = last.out_shape.dims()[0];
            let in_bytes_full = layers[0].in_bytes();
            let out_bytes_full = last.out_bytes();

            let mut out = Vec::with_capacity(parts);
            for range in balanced_ranges(out_extent, parts) {
                let frac = range.len() as f64 / out_extent as f64;
                let mut flops: Vec<(EffClass, u64)> = Vec::new();
                let mut weight_bytes = 0u64;
                for (li, layer) in layers.iter().enumerate() {
                    for &(class, f) in &per_layer_flops[li] {
                        merge_flops(&mut flops, class, (f as f64 * frac).round() as u64);
                    }
                    weight_bytes += (layer.weight_bytes as f64 * frac).round() as u64;
                }
                let input_bytes = match mode {
                    // Weight-split heads consume the entire input (Fig 2b).
                    ChannelMode::SplitHead => in_bytes_full,
                    ChannelMode::AllLocal => (in_bytes_full as f64 * frac).round() as u64,
                };
                out.push(PartitionWork {
                    flops,
                    weight_bytes,
                    input_bytes,
                    output_bytes: (out_bytes_full as f64 * frac).round() as u64,
                });
            }
            Ok(out)
        }
    }

    /// The catalog of `gillis::serving::model_catalog`.
    pub(crate) fn catalog() -> Vec<LinearModel> {
        let mut models = vec![
            zoo::vgg11(),
            zoo::vgg16(),
            zoo::vgg19(),
            zoo::resnet34(),
            zoo::resnet50(),
            zoo::resnet101(),
            zoo::mobilenet(),
            zoo::tiny_vgg(),
            zoo::tiny_resnet(),
            zoo::tiny_inception(),
            zoo::tiny_mobilenet(),
        ];
        models.extend(
            [3, 4, 5]
                .into_iter()
                .flat_map(|w| [zoo::wrn34(w), zoo::wrn50(w)]),
        );
        models.extend([3, 6, 9, 12, 18].map(zoo::rnn));
        models
    }

    #[test]
    fn walker_matches_the_from_scratch_analysis_on_every_catalog_group() {
        let degrees = [2, 3, 4, 6, 8, 12, 16];
        let models = catalog();
        assert_eq!(models.len(), 22);
        for model in &models {
            let flops = ModelFlops::new(model);
            let n = model.layers().len();
            for end in 1..=n {
                let (layers, tables) = (&model.layers()[..end], flops.layers(0, end));
                let mut walkers: Vec<GroupWalker> = group_options(model, end - 1, end, &degrees)
                    .into_iter()
                    .map(|option| GroupWalker::new(layers, tables, option))
                    .collect();
                for start in (0..end).rev() {
                    let at = format!("{} {start}..{end}", model.name());
                    // A walker dies exactly when its option leaves the set.
                    walkers.retain_mut(|w| w.extend().is_ok());
                    let alive: Vec<_> = walkers.iter().map(|w| w.analysis().option).collect();
                    assert_eq!(alive, group_options(model, start, end, &degrees), "{at}");
                    for walker in &walkers {
                        let option = walker.analysis().option;
                        let expected = reference::analyze(
                            &layers[start..],
                            &tables[start..],
                            start,
                            end,
                            option,
                        )
                        .unwrap();
                        // Equality covers the order of the `flops` entries.
                        assert_eq!(walker.analysis(), &expected, "{at} {option}");
                        let direct = analyze_group(model, start, end, option).unwrap();
                        assert_eq!(direct, expected, "{at} {option}");
                    }
                }
            }
        }
    }

    #[test]
    fn hoisted_flops_table_matches_direct_analysis() {
        for model in [zoo::vgg11(), zoo::resnet34(), zoo::mobilenet(), zoo::rnn(3)] {
            let flops = ModelFlops::new(&model);
            assert_eq!(flops.len(), model.layers().len());
            let n = model.layers().len();
            for start in 0..n {
                for end in start + 1..=(start + 3).min(n) {
                    for option in group_options(&model, start, end, &[2, 4, 8]) {
                        let direct = analyze_group(&model, start, end, option).unwrap();
                        let hoisted =
                            analyze_group_with(&model, &flops, start, end, option).unwrap();
                        assert_eq!(direct, hoisted, "{} {start}..{end} {option}", model.name());
                    }
                }
            }
        }
    }

    #[test]
    fn option_display() {
        assert_eq!(PartitionOption::Single.to_string(), "single");
        assert_eq!(
            PartitionOption::Split {
                dim: PartDim::Height,
                parts: 8
            }
            .to_string(),
            "Hx8"
        );
        assert_eq!(
            PartitionOption::Split {
                dim: PartDim::Channel,
                parts: 4
            }
            .to_string(),
            "Cx4"
        );
    }
}
