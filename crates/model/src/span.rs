//! Span plans: the geometry of a spatial partition of a layer group.
//!
//! A fork-join worker computes a row (or column) range of a group's output.
//! Which rows of every intermediate value that takes is pure geometry, and it
//! is decided here, once, for both executors: [`crate::exec::Executor`]
//! evaluates a plan node by node, [`crate::compiled`] lowers it to steps.
//!
//! The plan is built in one backward pass over the group's nodes. A windowed
//! node (conv, depthwise, pool) turns the span asked of it into the span of
//! its input through [`ReceptiveField::input_rows`]; an element-wise or join
//! node (BN, ReLU, `Add`, `Concat`) passes it on unchanged. A value with
//! several consumers — the skip input of a residual block — is asked for
//! several spans; it is evaluated once, over their *hull*, and every consumer
//! reads the sub-span it needs. The forward pass therefore touches each node
//! exactly once, whatever the depth of the chain of blocks.

use std::collections::HashMap;
use std::ops::Range;

use gillis_tensor::ops::Padding;
use gillis_tensor::Shape;

use crate::error::ModelError;
use crate::graph::{Graph, NodeId};
use crate::linear::ReceptiveField;
use crate::op::LayerOp;
use crate::Result;

/// One node of a [`SpanPlan`]: what to evaluate and what to read for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// The graph node.
    pub id: NodeId,
    /// The span of the node's own output the forward pass evaluates: the
    /// hull of what its consumers read.
    pub out: Range<usize>,
    /// The span every input is read over, *relative to the span the input
    /// was itself evaluated over* (multi-input nodes read the same span of
    /// each input).
    pub reads: Vec<Range<usize>>,
    /// Zero rows the node synthesizes before its input span, where its
    /// window reaches past the true tensor border (0 for non-windowed ops).
    pub lo: usize,
    /// Zero rows synthesized after the input span.
    pub hi: usize,
}

/// The evaluation plan for one output span of a layer group along one
/// spatial dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanPlan {
    /// The span of the group input (the seed) the plan reads.
    pub seed_span: Range<usize>,
    /// The nodes to evaluate, in the group's (topological) order. Nodes no
    /// path connects to the group output are left out.
    pub nodes: Vec<SpanNode>,
}

impl SpanPlan {
    /// Plans output span `span` along `dim` (1 = rows, 2 = columns) of the
    /// group whose nodes are `chain`, in topological order, fed by `seed`
    /// with shape `seed_shape`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unsupported`] for an empty span or a node
    /// without local spatial response (dense, global pooling, LSTM — the
    /// layers Gillis's grouping rule excludes), and
    /// [`ModelError::BadWiring`] if a node reads a value produced outside
    /// the group other than the seed.
    pub fn new(
        graph: &Graph,
        chain: &[NodeId],
        seed: NodeId,
        seed_shape: &Shape,
        dim: usize,
        span: Range<usize>,
    ) -> Result<Self> {
        debug_assert!(dim == 1 || dim == 2, "span dim must be spatial");
        if span.is_empty() {
            return Err(ModelError::Unsupported("empty spatial piece".into()));
        }
        // Slot 0 is the seed, slot i + 1 is chain[i].
        let mut slot: HashMap<NodeId, usize> = chain
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i + 1))
            .collect();
        slot.insert(seed, 0);
        let mut hulls: Vec<Option<Range<usize>>> = vec![None; chain.len() + 1];
        hulls[chain.len()] = Some(span);
        // Backward: each node's hull is final once every later node has
        // been visited, so its own need can be pushed onto its inputs.
        let mut nodes = Vec::with_capacity(chain.len());
        for (i, &id) in chain.iter().enumerate().rev() {
            let Some(out) = hulls[i + 1].clone() else {
                continue;
            };
            let node = graph.node(id)?;
            let (need, lo, hi) = match &node.op {
                LayerOp::Conv2d {
                    kernel,
                    stride,
                    padding,
                    ..
                }
                | LayerOp::DepthwiseConv2d {
                    kernel,
                    stride,
                    padding,
                }
                | LayerOp::MaxPool2d {
                    kernel,
                    stride,
                    padding,
                } => {
                    let input = node.inputs[0];
                    let extent = if input == seed {
                        seed_shape.dim(dim)?
                    } else {
                        graph.node(input)?.output_shape.dim(dim)?
                    };
                    let rf = ReceptiveField {
                        kernel: *kernel,
                        stride: *stride,
                        padding: *padding,
                    };
                    rf.input_rows(out.clone(), extent)
                }
                LayerOp::BatchNorm | LayerOp::Relu | LayerOp::Add | LayerOp::Concat => {
                    (out.clone(), 0, 0)
                }
                other => {
                    return Err(ModelError::Unsupported(format!(
                        "spatial-range execution of {other:?} (no local spatial response)"
                    )))
                }
            };
            for input in &node.inputs {
                let s = *slot.get(input).filter(|&&s| s <= i).ok_or_else(|| {
                    ModelError::BadWiring(format!(
                        "node {} reads node {} from outside its group",
                        node.name, input.0
                    ))
                })?;
                hulls[s] = Some(match hulls[s].take() {
                    Some(h) if need.is_empty() => h,
                    Some(h) if !h.is_empty() => h.start.min(need.start)..h.end.max(need.end),
                    _ => need.clone(),
                });
            }
            // `reads` holds the absolute need until the hulls are final.
            nodes.push(SpanNode {
                id,
                out,
                reads: vec![need; node.inputs.len()],
                lo,
                hi,
            });
        }
        nodes.reverse();
        for sn in &mut nodes {
            for (read, input) in sn.reads.iter_mut().zip(&graph.node(sn.id)?.inputs) {
                let base = hulls[slot[input]].as_ref().map_or(0, |h| h.start);
                let need = read.clone();
                *read = if need.is_empty() {
                    0..0
                } else {
                    need.start - base..need.end - base
                };
            }
        }
        Ok(SpanPlan {
            seed_span: hulls[0].clone().unwrap_or(0..0),
            nodes,
        })
    }
}

/// Builds the asymmetric padding for a span partition: the partition pads
/// `lo`/`hi` on the partitioned dimension and keeps the full symmetric
/// padding on the other spatial dimension.
pub(crate) fn span_padding(dim: usize, lo: usize, hi: usize, full: usize) -> Padding {
    if dim == 1 {
        Padding {
            top: lo,
            bottom: hi,
            left: full,
            right: full,
        }
    } else {
        Padding {
            top: full,
            bottom: full,
            left: lo,
            right: hi,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `blocks` basic residual blocks (conv-bn-relu-conv-bn, identity skip,
    /// add, relu) on a 4×32×32 input: the seed and the group's nodes.
    fn residual_chain(blocks: usize) -> (Graph, NodeId, Vec<NodeId>) {
        let conv = LayerOp::Conv2d {
            out_channels: 4,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut g = Graph::new();
        let shape = Shape::new(vec![4, 32, 32]);
        let seed = g.add("input", LayerOp::Input { shape }, &[]).unwrap();
        let mut cur = seed;
        for _ in 0..blocks {
            let skip = cur;
            cur = g.add("conv1", conv.clone(), &[cur]).unwrap();
            cur = g.add("bn1", LayerOp::BatchNorm, &[cur]).unwrap();
            cur = g.add("relu1", LayerOp::Relu, &[cur]).unwrap();
            cur = g.add("conv2", conv.clone(), &[cur]).unwrap();
            cur = g.add("bn2", LayerOp::BatchNorm, &[cur]).unwrap();
            cur = g.add("add", LayerOp::Add, &[cur, skip]).unwrap();
            cur = g.add("relu", LayerOp::Relu, &[cur]).unwrap();
        }
        let chain = (seed.0 + 1..=cur.0).map(NodeId).collect();
        (g, seed, chain)
    }

    #[test]
    fn chained_residual_blocks_plan_one_entry_per_node() {
        // The regression test for the exponential: demand-driven recursion
        // evaluated block i of k about 2^(k-i) times.
        for blocks in 1..=8 {
            let (g, seed, chain) = residual_chain(blocks);
            let shape = g.node(seed).unwrap().output_shape.clone();
            for dim in [1, 2] {
                let plan = SpanPlan::new(&g, &chain, seed, &shape, dim, 14..18).unwrap();
                let ids: Vec<NodeId> = plan.nodes.iter().map(|n| n.id).collect();
                assert_eq!(ids, chain, "{blocks} blocks");
                // Every block widens the halo by its two 3x3 convs.
                let halo = 2 * blocks;
                let want = 14usize.saturating_sub(halo)..(18 + halo).min(32);
                assert_eq!(plan.seed_span, want, "{blocks} blocks");
            }
        }
    }

    #[test]
    fn skip_input_is_read_as_a_sub_span_of_its_hull() {
        let (g, seed, chain) = residual_chain(1);
        let shape = g.node(seed).unwrap().output_shape.clone();
        let plan = SpanPlan::new(&g, &chain, seed, &shape, 1, 14..18).unwrap();
        // The seed is evaluated over 12..20: conv1 reads all of it, the add
        // reads rows 14..18 of it, i.e. 2..6 of the hull.
        assert_eq!(plan.seed_span, 12..20);
        assert_eq!(plan.nodes[0].reads, vec![0..8]);
        let add = &plan.nodes[5];
        assert_eq!(add.out, 14..18);
        assert_eq!(add.reads, vec![0..4, 2..6]);
        // At the border the first conv pads instead of reading.
        let top = SpanPlan::new(&g, &chain, seed, &shape, 1, 0..4).unwrap();
        assert_eq!(top.seed_span, 0..6);
        assert_eq!((top.nodes[0].lo, top.nodes[0].hi), (1, 0));
        assert_eq!(top.nodes[5].reads, vec![0..4, 0..4]);
    }

    #[test]
    fn rejects_empty_spans_non_spatial_ops_and_foreign_inputs() {
        let (mut g, seed, mut chain) = residual_chain(1);
        let shape = g.node(seed).unwrap().output_shape.clone();
        assert!(matches!(
            SpanPlan::new(&g, &chain, seed, &shape, 1, 3..3),
            Err(ModelError::Unsupported(_))
        ));
        // A group that starts after conv1 reads the block input from outside.
        assert!(matches!(
            SpanPlan::new(&g, &chain[1..], chain[0], &shape, 1, 0..4),
            Err(ModelError::BadWiring(_))
        ));
        let last = *chain.last().unwrap();
        chain.push(g.add("gap", LayerOp::GlobalAvgPool, &[last]).unwrap());
        assert!(matches!(
            SpanPlan::new(&g, &chain, seed, &shape, 1, 0..1),
            Err(ModelError::Unsupported(_))
        ));
    }
}
