//! The merging pass: element-wise folding and branch merging (paper §III-C).
//!
//! Gillis transforms an arbitrary DNN graph into a *linear* chain before
//! partitioning: element-wise layers (ReLU, batch norm) are folded
//! into the preceding weight-intensive layer, and branch modules (residual
//! blocks, inception modules) are merged into a single layer (paper Fig 5).
//! This pass implements exactly that transformation and additionally derives
//! each merged layer's partitioning class from tensor dependencies (Fig 6).

use gillis_tensor::Shape;

use crate::error::ModelError;
use crate::graph::{Graph, Node, NodeId};
use crate::linear::{LayerClass, LinearModel, MergedLayer, ReceptiveField};
use crate::op::LayerOp;
use crate::Result;

/// Runs the merging pass over `graph`, producing a linear model.
///
/// # Errors
///
/// Returns [`ModelError::Unmergeable`] when the graph violates the pass's
/// structural assumptions: the first node must be the unique [`LayerOp::Input`],
/// branch modules must be single-entry/single-exit with chain-shaped arms
/// reconverging on one `Add`/`Concat`, and nested branches are not supported
/// (none of the paper's benchmark models need them).
pub fn merge_graph(name: impl Into<String>, graph: Graph) -> Result<LinearModel> {
    let nodes = graph.nodes();
    let first = nodes
        .first()
        .ok_or_else(|| ModelError::Unmergeable("empty graph".into()))?;
    let input_shape = match &first.op {
        LayerOp::Input { shape } => shape.clone(),
        _ => {
            return Err(ModelError::Unmergeable(
                "first node must be the model input".into(),
            ))
        }
    };
    if nodes
        .iter()
        .skip(1)
        .any(|n| matches!(n.op, LayerOp::Input { .. }))
    {
        return Err(ModelError::Unmergeable("multiple input nodes".into()));
    }

    let output_id = graph.output()?.id;
    let mut layers = Vec::new();
    let mut spine = first.id;

    while spine != output_id {
        let merged = next_merged_layer(&graph, spine)?;
        spine = *merged.nodes.last().expect("merged layer is non-empty");
        layers.push(merged);
    }

    Ok(LinearModel::new(name, graph, layers, input_shape))
}

/// Parses the next merged layer starting after spine node `prev`.
fn next_merged_layer(graph: &Graph, prev: NodeId) -> Result<MergedLayer> {
    let consumers = graph.consumers(prev);
    let merged_nodes = match consumers.len() {
        0 => {
            return Err(ModelError::Unmergeable(format!(
                "node {} has no consumers but is not the output",
                prev.0
            )))
        }
        1 => parse_chain(graph, consumers[0])?,
        _ => parse_branch_module(graph, prev, &consumers)?,
    };
    build_merged(graph, prev, merged_nodes)
}

/// Parses a chain-shaped merged layer: one head compute node plus any
/// following single-consumer element-wise nodes. A `Flatten` head is fused
/// forward into the dense layer it feeds.
fn parse_chain(graph: &Graph, head: NodeId) -> Result<Vec<NodeId>> {
    let head_node = graph.node(head)?;
    if head_node.inputs.len() > 1 {
        return Err(ModelError::Unmergeable(format!(
            "unexpected join node {} on the spine",
            head_node.name
        )));
    }
    let mut nodes = vec![head];
    let mut tail = head;
    if matches!(head_node.op, LayerOp::Flatten) {
        // Flatten must feed exactly one dense layer; fuse them.
        let cs = graph.consumers(head);
        let dense = match cs.as_slice() {
            [only] => *only,
            _ => {
                return Err(ModelError::Unmergeable(
                    "flatten must have exactly one consumer".into(),
                ))
            }
        };
        if !matches!(graph.node(dense)?.op, LayerOp::Dense { .. }) {
            return Err(ModelError::Unmergeable(
                "flatten must feed a dense layer".into(),
            ));
        }
        nodes.push(dense);
        tail = dense;
    }
    absorb_element_wise(graph, &mut nodes, &mut tail)?;
    Ok(nodes)
}

/// Parses a branch module: `prev`'s consumers fan out into chain-shaped arms
/// that reconverge on a single Add/Concat join.
fn parse_branch_module(graph: &Graph, prev: NodeId, consumers: &[NodeId]) -> Result<Vec<NodeId>> {
    let mut all_nodes: Vec<NodeId> = Vec::new();
    let mut join: Option<NodeId> = None;
    for &arm_head in consumers {
        let arm_head_node = graph.node(arm_head)?;
        if arm_head_node.inputs.len() > 1 {
            // `prev` feeds the join directly: identity shortcut.
            record_join(&mut join, arm_head)?;
            continue;
        }
        // Walk the arm until the next node is a join.
        let mut cur = arm_head;
        loop {
            all_nodes.push(cur);
            let cs = graph.consumers(cur);
            let next = match cs.as_slice() {
                [only] => *only,
                _ => {
                    return Err(ModelError::Unmergeable(
                        "nested branches are not supported".into(),
                    ))
                }
            };
            if graph.node(next)?.inputs.len() > 1 {
                record_join(&mut join, next)?;
                break;
            }
            cur = next;
        }
    }
    let join = join.ok_or_else(|| ModelError::Unmergeable("branch module has no join".into()))?;
    let join_node = graph.node(join)?;
    if !matches!(join_node.op, LayerOp::Add | LayerOp::Concat) {
        return Err(ModelError::Unmergeable(format!(
            "branch join {} must be add or concat",
            join_node.name
        )));
    }
    let _ = prev;
    all_nodes.sort();
    all_nodes.dedup();
    all_nodes.push(join);
    let mut tail = join;
    absorb_element_wise(graph, &mut all_nodes, &mut tail)?;
    Ok(all_nodes)
}

fn record_join(join: &mut Option<NodeId>, candidate: NodeId) -> Result<()> {
    match join {
        None => {
            *join = Some(candidate);
            Ok(())
        }
        Some(j) if *j == candidate => Ok(()),
        Some(j) => Err(ModelError::Unmergeable(format!(
            "branch arms reconverge on different joins ({} vs {})",
            j.0, candidate.0
        ))),
    }
}

/// Extends `nodes` with the chain of single-consumer element-wise nodes
/// following `tail`, updating `tail`.
fn absorb_element_wise(graph: &Graph, nodes: &mut Vec<NodeId>, tail: &mut NodeId) -> Result<()> {
    loop {
        let cs = graph.consumers(*tail);
        match cs.as_slice() {
            [only] => {
                let n = graph.node(*only)?;
                if n.op.is_element_wise() && n.inputs.len() == 1 {
                    nodes.push(*only);
                    *tail = *only;
                } else {
                    return Ok(());
                }
            }
            _ => return Ok(()),
        }
    }
}

/// Assembles the [`MergedLayer`] from its constituent node ids.
fn build_merged(graph: &Graph, prev: NodeId, nodes: Vec<NodeId>) -> Result<MergedLayer> {
    let tail = *nodes.last().expect("merged layer is non-empty");
    let in_shape = graph.node(prev)?.output_shape.clone();
    let out_shape = graph.node(tail)?.output_shape.clone();

    let mut flops = 0u64;
    let mut weight_bytes = 0u64;
    let mut conv_count = 0usize;
    let mut has_dense = false;
    let mut has_lstm = false;
    let mut has_gap = false;
    let mut has_pool = false;
    let mut has_depthwise = false;
    let mut is_branch = false;
    for &id in &nodes {
        let n = graph.node(id)?;
        let in_shapes = graph.input_shapes(n);
        flops += n.op.flops(&in_shapes, &n.output_shape);
        weight_bytes += 4 * n.op.param_count(&in_shapes, &n.output_shape);
        match n.op {
            LayerOp::Conv2d { .. } => conv_count += 1,
            LayerOp::Dense { .. } => has_dense = true,
            LayerOp::Lstm { .. } => has_lstm = true,
            LayerOp::GlobalAvgPool => has_gap = true,
            LayerOp::DepthwiseConv2d { .. } => has_depthwise = true,
            LayerOp::MaxPool2d { .. } => has_pool = true,
            LayerOp::Add | LayerOp::Concat => is_branch = true,
            _ => {}
        }
    }

    let head_name = graph.node(nodes[0])?.name.clone();
    let class = if has_lstm {
        LayerClass::Recurrent
    } else if has_dense {
        LayerClass::DenseLike
    } else if has_gap {
        LayerClass::Reduction
    } else {
        let rf = merged_receptive_field(graph, prev, &nodes)?;
        LayerClass::ConvLike {
            rf,
            // Channel partitioning splits the filter bank; that only chains
            // through when there is exactly one conv and no branch join.
            channel_splittable: conv_count == 1 && !is_branch && !has_depthwise,
            // Depthwise convolutions and pools pass channels through
            // untouched: output channel c depends only on input channel c.
            channel_local: conv_count == 0 && !is_branch && (has_pool || has_depthwise),
        }
    };

    validate_spatial_consistency(&class, &in_shape, &out_shape)?;

    Ok(MergedLayer {
        name: head_name,
        class,
        in_shape,
        out_shape,
        flops,
        weight_bytes,
        nodes,
    })
}

/// Composes the receptive field of a merged layer by walking every path from
/// `prev` to the merged tail and taking the widest composed window.
fn merged_receptive_field(graph: &Graph, prev: NodeId, nodes: &[NodeId]) -> Result<ReceptiveField> {
    // Dynamic programming over the merged sub-DAG: rf_to[n] is the composed
    // window from `prev`'s output to n's output.
    use std::collections::HashMap;
    let mut rf_to: HashMap<NodeId, ReceptiveField> = HashMap::new();
    rf_to.insert(prev, ReceptiveField::identity());
    for &id in nodes {
        let n = graph.node(id)?;
        let own = node_rf(n);
        let mut best: Option<ReceptiveField> = None;
        for &inp in &n.inputs {
            if let Some(base) = rf_to.get(&inp) {
                let composed = base.then(&own);
                best = Some(match best {
                    None => composed,
                    Some(b) => {
                        if composed.stride != b.stride {
                            return Err(ModelError::Unmergeable(format!(
                                "branch arms of {} disagree on composed stride",
                                n.name
                            )));
                        }
                        if composed.kernel >= b.kernel {
                            composed
                        } else {
                            b
                        }
                    }
                });
            }
        }
        let rf = best.ok_or_else(|| {
            ModelError::Unmergeable(format!("node {} disconnected from module input", n.name))
        })?;
        rf_to.insert(id, rf);
    }
    let tail = *nodes.last().expect("non-empty");
    Ok(rf_to[&tail])
}

/// The local window of a single node.
fn node_rf(node: &Node) -> ReceptiveField {
    match node.op {
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
        } => ReceptiveField {
            kernel,
            stride,
            padding,
        },
        _ => ReceptiveField::identity(),
    }
}

/// Sanity-checks that a ConvLike merged layer's composed receptive field
/// reproduces the inferred output height.
fn validate_spatial_consistency(
    class: &LayerClass,
    in_shape: &Shape,
    out_shape: &Shape,
) -> Result<()> {
    if let LayerClass::ConvLike { rf, .. } = class {
        let in_h = in_shape.dim(1).map_err(ModelError::Tensor)?;
        let out_h = out_shape.dim(1).map_err(ModelError::Tensor)?;
        if rf.output_rows(in_h) != out_h {
            return Err(ModelError::Unmergeable(format!(
                "composed receptive field {rf:?} predicts {} output rows, graph says {out_h}",
                rf.output_rows(in_h)
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(out_channels: usize, kernel: usize, stride: usize, padding: usize) -> LayerOp {
        LayerOp::Conv2d {
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// input -> conv -> bn -> relu -> pool -> flatten -> dense -> relu
    fn small_cnn() -> Graph {
        let mut g = Graph::new();
        let input = g
            .add(
                "input",
                LayerOp::Input {
                    shape: Shape::new(vec![3, 8, 8]),
                },
                &[],
            )
            .unwrap();
        let c = g.add("conv1", conv(4, 3, 1, 1), &[input]).unwrap();
        let b = g.add("bn1", LayerOp::BatchNorm, &[c]).unwrap();
        let r = g.add("relu1", LayerOp::Relu, &[b]).unwrap();
        let p = g
            .add(
                "pool1",
                LayerOp::MaxPool2d {
                    kernel: 2,
                    stride: 2,
                    padding: 0,
                },
                &[r],
            )
            .unwrap();
        let f = g.add("flatten", LayerOp::Flatten, &[p]).unwrap();
        let d = g
            .add("fc", LayerOp::Dense { out_features: 10 }, &[f])
            .unwrap();
        g.add("relu2", LayerOp::Relu, &[d]).unwrap();
        g
    }

    #[test]
    fn chain_merging_folds_element_wise() {
        let model = merge_graph("small", small_cnn()).unwrap();
        let layers = model.layers();
        assert_eq!(
            layers.len(),
            3,
            "{:?}",
            layers.iter().map(|l| &l.name).collect::<Vec<_>>()
        );
        // conv1 + bn + relu
        assert_eq!(layers[0].name, "conv1");
        assert_eq!(layers[0].nodes.len(), 3);
        assert!(matches!(
            layers[0].class,
            LayerClass::ConvLike {
                channel_splittable: true,
                channel_local: false,
                ..
            }
        ));
        // pool1
        assert_eq!(layers[1].name, "pool1");
        assert!(matches!(
            layers[1].class,
            LayerClass::ConvLike {
                channel_splittable: false,
                channel_local: true,
                ..
            }
        ));
        // flatten + fc + relu
        assert_eq!(layers[2].name, "flatten");
        assert_eq!(layers[2].class, LayerClass::DenseLike);
        assert_eq!(layers[2].nodes.len(), 3);
    }

    #[test]
    fn merged_shapes_chain() {
        let model = merge_graph("small", small_cnn()).unwrap();
        let layers = model.layers();
        for pair in layers.windows(2) {
            assert_eq!(pair[0].out_shape, pair[1].in_shape);
        }
        assert_eq!(layers[0].in_shape, *model.input_shape());
        assert_eq!(layers.last().unwrap().out_shape.dims(), &[10]);
    }

    /// input -> conv -> [branch: conv3x3 -> conv3x3 | identity] -> add -> relu
    fn residual_graph(downsample: bool) -> Graph {
        let mut g = Graph::new();
        let input = g
            .add(
                "input",
                LayerOp::Input {
                    shape: Shape::new(vec![4, 8, 8]),
                },
                &[],
            )
            .unwrap();
        let stem = g.add("stem", conv(8, 3, 1, 1), &[input]).unwrap();
        let stride = if downsample { 2 } else { 1 };
        let a1 = g.add("block_a1", conv(8, 3, stride, 1), &[stem]).unwrap();
        let a1r = g.add("block_a1_relu", LayerOp::Relu, &[a1]).unwrap();
        let a2 = g.add("block_a2", conv(8, 3, 1, 1), &[a1r]).unwrap();
        let shortcut = if downsample {
            g.add("block_sc", conv(8, 1, 2, 0), &[stem]).unwrap()
        } else {
            stem
        };
        let add = g.add("block_add", LayerOp::Add, &[a2, shortcut]).unwrap();
        g.add("block_relu", LayerOp::Relu, &[add]).unwrap();
        g
    }

    #[test]
    fn residual_block_merges_into_one_layer() {
        let model = merge_graph("res", residual_graph(false)).unwrap();
        let layers = model.layers();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].name, "stem");
        let block = &layers[1];
        // conv a1 + relu + conv a2 + add + relu = 5 nodes.
        assert_eq!(block.nodes.len(), 5);
        match block.class {
            LayerClass::ConvLike {
                rf,
                channel_splittable,
                channel_local,
            } => {
                // Two stacked 3x3 s1 p1 convs: k=5, s=1, p=2.
                assert_eq!(
                    rf,
                    ReceptiveField {
                        kernel: 5,
                        stride: 1,
                        padding: 2
                    }
                );
                assert!(!channel_splittable);
                assert!(!channel_local);
            }
            other => panic!("expected ConvLike, got {other:?}"),
        }
    }

    #[test]
    fn downsample_block_composes_stride() {
        let model = merge_graph("res", residual_graph(true)).unwrap();
        let block = &model.layers()[1];
        let rf = block.class.receptive_field().unwrap();
        assert_eq!(rf.stride, 2);
        assert_eq!(block.out_shape.dims(), &[8, 4, 4]);
        assert_eq!(rf.output_rows(8), 4);
    }

    #[test]
    fn lstm_chain_merges_to_recurrent_layers() {
        let mut g = Graph::new();
        let input = g
            .add(
                "input",
                LayerOp::Input {
                    shape: Shape::new(vec![5, 16]),
                },
                &[],
            )
            .unwrap();
        let l1 = g
            .add("lstm1", LayerOp::Lstm { hidden: 16 }, &[input])
            .unwrap();
        g.add("lstm2", LayerOp::Lstm { hidden: 16 }, &[l1]).unwrap();
        let model = merge_graph("rnn", g).unwrap();
        assert_eq!(model.layers().len(), 2);
        assert!(model
            .layers()
            .iter()
            .all(|l| l.class == LayerClass::Recurrent));
    }

    #[test]
    fn gap_becomes_reduction() {
        let mut g = Graph::new();
        let input = g
            .add(
                "input",
                LayerOp::Input {
                    shape: Shape::new(vec![4, 4, 4]),
                },
                &[],
            )
            .unwrap();
        let c = g.add("conv", conv(8, 3, 1, 1), &[input]).unwrap();
        let gap = g.add("gap", LayerOp::GlobalAvgPool, &[c]).unwrap();
        let f = g.add("flat", LayerOp::Flatten, &[gap]).unwrap();
        g.add("fc", LayerOp::Dense { out_features: 10 }, &[f])
            .unwrap();
        let model = merge_graph("m", g).unwrap();
        let classes: Vec<_> = model.layers().iter().map(|l| l.class).collect();
        assert_eq!(
            classes,
            vec![
                LayerClass::ConvLike {
                    rf: ReceptiveField {
                        kernel: 3,
                        stride: 1,
                        padding: 1
                    },
                    channel_splittable: true,
                    channel_local: false
                },
                LayerClass::Reduction,
                LayerClass::DenseLike
            ]
        );
    }

    #[test]
    fn rejects_graph_without_input_head() {
        let mut g = Graph::new();
        // A lone input is fine but a graph headed by something else is not.
        g.add(
            "input",
            LayerOp::Input {
                shape: Shape::new(vec![1]),
            },
            &[],
        )
        .unwrap();
        let ok = merge_graph("empty-model", g);
        // Input-only graph produces zero layers.
        assert_eq!(ok.unwrap().layers().len(), 0);
        let g2 = Graph::new();
        assert!(merge_graph("e", g2).is_err());
    }

    #[test]
    fn flops_and_weights_are_conserved_by_merging() {
        let g = small_cnn();
        let total_flops = g.sum_over_nodes(LayerOp::flops);
        let total_weights = 4 * g.sum_over_nodes(LayerOp::param_count);
        let model = merge_graph("small", g).unwrap();
        assert_eq!(model.total_flops(), total_flops);
        assert_eq!(model.weight_bytes(), total_weights);
    }
}
