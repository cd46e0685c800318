//! Reference executor: the unpartitioned forward pass.
//!
//! This module stands in for the paper's MXNet backend. It is the oracle a
//! partitioned plan is held to: every compiled piece of every group, stitched
//! back together, must carry the bits [`Executor::forward`] computes — the
//! property that makes Gillis's partitioning accuracy-lossless. Partitions
//! themselves are cut and run by [`crate::compiled`].
//!
//! Evaluation is *planned*, not demand-driven: the nodes of a segment are
//! evaluated once each, in topological order, and a value is dropped after
//! its last consumer has read it.

use std::collections::HashMap;

use gillis_tensor::ops::{
    batch_norm, conv2d, dense, depthwise_conv2d, global_avg_pool, lstm_sequence, max_pool2d, relu,
    BatchNormParams, Conv2dParams, Pool2dParams,
};
use gillis_tensor::{Shape, Tensor};

use crate::error::ModelError;
use crate::graph::{Graph, NodeId};
use crate::linear::{LinearModel, MergedLayer};
use crate::op::LayerOp;
use crate::weights::{ModelWeights, NodeWeights};
use crate::Result;

/// Executes (sub-)models against materialized weights.
#[derive(Debug, Clone, Copy)]
pub struct Executor<'a> {
    graph: &'a Graph,
    weights: &'a ModelWeights,
}

impl<'a> Executor<'a> {
    /// Creates an executor over a graph and its weights.
    pub fn new(graph: &'a Graph, weights: &'a ModelWeights) -> Self {
        Executor { graph, weights }
    }

    /// Runs the whole model on a query tensor.
    ///
    /// # Errors
    ///
    /// Propagates kernel and weight errors.
    pub fn forward(&self, model: &LinearModel, input: &Tensor) -> Result<Tensor> {
        self.run_segment(model.layers(), input)
    }

    /// Runs a consecutive segment of merged layers on the segment's input.
    /// Consumers are counted up front, so a value (the input included) is
    /// freed as soon as its last consumer has run.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unsupported`] for an empty segment and
    /// propagates kernel and weight errors.
    pub fn run_segment(&self, layers: &[MergedLayer], input: &Tensor) -> Result<Tensor> {
        let chain: Vec<NodeId> = layers.iter().flat_map(|l| &l.nodes).copied().collect();
        let first = chain
            .first()
            .ok_or_else(|| ModelError::Unsupported("empty segment".into()))?;
        let node = self.graph.node(*first)?;
        let seed = node.inputs.first().copied().ok_or_else(|| {
            ModelError::BadWiring(format!("segment head {} has no input", node.name))
        })?;
        let mut uses: HashMap<NodeId, usize> = HashMap::new();
        for &id in &chain {
            for &i in &self.graph.node(id)?.inputs {
                *uses.entry(i).or_default() += 1;
            }
        }
        let mut values: HashMap<NodeId, Tensor> = HashMap::new();
        values.insert(seed, input.clone());
        for &id in &chain {
            let node = self.graph.node(id)?;
            let inputs: Vec<&Tensor> = node
                .inputs
                .iter()
                .map(|i| {
                    values.get(i).ok_or_else(|| {
                        ModelError::BadWiring(format!("value for node {} missing", i.0))
                    })
                })
                .collect::<Result<_>>()?;
            let out = self.eval_node(id, &inputs)?;
            for i in &node.inputs {
                let left = uses.get_mut(i).expect("every input was counted");
                *left -= 1;
                if *left == 0 {
                    values.remove(i);
                }
            }
            values.insert(id, out);
        }
        Ok(values
            .remove(&chain[chain.len() - 1])
            .expect("the last node was evaluated"))
    }

    /// Evaluates one node on the values of its graph inputs.
    fn eval_node(&self, id: NodeId, inputs: &[&Tensor]) -> Result<Tensor> {
        let node = self.graph.node(id)?;
        match &node.op {
            LayerOp::Input { .. } => Err(ModelError::Unsupported(
                "input node is seeded, not evaluated".into(),
            )),
            LayerOp::Conv2d {
                kernel,
                stride,
                padding,
                ..
            } => {
                let (w, b) = self.conv_weights(id)?;
                let params = Conv2dParams::square(*kernel, *stride, *padding);
                Ok(conv2d(inputs[0], w, Some(b), &params)?)
            }
            LayerOp::DepthwiseConv2d {
                kernel,
                stride,
                padding,
            } => {
                let (w, b) = self.depthwise_weights(id)?;
                let params = Conv2dParams::square(*kernel, *stride, *padding);
                Ok(depthwise_conv2d(inputs[0], w, Some(b), &params)?)
            }
            LayerOp::BatchNorm => Ok(batch_norm(inputs[0], self.bn_weights(id)?)?),
            LayerOp::Relu => Ok(relu(inputs[0])),
            LayerOp::MaxPool2d {
                kernel,
                stride,
                padding,
            } => Ok(max_pool2d(
                inputs[0],
                &Pool2dParams::square(*kernel, *stride, *padding),
            )?),
            LayerOp::GlobalAvgPool => Ok(global_avg_pool(inputs[0])?),
            LayerOp::Flatten => {
                let len = inputs[0].shape().len();
                Ok(inputs[0].clone().reshape(Shape::new(vec![len]))?)
            }
            LayerOp::Dense { .. } => {
                let (w, b) = self.dense_weights(id)?;
                Ok(dense(inputs[0], w, Some(b))?)
            }
            LayerOp::Add => Ok(inputs[0].add(inputs[1])?),
            LayerOp::Concat => Ok(Tensor::concat(inputs, 0)?),
            LayerOp::Lstm { .. } => Ok(lstm_sequence(inputs[0], self.lstm_weights(id)?)?.0),
        }
    }

    fn conv_weights(&self, id: NodeId) -> Result<(&Tensor, &Tensor)> {
        match self.weights.get(id)? {
            NodeWeights::Conv { weight, bias } => Ok((weight, bias)),
            _ => Err(ModelError::BadWeights(format!(
                "node {} expected conv weights",
                id.0
            ))),
        }
    }

    fn depthwise_weights(&self, id: NodeId) -> Result<(&Tensor, &Tensor)> {
        match self.weights.get(id)? {
            NodeWeights::Depthwise { weight, bias } => Ok((weight, bias)),
            _ => Err(ModelError::BadWeights(format!(
                "node {} expected depthwise weights",
                id.0
            ))),
        }
    }

    fn bn_weights(&self, id: NodeId) -> Result<&BatchNormParams> {
        match self.weights.get(id)? {
            NodeWeights::Bn(p) => Ok(p),
            _ => Err(ModelError::BadWeights(format!(
                "node {} expected batch-norm weights",
                id.0
            ))),
        }
    }

    fn dense_weights(&self, id: NodeId) -> Result<(&Tensor, &Tensor)> {
        match self.weights.get(id)? {
            NodeWeights::Dense { weight, bias } => Ok((weight, bias)),
            _ => Err(ModelError::BadWeights(format!(
                "node {} expected dense weights",
                id.0
            ))),
        }
    }

    fn lstm_weights(&self, id: NodeId) -> Result<&gillis_tensor::ops::LstmParams> {
        match self.weights.get(id)? {
            NodeWeights::Lstm(p) => Ok(p),
            _ => Err(ModelError::BadWeights(format!(
                "node {} expected lstm weights",
                id.0
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::ops::Range;

    use super::*;
    use crate::compiled::{CompiledSegment, PanelCache, PieceSpec};
    use crate::weights::init_weights;
    use crate::zoo;

    fn query(shape: &Shape, seed: u64) -> Tensor {
        let mut x = seed;
        Tensor::from_fn(shape.clone(), |_| {
            // xorshift for a cheap deterministic pattern
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x % 1000) as f32 / 500.0) - 1.0
        })
    }

    /// What the compiled piece `spec` of the group `seg` computes on `input`
    /// — one fork-join worker's share.
    fn piece(
        exec: &Executor<'_>,
        seg: &[MergedLayer],
        spec: PieceSpec,
        input: &Tensor,
    ) -> Result<Tensor> {
        let mut cache = PanelCache::new();
        let mut piece = CompiledSegment::compile(exec.graph, exec.weights, seg, &spec, &mut cache)?;
        let out = piece.run(exec.weights, input.data())?.to_vec();
        Ok(Tensor::from_vec(piece.out_shape().clone(), out)?)
    }

    /// The `n` balanced pieces of `seg` along `dim` (0 channels, 1 rows, 2
    /// columns), stitched in order.
    fn stitched(
        exec: &Executor<'_>,
        seg: &[MergedLayer],
        input: &Tensor,
        dim: usize,
        n: usize,
    ) -> Tensor {
        let extent = seg[seg.len() - 1].out_shape.dims()[dim];
        let spec = |r: Range<usize>| match dim {
            0 => PieceSpec::Channels(r),
            1 => PieceSpec::Rows(r),
            _ => PieceSpec::Cols(r),
        };
        let parts: Vec<Tensor> = (0..n)
            .map(|p| p * extent / n..(p + 1) * extent / n)
            .filter(|r| !r.is_empty())
            .map(|r| piece(exec, seg, spec(r), input).unwrap())
            .collect();
        Tensor::concat(&parts, dim).unwrap()
    }

    fn assert_bits_eq(a: &Tensor, b: &Tensor, what: &str) {
        assert_eq!(a.shape(), b.shape(), "{what}");
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}");
        }
    }

    /// The leading run of spatial merged layers of `model`.
    fn spatial(model: &LinearModel) -> Vec<MergedLayer> {
        let layers = model.layers().iter();
        layers
            .take_while(|l| l.class.supports_spatial())
            .cloned()
            .collect()
    }

    #[test]
    fn full_forward_produces_logits() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 3).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 11);
        let out = exec.forward(&model, &input).unwrap();
        assert_eq!(out.shape().dims(), &[10]);
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn segment_composition_equals_full_forward() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 5).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 4);
        let full = exec.forward(&model, &input).unwrap();
        // Split the merged-layer chain at every point and compose.
        let layers = model.layers();
        for split in 1..layers.len() {
            let mid = exec.run_segment(&layers[..split], &input).unwrap();
            let out = exec.run_segment(&layers[split..], &mid).unwrap();
            assert!(
                full.max_abs_diff(&out).unwrap() < 1e-4,
                "split at {split} diverged"
            );
        }
    }

    #[test]
    fn row_partitioned_segment_equals_full() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 9).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 2);
        // First two merged layers (conv group + pool) are spatial.
        let spatial = spatial(&model);
        assert!(spatial.len() >= 2);
        let seg = &spatial[..2];
        let full = exec.run_segment(seg, &input).unwrap();
        for n in [2usize, 4] {
            let out = stitched(&exec, seg, &input, 1, n);
            assert_bits_eq(&full, &out, &format!("{n}-way row partition"));
        }
    }

    #[test]
    fn row_partitioned_residual_blocks_equal_full() {
        // Every group of consecutive spatial layers of the two branching
        // models — residual blocks with identity, strided and projection
        // shortcuts, inception modules — split 2, 3, 4 and 8 ways along
        // either spatial dimension, stitches back to the unpartitioned
        // output bit for bit.
        for (model, seed) in [(zoo::tiny_resnet(), 13), (zoo::tiny_inception(), 15)] {
            let weights = init_weights(model.graph(), seed).unwrap();
            let exec = Executor::new(model.graph(), &weights);
            let spatial = spatial(&model);
            assert!(spatial.len() >= 3, "{}", model.name());
            let mut seg_input = query(model.input_shape(), 8);
            for start in 0..spatial.len() {
                for end in start + 1..=spatial.len() {
                    let seg = &spatial[start..end];
                    let full = exec.run_segment(seg, &seg_input).unwrap();
                    for dim in [1usize, 2] {
                        for n in [2usize, 3, 4, 8] {
                            let out = stitched(&exec, seg, &seg_input, dim, n);
                            let what = format!(
                                "{} layers {start}..{end}, dim {dim}, {n} parts",
                                model.name()
                            );
                            assert_bits_eq(&full, &out, &what);
                        }
                    }
                }
                seg_input = exec
                    .run_segment(&spatial[start..start + 1], &seg_input)
                    .unwrap();
            }
        }
    }

    #[test]
    fn col_partitioned_segment_equals_full() {
        // Width partitioning must match height partitioning in rigor: same
        // halo math along dimension 2.
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 14).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 12);
        let seg = &spatial(&model)[..2];
        let full = exec.run_segment(seg, &input).unwrap();
        for n in [2usize, 4] {
            let out = stitched(&exec, seg, &input, 2, n);
            assert_bits_eq(&full, &out, &format!("{n}-way column partition"));
        }
    }

    #[test]
    fn channel_partitioned_conv_group_equals_full() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 21).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 5);
        // Head conv merged layer is channel-splittable.
        let seg = &model.layers()[..1];
        assert!(seg[0].class.channel_splittable());
        let full = exec.run_segment(seg, &input).unwrap();
        assert_bits_eq(&full, &stitched(&exec, seg, &input, 0, 2), "conv channels");
    }

    #[test]
    fn channel_partitioned_dense_equals_full() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 22).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let layers = model.layers();
        // Last merged layer is flatten+fc2 (DenseLike).
        let dense_idx = layers.len() - 1;
        let seg = &layers[dense_idx..];
        let input = exec
            .run_segment(&layers[..dense_idx], &query(model.input_shape(), 6))
            .unwrap();
        let full = exec.run_segment(seg, &input).unwrap();
        assert_bits_eq(&full, &stitched(&exec, seg, &input, 0, 2), "dense channels");
    }

    #[test]
    fn rnn_segment_placement_equals_full() {
        // Split a 3-layer RNN between functions: output must be identical.
        let mut g = Graph::new();
        let input = g
            .add(
                "input",
                LayerOp::Input {
                    shape: Shape::new(vec![4, 8]),
                },
                &[],
            )
            .unwrap();
        let l1 = g
            .add("lstm1", LayerOp::Lstm { hidden: 8 }, &[input])
            .unwrap();
        let l2 = g.add("lstm2", LayerOp::Lstm { hidden: 8 }, &[l1]).unwrap();
        g.add("lstm3", LayerOp::Lstm { hidden: 8 }, &[l2]).unwrap();
        let model = crate::merge::merge_graph("rnn3", g).unwrap();
        let weights = init_weights(model.graph(), 30).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let input = query(model.input_shape(), 3);
        let full = exec.forward(&model, &input).unwrap();
        let mid = exec.run_segment(&model.layers()[..2], &input).unwrap();
        let out = exec.run_segment(&model.layers()[2..], &mid).unwrap();
        assert!(full.max_abs_diff(&out).unwrap() < 1e-5);
    }

    #[test]
    fn row_range_of_dense_is_unsupported() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 1).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        let layers = model.layers();
        let dense_seg = &layers[layers.len() - 1..];
        let fake_input = Tensor::zeros(dense_seg[0].in_shape.clone());
        for spec in [PieceSpec::Rows(0..1), PieceSpec::Cols(0..1)] {
            assert!(matches!(
                piece(&exec, dense_seg, spec, &fake_input),
                Err(ModelError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn channel_range_rejects_non_head_conv() {
        let model = zoo::tiny_vgg();
        let weights = init_weights(model.graph(), 1).unwrap();
        let exec = Executor::new(model.graph(), &weights);
        // Segment of two conv merged layers: second conv is not channel-local,
        // so channel partitioning the pair must fail.
        let layers = model.layers();
        let conv_indices: Vec<usize> = layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.class.channel_splittable() && l.class.supports_spatial())
            .map(|(i, _)| i)
            .collect();
        // tiny-vgg: conv2 (idx 2) and conv3 (idx 3) are adjacent convs.
        let w = conv_indices
            .windows(2)
            .find(|w| w[1] == w[0] + 1)
            .expect("adjacent convs in tiny-vgg");
        let seg = &layers[w[0]..=w[1]];
        let input = Tensor::zeros(seg[0].in_shape.clone());
        assert!(matches!(
            piece(&exec, seg, PieceSpec::Channels(0..4), &input),
            Err(ModelError::Unsupported(_))
        ));
    }
}
